"""Noise-aware federated learning on softmax regression.

The pipeline: inject label noise through a transition matrix, estimate each
participant's per-class noise ratio by cross-prediction, normalize ratios by
pulling replacement data from a server pool, then train federated rounds
where aggregation weights follow each participant's measured influence. A
size-weighted baseline and a communication-round estimator with measured
constants round out the toolkit.
"""

from .contribution import (GAMMA_MIN, ContributionWeights, DegenerateAggregateError,
                           InfluenceState, contributions, decay_factor, effective_sizes,
                           influence, leave_one_out_aggregates, size_weights)
from .data import (OUT_OF_SPACE, ColumnSchema, Dataset, LabelSkew, ParseError,
                   PartitionError, SchemaError, ShuffleSplit, SplitError, concat_datasets,
                   load_dataset, partition_non_iid, save_dataset, split_three_folds,
                   synth_gaussian)
from .engine import (AggregationError, FederationConfig, RoundRecord, RunReport,
                     aggregate, record_to_dict, run_fedavg, run_fednl, server_init)
from .estimator import (ClassEstimate, EstimationError, NoiseEstimate, classify_instance,
                        estimate_noise, estimate_to_dict, format_estimate)
from .exchange import (AllocationError, DemandPlan, ExchangeResult, ExchangeTranscript,
                       apply_exchange, compute_demands, fulfill_demands, normalize_noise,
                       reestimate_seed, transcript_to_dict)
from .metrics import (MetricsSnapshot, confusion_matrix, detection_scores, evaluate,
                      format_snapshot)
from .noise import (NoiseReport, TransitionMatrix, asymmetric_matrix, inject_noise,
                    save_matrix, symmetric_matrix, with_out_of_space)
from .rounds import (BComponents, MeasurementError, NoStrongConvexityError, Optimum,
                     RoundConstants, RoundEstimate, RoundParams, SmoothnessParams,
                     compute_B, estimate_rounds, measure_b_components, measure_init_gap,
                     measure_round_constants, measure_smoothness, solve_optimum,
                     verify_rate)
from .trainer import (Constant, DatasetStack, Diminishing, DivergenceError, ModelParams,
                      TrainerConfig, gradient, init_model, loss, lr_at, predict, save_model,
                      smoothness_bound, steps_per_round, train_local)

__all__ = [name for name in dir() if not name.startswith("_")]
