"""Federated round loop: broadcast, local training, weighted aggregation.

``run_fednl`` runs the full pipeline: per-participant noise estimation,
server-assisted normalization, then rounds aggregated with influence-based
weights. FedAvg is the same loop with the ``FEDAVG`` fields: both
procedures off and ``fedavg-size`` weighting; ``run_fedavg`` is that call.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from ._rng import ESTIMATE, EXCHANGE, SERVER_INIT, SERVER_SPLIT, TRAIN, derive_rng, derive_seeds
from .contribution import (GAMMA_MIN, ContributionWeights, contributions, effective_sizes,
                           influence, size_weights)
from .data import Dataset
from .estimator import MIN_FOLD_ROWS, NoiseEstimate, estimate_many, fold_chunks
from .exchange import ExchangeTranscript, normalize_noise, reestimate_seed
from .metrics import MetricsSnapshot, evaluate
from .trainer import (DatasetStack, ModelParams, TrainerConfig, _member_losses, lr_at,
                      steps_per_round, train_local)

logger = logging.getLogger(__name__)


class AggregationError(ValueError):
    """Models cannot be aggregated (shape disagreement)."""


@dataclass(frozen=True)
class FederationConfig:
    """Everything one federated run depends on besides the datasets.

    ``weighting`` picks the aggregation rule: influence-based ("fednl") or
    proportional-to-size ("fedavg-size"). The two procedure flags gate noise
    estimation and server normalization; both on is the full pipeline.
    """

    rounds: int
    trainer: TrainerConfig
    seed: int
    procedure1: bool = True
    procedure2: bool = True
    weighting: str = "fednl"
    server_test_fraction: float = 0.2
    freeze_epsilon: bool = False
    literal_noise_adjustment: bool = False
    matrix_norm_influence: bool = False
    demand_cap: str = "size"
    per_class_resplit: bool = False
    init_scale: float = 0.01

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be positive")
        if self.weighting not in ("fednl", "fedavg-size"):
            raise ValueError(f"weighting must be 'fednl' or 'fedavg-size', got {self.weighting!r}")
        if self.demand_cap not in ("size", "z"):
            raise ValueError(f"demand_cap must be 'size' or 'z', got {self.demand_cap!r}")
        if self.procedure2 and not self.procedure1:
            raise ValueError("normalization needs estimates; enable procedure1")
        if not 0.0 <= self.server_test_fraction < 1.0:
            raise ValueError("server_test_fraction must lie in [0, 1)")
        if self.init_scale < 0.0:
            raise ValueError("init_scale must be non-negative")


#: The fields FedAvg sets: no estimation, no exchange, size weighting.
FEDAVG = {"procedure1": False, "procedure2": False, "weighting": "fedavg-size"}


@dataclass(frozen=True)
class RoundRecord:
    """One aggregation round as it happened.

    ``epsilon`` is the weight vector actually used for this round's
    aggregate; ``gamma`` the influence values computed after it (None under
    size weighting). ``global_loss`` is the epsilon-weighted sum of local
    losses; metrics fields are None when no server test split exists.
    ``learning_rates`` holds each participant's rate at its first step of
    the round (they diverge only when training-set sizes do).
    """

    t: int
    learning_rates: tuple[float, ...]
    local_losses: tuple[float, ...]
    global_loss: float
    epsilon: tuple[float, ...]
    gamma: tuple[float, ...] | None
    cumulative_epochs: int
    global_accuracy: float | None
    global_macro_f1: float | None

    def __post_init__(self):
        if abs(sum(self.epsilon) - 1.0) > 1e-9:
            raise ValueError("recorded epsilon must sum to 1")


@dataclass(frozen=True)
class RunReport:
    """Full trace of one run: every round, final models, pipeline artifacts."""

    records: tuple[RoundRecord, ...]
    global_model: ModelParams
    local_models: tuple[ModelParams, ...]
    final_metrics: MetricsSnapshot | None
    estimates: tuple[NoiseEstimate, ...] | None
    transcripts: tuple[ExchangeTranscript, ...] | None
    training_sizes: tuple[int, ...]
    betas: tuple[float, ...]
    config: FederationConfig


def aggregate(models: list[ModelParams], weights: ContributionWeights) -> ModelParams:
    """Entrywise weighted sum of the local models."""
    if len(models) != len(weights):
        raise AggregationError(f"{len(models)} models but {len(weights)} weights")
    shape = models[0].weights.shape
    for i, m in enumerate(models):
        if m.weights.shape != shape:
            raise AggregationError(
                f"model {i} has shape {m.weights.shape}, expected {shape}")
    out = sum(weights.epsilon[i] * models[i].weights for i in range(len(models)))
    return ModelParams(weights=out, class_count=models[0].class_count)


def server_init(d: int, c: int, seed: int, scale: float = 0.01) -> ModelParams:
    """Initial global model: uniform entries in [-scale, scale]."""
    weights = derive_rng(seed, SERVER_INIT).uniform(-scale, scale, (d + 1, c))
    return ModelParams(weights=weights, class_count=c)


def server_test_rows(n: int, fraction: float) -> int:
    """Rows of an n-row server dataset in its test split."""
    return int(round(fraction * n))


def _server_rows(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (transfer pool, test split) row positions of an n-row server dataset."""
    n_test = server_test_rows(n, fraction)
    order = derive_rng(seed, SERVER_SPLIT).permutation(n)
    return np.sort(order[n_test:]), np.sort(order[:n_test])


def _participant_seeds(config: FederationConfig, indices, tag: int, *extra: int) -> list[int]:
    """The seeds (config seed, tag, *extra, i) of the participants i in ``indices``."""
    return derive_seeds(config.seed, tag, *extra, np.asarray(indices)).tolist()


def _check_disjoint_ids(participant_datasets, server_dataset) -> None:
    """Refuse an id that two datasets hold.

    The error names the first dataset, participants then server, that holds
    an id of an earlier one, with its first five such ids, sorted. One
    stable sort of every id finds them: a shared id sorts first in the
    earliest dataset that holds it, and each later copy is a clash.
    """
    groups = list(participant_datasets) + ([server_dataset] if server_dataset is not None else [])
    ids = np.concatenate([ds.ids for ds in groups])
    owner = np.repeat(np.arange(len(groups)), [ds.n for ds in groups])
    order = np.argsort(ids, kind="stable")
    ids, owner = ids[order], owner[order]
    later = np.flatnonzero(ids[1:] == ids[:-1]) + 1
    if later.size:
        first = owner[later].min()
        clash = ids[later[owner[later] == first]]
        raise ValueError(
            f"instance ids are shared across datasets: {clash[:5].tolist()}; "
            "give each source its own id_base")


def _train_all(broadcast: ModelParams, train_sets, config: FederationConfig, t: int,
               step_bases: list[int]) -> tuple[list[ModelParams], list[float], list[float]]:
    """One round of local training, all participants in one lockstep call.

    Returns the models, each one's regularized loss on its own training set
    and the rates of their first steps. The losses are scored in one
    `_member_losses` pass, many participants' logits to a block, each value
    bitwise that participant's `loss`. Advances step_bases in place. An
    error names the round and the lowest-indexed failing participant, as
    training them in turn would.
    """
    trainer = config.trainer
    seeds = _participant_seeds(config, range(len(train_sets)), TRAIN, t)
    rates = [lr_at(trainer.lr_schedule, base + 1) for base in step_bases]
    try:
        models = train_local(broadcast, DatasetStack(train_sets, seeds, step_bases), trainer)
    except Exception as e:
        if not hasattr(e, "member"):
            raise
        raise type(e)(f"round {t}, participant {e.member}: {e}") from e
    losses = _member_losses([m.weights for m in models], train_sets, trainer.l2_lambda)
    for i, ds in enumerate(train_sets):
        step_bases[i] += steps_per_round(ds.n, trainer)
    return models, losses, rates


def _prepare_stacked(config: FederationConfig, views, indices, pool) -> list:
    """Procedures 1 and 2 for the participants ``indices`` of the training ``views``.

    Three stages, each over all of them: `estimate_many` of the views, each
    exchange in index order, then `estimate_many` of the exchanged sets. A
    set of 1 or 2 rows keeps its pre-exchange estimate. Returns one
    [training set, estimate, transcript] per participant. An error is
    labelled with the stage and participant at hand, which names the right
    ones only for a single participant.
    """
    trainer, resplit = config.trainer, config.per_class_resplit
    views = [views[i] for i in indices]
    stage, i = "estimate", indices[0]
    try:
        estimates = estimate_many(views, trainer, _participant_seeds(config, indices, ESTIMATE),
                                  resplit)
        if not config.procedure2:
            return [[view.by_ids(est.noise_free_ids), est, None]
                    for view, est in zip(views, estimates)]
        stage, out, again = "exchange", [], []
        exchange_seeds = _participant_seeds(config, indices, EXCHANGE)
        for j, (i, view, est) in enumerate(zip(indices, views, estimates)):
            result = normalize_noise(view, est, pool, exchange_seeds[j],
                                     demand_cap=config.demand_cap)
            out.append([result.dataset, est, result.transcript])
            # Every row is in-space, so the fold minimum is a row count. An
            # empty set has nothing to train on: its re-estimate fails.
            if 0 < result.dataset.n < MIN_FOLD_ROWS:
                logger.warning("%s: %d row(s) after the exchange cannot form three folds; "
                               "keeping the pre-exchange estimate", view.name, result.dataset.n)
            else:
                again.append(j)
        if again:
            stage, sets = "re-estimate after exchange", [out[j][0] for j in again]
            seeds = reestimate_seed(np.array([exchange_seeds[j] for j in again], dtype=np.uint64),
                                    np.array([ds.class_count for ds in sets]))
            for j, est in zip(again, estimate_many(sets, trainer, seeds, resplit)):
                out[j][1] = est
    except Exception as e:
        raise type(e)(f"participant {i}, {stage}: {e}") from e
    return out


def _prepare_fednl(config: FederationConfig, participant_datasets, pool):
    """Run the pre-loop pipeline; return training sets, betas, artifacts.

    Participants go in `fold_chunks`, so Procedure 1 trains many
    participants' fold models per call. An error names the participant and
    the stage it came from: the estimate, the exchange, or the re-estimate
    after the exchange. A failing chunk of several is run again one
    participant at a time, so the error is the one a participant-by-participant
    pass raises: the lowest-indexed failing participant's first failing stage.
    """
    views = [ds.training_view() for ds in participant_datasets]
    if not config.procedure1:
        return [view.in_space() for view in views], [0.0] * len(views), None, None
    prepared = []
    for chunk in fold_chunks(views, config.per_class_resplit):
        try:
            prepared += _prepare_stacked(config, views, chunk, pool)
        except Exception:
            if len(chunk) > 1:
                for i in chunk:
                    _prepare_stacked(config, views, [i], pool)
            raise
    train_sets = [entry[0] for entry in prepared]
    estimates = tuple(entry[1] for entry in prepared)
    transcripts = tuple(entry[2] for entry in prepared) if config.procedure2 else None
    return train_sets, [est.beta_mean for est in estimates], estimates, transcripts


def run_fednl(config: FederationConfig, participant_datasets,
              server_dataset: Dataset | None = None) -> RunReport:
    """Noise-aware federated run.

    Estimation and normalization happen once, before the round loop. Each
    round every participant trains from the broadcast model, the server
    aggregates with the weights in effect (uniform in round 1; influence
    history sets later rounds unless frozen), and influence is updated
    against this round's own aggregate.
    """
    datasets = list(participant_datasets)
    n = len(datasets)
    if not n:
        raise ValueError("a run needs at least one participant dataset")
    _check_disjoint_ids(datasets, server_dataset)
    needs_server = config.procedure2 or config.weighting == "fednl"
    if needs_server and server_dataset is None:
        raise ValueError("this configuration needs a server dataset")
    pool = test = None
    if server_dataset is not None:
        # Only Procedure 2 reads the transfer pool.
        pool_rows, test_rows = _server_rows(server_dataset.n, config.server_test_fraction,
                                            config.seed)
        test = server_dataset.take(test_rows, name=f"{server_dataset.name}/test")
        if config.procedure2:
            pool = server_dataset.take(pool_rows, name=f"{server_dataset.name}/pool")
        if config.weighting == "fednl" and test.n == 0:
            raise ValueError("influence weighting needs a non-empty server test split")

    train_sets, betas, estimates, transcripts = _prepare_fednl(config, datasets, pool)
    sizes = [ds.n for ds in train_sets]
    m_sizes = effective_sizes(sizes, betas,
                              literal_noise_adjustment=config.literal_noise_adjustment)

    d, c = datasets[0].d, datasets[0].class_count
    broadcast = server_init(d, c, config.seed, config.init_scale)
    gammas = [GAMMA_MIN] * n
    if config.weighting == "fednl":
        eps = contributions(gammas)
    else:
        eps = size_weights(sizes)

    records: list[RoundRecord] = []
    snapshot = None
    local_models: list[ModelParams] = []
    step_bases = [0] * n
    for t in range(1, config.rounds + 1):
        local_models, local_losses, rates = _train_all(broadcast, train_sets, config, t,
                                                       step_bases)
        agg = aggregate(local_models, eps)
        global_loss = float(np.dot(eps.epsilon, local_losses))
        if test is not None and test.n:
            snapshot = evaluate(agg, test)
        gamma_rec = None
        if config.weighting == "fednl":
            if n >= 2:
                gammas = influence(local_models, m_sizes, agg, test, gammas, rates,
                                   config.trainer,
                                   matrix_norm=config.matrix_norm_influence).gamma.tolist()
            gamma_rec = tuple(gammas)
        records.append(RoundRecord(
            t=t,
            learning_rates=tuple(rates),
            local_losses=tuple(local_losses),
            global_loss=global_loss,
            epsilon=tuple(float(v) for v in eps.epsilon),
            gamma=gamma_rec,
            cumulative_epochs=t * config.trainer.local_epochs,
            global_accuracy=None if snapshot is None else snapshot.accuracy,
            global_macro_f1=None if snapshot is None else snapshot.macro_f1,
        ))
        broadcast = agg
        if config.weighting == "fednl" and not config.freeze_epsilon and n >= 2:
            eps = contributions(gammas)

    return RunReport(
        records=tuple(records),
        global_model=broadcast,
        local_models=tuple(local_models),
        final_metrics=snapshot,
        estimates=estimates,
        transcripts=transcripts,
        training_sizes=tuple(sizes),
        betas=tuple(betas),
        config=config,
    )


def run_fedavg(config: FederationConfig, participant_datasets,
               server_dataset: Dataset | None = None) -> RunReport:
    """Size-weighted baseline: run_fednl with no estimation, no exchange, no influence.

    ``config``'s ``FEDAVG`` fields are overridden, and the report carries the
    config actually run. The optional server dataset is split exactly as in
    the full pipeline and used only for per-round evaluation, so paired
    comparisons score both algorithms on the same held-out split.
    """
    return run_fednl(replace(config, **FEDAVG), participant_datasets, server_dataset)


def record_to_dict(record: RoundRecord) -> dict:
    return {
        "t": record.t,
        "learning_rates": list(record.learning_rates),
        "local_losses": list(record.local_losses),
        "global_loss": record.global_loss,
        "epsilon": list(record.epsilon),
        "gamma": None if record.gamma is None else list(record.gamma),
        "cumulative_epochs": record.cumulative_epochs,
        "global_accuracy": record.global_accuracy,
        "global_macro_f1": record.global_macro_f1,
    }
