"""Per-class label-noise ratio estimation via three-fold cross-prediction.

Split the local data into three folds, train a fresh model on each, and let
every instance be predicted by the two models that never saw it. An instance
counts as noise-free only when its existing label and both predictions agree;
everything else is removed. Per class k this yields the noise-free set S_k,
the removed set R_k, and the ratio beta_k = |R_k| / |D_k|.

The procedure runs on row positions. A `FoldPlan` lists each fold model's
training rows and, for each row, its two voters: the models that never
trained on it. Scoring gathers every row's two votes from the models'
predictions into one (n, 2) array and applies the agreement rule to all
rows in one pass, whichever split voted. Instance ids appear only in the
returned estimate. True labels are stripped once, on entry, so no fold model
ever sees them.

An estimate has three steps: `plan_folds` builds the plan, `_train_plans`
trains its models and `estimate_noise` scores them. `estimate_many` takes
many datasets: their plans derive all their streams in two batches and all
their fold models train in one lockstep call, which is how the pipeline
estimates many participants at once; `fold_chunks` groups the participants
into calls of bounded size. `estimate_noise` alone plans and trains one
dataset the same way, so both return the same estimate.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._rng import ESTIMATE, FOLDS, derive_rngs, derive_seeds
from .data import Dataset, _deal_three_folds
from .trainer import DatasetStack, TrainerConfig, _augment, init_model, train_local


MIN_FOLD_ROWS = 3  # fewest in-space rows that can form the three folds

#: Fold-model training rows per `fold_chunks` chunk. A chunk's fold models
#: train in one call, and this bound keeps its fold sets, estimates and
#: exchanged sets near one participant's worth.
_ESTIMATE_ROWS = 1 << 11


class EstimationError(ValueError):
    """The dataset cannot support a three-fold estimate."""


def classify_instance(existing, pred1, pred2):
    """Agreement rule: noise-free only when both predictions match the existing label.

    Takes scalars or row-aligned arrays; returns a bool or a bool array.
    """
    return (existing == pred1) & (existing == pred2)


@dataclass(frozen=True)
class ClassEstimate:
    """Noise split of one observed class: D_k = S_k (kept) + R_k (removed)."""

    class_id: int
    size: int
    noise_free_ids: tuple[int, ...]
    removed_ids: tuple[int, ...]
    beta: float
    empty: bool = False


@dataclass(frozen=True)
class NoiseEstimate:
    """Full Procedure-1 output for one participant.

    ``beta_min`` (z) is the smallest per-class ratio, attained at
    ``best_class`` (lowest index on ties); ``beta_mean`` averages over all
    classes, counting empty classes as 0 per their flag. Instances whose
    observed label is out of the class space belong to no class and are
    listed separately; they are removed by definition.
    """

    per_class: tuple[ClassEstimate, ...]
    beta_min: float
    best_class: int
    beta_mean: float
    out_of_space_ids: tuple[int, ...]
    trainings: int

    @property
    def removed_ids(self) -> tuple[int, ...]:
        """All removed instance ids, out-of-space ones included."""
        out: list[int] = []
        for est in self.per_class:
            out.extend(est.removed_ids)
        out.extend(self.out_of_space_ids)
        return tuple(out)

    @property
    def noise_free_ids(self) -> tuple[int, ...]:
        out: list[int] = []
        for est in self.per_class:
            out.extend(est.noise_free_ids)
        return tuple(out)


@dataclass(frozen=True)
class FoldPlan:
    """Procedure 1's fold models of one dataset and the votes they cast.

    ``in_space`` holds the rows the estimate scores. Model m trains on rows
    ``train_rows[m]`` of it with seed ``seeds[m]``. Row r is voted on by
    models ``voters[r]``, an increasing pair that never trained on it.
    """

    in_space: Dataset
    train_rows: tuple[np.ndarray, ...]
    seeds: tuple[int, ...]
    voters: np.ndarray


def fold_rows(dataset: Dataset, per_class_resplit: bool = False) -> int:
    """Training rows of the fold models `plan_folds` draws for a dataset:
    its in-space rows once per split."""
    sizes = dataset.class_sizes()
    return int(sizes.sum()) * (int(np.count_nonzero(sizes)) if per_class_resplit else 1)


def fold_chunks(datasets, per_class_resplit: bool = False) -> list[range]:
    """Consecutive index ranges of ``datasets``, each as long as its `fold_rows`
    stay within `_ESTIMATE_ROWS`; a dataset over the bound forms a range alone."""
    chunks, start, rows = [], 0, 0
    for i, dataset in enumerate(datasets):
        size = fold_rows(dataset, per_class_resplit)
        if i > start and rows + size > _ESTIMATE_ROWS:
            chunks.append(range(start, i))
            start, rows = i, 0
        rows += size
    if len(datasets) > start:
        chunks.append(range(start, len(datasets)))
    return chunks


#: Row r of fold q is voted on by the two models trained on the other folds.
_OTHER_FOLDS = np.array([[1, 2], [0, 2], [0, 1]])


def plan_folds(datasets, seeds, per_class_resplit: bool = False) -> list[FoldPlan]:
    """Draw the splits `estimate_noise` trains on, one plan per dataset and
    its seed; see there for the two modes.

    Each split deals the in-space rows over three folds and trains one model
    per fold. The shared split is models 0-2 and votes on every row. Under
    per-class re-splitting, the split of the s-th class with rows is models
    3s to 3s+2 and votes on that class's rows only.

    Split s of a dataset seeded ``seed`` is the stream (seed, ESTIMATE, 0),
    or (seed, ESTIMATE, 1, k) for class k; its key 0 seeds the fold split
    and keys 1-3 the three models. Every split's four seeds come from one
    batched derivation and the splits' FOLDS generators from another.
    Raises EstimationError when fewer than MIN_FOLD_ROWS rows are in-space.
    """
    spaces, splits = [], []
    for dataset in datasets:
        in_space = dataset.training_view().in_space()
        if in_space.n < MIN_FOLD_ROWS:
            raise EstimationError(f"need at least {MIN_FOLD_ROWS} in-space instances "
                                  f"to form folds, got {in_space.n}")
        spaces.append(in_space)
        # The class each split votes on; None votes on every row.
        splits.append(tuple(np.flatnonzero(in_space.class_sizes()).tolist())
                      if per_class_resplit else (None,))
    # One row of keys per split and its four keys along the columns. A seed
    # goes in as a one-element row, so it broadcasts as any int it is.
    split_seeds = [[seed] for seed, ks in zip(seeds, splits) for _ in ks]
    keys = (1, np.array([k for ks in splits for k in ks])[:, None]) if per_class_resplit else (0,)
    streams = derive_seeds(split_seeds, ESTIMATE, *keys, np.arange(4))
    rngs = iter(derive_rngs(streams[:, 0], FOLDS))
    model_seeds = iter(streams[:, 1:].tolist())
    plans = []
    for in_space, ks in zip(spaces, splits):
        n, labels = in_space.n, in_space.observed_labels
        train_rows, plan_seeds = [], []
        voters, fold_of = np.empty((n, 2), dtype=np.int64), np.empty(n, dtype=np.int64)
        for s, k in enumerate(ks):
            folds = _deal_three_folds(next(rngs), n)
            for q, fold in enumerate(folds):
                fold_of[fold] = q
            rows = slice(None) if k is None else labels == k
            voters[rows] = 3 * s + _OTHER_FOLDS[fold_of[rows]]
            train_rows += folds
            plan_seeds += next(model_seeds)
        plans.append(FoldPlan(in_space, tuple(train_rows), tuple(plan_seeds), voters))
    return plans


def _score_class(dataset: Dataset, k: int, noise_free: np.ndarray) -> ClassEstimate:
    in_class = dataset.observed_labels == k
    size = int(np.count_nonzero(in_class))
    if size == 0:
        return ClassEstimate(class_id=k, size=0, noise_free_ids=(), removed_ids=(),
                             beta=0.0, empty=True)
    removed = dataset.ids[in_class & ~noise_free]
    return ClassEstimate(
        class_id=k,
        size=size,
        noise_free_ids=tuple(dataset.ids[in_class & noise_free].tolist()),
        removed_ids=tuple(removed.tolist()),
        beta=removed.size / size,
    )


def estimate_noise(dataset: Dataset, trainer_config: TrainerConfig, seed: int,
                   per_class_resplit: bool = False,
                   trained: tuple | None = None) -> NoiseEstimate:
    """Run the three-fold cross-prediction estimate on one participant's data.

    The default splits the dataset once and scores every class against the
    same three models (3 trainings). ``per_class_resplit`` re-draws the split
    and re-trains per class that has in-space rows (3 trainings each),
    matching the procedure text that nests the split inside the class loop;
    the agreement rule is identical. Each class's split is seeded by its
    index, so skipping an empty class leaves the others' estimates unchanged.

    ``trained`` is a (plan, models) pair: the `plan_folds` of this dataset,
    seed and flag, and its models as `_train_plans` trains them. Given one,
    the estimate scores those models and draws and trains nothing; the
    result is the same.
    """
    if trained is None:
        [trained] = _train_plans([dataset], trainer_config, [seed], per_class_resplit)
    plan, models = trained
    in_space = plan.in_space
    # Every model's prediction of every row, ties to the lowest class as in
    # `predict`. One stacked product per three models keeps the largest
    # temporary at (3, n, c) however many splits there are.
    x = _augment(in_space.features)
    preds = np.concatenate([
        np.argmax(np.matmul(x, np.stack([m.weights for m in models[j:j + 3]])), axis=2)
        for j in range(0, len(models), 3)])
    votes = preds[plan.voters, np.arange(in_space.n)[:, None]]
    noise_free = classify_instance(in_space.observed_labels, votes[:, 0], votes[:, 1])
    estimates = [_score_class(in_space, k, noise_free) for k in range(dataset.class_count)]

    betas = np.array([e.beta for e in estimates])
    best = int(np.argmin(betas))
    return NoiseEstimate(
        per_class=tuple(estimates),
        beta_min=float(betas[best]),
        best_class=best,
        beta_mean=float(betas.mean()),
        out_of_space_ids=tuple(dataset.out_of_space_ids().tolist()),
        trainings=len(plan.seeds),
    )


def _train_plans(datasets, trainer_config: TrainerConfig, seeds,
                 per_class_resplit: bool) -> list[tuple[FoldPlan, tuple]]:
    """The (plan, models) pair of each dataset with its seed, every fold
    model of them all trained in one lockstep `train_local` call.

    The datasets must share the feature and class space. Each model starts
    from a fresh zero model, so a dataset's models do not depend on the
    others trained beside it.
    """
    plans = plan_folds(datasets, seeds, per_class_resplit)
    first = plans[0].in_space
    # The fold sets are built inside the call, so they are freed before scoring.
    models = iter(train_local(
        init_model(first.d, first.class_count),
        DatasetStack([plan.in_space.take(rows) for plan in plans for rows in plan.train_rows],
                     [seed for plan in plans for seed in plan.seeds]),
        trainer_config))
    return [(plan, tuple(islice(models, len(plan.seeds)))) for plan in plans]


def estimate_many(datasets, trainer_config: TrainerConfig, seeds,
                  per_class_resplit: bool = False) -> list[NoiseEstimate]:
    """`estimate_noise` of each dataset with its seed, every fold model of
    them all trained in one lockstep `train_local` call; each estimate is
    the one `estimate_noise` returns for its dataset alone."""
    trained = _train_plans(datasets, trainer_config, seeds, per_class_resplit)
    return [estimate_noise(dataset, trainer_config, seed, per_class_resplit, trained=pair)
            for dataset, seed, pair in zip(datasets, seeds, trained)]


def estimate_to_dict(estimate: NoiseEstimate) -> dict:
    """JSON-friendly view of an estimate (id lists elided to counts)."""
    return {
        "beta_mean": estimate.beta_mean,
        "beta_min": estimate.beta_min,
        "best_class": estimate.best_class,
        "out_of_space": len(estimate.out_of_space_ids),
        "trainings": estimate.trainings,
        "per_class": [
            {
                "class": e.class_id,
                "size": e.size,
                "noise_free": len(e.noise_free_ids),
                "removed": len(e.removed_ids),
                "beta": e.beta,
                "empty": e.empty,
            }
            for e in estimate.per_class
        ],
    }


def format_estimate(estimate: NoiseEstimate) -> str:
    """Aligned text report of per-class ratios and the participant summary."""
    lines = ["class   size   kept  removed   beta"]
    for e in estimate.per_class:
        tag = "  (empty)" if e.empty else ""
        lines.append(
            f"{e.class_id:5d}  {e.size:5d}  {len(e.noise_free_ids):5d}"
            f"  {len(e.removed_ids):7d}  {e.beta:5.3f}{tag}"
        )
    if estimate.out_of_space_ids:
        lines.append(f"out-of-space instances removed: {len(estimate.out_of_space_ids)}")
    lines.append(
        f"beta_mean {estimate.beta_mean:.4f}  beta_min {estimate.beta_min:.4f}"
        f"  best_class {estimate.best_class}"
    )
    return "\n".join(lines)
