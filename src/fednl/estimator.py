"""Per-class label-noise ratio estimation via three-fold cross-prediction.

Split the local data into three folds, train a fresh model on each, and let
every instance be predicted by the two models that never saw it. An instance
counts as noise-free only when its existing label and both predictions agree;
everything else is removed. Per class k this yields the noise-free set S_k,
the removed set R_k, and the ratio beta_k = |R_k| / |D_k|.

The procedure runs on row positions: the split is three sorted position
arrays, the two out-of-fold predictions of every row fill one (n, 2) array,
and the agreement rule is applied to all rows at once. Instance ids appear
only in the returned estimate. True labels are stripped once, on entry, so no
fold model ever sees them.

An estimate has three steps: `plan_folds` draws the splits, `train_folds`
trains the fold models and `estimate_noise` scores them. `plan_folds` and
`train_folds` take many datasets: the first derives all their streams in two
batches, the second trains all their fold models in one lockstep call, which
is how the pipeline estimates many participants at once; `estimate_noise`
alone runs all three steps for one dataset.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._rng import ESTIMATE, FOLDS, derive_rngs, derive_seeds
from .data import Dataset, _deal_three_folds
from .trainer import DatasetStack, TrainerConfig, _augment, init_model, train_local


MIN_FOLD_ROWS = 3  # fewest in-space rows that can form the three folds


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
    """Procedure 1's three-fold splits of one dataset, drawn once.

    ``in_space`` holds the rows the estimate scores. There is one split per
    entry of ``folds``: the shared one, or under per-class re-splitting one
    per class with rows, listed in ``classes``. Split s trains three models,
    model j on fold ``folds[s][j]`` with seed ``seeds[s][j]``.
    """

    in_space: Dataset
    classes: tuple[int, ...] | None
    folds: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    seeds: tuple[tuple[int, int, int], ...]


def fold_rows(dataset: Dataset, per_class_resplit: bool = False) -> int:
    """Training rows of the fold models `plan_folds` draws for a dataset:
    its in-space rows once per split."""
    sizes = dataset.class_sizes()
    return int(sizes.sum()) * (int(np.count_nonzero(sizes)) if per_class_resplit else 1)


def plan_folds(datasets, seeds, per_class_resplit: bool = False) -> list[FoldPlan]:
    """Draw the splits `estimate_noise` trains on, one plan per dataset and
    its seed; see there for the two modes.

    Split s of a dataset seeded ``seed`` is the stream (seed, ESTIMATE, 0),
    or (seed, ESTIMATE, 1, k) for class k; its key 0 seeds the fold split
    and keys 1-3 the three models. Every split's four seeds come from one
    batched derivation and the splits' FOLDS generators from another.
    Raises EstimationError when fewer than MIN_FOLD_ROWS rows are in-space.
    """
    spaces, classes = [], []
    for dataset in datasets:
        in_space = dataset.training_view().in_space()
        if in_space.n < MIN_FOLD_ROWS:
            raise EstimationError(f"need at least {MIN_FOLD_ROWS} in-space instances "
                                  f"to form folds, got {in_space.n}")
        spaces.append(in_space)
        classes.append(tuple(np.flatnonzero(in_space.class_sizes()).tolist())
                       if per_class_resplit else None)
    # One row of keys per split and its four keys along the columns. A seed
    # goes in as a one-element row, so it broadcasts as any int it is.
    if per_class_resplit:
        split_seeds = [[seed] for seed, ks in zip(seeds, classes) for _ in ks]
        keys = (1, np.array([k for ks in classes for k in ks])[:, None])
    else:
        split_seeds, keys = [[seed] for seed in seeds], (0,)
    streams = derive_seeds(split_seeds, ESTIMATE, *keys, np.arange(4))
    rngs = iter(derive_rngs(streams[:, 0], FOLDS))
    model_seeds = iter(streams[:, 1:].tolist())
    plans = []
    for in_space, ks in zip(spaces, classes):
        splits = range(1 if ks is None else len(ks))
        plans.append(FoldPlan(
            in_space=in_space,
            classes=ks,
            folds=tuple(_deal_three_folds(next(rngs), in_space.n) for _ in splits),
            seeds=tuple(tuple(next(model_seeds)) for _ in splits),
        ))
    return plans


def train_folds(plans: list[FoldPlan], trainer_config: TrainerConfig) -> list[tuple]:
    """Train the fold models of every plan in one lockstep `train_local` call.

    Returns one tuple per plan of its models, split by split, each from a
    fresh zero model. The datasets must share the feature and class space.
    """
    members, seeds = [], []
    for plan in plans:
        for folds, fold_seeds in zip(plan.folds, plan.seeds):
            members.extend(plan.in_space.take(fold) for fold in folds)
            seeds.extend(fold_seeds)
    first = plans[0].in_space
    models = iter(train_local(init_model(first.d, first.class_count),
                              DatasetStack(members, seeds), trainer_config))
    return [tuple(islice(models, 3 * len(plan.folds))) for plan in plans]


#: Row r of fold q is predicted by the two models trained on the other folds.
_OTHER_FOLDS = np.array([[1, 2], [0, 2], [0, 1]])


def _cross_predict(in_space: Dataset, folds, models) -> np.ndarray:
    """Out-of-fold predictions of one split's three models, one stacked matmul.

    Row r of the returned (n, 2) array holds the predictions for row r of the
    two models that never trained on it, ordered by training-fold index.
    Ties go to the lowest class, as in `predict`.
    """
    n = in_space.n
    weights = np.stack([model.weights for model in models])
    labels = np.argmax(np.matmul(_augment(in_space.features), weights), axis=2)
    fold_of = np.empty(n, dtype=np.int64)
    for q, fold in enumerate(folds):
        fold_of[fold] = q
    return labels[_OTHER_FOLDS[fold_of], np.arange(n)[:, None]]


def _score_class(dataset: Dataset, k: int, noise_free: np.ndarray | None) -> ClassEstimate:
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
    seed and flag, and its `train_folds` models. Given one, the estimate
    scores those models and draws and trains nothing; the result is the same.
    """
    if trained is None:
        plan = plan_folds([dataset], [seed], per_class_resplit)[0]
        models = train_folds([plan], trainer_config)[0]
    else:
        plan, models = trained
    in_space = plan.in_space
    c = dataset.class_count
    labels = in_space.observed_labels
    agreements = []
    for s, folds in enumerate(plan.folds):
        preds = _cross_predict(in_space, folds, models[3 * s:3 * s + 3])
        agreements.append(classify_instance(labels, preds[:, 0], preds[:, 1]))
    if plan.classes is None:
        noise_free = dict.fromkeys(range(c), agreements[0])
    else:
        noise_free = dict(zip(plan.classes, agreements))
    # An empty class is scored without reading its (absent) predictions.
    estimates = [_score_class(in_space, k, noise_free.get(k)) for k in range(c)]

    betas = np.array([e.beta for e in estimates])
    best = int(np.argmin(betas))
    return NoiseEstimate(
        per_class=tuple(estimates),
        beta_min=float(betas[best]),
        best_class=best,
        beta_mean=float(betas.mean()),
        out_of_space_ids=tuple(dataset.out_of_space_ids().tolist()),
        trainings=3 * len(plan.folds),
    )


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
