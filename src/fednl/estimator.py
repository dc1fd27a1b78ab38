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
"""

from dataclasses import dataclass

import numpy as np

from ._rng import ESTIMATE, derive_seed
from .data import Dataset, split_three_folds
from .trainer import DatasetStack, TrainerConfig, init_model, predict, train_local


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


def _cross_predict(dataset: Dataset, trainer_config: TrainerConfig,
                   seed_keys: tuple) -> np.ndarray:
    """Train one fresh model per fold, all three in one call; predict the other two folds.

    Row j of the returned (n, 2) array holds the predictions for row j of the
    two models that never trained on it, ordered by training-fold index.
    """
    folds = split_three_folds(dataset, derive_seed(*seed_keys, 0))
    stack = DatasetStack([dataset.take(fold) for fold in folds],
                         [derive_seed(*seed_keys, 1 + j) for j in range(3)])
    models = train_local(init_model(dataset.d, dataset.class_count), stack, trainer_config)
    preds = np.empty((dataset.n, 2), dtype=np.int64)
    for j, model in enumerate(models):
        for q in (j + 1) % 3, (j + 2) % 3:
            preds[folds[q], j - (q < j)] = predict(model, dataset.features[folds[q]])
    return preds


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
                   per_class_resplit: bool = False) -> NoiseEstimate:
    """Run the three-fold cross-prediction estimate on one participant's data.

    The default splits the dataset once and scores every class against the
    same three models (3 trainings). ``per_class_resplit`` re-draws the split
    and re-trains per class that has in-space rows (3 trainings each),
    matching the procedure text that nests the split inside the class loop;
    the agreement rule is identical. Each class's split is seeded by its
    index, so skipping an empty class leaves the others' estimates unchanged.
    """
    in_space = dataset.training_view().in_space()
    if in_space.n < MIN_FOLD_ROWS:
        raise EstimationError(f"need at least {MIN_FOLD_ROWS} in-space instances "
                              f"to form folds, got {in_space.n}")
    c = dataset.class_count
    labels = in_space.observed_labels

    def agreement(preds):
        return classify_instance(labels, preds[:, 0], preds[:, 1])

    if per_class_resplit:
        sizes = np.bincount(labels, minlength=c)
        noise_free = {k: agreement(_cross_predict(in_space, trainer_config,
                                                  (seed, ESTIMATE, 1, k)))
                      for k in range(c) if sizes[k]}
    else:
        shared = agreement(_cross_predict(in_space, trainer_config, (seed, ESTIMATE, 0)))
        noise_free = dict.fromkeys(range(c), shared)
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
        trainings=3 * len(noise_free) if per_class_resplit else 3,
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
