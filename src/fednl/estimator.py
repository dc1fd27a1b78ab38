"""Per-class label-noise ratio estimation via three-fold cross-prediction.

Split the local data into three folds, train a fresh model on each, and let
every instance be predicted by the two models that never saw it. An instance
counts as noise-free only when its existing label and both predictions agree;
everything else is removed. Per class k this yields the noise-free set S_k,
the removed set R_k, and the ratio beta_k = |R_k| / |D_k|.
"""

from dataclasses import dataclass, replace

import numpy as np

from ._rng import ESTIMATE, derive_seed
from .data import Dataset, split_three_folds
from .trainer import TrainerConfig, init_model, predict, train_local


class EstimationError(ValueError):
    """The dataset cannot support a three-fold estimate."""


NOISE_FREE = "noise_free"
NOISY = "noisy"


def classify_instance(existing: int, pred1: int, pred2: int) -> str:
    """Agreement rule: noise-free only when both predictions match the existing label."""
    return NOISE_FREE if existing == pred1 == pred2 else NOISY


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
                   seed_keys: tuple) -> dict[int, tuple[int, int]]:
    """Train one fresh model per fold, predict the other two folds.

    Returns id -> (pred, pred) from the two models that never trained on the
    instance, ordered by training-fold index.
    """
    split = split_three_folds(dataset, derive_seed(*seed_keys, 0))
    preds: dict[int, list[int]] = {int(i): [] for i in dataset.ids}
    for j, fold in enumerate(split.folds):
        model = init_model(dataset.d, dataset.class_count)
        cfg = replace(trainer_config, seed=derive_seed(*seed_keys, 1 + j))
        model, _ = train_local(model, fold.training_view(), cfg)
        for other in (split.folds[(j + 1) % 3], split.folds[(j + 2) % 3]):
            labels = predict(model, other.features)
            for pos in range(other.n):
                preds[int(other.ids[pos])].append(int(labels[pos]))
    for instance_id, got in preds.items():
        assert len(got) == 2, f"instance {instance_id} got {len(got)} predictions, expected 2"
    return {i: (p[0], p[1]) for i, p in preds.items()}


def _score_class(dataset: Dataset, k: int,
                 preds: dict[int, tuple[int, int]]) -> ClassEstimate:
    rows = np.flatnonzero(dataset.observed_labels == k)
    if rows.size == 0:
        return ClassEstimate(class_id=k, size=0, noise_free_ids=(), removed_ids=(),
                             beta=0.0, empty=True)
    kept: list[int] = []
    removed: list[int] = []
    for pos in rows:
        instance_id = int(dataset.ids[pos])
        p1, p2 = preds[instance_id]
        if classify_instance(k, p1, p2) == NOISE_FREE:
            kept.append(instance_id)
        else:
            removed.append(instance_id)
    return ClassEstimate(
        class_id=k,
        size=int(rows.size),
        noise_free_ids=tuple(kept),
        removed_ids=tuple(removed),
        beta=len(removed) / rows.size,
    )


def estimate_noise(dataset: Dataset, trainer_config: TrainerConfig, seed: int,
                   per_class_resplit: bool = False) -> NoiseEstimate:
    """Run the three-fold cross-prediction estimate on one participant's data.

    The default splits the dataset once and scores every class against the
    same three models (3 trainings). ``per_class_resplit`` re-draws the split
    and re-trains per class (3c trainings), matching the procedure text that
    nests the split inside the class loop; the agreement rule is identical.
    """
    in_space = dataset.in_space()
    if in_space.n < 3:
        raise EstimationError(
            f"need at least 3 in-space instances to form folds, got {in_space.n}")
    c = dataset.class_count
    estimates: list[ClassEstimate] = []
    trainings = 0
    if per_class_resplit:
        for k in range(c):
            preds = _cross_predict(in_space, trainer_config, (seed, ESTIMATE, 1, k))
            trainings += 3
            estimates.append(_score_class(in_space, k, preds))
    else:
        preds = _cross_predict(in_space, trainer_config, (seed, ESTIMATE, 0))
        trainings = 3
        for k in range(c):
            estimates.append(_score_class(in_space, k, preds))

    betas = np.array([e.beta for e in estimates])
    best = int(np.argmin(betas))
    return NoiseEstimate(
        per_class=tuple(estimates),
        beta_min=float(betas[best]),
        best_class=best,
        beta_mean=float(betas.mean()),
        out_of_space_ids=tuple(int(i) for i in dataset.out_of_space_ids()),
        trainings=trainings,
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
