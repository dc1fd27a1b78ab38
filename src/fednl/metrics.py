"""Classification metrics: confusion matrix, accuracy, per-class P/R/F1, macro F1."""

from dataclasses import dataclass

import numpy as np

from .data import OUT_OF_SPACE, Dataset
from .trainer import ModelParams, predict


@dataclass(frozen=True)
class MetricsSnapshot:
    """Per-class and aggregate scores for one model on one labeled dataset.

    ``confusion`` rows are true classes, columns are predictions. Per-class
    arrays are indexed by class; a class with zero support (or zero predicted
    positives) scores 0 on the affected ratio rather than NaN, and such
    classes are listed in ``zero_support``. ``scope`` tags whether the
    evaluation was against a participant's own data or the server's.
    """

    confusion: np.ndarray
    accuracy: float
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    macro_f1: float
    micro_f1: float
    support: np.ndarray
    zero_support: tuple[int, ...] = ()
    scope: str = "global"

    def __post_init__(self):
        for arr in (self.confusion, self.precision, self.recall, self.f1, self.support):
            arr.setflags(write=False)


def confusion_matrix(true_labels: np.ndarray, predicted: np.ndarray, class_count: int) -> np.ndarray:
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if true_labels.shape != predicted.shape:
        raise ValueError("label arrays must have the same length")
    out = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(out, (true_labels, predicted), 1)
    return out


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros_like(num, dtype=np.float64), where=den > 0)


def scores_from_confusion(confusion: np.ndarray, scope: str = "global") -> MetricsSnapshot:
    """Derive all ratio metrics from a confusion matrix.

    Macro F1 is the unweighted mean of per-class F1 over all c classes;
    zero-support classes contribute 0 and are flagged. Micro F1 pools counts
    first, which for single-label data equals accuracy.
    """
    confusion = np.asarray(confusion, dtype=np.int64)
    c = confusion.shape[0]
    if confusion.shape != (c, c):
        raise ValueError(f"confusion matrix must be square, got {confusion.shape}")
    total = int(confusion.sum())
    if total == 0:
        raise ValueError("confusion matrix is empty")
    tp = np.diag(confusion).astype(np.float64)
    support = confusion.sum(axis=1)
    predicted = confusion.sum(axis=0)
    precision = _safe_ratio(tp, predicted.astype(np.float64))
    recall = _safe_ratio(tp, support.astype(np.float64))
    f1 = _safe_ratio(2.0 * precision * recall, precision + recall)
    return MetricsSnapshot(
        confusion=confusion,
        accuracy=float(tp.sum() / total),
        precision=precision,
        recall=recall,
        f1=f1,
        macro_f1=float(f1.mean()),
        micro_f1=float(tp.sum() / total),
        support=support,
        zero_support=tuple(int(k) for k in np.flatnonzero(support == 0)),
        scope=scope,
    )


def evaluate(model: ModelParams, dataset: Dataset, label_source: str = "observed",
             scope: str = "global") -> MetricsSnapshot:
    """Score the model against the dataset's observed or retained true labels.

    Labels feeding the confusion matrix must be in the class space, so
    observed-label evaluation rejects datasets with out-of-space labels.
    """
    if dataset.n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if label_source == "true":
        if dataset.true_labels is None:
            raise ValueError("label_source='true' but the dataset retained no true labels")
        labels = dataset.true_labels
    elif label_source == "observed":
        if np.any(dataset.observed_labels == OUT_OF_SPACE):
            raise ValueError("evaluation dataset has out-of-space observed labels")
        labels = dataset.observed_labels
    else:
        raise ValueError(f"label_source must be 'true' or 'observed', got {label_source!r}")
    predicted = predict(model, dataset.features)
    confusion = confusion_matrix(labels, predicted, dataset.class_count)
    return scores_from_confusion(confusion, scope=scope)


def detection_scores(flagged_ids, actual_ids) -> tuple[float, float]:
    """Precision and recall of a flagged id set against the actual positive set.

    Empty denominators score 1.0: flagging nothing when nothing is noisy is
    perfect, not undefined.
    """
    flagged = set(int(i) for i in flagged_ids)
    actual = set(int(i) for i in actual_ids)
    hit = len(flagged & actual)
    precision = hit / len(flagged) if flagged else 1.0
    recall = hit / len(actual) if actual else 1.0
    return precision, recall


def format_snapshot(snapshot: MetricsSnapshot) -> str:
    """Render a snapshot as an aligned text table."""
    c = snapshot.confusion.shape[0]
    lines = [
        f"scope     {snapshot.scope}",
        f"accuracy  {snapshot.accuracy:.4f}",
        f"macro F1  {snapshot.macro_f1:.4f}",
        f"micro F1  {snapshot.micro_f1:.4f}",
        "",
        "class  support  precision  recall  f1",
    ]
    for k in range(c):
        tag = "  (zero support)" if k in snapshot.zero_support else ""
        lines.append(
            f"{k:5d}  {int(snapshot.support[k]):7d}  {snapshot.precision[k]:9.4f}"
            f"  {snapshot.recall[k]:6.4f}  {snapshot.f1[k]:.4f}{tag}"
        )
    lines.append("")
    lines.append("confusion (rows true, cols predicted)")
    width = max(5, len(str(int(snapshot.confusion.max()))))
    lines.append(" " * 6 + " ".join(f"{k:>{width}d}" for k in range(c)))
    for k in range(c):
        row = " ".join(f"{int(v):>{width}d}" for v in snapshot.confusion[k])
        lines.append(f"{k:5d} {row}")
    return "\n".join(lines)
