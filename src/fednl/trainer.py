"""Multinomial logistic regression trained with mini-batch SGD.

The model is a single weight matrix of shape (d+1, c); the extra row is the
bias, driven by a constant appended 1-feature. The objective is mean
cross-entropy plus (lambda/2) ||W||_F^2, which is lambda-strongly convex and
L-smooth, so convergence-rate claims about the federation are actually
checkable against this trainer.

Learning rates come from a schedule indexed by the global SGD step, which
advances across rounds; callers pass the step count already consumed.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._rng import TRAIN, derive_rng
from .data import OUT_OF_SPACE, Dataset


class DivergenceError(RuntimeError):
    """Loss left the finite range during training."""


@dataclass(frozen=True)
class ModelParams:
    """Immutable softmax-regression weights, shape (d+1, c)."""

    weights: np.ndarray
    class_count: int

    def __post_init__(self):
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[1] != self.class_count:
            raise ValueError(
                f"weights shape {weights.shape} incompatible with {self.class_count} classes")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def d(self) -> int:
        return self.weights.shape[0] - 1


@dataclass(frozen=True)
class Constant:
    """Fixed learning rate."""

    eta: float

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")


@dataclass(frozen=True)
class Diminishing:
    """Step-indexed decay theta / (t + alpha)."""

    theta: float
    alpha: float

    def __post_init__(self):
        if self.theta <= 0.0 or self.alpha <= 0.0:
            raise ValueError("diminishing schedule needs theta > 0 and alpha > 0")


def lr_at(schedule, t: int) -> float:
    """Learning rate at global step t (1-based)."""
    if t < 1:
        raise ValueError("steps are counted from 1")
    if isinstance(schedule, Constant):
        return schedule.eta
    if isinstance(schedule, Diminishing):
        return schedule.theta / (t + schedule.alpha)
    raise ValueError(f"unknown schedule: {schedule!r}")


@dataclass(frozen=True)
class TrainerConfig:
    """Hyper-parameters for local training.

    ``local_epochs`` full passes of mini-batch SGD with per-epoch
    reshuffling; ``batch_size`` is clipped to the dataset size. One shared
    config drives every trainer in a run, with the seed swapped per call.
    """

    local_epochs: int = 5
    batch_size: int = 32
    lr_schedule: Constant | Diminishing = Constant(0.1)
    l2_lambda: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.l2_lambda < 0.0:
            raise ValueError("l2_lambda must be non-negative")
        lr_at(self.lr_schedule, 1)


def init_model(d: int, c: int, seed: int | None = None, scale: float = 0.0) -> ModelParams:
    """Fresh model: zeros, or N(0, scale^2) entries when seed and scale are given."""
    if seed is None or scale == 0.0:
        weights = np.zeros((d + 1, c))
    else:
        weights = scale * derive_rng(seed, TRAIN).standard_normal((d + 1, c))
    return ModelParams(weights=weights, class_count=c)


def _augment(features: np.ndarray) -> np.ndarray:
    return np.hstack([features, np.ones((features.shape[0], 1))])


def _require_trainable(dataset: Dataset) -> None:
    if dataset.n == 0:
        raise ValueError("dataset is empty")
    if np.any(dataset.observed_labels == OUT_OF_SPACE):
        raise ValueError("dataset has out-of-space labels; drop them before training")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    # The ufunc reductions that `.max` and `.sum` dispatch to, called
    # directly: the same arithmetic without the wrappers' per-call cost.
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def _losses_of_logits(logits: np.ndarray, labels: np.ndarray,
                      stack: np.ndarray, l2_lambda: float) -> list[float]:
    """`loss` of each model in an (m, d+1, c) weight stack from its (m, N, c) logits.

    Each model's mean NLL and L2 term are reduced on their own, since a mean
    along an axis of the stacked array sums in another order than the
    single-model mean.
    """
    n = logits.shape[1]
    picked = _log_softmax(logits)[:, np.arange(n), labels]
    add = np.add.reduce
    return [float(-(add(row) / n) + 0.5 * l2_lambda * add(w ** 2, axis=None))
            for row, w in zip(picked, stack)]


#: Logits scored per batched matmul in `_losses`. Blocks of 2**13 float64
#: (64 KiB) keep each temporary small enough that scoring many models at once
#: leaves peak memory where scoring them one by one does.
_LOSS_BLOCK = 1 << 13


def _losses(stack: np.ndarray, x: np.ndarray, labels: np.ndarray,
            l2_lambda: float) -> list[float]:
    """`loss` of every model in an (m, d+1, c) weight stack on augmented features x.

    Blocks of models share one matmul and one log-softmax.
    """
    per_block = max(1, _LOSS_BLOCK // (x.shape[0] * stack.shape[2]))
    out = []
    for start in range(0, len(stack), per_block):
        block = stack[start:start + per_block]
        out.extend(_losses_of_logits(x @ block, labels, block, l2_lambda))
    return out


def loss(model: ModelParams, dataset: Dataset, l2_lambda: float = 0.0) -> float:
    """Mean cross-entropy over the dataset plus (l2_lambda/2) ||W||^2."""
    _require_trainable(dataset)
    # Let the augmented features go before the softmax temporaries exist:
    # holding them made every call on a 5000-row set fault fresh pages in,
    # about twice as slow.
    weights = model.weights[None]
    logits = _augment(dataset.features) @ weights
    return _losses_of_logits(logits, dataset.observed_labels, weights, l2_lambda)[0]


def gradient(model: ModelParams, batch: Dataset, l2_lambda: float = 0.0) -> np.ndarray:
    """Analytic gradient of `loss` over the batch, same shape as the weights."""
    _require_trainable(batch)
    x = _augment(batch.features)
    probs = np.exp(_log_softmax(x @ model.weights))
    probs[np.arange(batch.n), batch.observed_labels] -= 1.0
    return x.T @ probs / batch.n + l2_lambda * model.weights


def _objective(dataset: Dataset, l2_lambda: float):
    """`loss` and flattened `gradient` of one dataset as one function of the weights.

    Validates the dataset and augments its features once, and allocates one
    (n, c) buffer. Each call of the returned ``evaluate(w)`` runs the whole
    pass in that buffer: logits, then log-softmax in place, the loss read
    through a flat label index, then probabilities minus one at the labels.
    ``w`` holds the (d+1, c) weights in any shape that reshapes to it. The
    values are bitwise those of `loss` and `gradient`.
    """
    _require_trainable(dataset)
    x = _augment(dataset.features)
    n, c = dataset.n, dataset.class_count
    shape = (x.shape[1], c)
    buf = np.empty((n, c))
    flat = buf.reshape(-1)
    picked = np.arange(n) * c + dataset.observed_labels
    add = np.add.reduce

    def evaluate(w: np.ndarray) -> tuple[float, np.ndarray]:
        weights = w.reshape(shape)
        np.matmul(x, weights, out=buf)
        np.subtract(buf, np.maximum.reduce(buf, axis=-1, keepdims=True), out=buf)
        np.subtract(buf, np.log(add(np.exp(buf), axis=-1, keepdims=True)), out=buf)
        value = float(-(add(flat[picked]) / n) + 0.5 * l2_lambda * add(weights ** 2, axis=None))
        np.exp(buf, out=buf)
        flat[picked] -= 1.0
        return value, (x.T @ buf / n + l2_lambda * weights).reshape(-1)

    return evaluate


def predict(model: ModelParams, x):
    """Most probable class; ties go to the lowest class index.

    Accepts a 1-D feature vector (returns an int) or a 2-D feature matrix
    (returns an int array, one label per row).
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    labels = np.argmax(_augment(x) @ model.weights, axis=1).astype(np.int64)
    return int(labels[0]) if single else labels


def epoch_batches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """One epoch's batches: a fresh permutation cut into contiguous runs."""
    batch = min(batch_size, n)
    order = rng.permutation(n)
    return [order[start:start + batch] for start in range(0, n, batch)]


def train_local(model: ModelParams, dataset: Dataset, config: TrainerConfig,
                global_step_base: int = 0) -> tuple[ModelParams, float]:
    """Run ``local_epochs`` passes of mini-batch SGD from the given weights.

    Each epoch draws a fresh permutation from the config seed and walks it in
    contiguous batches (the last batch may be short). Step k of this call
    runs at the schedule's rate for global step ``global_step_base + k``, and
    every step applies the full-strength L2 term. Returns the trained model
    and its full-dataset regularized loss. Raises DivergenceError at the
    first non-finite batch loss, naming the global step.
    """
    _require_trainable(dataset)
    x = _augment(dataset.features)
    y = dataset.observed_labels
    n = dataset.n
    if x.shape[1] != model.weights.shape[0]:
        raise ValueError(
            f"model expects {model.weights.shape[0] - 1} features, dataset has {dataset.d}")
    weights = model.weights.copy()
    rng = derive_rng(config.seed, TRAIN)
    lam = config.l2_lambda
    schedule = config.lr_schedule
    fixed_eta = lr_at(schedule, global_step_base + 1) if isinstance(schedule, Constant) else None
    add = np.add.reduce
    # Row starts in a flattened (batch, c) array: a batch's label entries
    # are `row_starts[:m] + yb`, cheaper to index than (rows, labels) pairs.
    row_starts = np.arange(min(config.batch_size, n)) * model.class_count
    step = global_step_base
    for _ in range(config.local_epochs):
        for rows in epoch_batches(n, config.batch_size, rng):
            step += 1
            m = len(rows)
            xb, yb = x[rows], y[rows]
            picked = row_starts[:m] + yb
            logp = _log_softmax(xb @ weights)
            nll = -(add(logp.ravel()[picked]) / m)
            batch_loss = nll + 0.5 * lam * add(weights ** 2, axis=None)
            if not math.isfinite(batch_loss):
                raise DivergenceError(
                    f"loss went non-finite at global step {step}; lower the learning rate")
            probs = np.exp(logp)
            probs.ravel()[picked] -= 1.0
            grad = xb.T @ probs / m + lam * weights
            weights -= (fixed_eta if fixed_eta is not None else lr_at(schedule, step)) * grad
    trained = ModelParams(weights=weights, class_count=model.class_count)
    return trained, _losses(trained.weights[None], x, y, lam)[0]


def steps_per_round(n: int, config: TrainerConfig) -> int:
    """SGD steps one `train_local` call performs on an n-instance dataset."""
    batch = min(config.batch_size, n)
    per_epoch = -(-n // batch)
    return config.local_epochs * per_epoch


def smoothness_bound(dataset: Dataset, l2_lambda: float = 0.0) -> float:
    """Provable gradient-Lipschitz bound: (max augmented-row norm^2)/2 + lambda.

    1/2 bounds the spectral norm of the softmax Jacobian diag(p) - p p^T.
    """
    rows = np.sum(_augment(dataset.features) ** 2, axis=1)
    return float(rows.max() / 2.0 + l2_lambda)


_MODEL_MAGIC = "softmax-weights v1"


def save_model(model: ModelParams, path) -> None:
    """Write weights as text: magic, shape, then one %.17g row per line.

    %.17g round-trips float64 exactly, so the file parses back to the same
    bits and its bytes are a pure function of the weights.
    """
    rows, cols = model.weights.shape
    with open(path, "w") as fh:
        fh.write(f"{_MODEL_MAGIC}\n{rows} {cols}\n")
        for row in model.weights:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")
