"""Multinomial logistic regression trained with mini-batch SGD.

The model is a single weight matrix of shape (d+1, c); the extra row is the
bias, driven by a constant appended 1-feature. The objective is mean
cross-entropy plus (lambda/2) ||W||_F^2, which is lambda-strongly convex and
L-smooth, so convergence-rate claims about the federation are actually
checkable against this trainer.

Learning rates come from a schedule indexed by the global SGD step, which
advances across rounds; callers pass each model's step count already
consumed.

`train_local` trains a `DatasetStack` of k models from one start in
lockstep: the round's participants, Procedure 1's three fold models, or the
participants of a round-constant measurement. At each step the models whose
batches have the same row count share one stacked matmul each way and one
log-softmax, so the per-step interpreter cost is paid once per group instead
of once per model. One model is a stack of one, on the same loop. Every
model's weights, loss and divergence step are bitwise those of training it
alone.
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
    config drives every trainer in a run; seeds and step bases come with
    each `DatasetStack`.
    """

    local_epochs: int = 5
    batch_size: int = 32
    lr_schedule: Constant | Diminishing = Constant(0.1)
    l2_lambda: float = 0.01

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
    """Log-softmax along the last axis, written over ``logits`` and returned.

    Every caller passes a product it owns, so working in place only saves
    the two temporaries of its size; the arithmetic is the same.
    """
    # The ufunc reductions that `.max` and `.sum` dispatch to, called
    # directly: the same arithmetic without the wrappers' per-call cost.
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    logits -= np.log(np.add.reduce(np.exp(logits), axis=-1, keepdims=True))
    return logits


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

#: Batch logits per block of a lockstep SGD step. Half a loss block: a step
#: holds its gathered batches, and every model of the stack holds a random
#: stream and an epoch order, all while the block's temporaries exist.
_STEP_BLOCK = 1 << 12


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
    pass in that buffer: logits, then `_log_softmax` in place, the loss read
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
        _log_softmax(np.matmul(x, weights, out=buf))
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


@dataclass(frozen=True)
class DatasetStack:
    """Training sets of the k models one `train_local` call trains in lockstep.

    Member j draws its batches from the TRAIN stream of ``seeds[j]``, and its
    step i runs at the rate of global step ``step_bases[j] + i`` (all 0 when
    omitted). ``n`` is the row count over all members.
    """

    members: tuple[Dataset, ...]
    seeds: tuple[int, ...]
    step_bases: tuple[int, ...] | None = None

    def __post_init__(self):
        members, seeds = tuple(self.members), tuple(self.seeds)
        bases = (0,) * len(members) if self.step_bases is None else tuple(self.step_bases)
        if not members:
            raise ValueError("a dataset stack needs at least one member")
        if len(seeds) != len(members) or len(bases) != len(members):
            raise ValueError(f"{len(members)} members need as many seeds and step bases, "
                             f"got {len(seeds)} and {len(bases)}")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "step_bases", bases)

    @property
    def n(self) -> int:
        return sum(ds.n for ds in self.members)


def _sgd_block(weights: np.ndarray, block: list, m: int, features: list, labels: list,
               xbuf: np.ndarray, ybuf: np.ndarray, lam: float, rates) -> np.ndarray:
    """One SGD step of the models in ``block``, each on m rows of its own data.

    ``block`` lists (member, batch rows) pairs in member order; their weights,
    rows of the (k, d+1, c) stack, are stepped in place. The batches are
    gathered into the leading slots of the (slots, b, d+1) buffer, whose
    last column holds the bias 1, so the block shares one matmul each way
    and one log-softmax. Returns the batch losses, taken before the step.
    """
    g, d = len(block), xbuf.shape[2] - 1
    members = [j for j, _ in block]
    for slot, (j, rows) in enumerate(block):
        features[j].take(rows, axis=0, out=xbuf[slot, :m, :d])
        ybuf[slot, :m] = labels[j][rows]
    first = members[0]
    contiguous = members[-1] - first == g - 1
    w = weights[first:first + g] if contiguous else weights[members]
    x = xbuf[:g, :m]
    c = w.shape[2]
    logp = _log_softmax(np.matmul(x, w))
    flat = logp.reshape(-1)
    # Each model's mean NLL and L2 term are reduced along the last axis,
    # which sums in the same order as the single-model reductions.
    picked = np.arange(0, g * m * c, c).reshape(g, m) + ybuf[:g, :m]
    add = np.add.reduce
    batch_loss = (-(add(flat[picked], axis=-1) / m)
                  + 0.5 * lam * add((w ** 2).reshape(g, -1), axis=-1))
    probs = np.exp(logp, out=logp)
    flat[picked] -= 1.0
    grad = np.matmul(x.transpose(0, 2, 1), probs) / m + lam * w
    w -= rates * grad
    if not contiguous:
        weights[members] = w
    return batch_loss


def train_local(model: ModelParams, stack: DatasetStack, config: TrainerConfig):
    """Train one model per member of ``stack`` from the given weights, in lockstep.

    Each model runs ``local_epochs`` passes of mini-batch SGD over its
    member. Each epoch draws a fresh permutation from the member's TRAIN
    stream and walks it in contiguous batches (the last batch may be short).
    Step i of member j runs at the schedule's rate for global step
    ``step_bases[j] + i``, and every step applies the full-strength L2 term.
    At each step the members whose batches have the same row count are
    stepped together, in blocks of models. Returns the list of trained
    models and the list of their full-dataset regularized losses; each is
    bitwise what a stack of that member alone gives.

    Raises DivergenceError at the first non-finite batch loss, naming the
    global step. When members fail, the error is the lowest-indexed one's,
    with its index as ``member``: members above it are dropped, and the ones
    below it are trained to the end first.
    """
    c, d1 = model.class_count, model.weights.shape[0]
    failure = None  # (member, error) of the lowest-indexed member known to fail
    for j, ds in enumerate(stack.members):
        try:
            _require_trainable(ds)
            if ds.d + 1 != d1:
                raise ValueError(f"model expects {d1 - 1} features, dataset has {ds.d}")
        except ValueError as e:
            failure = (j, e)
            break
    live = len(stack.members) if failure is None else failure[0]
    members = stack.members[:live]
    features = [ds.features for ds in members]
    labels = [ds.observed_labels for ds in members]
    sizes = [ds.n for ds in members]
    batch = [min(config.batch_size, n) for n in sizes]
    per_epoch = [-(-n // b) for n, b in zip(sizes, batch)]
    ends = [config.local_epochs * p for p in per_epoch]
    rngs = [derive_rng(seed, TRAIN) for seed in stack.seeds[:live]]
    bases = stack.step_bases[:live]
    orders = [None] * live
    lam = config.l2_lambda
    schedule = config.lr_schedule
    weights = np.repeat(model.weights[None], live, axis=0)
    b_max = max(batch, default=1)
    # Models per block: as in `_losses`, so no temporary outgrows the
    # single-model ones by much however many models the stack holds.
    per_block = max(1, _STEP_BLOCK // (b_max * c))
    xbuf = np.empty((min(live, per_block), b_max, d1))
    xbuf[..., -1] = 1.0
    ybuf = np.empty((min(live, per_block), b_max), dtype=np.int64)
    for s in range(max(ends, default=0)):
        groups: dict[int, list] = {}
        for j in range(live):
            if s >= ends[j]:
                continue
            q = s % per_epoch[j]
            if q == 0:
                orders[j] = rngs[j].permutation(sizes[j])
            rows = orders[j][q * batch[j]:(q + 1) * batch[j]]
            groups.setdefault(len(rows), []).append((j, rows))
        for m, entries in groups.items():
            for start in range(0, len(entries), per_block):
                block = [entry for entry in entries[start:start + per_block] if entry[0] < live]
                if not block:
                    continue
                if isinstance(schedule, Constant):
                    rates = schedule.eta
                else:
                    rates = np.array([lr_at(schedule, bases[j] + s + 1)
                                      for j, _ in block])[:, None, None]
                batch_loss = _sgd_block(weights, block, m, features, labels, xbuf, ybuf,
                                        lam, rates)
                if math.isfinite(np.add.reduce(batch_loss)):
                    continue
                for slot in np.flatnonzero(~np.isfinite(batch_loss)):
                    j = block[slot][0]
                    if j < live:
                        failure = (j, DivergenceError(
                            f"loss went non-finite at global step {bases[j] + s + 1}; "
                            "lower the learning rate"))
                        live = j
        if live == 0:
            break
    if failure is not None:
        member, error = failure
        error.member = member
        raise error
    models = [ModelParams(weights=w.copy(), class_count=c) for w in weights]
    losses = [_losses(w[None], _augment(f), y, lam)[0]
              for w, f, y in zip(weights, features, labels)]
    return models, losses


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
