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
lockstep: the round's participants, Procedure 1's fold models, or the
participants of a round-constant measurement. Each step runs in ticks of
up to `_STEP_BLOCK` batch logits' worth of models, the models of one batch
row count adjacent (the short last batches of an epoch give a tick
several). A tick is fused (`_sgd_tick`): it packs every model's batch
into one block of rows, so one log-softmax, one label gather, one exp, one
subtract-at-labels, one L2 term and one update serve the whole tick. What
stays per row count is one stacked matmul each way and the reduction of
each model's NLL over its own rows. Padding the short batches with zero
rows to one row count would make those products one matmul per tick, but
it changes their bits whenever the row count is not a multiple of 4
(OpenBLAS's row-remainder kernels; 468 of 3000 random shapes), so batches
are packed, not padded. Either way the per-step interpreter cost is paid
once per tick instead of once per model. One model is a stack of one, on
the same loop. Every model's weights and divergence step are bitwise those
of training it alone.

`_log_softmax` reduces along each row or over the c class columns, by row
count: numpy reduces along a short last axis with one inner loop per row,
which over thousands of rows costs more than the arithmetic, so from
`_COLUMN_ROWS_PER_CLASS` rows per class the row max and the exp-sum run as
a few calls per class column instead, the sum in numpy's own pairwise
order. On fewer rows (an SGD step, a batch gradient, a small training set)
those calls cost more than the rows they save. Both forms give the same
bits. The products keep their layout, ``x @ w`` into an (n, c) array and
``x.T @ probs``: a class-major product would hand over the columns
contiguous, but BLAS sums it in another order, and the bits change.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ._rng import TRAIN, derive_rngs
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


def init_model(d: int, c: int) -> ModelParams:
    """Fresh model: all-zero weights."""
    return ModelParams(weights=np.zeros((d + 1, c)), class_count=c)


def _augment(features: np.ndarray) -> np.ndarray:
    return np.hstack([features, np.ones((features.shape[0], 1))])


def _require_trainable(dataset: Dataset) -> None:
    if dataset.n == 0:
        raise ValueError("dataset is empty")
    if (dataset.observed_labels == OUT_OF_SPACE).any():
        raise ValueError("dataset has out-of-space labels; drop them before training")


#: Rows per class from which `_log_softmax` reduces over the class columns.
#: The row form pays an inner loop per row, the column form a few calls per
#: class column. Inside `_losses` and `gradient` on a 2-vCPU VM the two
#: break even near 40 rows per class at c = 10 (234 x 10: columns 21%
#: slower; 500 x 10: 3-13% faster) and below 25 at c = 3. The constant is
#: the c = 10 point, so no shape measured takes columns where they are slower.
_COLUMN_ROWS_PER_CLASS = 40


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis, written over ``logits`` and returned.

    Every caller passes a product it owns, so working in place only saves
    the two temporaries of its size; the arithmetic is the same. The
    reductions run along each row (`_log_softmax_rows`) or over the class
    columns (`_log_softmax_columns`), whichever is faster at this row
    count; both give the same bits.
    """
    c = logits.shape[-1]
    if logits.size >= _COLUMN_ROWS_PER_CLASS * c * c:
        return _log_softmax_columns(logits)
    return _log_softmax_rows(logits)


def _log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    """`_log_softmax` with numpy's reductions along the last axis."""
    # The ufunc reductions that `.max` and `.sum` dispatch to, called
    # directly: the same arithmetic without the wrappers' per-call cost.
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    logits -= np.log(np.add.reduce(np.exp(logits), axis=-1, keepdims=True))
    return logits


def _log_softmax_columns(logits: np.ndarray) -> np.ndarray:
    """`_log_softmax_rows`, bitwise, reduced over the class columns ``logits[..., k]``.

    numpy reduces along the last axis with one inner loop per row, so over
    thousands of rows of c classes the two reductions cost far more than
    their arithmetic. Here the row max is c-1 `np.maximum` calls over the
    columns (max is exact in any order) and the exp-sum is `_exp_class_sum`,
    in the order `np.add.reduce` adds each row.
    """
    c = logits.shape[-1]
    top = np.maximum(logits[..., 0], logits[..., -1])
    for k in range(1, c - 1):
        np.maximum(top, logits[..., k], out=top)
    logits -= top[..., None]
    total = _exp_class_sum(logits)
    logits -= np.log(total, out=total)[..., None]
    return logits


def _exp_class_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the last axis of the exp of each column ``values[..., k]``.

    The terms are added in the order of numpy's ``pairwise_sum`` for one
    contiguous row, so the sum is bitwise ``np.add.reduce(np.exp(values),
    axis=-1)``: left to right below 8 terms; up to 128, eight interleaved
    partial sums joined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    rest in order; above 128, the sums of two halves split at a multiple of
    8. (numpy also adds the result to +0.0, which only turns a sum of -0.0
    terms into +0.0; exp gives no -0.0.) That order is numpy's internals as
    checked on numpy 2.4.6; `test_exp_class_sum_bitwise_equals_row_reduction`
    guards it. One term is taken at a time and added in place, so up to 128
    terms hold at most nine vectors of the row count at once.
    """
    c = values.shape[-1]
    if c > 128:
        half = c // 2 - c // 2 % 8
        total = _exp_class_sum(values[..., :half])
        total += _exp_class_sum(values[..., half:])
        return total
    if c < 8:
        total = np.exp(values[..., 0])
        for k in range(1, c):
            total += np.exp(values[..., k])
        return total
    r = [np.exp(values[..., k]) for k in range(8)]
    tail = c - c % 8
    for k in range(8, tail):
        r[k % 8] += np.exp(values[..., k])
    r[0] += r[1]
    r[2] += r[3]
    r[0] += r[2]
    r[4] += r[5]
    r[6] += r[7]
    r[4] += r[6]
    r[0] += r[4]
    for k in range(tail, c):
        r[0] += np.exp(values[..., k])
    return r[0]


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

#: Batch logits per tick of a lockstep SGD step, and logits per block
#: of `_member_losses`. Half a loss block: a tick holds its gathered batches,
#: and every model of the stack holds a random stream and an epoch order, all
#: while the tick's temporaries exist; the round's local losses are scored
#: while the round's models and training sets exist. (On a 2-vCPU VM, full
#: loss blocks there raised `fednl_wide`'s peak RSS by 0.15 MB over scoring
#: one participant at a time, half blocks by 0.03 MB; medians of 9 runs.)
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


def _member_losses(weights: list, members: list, l2_lambda: float) -> list[float]:
    """`loss` of each weight matrix ``weights[j]`` on its own dataset ``members[j]``.

    Consecutive members share a block of at most `_STEP_BLOCK` logits: each
    member's augmented product is written into the block, then one
    log-softmax and one label gather serve the whole block. Each member's
    NLL and L2 term are reduced on their own, as `_losses` reduces a single
    model, so every value is bitwise ``_losses(weights[j][None],
    _augment(x_j), y_j, l2_lambda)[0]``; a member that fills a block alone
    has a block of its own.
    """
    c = weights[0].shape[1]
    sizes = [ds.n for ds in members]
    stack = np.stack(weights)
    sums = np.empty(len(members))
    add = np.add.reduce
    start = 0
    while start < len(members):
        stop, rows = start + 1, sizes[start]
        while stop < len(members) and (rows + sizes[stop]) * c <= _STEP_BLOCK:
            rows += sizes[stop]
            stop += 1
        block = members[start:stop]
        bounds = list(accumulate(sizes[start:stop], initial=0))
        # One member's augmented features at a time, as `_augment` would hold them.
        x = np.empty((max(sizes[start:stop]), stack.shape[1]))
        x[:, -1] = 1.0
        logits = np.empty((rows, c))
        for w, ds, a, b in zip(stack[start:stop], block, bounds, bounds[1:]):
            x[:b - a, :-1] = ds.features
            np.matmul(x[:b - a], w, out=logits[a:b])
        picked = np.arange(0, rows * c, c)
        picked += np.concatenate([ds.observed_labels for ds in block])
        nll = _log_softmax(logits).reshape(-1)[picked]
        for j, a, b in zip(range(start, stop), bounds, bounds[1:]):
            sums[j] = add(nll[a:b])
        start = stop
    return (-(sums / sizes) + 0.5 * l2_lambda
            * add((stack ** 2).reshape(len(members), -1), axis=-1)).tolist()


def loss(model: ModelParams, dataset: Dataset, l2_lambda: float = 0.0) -> float:
    """Mean cross-entropy over the dataset plus (l2_lambda/2) ||W||^2."""
    _require_trainable(dataset)
    # Let the augmented features go before the softmax temporaries exist:
    # holding them made every call on a 5000-row set fault fresh pages in,
    # about twice as slow.
    weights = model.weights[None]
    logits = _augment(dataset.features) @ weights
    return _losses_of_logits(logits, dataset.observed_labels, weights, l2_lambda)[0]


def gradient(model: ModelParams, dataset: Dataset, l2_lambda: float = 0.0) -> np.ndarray:
    """Analytic gradient of `loss` over the dataset, same shape as the weights."""
    _require_trainable(dataset)
    return _gradient(model.weights, _augment(dataset.features), dataset.observed_labels,
                     l2_lambda)


def _gradient(weights: np.ndarray, x: np.ndarray, labels: np.ndarray,
              l2_lambda: float) -> np.ndarray:
    """`gradient` from augmented features x and their labels, unchecked."""
    probs = np.exp(_log_softmax(x @ weights))
    probs[np.arange(len(labels)), labels] -= 1.0
    return x.T @ probs / len(labels) + l2_lambda * weights


def _objective(dataset: Dataset, l2_lambda: float):
    """`loss` and flattened `gradient` of one dataset as one function of the weights.

    Validates the dataset and augments its features once, and allocates one
    (n, c) buffer. Each call of the returned ``evaluate(w)`` runs the whole
    pass in that buffer: logits, then `_log_softmax` in place, the loss read
    through a flat label index, then probabilities minus one at the labels.
    The two products stay ``np.matmul(x, w, out=buf)`` and
    ``x.T @ buf``; a class-major ``w.T @ x.T`` changes the bits. ``w`` holds
    the (d+1, c) weights in any shape that reshapes to it. The values are
    bitwise those of `loss` and `gradient`.
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


def predict(model: ModelParams, x: np.ndarray) -> np.ndarray:
    """Most probable class of each row of x, an int array; ties go to the lowest index."""
    return np.argmax(_augment(x) @ model.weights, axis=1).astype(np.int64)


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


def _sgd_tick(weights: np.ndarray, tick: list, features: list, labels: list,
              xbuf: np.ndarray, ybuf: np.ndarray, lam: float, rates) -> np.ndarray:
    """One SGD step of the models in ``tick``, each on its own batch.

    ``tick`` lists (member, batch rows) pairs, those of one row count
    adjacent and in member order, and ``rates`` has their rates in that
    order. Their weights, rows of the (k, d+1, c) stack, are stepped in
    place. The batches are packed in that order into the leading rows of
    the (rows, d+1) and (rows,) buffers, a slot of rows per model; the last
    column of ``xbuf`` holds the bias 1. Each run of one row count shares
    one stacked matmul each way and one NLL reduction; the log-softmax, the
    label gather, the losses, the L2 term and the update each run once over
    all slots. Returns the batch losses, taken before the step, in slot
    order.
    """
    d1 = xbuf.shape[1]
    runs = []  # [row count, slots] of each run of equal row counts
    for _, rows in tick:
        if runs and runs[-1][0] == len(rows):
            runs[-1][1] += 1
        else:
            runs.append([len(rows), 1])
    r = sum(m * k for m, k in runs)
    c = weights.shape[2]
    # The gathered features, then the logits: a contiguous gather is three
    # times faster than one into the buffer's strided feature columns.
    scratch = np.empty(r * max(d1 - 1, c))
    gathered = scratch[:r * (d1 - 1)].reshape(r, d1 - 1)
    start = 0
    # Rows are in range, so mode="clip" only skips the buffered bounds check.
    for j, rows in tick:
        features[j].take(rows, axis=0, out=gathered[start:start + len(rows)], mode="clip")
        labels[j].take(rows, out=ybuf[start:start + len(rows)], mode="clip")
        start += len(rows)
    xbuf[:r, :-1] = gathered
    members = [j for j, _ in tick]
    g, first = len(members), members[0]
    # The slots are a slice of the stack when the members are consecutive.
    contiguous = members == list(range(first, first + g))
    w = weights[first:first + g] if contiguous else weights[members]
    logits = scratch[:r * c].reshape(r, c)
    grad = np.empty_like(w)
    parts = []  # (first row, features, logits, slots) of each run
    start = slot = 0
    for m, k in runs:
        x = xbuf[start:start + k * m].reshape(k, m, d1)
        out = logits[start:start + k * m].reshape(k, m, c)
        np.matmul(x, w[slot:slot + k], out=out)
        parts.append((start, x, out, slice(slot, slot + k)))
        start += k * m
        slot += k
    flat = _log_softmax(logits).reshape(-1)
    picked = np.arange(0, r * c, c) + ybuf[:r]
    nll = flat[picked]
    sums = np.empty(g)
    add = np.add.reduce
    # Each model's mean NLL and L2 term are reduced along the last axis,
    # which sums in the same order as the single-model reductions.
    for start, _, out, slots in parts:
        k, m = out.shape[:2]
        add(nll[start:start + k * m].reshape(k, m), axis=-1, out=sums[slots])
        sums[slots] /= m
    batch_loss = -sums + 0.5 * lam * add((w ** 2).reshape(g, -1), axis=-1)
    np.exp(logits, out=logits)
    flat[picked] -= 1.0
    for _, x, probs, slots in parts:
        np.matmul(x.transpose(0, 2, 1), probs, out=grad[slots])
        grad[slots] /= x.shape[1]
    grad += lam * w
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
    Each step runs in ticks of up to `_STEP_BLOCK` batch logits' worth of
    members, grouped by batch row count (see the module docstring).
    Returns the list of trained models; each is bitwise what a stack of that
    member alone gives.

    Raises DivergenceError at the first non-finite batch loss, naming the
    global step. When members fail, the error is the lowest-indexed one's,
    with its index as ``member``, even when a higher one fails in an earlier
    slot of the same tick: members above it are dropped, and the ones below
    it are trained to the end first.
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
    rngs = derive_rngs(stack.seeds[:live], TRAIN)
    bases = stack.step_bases[:live]
    orders = [None] * live
    lam = config.l2_lambda
    schedule = config.lr_schedule
    weights = np.repeat(model.weights[None], live, axis=0)
    b_max = max(batch, default=1)
    # Models per tick: as in `_losses`, so no temporary outgrows the
    # single-model ones by much however many models the stack holds.
    per_tick = max(1, _STEP_BLOCK // (b_max * c))
    xbuf = np.empty((min(live, per_tick) * b_max, d1))
    xbuf[:, -1] = 1.0
    ybuf = np.empty(min(live, per_tick) * b_max, dtype=np.int64)
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
        # The step's batches, those of one row count adjacent, cut into ticks.
        due = [entry for entries in groups.values() for entry in entries]
        for start in range(0, len(due), per_tick):
            tick = [entry for entry in due[start:start + per_tick] if entry[0] < live]
            if not tick:
                continue
            if isinstance(schedule, Constant):
                rates = schedule.eta
            else:
                rates = np.array([lr_at(schedule, bases[j] + s + 1)
                                  for j, _ in tick])[:, None, None]
            batch_loss = _sgd_tick(weights, tick, features, labels, xbuf, ybuf, lam, rates)
            if math.isfinite(np.add.reduce(batch_loss)):
                continue
            # Slots follow row counts, not members: take the lowest failing member.
            j = min((tick[k][0] for k in np.flatnonzero(~np.isfinite(batch_loss))),
                    default=live)
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
    return [ModelParams(weights=w.copy(), class_count=c) for w in weights]


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
