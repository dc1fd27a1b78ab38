"""Multinomial logistic regression trained with mini-batch SGD.

The model is a single weight matrix of shape (d+1, c); the extra row is the
bias, driven by a constant appended 1-feature. The objective is mean
cross-entropy plus (lambda/2) ||W||_F^2, which is lambda-strongly convex and
L-smooth, so convergence-rate claims about the federation are actually
checkable against this trainer.

Learning rates come from a schedule indexed by the global SGD step, which
advances across rounds; callers pass each model's step count already
consumed.

Every loss and gradient of that objective comes from one kernel, `_xent`:
`loss` and `gradient`, the lockstep SGD ticks, the round's local losses,
the leave-one-out scores of the influence update, the solver objective of
`_stacked_objective` and the batch gradients of the round-constant
measurement. It packs the logits of a stack of models into one buffer,
runs one log-softmax, one label gather and, for gradients, one exp and one
subtract-at-labels over all of them, and reduces each model's terms on its
own, so each value is bitwise that of the model alone. The smoothness
probe needs only gradient differences, which hold no labels: it takes
`_label_free_gradient`, the gradient without its label term.

`train_local` trains a `DatasetStack` of k models from one start in
lockstep: the round's participants, Procedure 1's fold models, or the
participants of a round-constant measurement. Each step runs in ticks of
up to `_STEP_BLOCK` batch logits' worth of models, the models of one batch
row count adjacent (the short last batches of an epoch give a tick
several). A tick (`_sgd_tick`) packs every model's batch into one block of
rows, one `_xent` run per row count, and updates all its models at once.
Padding the short batches with zero rows to one row count would make a
tick one run, but it changes the products' bits whenever the row count is
not a multiple of 4 (OpenBLAS's row-remainder kernels; 468 of 3000 random
shapes), so batches are packed, not padded. The per-step interpreter cost
is paid once per tick instead of once per model. Which members each tick
holds, and where its rows and logits go in a set of buffers
(`_tick_layout`), depends only on the members' row counts, the batch size,
the epoch count and c. So it is planned once (`_TickPlan`), with one
layout per signature of batch row counts (a stack of equal members has
two: its full batches and its short last ones), and the stack owns the
plan: the round loop keeps one stack for the run, and every round after
the first only draws permutations, gathers, scores and steps. One model
is a stack of one, on the same loop, and every model's weights and
divergence step are bitwise those of training it alone.

`_log_softmax` reduces over the c classes of a class-major (c, n) array:
numpy reduces along a short last axis with one inner loop per row, which
costs more than the arithmetic, while over the class rows of a contiguous
array the max and the exp-sum take a few calls, the sum in numpy's own
pairwise order, so the bits are those of a reduction along each row.
`_xent` copies its (n, c) logits into a class-major buffer a block of at
most `_LOSS_BLOCK` logits at a time (one block for an SGD tick or a loss
block; several for a full batch, which a whole copy would add to peak
memory), and copies the probabilities back for the gradient product. The
products keep their layout, ``x @ w`` into an (n, c) array and
``x.T @ probs``: a class-major product would hand over the columns
contiguous, but BLAS sums it in another order, and the bits change.
"""

import math
from dataclasses import dataclass, field
from itertools import accumulate, groupby
from typing import NamedTuple

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
    each `train_local` call.
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


#: Logits scored per batched matmul in `_losses`, and per block of rows of
#: `_xent`'s class-major log-softmax. Blocks of 2**13 float64 (64 KiB) keep
#: each temporary small enough that scoring many models at once leaves peak
#: memory where scoring them one by one does, and a full batch's class-major
#: copy at one block. (On a 2-vCPU VM, copying `rounds_grid`'s full L-BFGS
#: batches whole raised its peak RSS by 0.45 MB.)
_LOSS_BLOCK = 1 << 13

#: Batch logits per tick of a lockstep SGD step, and logits per block
#: of `_member_losses`. Half a loss block: a tick holds its gathered batches,
#: and every model of the stack holds a random stream and an epoch order, all
#: while the tick's temporaries exist; the round's local losses are scored
#: while the round's models and training sets exist. (On a 2-vCPU VM, full
#: loss blocks there raised `fednl_wide`'s peak RSS by 0.15 MB over scoring
#: one participant at a time, half blocks by 0.03 MB; medians of 9 runs.)
_STEP_BLOCK = 1 << 12


def _log_softmax(values: np.ndarray, spare: np.ndarray | None = None) -> np.ndarray:
    """Log-softmax over the classes ``values[k]`` of a (c, n) array, written over it.

    numpy reduces along a short last axis with one inner loop per row, but
    over the first axis of a contiguous array in a few calls: the max in
    one reduction (exact in any order), the exp-sum in `_exp_class_sum`, in
    numpy's own order, so every value is bitwise a log-softmax along the
    rows of the (n, c) array. ``spare``, an array of the shape of
    ``values`` free to overwrite, takes the exps. Returns ``values``.
    """
    values -= np.maximum.reduce(values, axis=0)
    values -= np.log(_exp_class_sum(values, spare))
    return values


def _exp_class_sum(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum over the first axis of the exp of each class row ``values[k]``.

    The terms are added in the order of numpy's ``pairwise_sum`` for one
    contiguous row, so the sum is bitwise what ``np.add.reduce(axis=-1)``
    gives over the contiguous (n, c) exps: left to right below 8 terms; up
    to 128, eight interleaved partial sums joined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest in order; above 128,
    the sums of two halves split at a multiple of 8. (numpy also adds the
    result to +0.0, which only turns a sum of -0.0 terms into +0.0; exp
    gives no -0.0.) That order is numpy's internals as checked on numpy
    2.4.6; `test_exp_class_sum_bitwise_equals_row_reduction` guards it. The
    exps are taken in one call, into ``out`` when given, and summed in
    place.
    """
    c = len(values)
    if c > 128:
        half = c // 2 - c // 2 % 8
        total = _exp_class_sum(values[:half], None if out is None else out[:half])
        total += _exp_class_sum(values[half:], None if out is None else out[half:])
        return total
    r = np.exp(values, out=out)
    tail = 1 if c < 8 else c - c % 8
    for k in range(8, tail):
        r[k % 8] += r[k]
    if c >= 8:
        for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
            r[a] += r[b]
    for k in range(tail, c):
        r[0] += r[k]
    return r[0]


def _class_major_blocks(logits: np.ndarray, major: np.ndarray) -> list:
    """The blocks of rows of the (n, c) ``logits`` that one class-major copy holds at a time.

    Each block of at most ``len(major) // c`` rows is (its rows, as a slice;
    its (m, c) logits; their (c, m) copy, in the leading part of the flat
    buffer ``major``; the same memory as the logits, viewed (c, m)).
    """
    n, c = logits.shape
    per = len(major) // c
    out = []
    for a in range(0, n, per):
        block = logits[a:a + per]
        shape = (c, len(block))
        out.append((slice(a, a + per), block, major[:block.size].reshape(shape),
                    block.reshape(shape)))
    return out


class _Layout(NamedTuple):
    """Where the runs of one `_xent` call put their logits; see `_layout`."""

    runs: list  # (block, its logits, its models' slots, its rows) of each run
    rows: np.ndarray  # each model's row count, as floats
    logits: np.ndarray  # (n, c): the runs' logits, packed in order
    base: np.ndarray  # 0, 1, ... for the rows of a block of the class-major copy
    blocks: list  # `_class_major_blocks` of the logits


def _layout(runs: list, logits: np.ndarray, base: np.ndarray | None = None,
            spare: np.ndarray | None = None) -> _Layout:
    """The `_Layout` of ``runs``, their logits packed into the leading rows of ``logits``.

    ``runs`` covers the models of a weight stack in order: each is a
    (k, m, d+1) block of augmented rows for the next k models, m rows each,
    either their own rows or one (m, d+1) block they share, broadcast. The
    class-major copy takes blocks of at most `_LOSS_BLOCK` logits. ``base``
    is a range of at least a block's rows, and ``spare`` a flat buffer of
    at least a block's logits; each is made when omitted. A layout built on
    given buffers holds only views of them, so it serves every call on them.
    """
    c = logits.shape[1]
    parts, counts = [], []
    start = slot = 0
    for x in runs:
        k, m = x.shape[0], x.shape[1]
        stop = start + k * m
        parts.append((x, logits[start:stop].reshape(k, m, c), slice(slot, slot + k),
                      slice(start, stop)))
        counts += [m] * k
        start, slot = stop, slot + k
    per = max(1, min(start, _LOSS_BLOCK // c))
    base = np.arange(per) if base is None else base[:per]
    major = np.empty(per * c) if spare is None else spare[:per * c]
    return _Layout(parts, np.array(counts, dtype=float), logits[:start], base,
                   _class_major_blocks(logits[:start], major))


def _xent(w: np.ndarray, layout: _Layout, labels: np.ndarray, lam: float,
          grads: np.ndarray | None = None) -> np.ndarray:
    """`loss` of every model in a (g, d+1, c) weight stack, and its `gradient` into ``grads``.

    ``layout`` places the models' rows and logits (`_layout`); ``labels``
    (n,) are the rows' labels. Each run takes one stacked product each way
    and one NLL reduction. The log-softmax, label gather, exp and
    subtract-at-labels run on the layout's class-major copy of the logits,
    a block of rows at a time (one block for a tick or a loss block), each
    block copied back for the gradient product. Each model's terms are
    reduced on their own along the last axis, as a single model's are, so
    its returned loss and its ``grads`` slice are bitwise what it gets
    alone.
    """
    g = w.shape[0]
    logits = layout.logits
    for x, out, slots, _ in layout.runs:
        np.matmul(x, w[slots], out=out)
    nll = np.empty(len(logits))
    for rows, block, values, spare in layout.blocks:
        np.copyto(values, block.T)
        # The block's logits are free until they are copied back, so they
        # take the exps.
        _log_softmax(values, spare)
        # Each row's flat label index in the copy; all are in range, so
        # mode="clip" only skips the buffered bounds check.
        picked = labels[rows] * len(block)
        picked += layout.base[:len(block)]
        flat = values.reshape(-1)
        flat.take(picked, out=nll[rows], mode="clip")
        if grads is not None:
            np.exp(flat, out=flat)
            flat[picked] -= 1.0
            np.copyto(block, values.T)
    sums = np.empty(g)
    add = np.add.reduce
    for _, out, slots, rows in layout.runs:
        add(nll[rows].reshape(out.shape[:2]), axis=-1, out=sums[slots])
    sums /= layout.rows
    losses = add((w ** 2).reshape(g, -1), axis=-1)
    losses *= 0.5 * lam
    losses -= sums
    if grads is not None:
        for x, probs, slots, _ in layout.runs:
            np.matmul(x.transpose(0, 2, 1), probs, out=grads[slots])
        grads /= layout.rows[:, None, None]
        grads += lam * w
    return losses


def _label_free_gradient(w: np.ndarray, x: np.ndarray, probs: np.ndarray,
                         lam: float) -> np.ndarray:
    """`gradient` at the (d+1, c) weights w without its label term: x' softmax(x w) / n + lam w.

    ``x`` holds the n augmented rows and ``probs`` is an (n, c) buffer. The
    label term, -x' Y / n for the one-hot labels Y, does not depend on w,
    so the difference of two weights' values is that of their gradients,
    whatever the labels. The softmax runs on the class-major blocks of
    `_xent`'s layout.
    """
    np.matmul(x, w, out=probs)
    for _, block, values, spare in _layout([x[None]], probs).blocks:
        np.copyto(values, block.T)
        np.exp(_log_softmax(values, spare), out=values)
        np.copyto(block, values.T)
    g = x.T @ probs
    g /= len(x)
    g += lam * w
    return g


def _pack(members: list) -> tuple[np.ndarray, list[int], np.ndarray]:
    """The members' rows augmented into one block, member after member.

    Returns the block, each member's first row and then the end row, and
    the rows' labels.
    """
    bounds = list(accumulate((ds.n for ds in members), initial=0))
    x = np.empty((bounds[-1], members[0].d + 1))
    x[:, -1] = 1.0
    for ds, a, b in zip(members, bounds, bounds[1:]):
        x[a:b, :-1] = ds.features
    return x, bounds, np.concatenate([ds.observed_labels for ds in members])


def _losses(stack: np.ndarray, x: np.ndarray, labels: np.ndarray,
            l2_lambda: float) -> list[float]:
    """`loss` of every model in an (m, d+1, c) weight stack on augmented features x.

    Blocks of up to `_LOSS_BLOCK` logits share the one copy of x, one
    logit buffer and one copy of the labels per model.
    """
    n, c = x.shape[0], stack.shape[2]
    per_block = max(1, min(len(stack), _LOSS_BLOCK // (n * c)))
    logits = np.empty((per_block * n, c))
    labels = np.tile(labels, per_block)
    out = []
    for start in range(0, len(stack), per_block):
        block = stack[start:start + per_block]
        rows = len(block) * n
        layout = _layout([np.broadcast_to(x, (len(block),) + x.shape)], logits[:rows])
        out += _xent(block, layout, labels[:rows], l2_lambda).tolist()
    return out


def _member_losses(weights: list, members: list, l2_lambda: float) -> list[float]:
    """`loss` of each weight matrix ``weights[j]`` on its own dataset ``members[j]``.

    Consecutive members share a block of at most `_STEP_BLOCK` logits, one
    `_xent` call over their packed rows, so every value is bitwise `loss`;
    a member that fills a block alone has a block of its own.
    """
    c = weights[0].shape[1]
    stack = np.stack(weights)
    out = []
    start = 0
    while start < len(members):
        stop, rows = start + 1, members[start].n
        while stop < len(members) and (rows + members[stop].n) * c <= _STEP_BLOCK:
            rows += members[stop].n
            stop += 1
        x, bounds, labels = _pack(members[start:stop])
        runs = [x[None, a:b] for a, b in zip(bounds, bounds[1:])]
        out += _xent(stack[start:stop], _layout(runs, np.empty((rows, c))), labels,
                     l2_lambda).tolist()
        start = stop
    return out


def loss(model: ModelParams, dataset: Dataset, l2_lambda: float = 0.0) -> float:
    """Mean cross-entropy over the dataset plus (l2_lambda/2) ||W||^2."""
    _require_trainable(dataset)
    return _losses(model.weights[None], _augment(dataset.features), dataset.observed_labels,
                   l2_lambda)[0]


def gradient(model: ModelParams, dataset: Dataset, l2_lambda: float = 0.0) -> np.ndarray:
    """Analytic gradient of `loss` over the dataset, same shape as the weights."""
    grads = _stacked_objective([dataset], l2_lambda)(model.weights.reshape(1, -1), [0])[1]
    return grads.reshape(model.weights.shape)


def _stacked_objective(members, l2_lambda: float):
    """`loss` and flattened `gradient` of k datasets at once, each on its own rows.

    The members are validated and packed once (`_pack`), and one (n, c)
    buffer is allocated for all n rows. ``evaluate(w, which)`` takes the
    flat weights of the members listed in ``which`` (increasing indices),
    an (m, (d+1) c) array in that order, and returns their losses (m,) and
    flat gradients (m, (d+1) c): one `_xent` call, each member a run of one
    model on its own rows, their logits in the buffer's leading rows. The
    values are bitwise those of `loss` and `gradient` on each member alone.
    """
    for ds in members:
        _require_trainable(ds)
    d, c = members[0].d, members[0].class_count
    x, bounds, all_labels = _pack(members)
    blocks = [x[None, a:b] for a, b in zip(bounds, bounds[1:])]
    buf = np.empty((bounds[-1], c))
    every = _layout(blocks, buf)

    def evaluate(w: np.ndarray, which) -> tuple[np.ndarray, np.ndarray]:
        m = len(which)
        if m == len(blocks):
            layout, labels = every, all_labels
        else:
            which = np.asarray(which).tolist()
            layout = _layout([blocks[j] for j in which], buf)
            labels = np.concatenate([all_labels[bounds[j]:bounds[j + 1]] for j in which])
        grads = np.empty((m, d + 1, c))
        values = _xent(w.reshape(m, d + 1, c), layout, labels, l2_lambda, grads)
        return values, grads.reshape(m, -1)

    return evaluate


def predict(model: ModelParams, x: np.ndarray) -> np.ndarray:
    """Most probable class of each row of x, an int array; ties go to the lowest index."""
    return np.argmax(_augment(x) @ model.weights, axis=1).astype(np.int64)


@dataclass(frozen=True)
class DatasetStack:
    """Training sets of the k models a `train_local` call trains in lockstep.

    ``n`` is the row count over all members. The stack owns the tick plans
    of its calls (`_TickPlan`), one per batch size, epoch count and class
    count, each built on the first call under them and freed with the
    stack. A caller that trains the same members again, as the round loop
    does every round, keeps one stack and plans once.
    """

    members: tuple[Dataset, ...]
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("a dataset stack needs at least one member")
        object.__setattr__(self, "members", members)

    @property
    def n(self) -> int:
        return sum(ds.n for ds in self.members)

    def _plan(self, config: TrainerConfig, c: int) -> "_TickPlan":
        key = (config.batch_size, config.local_epochs, c)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = _TickPlan(self.members, *key)
        return plan


class _Tick(NamedTuple):
    """Where one tick of a `_TickPlan` goes in the plan's buffers; see `_tick_layout`."""

    gathered: np.ndarray  # the batches' features, packed
    features: np.ndarray  # the feature columns of the tick's rows of the row buffer
    labels: np.ndarray  # the tick's labels
    xent: _Layout


def _tick_layout(sizes: tuple, c: int, xbuf: np.ndarray, ybuf: np.ndarray,
                 scratch: np.ndarray, base: np.ndarray) -> _Tick:
    """The `_Tick` of a tick on batches of ``sizes`` rows, in slot order.

    The batches are packed in slot order into the leading rows of the
    (rows, d+1) and (rows,) buffers ``xbuf`` and ``ybuf``, a slot of rows
    per model; the last column of ``xbuf`` holds the bias 1. ``scratch``
    holds the gathered features, then the logits and the class-major copy
    after them: a contiguous gather is three times faster than one into the
    buffer's strided feature columns. Each run of one row count is one
    `_xent` run. Every array the tick holds is a view of these buffers,
    which every tick of a plan shares.
    """
    d1 = xbuf.shape[1]
    r = sum(sizes)
    runs = []  # a (k, m, d+1) block of each run of k equal row counts m
    start = 0
    for m, run in groupby(sizes):
        k = len(list(run))
        runs.append(xbuf[start:start + k * m].reshape(k, m, d1))
        start += k * m
    xent = _layout(runs, scratch[:r * c].reshape(r, c), base, scratch[r * c:])
    return _Tick(scratch[:r * (d1 - 1)].reshape(r, d1 - 1), xbuf[:r, :-1], ybuf[:r], xent)


class _TickPlan:
    """The lockstep schedule of `train_local` over some datasets, with its buffers.

    ``steps[s]`` is step s's (members that start an epoch there, ticks).
    A tick is (its members in slot order; their rows of the weight stack, a
    slice when they are consecutive, else a list; the `_Tick` of their
    batch row counts). A step's batches of one row count are adjacent, in
    member order, and cut into ticks of up to `_STEP_BLOCK` batch logits.
    Only row counts decide a plan, so it serves calls of any seeds, step
    bases, start weights, rate and L2 term. Equal ticks are one object,
    and each signature of row counts has one `_Tick` (``layouts``); all of
    them share the buffers.
    """

    def __init__(self, datasets, batch_size: int, local_epochs: int, c: int):
        sizes = [ds.n for ds in datasets]
        self.c = c
        self.batch = [min(batch_size, n) for n in sizes]
        self.per_epoch = [-(-n // b) for n, b in zip(sizes, self.batch)]
        ends = [local_epochs * p for p in self.per_epoch]
        b_max = max(self.batch)
        # Models per tick: as in `_losses`, so no temporary outgrows the
        # single-model ones by much however many models the stack holds.
        per_tick = max(1, _STEP_BLOCK // (b_max * c))
        cap = min(len(sizes), per_tick) * b_max
        d1 = datasets[0].d + 1
        xbuf = np.empty((cap, d1))
        xbuf[:, -1] = 1.0
        self.buffers = (xbuf, np.empty(cap, dtype=np.int64),
                        np.empty(cap * max(d1 - 1, 2 * c)), np.arange(cap))
        self.layouts = {}
        ticks = {}  # each tick by its members and row counts
        self.steps = []
        for s in range(max(ends)):
            starting, groups = [], {}
            for j, b in enumerate(self.batch):
                if s < ends[j]:
                    q = s % self.per_epoch[j]
                    if q == 0:
                        starting.append(j)
                    groups.setdefault(min(b, sizes[j] - q * b), []).append(j)
            due = [(j, m) for m, js in groups.items() for j in js]
            step = []
            for a in range(0, len(due), per_tick):
                members, counts = zip(*due[a:a + per_tick])
                tick = ticks.get((members, counts))
                if tick is None:
                    tick = ticks[members, counts] = self.tick(list(members), counts)
                step.append(tick)
            self.steps.append((starting, step))

    def tick(self, members: list, counts: tuple) -> tuple:
        """The tick of ``members`` (slot order) on batches of ``counts`` rows."""
        layout = self.layouts.get(counts)
        if layout is None:
            layout = self.layouts[counts] = _tick_layout(counts, self.c, *self.buffers)
        first, g = members[0], len(members)
        contiguous = members == list(range(first, first + g))
        return members, slice(first, first + g) if contiguous else members, layout


def _sgd_tick(weights: np.ndarray, tick: tuple, batches: list, features: list, labels: list,
              lam: float, rates) -> np.ndarray:
    """One SGD step of the models of a `_TickPlan` tick, each on its own batch.

    ``batches`` holds the batch rows of the tick's members, in slot order,
    and ``rates`` their rates in that order. Their weights, rows of the
    (k, d+1, c) stack, are stepped in place. One `_xent` call scores every
    slot at once, and the update runs once over all of them. Returns the
    batch losses, taken before the step, in slot order.
    """
    members, rows_of, layout = tick
    gathered, ybuf = layout.gathered, layout.labels
    start = 0
    # Rows are in range, so mode="clip" only skips the buffered bounds check.
    for j, rows in zip(members, batches):
        stop = start + len(rows)
        features[j].take(rows, axis=0, out=gathered[start:stop], mode="clip")
        labels[j].take(rows, out=ybuf[start:stop], mode="clip")
        start = stop
    np.copyto(layout.features, gathered)
    w = weights[rows_of]
    grad = np.empty_like(w)
    batch_loss = _xent(w, layout.xent, ybuf, lam, grad)
    grad *= rates
    w -= grad
    if rows_of is members:
        weights[members] = w
    return batch_loss


def train_local(model: ModelParams, stack: DatasetStack, config: TrainerConfig, seeds,
                step_bases=None):
    """Train one model per member of ``stack`` from the given weights, in lockstep.

    Each model runs ``local_epochs`` passes of mini-batch SGD over its
    member. Each epoch draws a fresh permutation from the TRAIN stream of
    member j's seed ``seeds[j]`` and walks it in contiguous batches (the
    last batch may be short). Step i of member j runs at the schedule's
    rate for global step ``step_bases[j] + i`` (all bases 0 when omitted),
    and every step applies the full-strength L2 term. Each step runs in
    ticks of up to `_STEP_BLOCK` batch logits' worth of members, grouped by
    batch row count, as the stack's `_TickPlan` for this config lays them
    out: built on the stack's first call, reused by every later one.
    Returns the list of trained models; each is bitwise what a stack of that
    member alone gives.

    Raises DivergenceError at the first non-finite batch loss, naming the
    global step. When members fail, the error is the lowest-indexed one's,
    with its index as ``member``, even when a higher one fails in an earlier
    slot of the same tick: members above it are dropped, and the ones below
    it are trained to the end first. A member that cannot train at all
    (empty, out-of-space labels, another feature count) fails the same way
    before any step; the ones below it are then planned for this call alone.
    """
    k = len(stack.members)
    bases = (0,) * k if step_bases is None else tuple(step_bases)
    if len(seeds) != k or len(bases) != k:
        raise ValueError(f"{k} members need as many seeds and step bases, "
                         f"got {len(seeds)} and {len(bases)}")
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
    live = planned = k if failure is None else failure[0]
    if live:
        sets = stack.members[:live]
        plan = (stack._plan(config, c) if live == k
                else _TickPlan(sets, config.batch_size, config.local_epochs, c))
        features = [ds.features for ds in sets]
        labels = [ds.observed_labels for ds in sets]
        sizes = [ds.n for ds in sets]
        batch, per_epoch = plan.batch, plan.per_epoch
        rngs = derive_rngs(seeds[:live], TRAIN)
        orders = [None] * live
        lam = config.l2_lambda
        schedule = config.lr_schedule
        weights = np.repeat(model.weights[None], live, axis=0)
        for s, (starting, ticks) in enumerate(plan.steps):
            for j in starting:
                orders[j] = rngs[j].permutation(sizes[j])
            for tick in ticks:
                members = tick[0]
                if live < planned:  # a divergence dropped the members from `live` on
                    members = [j for j in members if j < live]
                    if not members:
                        continue
                batches = []
                for j in members:
                    q = s % per_epoch[j] * batch[j]
                    batches.append(orders[j][q:q + batch[j]])
                if members is not tick[0]:
                    tick = plan.tick(members, tuple([len(rows) for rows in batches]))
                if isinstance(schedule, Constant):
                    rates = schedule.eta
                else:
                    rates = np.array([lr_at(schedule, bases[j] + s + 1)
                                      for j in members])[:, None, None]
                batch_loss = _sgd_tick(weights, tick, batches, features, labels, lam, rates)
                if math.isfinite(np.add.reduce(batch_loss)):
                    continue
                # Slots follow row counts, not members: take the lowest failing member.
                j = min((members[slot] for slot in np.flatnonzero(~np.isfinite(batch_loss))),
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
