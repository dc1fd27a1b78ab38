"""Label-noise channels and seeded noise injection.

A channel is a row-stochastic transition matrix P where P[k, l] is the
probability that an instance whose true class is k is observed with label l.
An optional extra column models corruption to a label outside the class
space entirely.
"""

from dataclasses import dataclass

import numpy as np

from ._rng import INJECT, derive_rng
from .data import OUT_OF_SPACE, Dataset

_ATOL = 1e-12


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic label-transition matrix.

    Shape is (c, c), or (c, c+1) when ``has_out_of_space`` is set; the last
    column is then the probability of leaving the class space.
    """

    probs: np.ndarray
    class_count: int
    has_out_of_space: bool = False

    def __post_init__(self):
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        c = self.class_count
        want = (c, c + 1) if self.has_out_of_space else (c, c)
        if probs.shape != want:
            raise ValueError(f"transition matrix shape {probs.shape}, expected {want}")
        if np.any(probs < -_ATOL):
            raise ValueError("transition probabilities must be non-negative")
        rows = probs.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-12):
            raise ValueError(f"transition rows must sum to 1, got {rows}")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


def symmetric_matrix(c: int, beta: float) -> TransitionMatrix:
    """Uniform channel: stay with 1 - beta, spread beta evenly over the others."""
    if c < 2:
        raise ValueError("need at least 2 classes")
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    probs = np.full((c, c), beta / (c - 1))
    np.fill_diagonal(probs, 1.0 - beta)
    return TransitionMatrix(probs=probs, class_count=c)


def asymmetric_matrix(c: int, pairs) -> TransitionMatrix:
    """Channel from explicit (source, destination, mass) flip rules.

    Unlisted mass stays on the diagonal. Each row's total outgoing mass must
    stay below 1/2 so the true class remains the most likely observation.
    """
    if c < 2:
        raise ValueError("need at least 2 classes")
    probs = np.eye(c)
    seen: set[tuple[int, int]] = set()
    for src, dst, mass in pairs:
        src, dst, mass = int(src), int(dst), float(mass)
        if not 0 <= src < c or not 0 <= dst < c:
            raise ValueError(f"flip rule ({src}, {dst}) outside class space [0, {c})")
        if src == dst:
            raise ValueError(f"flip rule for class {src} targets itself")
        if (src, dst) in seen:
            raise ValueError(f"duplicate flip rule ({src}, {dst})")
        seen.add((src, dst))
        if mass <= 0.0:
            raise ValueError(f"flip rule ({src}, {dst}) has non-positive mass {mass}")
        probs[src, src] -= mass
        probs[src, dst] += mass
    outgoing = 1.0 - np.diag(probs)
    bad = np.flatnonzero(outgoing >= 0.5 - _ATOL)
    if bad.size:
        raise ValueError(
            f"classes {bad.tolist()} send away mass >= 1/2; the true label must stay dominant")
    return TransitionMatrix(probs=probs, class_count=c)


def with_out_of_space(matrix: TransitionMatrix, mass: float) -> TransitionMatrix:
    """Reserve ``mass`` of every row for an out-of-space observation."""
    if matrix.has_out_of_space:
        raise ValueError("matrix already has an out-of-space column")
    if not 0.0 < mass < 1.0:
        raise ValueError("out-of-space mass must lie in (0, 1)")
    c = matrix.class_count
    probs = np.empty((c, c + 1))
    probs[:, :c] = matrix.probs * (1.0 - mass)
    probs[:, c] = mass
    return TransitionMatrix(probs=probs, class_count=c, has_out_of_space=True)


_MATRIX_MAGIC = "transition-matrix v1"


def save_matrix(matrix: TransitionMatrix, path) -> None:
    """Write the matrix as text: magic, class count + flag, row-major entries."""
    with open(path, "w") as fh:
        fh.write(f"{_MATRIX_MAGIC}\n{matrix.class_count} "
                 f"{int(matrix.has_out_of_space)}\n")
        for row in matrix.probs:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


@dataclass(frozen=True)
class NoiseReport:
    """What injection actually did, keyed by true class.

    ``injected_count[k]`` counts instances of true class k whose observed
    label changed; ``realized_ratio[k]`` divides by the class size.
    ``realized`` has the matrix's shape: realized[k, l] is the fraction of
    true-class-k instances observed as l (rows with no instances are zero).
    """

    matrix: TransitionMatrix
    seed: int
    class_counts: np.ndarray
    injected_count: np.ndarray
    realized_ratio: np.ndarray
    realized: np.ndarray
    flip_count: int
    flip_rate: float

    def __post_init__(self):
        for arr in (self.class_counts, self.injected_count, self.realized_ratio, self.realized):
            arr.setflags(write=False)


def inject_noise(dataset: Dataset, matrix: TransitionMatrix,
                 seed: int) -> tuple[Dataset, NoiseReport]:
    """Pass every label through the channel with one uniform draw per instance.

    Truth is the dataset's true labels (observed labels stand in when none
    were retained). The result keeps the original truth so downstream
    estimator checks can score against it. Features are untouched.
    """
    if matrix.class_count != dataset.class_count:
        raise ValueError(
            f"channel is over {matrix.class_count} classes, dataset has {dataset.class_count}")
    truth = dataset.true_labels if dataset.true_labels is not None else dataset.observed_labels
    if np.any(truth == OUT_OF_SPACE):
        raise ValueError("cannot inject noise without a true in-space label for every instance")
    n = dataset.n
    c = dataset.class_count
    cum = np.cumsum(matrix.probs, axis=1)
    cum[:, -1] = 1.0
    draws = derive_rng(seed, INJECT).random(n)
    # Per row, the count of cumulative entries <= its draw: searchsorted(side="right").
    cols = np.add.reduce(cum[truth] <= draws[:, None], axis=1)
    observed = np.where(cols < c, cols, OUT_OF_SPACE).astype(np.int64)

    width = matrix.probs.shape[1]
    counts = np.zeros((c, width), dtype=np.int64)
    np.add.at(counts, (truth, cols), 1)
    class_counts = counts.sum(axis=1)
    realized = np.divide(counts, np.maximum(class_counts, 1)[:, None], dtype=np.float64)
    injected = class_counts - counts[np.arange(c), np.arange(c)]
    flip_count = int(injected.sum())

    noisy = Dataset(
        features=dataset.features,
        observed_labels=observed,
        ids=dataset.ids,
        class_count=c,
        true_labels=np.asarray(truth).copy(),
        name=dataset.name,
    )
    report = NoiseReport(
        matrix=matrix,
        seed=int(seed),
        class_counts=class_counts,
        injected_count=injected,
        realized_ratio=np.divide(injected, np.maximum(class_counts, 1), dtype=np.float64),
        realized=realized,
        flip_count=flip_count,
        flip_rate=flip_count / n if n else 0.0,
    )
    return noisy, report
