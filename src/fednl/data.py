"""Datasets, class-wise views, participant partitioning, and three-fold splits.

A dataset is a fixed block of feature vectors with observed labels, optional
retained true labels (read only by evaluation code), and stable integer
instance ids so that set algebra over instances is id-based. All types are
immutable after construction; every randomized operation is a pure function
of its inputs and a seed.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._rng import FOLDS, PARTITION, SYNTH, derive_rng

#: Sentinel for an observed label outside the class space [c].
OUT_OF_SPACE = -1


class ParseError(ValueError):
    """A data file row could not be parsed."""


class SchemaError(ValueError):
    """A data file disagrees with its declared schema."""


class PartitionError(ValueError):
    """A requested partition cannot be built."""


class SplitError(ValueError):
    """A requested fold split cannot be built."""


@dataclass(frozen=True)
class Dataset:
    """Immutable block of instances.

    Arrays are row-aligned: row j of ``features`` belongs to ``ids[j]``.
    ``observed_labels`` entries are in [0, class_count) or OUT_OF_SPACE;
    ``true_labels`` is None when no ground truth was retained.
    """

    features: np.ndarray
    observed_labels: np.ndarray
    ids: np.ndarray
    class_count: int
    true_labels: np.ndarray | None = None
    name: str = "dataset"

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        obs = np.ascontiguousarray(self.observed_labels, dtype=np.int64)
        ids = np.ascontiguousarray(self.ids, dtype=np.int64)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        n = feats.shape[0]
        if obs.shape != (n,) or ids.shape != (n,):
            raise ValueError("features, observed_labels and ids must agree in length")
        if self.class_count < 1:
            raise ValueError("class_count must be positive")
        in_space = (obs >= 0) & (obs < self.class_count)
        if not np.all(in_space | (obs == OUT_OF_SPACE)):
            raise ValueError("observed labels must lie in [0, class_count) or be OUT_OF_SPACE")
        if len(np.unique(ids)) != n:
            raise ValueError("instance ids must be unique")
        tru = self.true_labels
        if tru is not None:
            tru = np.ascontiguousarray(tru, dtype=np.int64)
            if tru.shape != (n,):
                raise ValueError("true_labels must match dataset length")
            if n and (tru.min() < 0 or tru.max() >= self.class_count):
                raise ValueError("true labels must lie in [0, class_count)")
        for arr in (feats, obs, ids) + ((tru,) if tru is not None else ()):
            arr.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "observed_labels", obs)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "true_labels", tru)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.n

    def take(self, positions: np.ndarray, name: str | None = None) -> "Dataset":
        """Sub-dataset at the given 1-D integer row positions, order preserved.

        Rows of this valid dataset make a valid cut unless one is picked
        twice, so the constructor's checks are not run again. Non-negative,
        strictly increasing positions, the cut of every sub-dataset helper
        (`by_ids`, `in_space`, a sorted fold), pick distinct rows by
        construction; for any others, negative, repeated or out of order,
        the cut's ids are checked for uniqueness. A boolean mask is refused:
        as positions it would pick rows 0 and 1.
        """
        positions = np.asarray(positions)
        kind = positions.dtype.kind
        if kind == "b" or (kind not in "iu" and positions.size):
            raise ValueError(f"take expects integer row positions, got {positions.dtype}; "
                             "turn a boolean mask into positions with np.flatnonzero")
        if positions.ndim != 1:
            raise ValueError(f"take expects 1-D row positions, got shape {positions.shape}")
        positions = positions.astype(np.int64, copy=False)
        ids = self.ids[positions]
        if (not ((positions.size == 0 or positions[0] >= 0)
                 and (positions[1:] > positions[:-1]).all())
                and len(np.unique(ids)) != ids.size):
            raise ValueError("instance ids must be unique")
        return _trusted(
            features=self.features[positions],
            observed_labels=self.observed_labels[positions],
            ids=ids,
            class_count=self.class_count,
            true_labels=None if self.true_labels is None else self.true_labels[positions],
            name=self.name if name is None else name,
        )

    def by_ids(self, wanted_ids) -> "Dataset":
        """Sub-dataset of the given instance ids, in this dataset's row order.

        ``wanted_ids`` may come in any order and may name ids this dataset
        does not hold; those are ignored.
        """
        wanted = np.asarray(wanted_ids, dtype=np.int64)
        return self.take(np.flatnonzero(np.isin(self.ids, wanted)))

    def training_view(self) -> "Dataset":
        """Copy with true labels stripped; hand this to training/estimation code.

        It shares this dataset's read-only arrays, which passed the
        constructor's checks already, so they are not checked again.
        """
        if self.true_labels is None:
            return self
        return _trusted(self.features, self.observed_labels, self.ids, self.class_count,
                        None, self.name)

    def in_space(self) -> "Dataset":
        """Instances whose observed label lies inside the class space."""
        mask = self.observed_labels != OUT_OF_SPACE
        if bool(mask.all()):
            return self
        return self.take(np.flatnonzero(mask))

    def out_of_space_ids(self) -> np.ndarray:
        return self.ids[self.observed_labels == OUT_OF_SPACE]

    def class_sizes(self) -> np.ndarray:
        """Count of in-space instances per observed class."""
        sizes = np.zeros(self.class_count, dtype=np.int64)
        labels = self.observed_labels[self.observed_labels != OUT_OF_SPACE]
        np.add.at(sizes, labels, 1)
        return sizes


def _trusted(features, observed_labels, ids, class_count, true_labels, name) -> Dataset:
    """A `Dataset` of arrays known to pass its checks, built without running them.

    The arrays are taken as they are and made read-only, as the constructor
    leaves them.
    """
    ds = object.__new__(Dataset)
    ds.__dict__.update(features=features, observed_labels=observed_labels, ids=ids,
                       class_count=class_count, true_labels=true_labels, name=name)
    for arr in (features, observed_labels, ids, true_labels):
        if arr is not None:
            arr.setflags(write=False)
    return ds


def _near_equal_sizes(n: int, parts: int) -> list[int]:
    # Remainder goes to the lowest-indexed parts.
    base, extra = divmod(n, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def load_dataset(path, class_count: int | None = None, allow_out_of_space: bool = False,
                 id_base: int = 0) -> Dataset:
    """Read a comma-separated file with a header row into a Dataset.

    The header names a ``label`` column and, optionally, a ``true_label``
    column; every other column is a feature, in header order. When
    ``class_count`` is omitted it is inferred as max(label) + 1. A label
    outside [0, class_count) raises unless ``allow_out_of_space``, which
    stores it as OUT_OF_SPACE. Row order is preserved; ids are assigned as
    id_base, id_base+1, ..., and the dataset is named after the file stem.
    Raises ParseError for malformed rows and SchemaError for label/space
    violations, both naming the offending 1-based data row.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        if "label" not in header:
            raise SchemaError(f"{path}: header lacks label column 'label'")
        label_idx = header.index("label")
        true_idx = header.index("true_label") if "true_label" in header else None
        feat_idx = [j for j in range(len(header)) if j != label_idx and j != true_idx]
        arity = len(header)

        feats, obs, tru = [], [], []
        for row_no, row in enumerate(reader, start=1):
            if len(row) != arity:
                raise ParseError(f"{path}: row {row_no} has {len(row)} fields, expected {arity}")
            try:
                feats.append([float(row[j]) for j in feat_idx])
            except ValueError:
                raise ParseError(f"{path}: row {row_no} has a non-numeric feature") from None
            try:
                obs.append(int(row[label_idx]))
                if true_idx is not None:
                    tru.append(int(row[true_idx]))
            except ValueError:
                raise ParseError(f"{path}: row {row_no} has a non-integer label") from None

    n = len(obs)
    obs_arr = np.array(obs, dtype=np.int64)
    c = class_count
    if c is None:
        in_space = obs_arr[obs_arr != OUT_OF_SPACE]
        c = int(in_space.max()) + 1 if in_space.size else 1
    for row_no, label in enumerate(obs, start=1):
        if 0 <= label < c:
            continue
        if allow_out_of_space:
            obs_arr[row_no - 1] = OUT_OF_SPACE
        else:
            raise SchemaError(f"{path}: row {row_no} label {label} outside [0, {c}) "
                              "and out-of-space labels are not permitted")
    d = len(feat_idx)
    return Dataset(
        features=np.array(feats, dtype=np.float64).reshape(n, d),
        observed_labels=obs_arr,
        ids=np.arange(id_base, id_base + n, dtype=np.int64),
        class_count=c,
        true_labels=np.array(tru, dtype=np.int64) if true_idx is not None else None,
        name=path.stem,
    )


def save_dataset(dataset: Dataset, path) -> None:
    """Write a Dataset in the load_dataset file format (full float precision)."""
    path = Path(path)
    cols = [f"f{j}" for j in range(dataset.d)] + ["label"]
    if dataset.true_labels is not None:
        cols.append("true_label")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for j in range(dataset.n):
            row = [format(v, ".17g") for v in dataset.features[j]]
            row.append(str(int(dataset.observed_labels[j])))
            if dataset.true_labels is not None:
                row.append(str(int(dataset.true_labels[j])))
            fh.write(",".join(row) + "\n")


def synth_gaussian(c: int, per_class: int, d: int, separation: float, seed: int,
                   name: str = "synth", id_base: int = 0) -> Dataset:
    """Isotropic unit-variance Gaussian blobs, one per class, mutually >= separation apart.

    For d >= 2 the class means sit on a circle in the first two coordinates
    with radius separation / (2 sin(pi/c)), so the closest pair is exactly
    separation apart and feature norms stay small enough for plain SGD at
    ordinary rates. With d = 1 the means fall back to a line at spacing
    separation. Labels are clean: true_label == observed_label.
    """
    if c < 2:
        raise ValueError("need at least 2 classes")
    if per_class < 1:
        raise ValueError("per_class must be positive")
    if d < 1:
        raise ValueError("d must be positive")
    if separation <= 0:
        raise ValueError("separation must be positive")
    rng = derive_rng(seed, SYNTH)
    means = np.zeros((c, d))
    if d == 1:
        means[:, 0] = separation * np.arange(c)
    else:
        radius = separation / (2.0 * math.sin(math.pi / c))
        angles = 2.0 * math.pi * np.arange(c) / c
        means[:, 0] = radius * np.cos(angles)
        means[:, 1] = radius * np.sin(angles)
    features = np.concatenate(
        [means[k] + rng.standard_normal((per_class, d)) for k in range(c)], axis=0
    )
    labels = np.repeat(np.arange(c, dtype=np.int64), per_class)
    n = c * per_class
    return Dataset(
        features=features,
        observed_labels=labels,
        ids=np.arange(id_base, id_base + n, dtype=np.int64),
        class_count=c,
        true_labels=labels.copy(),
        name=name,
    )


@dataclass(frozen=True)
class ShuffleSplit:
    """Shuffle the dataset, deal near-equal contiguous chunks."""


@dataclass(frozen=True)
class LabelSkew:
    """Concentrate a fraction ``skew`` of each participant's data in its
    ``k_major`` assigned classes; the remainder is filled uniformly."""

    k_major: int = 1
    skew: float = 0.8

    def __post_init__(self):
        if self.k_major < 1:
            raise ValueError("k_major must be positive")
        if not 0.0 <= self.skew <= 1.0:
            raise ValueError("skew must lie in [0, 1]")


def partition_non_iid(dataset: Dataset, n_participants: int, seed: int,
                      strategy=None) -> list[Dataset]:
    """Disjoint cover of the dataset across participants.

    ShuffleSplit gives near-equal random chunks (remainder to the
    lowest-indexed participants); LabelSkew routes each participant's quota
    preferentially through its major classes, assigned round-robin over [c].
    """
    strategy = strategy or ShuffleSplit()
    if n_participants < 1:
        raise PartitionError("n_participants must be positive")
    if dataset.n == 0:
        raise PartitionError("cannot partition an empty dataset")
    if n_participants > dataset.n:
        raise PartitionError(
            f"cannot split {dataset.n} instances among {n_participants} participants")
    rng = derive_rng(seed, PARTITION)
    sizes = _near_equal_sizes(dataset.n, n_participants)

    if isinstance(strategy, ShuffleSplit):
        order = rng.permutation(dataset.n)
        out, start = [], 0
        for i, size in enumerate(sizes):
            chunk = np.sort(order[start:start + size])
            out.append(dataset.take(chunk, name=f"{dataset.name}/p{i}"))
            start += size
        return out

    if isinstance(strategy, LabelSkew):
        c = dataset.class_count
        pools = []  # per-class shuffled row positions; OUT_OF_SPACE rows join the filler pool
        for k in range(c):
            rows = np.flatnonzero(dataset.observed_labels == k)
            pools.append(list(rng.permutation(rows)))
        filler = list(rng.permutation(np.flatnonzero(dataset.observed_labels == OUT_OF_SPACE)))
        majors = [
            tuple((i * strategy.k_major + j) % c for j in range(strategy.k_major))
            for i in range(n_participants)
        ]
        assigned = [[] for _ in range(n_participants)]
        # Round-robin so participants sharing a major class deplete it fairly.
        want = [int(round(strategy.skew * sizes[i])) for i in range(n_participants)]
        progress = True
        while progress:
            progress = False
            for i in range(n_participants):
                if len(assigned[i]) >= want[i]:
                    continue
                for k in majors[i]:
                    if pools[k]:
                        assigned[i].append(pools[k].pop())
                        progress = True
                        break
        leftovers = [row for pool in pools for row in pool] + filler
        leftovers = list(rng.permutation(np.array(leftovers, dtype=np.int64))) if leftovers else []
        for i in range(n_participants):
            need = sizes[i] - len(assigned[i])
            assigned[i].extend(leftovers[:need])
            del leftovers[:need]
        assert not leftovers
        return [
            dataset.take(np.sort(np.array(rows, dtype=np.int64)), name=f"{dataset.name}/p{i}")
            for i, rows in enumerate(assigned)
        ]

    raise PartitionError(f"unknown partition strategy: {strategy!r}")


def split_three_folds(dataset: Dataset, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random split of the rows into three disjoint near-equal folds.

    Returns each fold's row positions, sorted; the remainder goes to the
    lowest-indexed folds.
    """
    if dataset.n < 3:
        raise SplitError(f"need at least 3 instances to build three folds, got {dataset.n}")
    return _deal_three_folds(derive_rng(seed, FOLDS), dataset.n)


def _deal_three_folds(rng: np.random.Generator, n: int):
    """`split_three_folds` of n rows with its FOLDS generator already derived."""
    order = rng.permutation(n)
    bounds = np.cumsum(_near_equal_sizes(n, 3))[:-1]
    return tuple(np.sort(fold) for fold in np.split(order, bounds))


def concat_datasets(parts, name: str | None = None) -> Dataset:
    """Stack datasets over the same feature space; ids must stay unique.

    True labels survive only when every part carries them.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to concatenate")
    c = parts[0].class_count
    d = parts[0].d
    for p in parts[1:]:
        if p.class_count != c or p.d != d:
            raise ValueError("datasets disagree on class space or feature dimension")
    keep_true = all(p.true_labels is not None for p in parts)
    return Dataset(
        features=np.concatenate([p.features for p in parts], axis=0),
        observed_labels=np.concatenate([p.observed_labels for p in parts]),
        ids=np.concatenate([p.ids for p in parts]),
        class_count=c,
        true_labels=np.concatenate([p.true_labels for p in parts]) if keep_true else None,
        name=name or parts[0].name,
    )
