"""Deterministic random-stream derivation.

Every stochastic operation in the simulator draws from a generator derived
from (master seed, stream tag, *indices). Streams are independent, so adding
or removing a consumer never shifts the draws of another stream.

One stream's entropy goes to numpy's ``SeedSequence`` as one uint32 array,
split into words exactly as numpy splits a tuple of Python ints, so every
stream is the one ``SeedSequence((seed, *keys))`` gives; the array skips
numpy's per-int conversion, which costs more than the hash.

`derive_seeds` and `derive_rngs` derive many streams at once, one per element
of their broadcast keys, with the same bits as the single-stream functions.
numpy's hash is O'Neill's seed_seq design ("Developing a seed_seq
Alternative", pcg-random.org, 2015): 32-bit multiplies, xors and shifts,
whose constants depend only on the position of each step, never on the
data. So the batch runs numpy's ``mix_entropy`` and ``generate_state``
steps on a (k, words) array, one row per stream, a pool column or a group of
columns per step. A row holds its words zero-padded to the pool size, which
is what the hash itself does with short entropy; a row with more words than
the pool mixes each further word in, and the rows that have no such word
keep their pool. The arithmetic is int64 masked to 32 bits after each
multiply: the low 32 bits of a wrapped int64 product are those of the uint32
product. uint32 arrays would give the same bits through ufunc loops of their
own, whose code numpy faults into memory on first use: measured with
``ru_maxrss`` in a process that had already run int64 bitwise arithmetic,
the hash's uint32 form added 128 KB and its int64 form nothing. A run's
first integer bitwise operation faults about 64 KB of numpy's code either
way.
"""

import math

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Stream tags. Values are part of the reproducibility contract: changing them
# changes every derived stream.
SERVER_INIT = 1
SERVER_SPLIT = 2
TRAIN = 3
ESTIMATE = 4
EXCHANGE = 5
SYNTH = 6
PARTITION = 7
FOLDS = 8
INJECT = 9
MEASURE = 10
INIT_GAP = 11

_WORD = 0xFFFFFFFF


def _words(value: int) -> list[int]:
    """The 32-bit words numpy splits an int into: 0 is one zero word, any
    other value its little-endian words."""
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _WORD]
    value >>= 32
    while value:
        words.append(value & _WORD)
        value >>= 32
    return words


def _seed_sequence(seed: int, keys: tuple) -> np.random.SeedSequence:
    """``SeedSequence((seed, *keys))``."""
    words = [word for value in (seed, *keys) for word in _words(value)]
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


class _State(ISeedSequence):
    """The state words one bit generator asks for, generated beforehand."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != self._words.size or np.dtype(dtype) != self._words.dtype:
            raise ValueError(f"state holds {self._words.size} {self._words.dtype} words")
        return self._words


def derive_rng(seed: int, *keys: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *keys)."""
    # PCG64 seeds itself from four uint64 words of its seed sequence.
    state = _seed_sequence(seed, keys).generate_state(4, np.uint64)
    return np.random.Generator(np.random.PCG64(_State(state)))


def derive_seed(seed: int, *keys: int) -> int:
    """A plain integer seed derived from (seed, *keys), for APIs taking one seed."""
    low, high = _seed_sequence(seed, keys).generate_state(2).tolist()
    return low | high << 32


# numpy's SeedSequence constants.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# The batch's scalar operands, as 0-d arrays: numpy converts a Python int
# operand on every call, which costs more than the arithmetic on a few rows.
_MASK, _SHIFT, _HIGH = np.array(_WORD), np.array(16), np.array(32)
_MIX_L, _MIX_R = np.array(0xCA01F9DD), np.array(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``count`` hash steps: the running
    constant before each step, and after it."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _WORD)
    out = np.array(out, dtype=np.int64)
    return out[:-1], out[1:]


def _mix_constants():
    """Constants of ``mix_entropy``'s first 16 hash steps, and the running constant after.

    Steps 0-3 hash the entropy into the pool. Then pool word ``src`` is
    hashed once for each other word, in order; its row here holds those
    steps' constants at the other words' columns and 0 at its own.
    """
    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
    mix_xor, mix_mul = np.zeros((2, _POOL, _POOL), dtype=np.int64)
    for src in range(_POOL):
        others = [dst for dst in range(_POOL) if dst != src]
        steps = slice(_POOL + (_POOL - 1) * src, _POOL + (_POOL - 1) * (src + 1))
        mix_xor[src, others], mix_mul[src, others] = xor[steps], mul[steps]
    return (xor[:_POOL], mul[:_POOL]), list(zip(mix_xor, mix_mul)), int(mul[-1])


_FILL, _MIX_STEPS, _AFTER_MIX = _mix_constants()
#: generate_state's constants and pool columns, for a seed's 2 words and a
#: generator's 8.
_SEED_STATE = (*_hash_constants(_INIT_B, _MULT_B, 2), np.arange(2) % _POOL)
_RNG_STATE = (*_hash_constants(_INIT_B, _MULT_B, 8), np.arange(8) % _POOL)


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """numpy's ``hashmix``, one hash step per column."""
    values = (values ^ xor) * mul & _MASK
    return values ^ values >> _SHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = (_MIX_L * x - _MIX_R * y) & _MASK
    return out ^ out >> _SHIFT


def _key_array(key) -> np.ndarray:
    """An array key as int64 values, those from 2**63 wrapped, or as Python ints."""
    if not isinstance(key, (np.ndarray, np.generic)):
        # Python ints as they are, so the sign is checked before any cast.
        key = np.asarray(key, dtype=object)
    if key.dtype.kind == "u":
        return key.astype(np.uint64, copy=False).view(np.int64)
    if (key < 0).any():
        raise ValueError("expected non-negative integer")
    if key.dtype != object:
        return key.astype(np.int64, copy=False)
    try:
        return key.astype(np.uint64).view(np.int64)
    except OverflowError:  # from 2**64
        return key


def _entropy(seed, keys) -> tuple[np.ndarray, np.ndarray | None, tuple]:
    """Each broadcast row (seed, *keys) split into words as `_words` splits it.

    Returns the (k, w) int64 words, zero-padded to at least the pool size;
    each row's word count, or None when all rows have the same count; and
    the broadcast shape. A Python int key is split once for all rows; an
    array key gives its low words, then each further word that some row's
    value has.
    """
    keys = [key if isinstance(key, int) else _key_array(key) for key in (seed, *keys)]
    shape = np.broadcast_shapes(*(key.shape for key in keys if not isinstance(key, int)))
    k = math.prod(shape)
    words, present = [], []  # per word column: the words, and which rows have one
    for key in keys:
        if isinstance(key, int):
            words += _words(key)
            present += [None] * (len(words) - len(present))
            continue
        value = (key if key.shape == shape else np.broadcast_to(key, shape)).reshape(-1)
        if value.dtype == object:
            words.append((value & _WORD).astype(np.int64))
            value = value >> 32
        else:
            words.append(value & _MASK)
            value = value >> _HIGH & _MASK
        present.append(None)
        while value.any():
            has = value != 0
            words.append((value & _WORD).astype(np.int64))
            present.append(None if has.all() else has)
            value = value >> 32
    if all(has is None for has in present):
        out = np.zeros((k, max(_POOL, len(words))), dtype=np.int64)
        for j, word in enumerate(words):
            out[:, j] = word
        return out, None, shape
    present = np.stack([np.ones(k, dtype=bool) if has is None else has for has in present],
                       axis=1)
    words = np.stack([np.broadcast_to(word, (k,)) for word in words], axis=1)
    column = np.cumsum(present, axis=1) - 1
    lengths = column[:, -1] + 1
    out = np.zeros((k, max(_POOL, int(lengths.max()))), dtype=np.int64)
    out[np.nonzero(present)[0], column[present]] = words[present]
    return out, lengths, shape


def _generate_state(seed, keys, state) -> tuple[np.ndarray, tuple]:
    """numpy's ``generate_state`` of every row's seed sequence, as (k, words)
    int64 for the words of ``state``; and the broadcast shape."""
    entropy, lengths, shape = _entropy(seed, keys)
    # mix_entropy: hash the first words into the pool, mix every pool word
    # into every other, then mix each further word into every pool word.
    pool = _hashmix(entropy[:, :_POOL], *_FILL)
    for src, (xor, mul) in enumerate(_MIX_STEPS):
        own = pool[:, src:src + 1].copy()
        pool = _mix(pool, _hashmix(own, xor, mul))
        pool[:, src:src + 1] = own
    extra = entropy.shape[1] - _POOL
    xor, mul = _hash_constants(_AFTER_MIX, _MULT_A, _POOL * extra)
    for j in range(extra):
        steps = slice(_POOL * j, _POOL * (j + 1))
        mixed = _mix(pool, _hashmix(entropy[:, _POOL + j:_POOL + j + 1], xor[steps], mul[steps]))
        pool = mixed if lengths is None else np.where((lengths > _POOL + j)[:, None], mixed, pool)
    # generate_state: word i is pool word i mod 4 hashed with its own constant.
    xor, mul, columns = state
    return _hashmix(pool.take(columns, axis=1), xor, mul), shape


def _join_words(state: np.ndarray) -> np.ndarray:
    """Pairs of 32-bit words as the uint64 words they make, low word first, in
    rows a bit generator can read as its seed words (C order)."""
    return np.ascontiguousarray(state[:, 0::2] | state[:, 1::2] << _HIGH).view(np.uint64)


def derive_seeds(seed, *keys) -> np.ndarray:
    """`derive_seed` of every row of the keys, broadcast like numpy arrays.

    Each key is an integer or an integer array; the result is a uint64 array
    of the broadcast shape.
    """
    state, shape = _generate_state(seed, keys, _SEED_STATE)
    return _join_words(state).reshape(shape)


def derive_rngs(seed, *keys) -> list[np.random.Generator]:
    """`derive_rng` of every row of the keys, broadcast as in `derive_seeds`,
    in row-major order."""
    state, _ = _generate_state(seed, keys, _RNG_STATE)
    return [np.random.Generator(np.random.PCG64(_State(words)))
            for words in _join_words(state)]
