"""Deterministic random-stream derivation.

Every stochastic operation in the simulator draws from a generator derived
from (master seed, stream tag, *indices). Streams are independent, so adding
or removing a consumer never shifts the draws of another stream.

The entropy goes to numpy's ``SeedSequence`` as one uint32 array, split into
words exactly as numpy splits a tuple of Python ints, so every stream is the
one ``SeedSequence((seed, *keys))`` gives; the array skips numpy's per-int
conversion, which costs more than the hash.
"""

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


def _seed_sequence(seed: int, keys: tuple) -> np.random.SeedSequence:
    """``SeedSequence((seed, *keys))``: 0 is one zero word, any other value its
    little-endian 32-bit words."""
    words = []
    for value in (seed, *keys):
        value = int(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _WORD)
        value >>= 32
        while value:
            words.append(value & _WORD)
            value >>= 32
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
