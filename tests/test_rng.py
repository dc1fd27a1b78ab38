"""Stream derivation: the same streams numpy's SeedSequence gives for the key tuple,
one at a time or in batches."""

import numpy as np
import pytest

from fednl._rng import ESTIMATE, TRAIN, derive_rng, derive_rngs, derive_seed, derive_seeds

#: Word-boundary keys: one zero word, the largest one-word, the smallest
#: two-word and the largest two-word value.
EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1)


def _entropies(count=1000, seed=0):
    """Key tuples of 1 to 5 keys, each an edge or a random value of 1 to 80 bits."""
    rng = np.random.default_rng(seed)
    out = [EDGES, (0,), (0, 0)]
    for _ in range(count):
        keys = []
        for _ in range(int(rng.integers(1, 6))):
            if rng.random() < 0.3:
                keys.append(EDGES[int(rng.integers(len(EDGES)))])
            else:
                keys.append(int.from_bytes(rng.bytes(10), "little") >> int(rng.integers(0, 80)))
        out.append(tuple(keys))
    return out


def test_streams_match_seed_sequence():
    for entropy in _entropies():
        reference = np.random.SeedSequence(entropy)
        assert derive_seed(*entropy) == int(reference.generate_state(1, np.uint64)[0]), entropy
        ours, theirs = derive_rng(*entropy), np.random.default_rng(reference)
        assert ours.bit_generator.state == theirs.bit_generator.state, entropy
        assert ours.integers(0, 2**63, 4).tolist() == theirs.integers(0, 2**63, 4).tolist()


def test_negative_key_rejected():
    for derive in (derive_seed, derive_rng):
        with pytest.raises(ValueError):
            derive(3, -1)


def _word_value(rng, words):
    """A random value of 1, 2 or 3 words, or 0."""
    if words == 0:
        return 0
    low = 0 if words == 1 else 2**(32 * (words - 1))
    return low + int.from_bytes(rng.bytes(4 * words), "little") % (2**(32 * words) - low)


def _batches(count=200, seed=1):
    """Batches of 1 to 7 keys and 1 to 9 rows. Each key is one value shared by
    every row or one value per row, each 0 or of 1 to 3 words."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rows = int(rng.integers(1, 10))
        keys = []
        for _ in range(int(rng.integers(1, 8))):
            if rng.random() < 0.3:
                keys.append(_word_value(rng, int(rng.integers(4))))
            else:
                keys.append([_word_value(rng, int(rng.integers(4))) for _ in range(rows)])
        per_row = [[key if isinstance(key, int) else key[r] for key in keys]
                   for r in range(rows)]
        yield keys, per_row if any(isinstance(key, list) for key in keys) else per_row[:1]


def test_batched_streams_match_per_row_derivation():
    for keys, rows in _batches():
        assert derive_seeds(*keys).reshape(-1).tolist() == [derive_seed(*row) for row in rows]
        for ours, row in zip(derive_rngs(*keys), rows, strict=True):
            assert ours.integers(0, 2**63, 4).tolist() == \
                derive_rng(*row).integers(0, 2**63, 4).tolist(), row


def test_batched_keys_broadcast():
    seeds = derive_seeds(7, ESTIMATE, np.array([[5], [2**40]], dtype=np.uint64), np.arange(3))
    assert seeds.shape == (2, 3)
    assert seeds.tolist() == [[derive_seed(7, ESTIMATE, a, b) for b in range(3)]
                              for a in (5, 2**40)]


def test_empty_batch():
    assert derive_seeds(3, TRAIN, np.arange(0)).shape == (0,)
    assert derive_rngs(3, TRAIN, []) == []


@pytest.mark.parametrize("key", [-1, [4, -1], np.int64(-1), np.array([0, -2]),
                                 [2**70, -1]])
def test_batched_negative_key_rejected(key):
    with pytest.raises(ValueError) as scalar:
        derive_seed(3, -1)
    for derive in (derive_seeds, derive_rngs):
        with pytest.raises(ValueError) as batched:
            derive(3, key)
        assert str(batched.value) == str(scalar.value)
