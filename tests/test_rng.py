"""Stream derivation: the same streams numpy's SeedSequence gives for the key tuple."""

import numpy as np
import pytest

from fednl._rng import derive_rng, derive_seed

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
