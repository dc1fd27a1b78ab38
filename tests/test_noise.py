"""Transition matrices and label-noise injection."""

import numpy as np
import pytest

from fednl import (
    OUT_OF_SPACE,
    asymmetric_matrix,
    inject_noise,
    save_matrix,
    symmetric_matrix,
    synth_gaussian,
    with_out_of_space,
)

from fednl._rng import INJECT, derive_rng

from conftest import make_dataset


# ---------------------------------------------------------------- symmetric

def test_symmetric_entries():
    m = symmetric_matrix(6, 0.2)
    np.testing.assert_allclose(np.diag(m.probs), 0.8)
    off = m.probs[~np.eye(6, dtype=bool)]
    np.testing.assert_allclose(off, 0.04)


def test_symmetric_zero_beta_is_identity():
    m = symmetric_matrix(3, 0.0)
    np.testing.assert_allclose(m.probs, np.eye(3))


def test_symmetric_rows_sum_to_one():
    for beta in (0.0, 0.1, 0.5, 0.99):
        m = symmetric_matrix(4, beta)
        np.testing.assert_allclose(m.probs.sum(axis=1), 1.0, atol=1e-12)


def test_symmetric_rejects_beta_one():
    with pytest.raises(ValueError):
        symmetric_matrix(3, 1.0)


# ---------------------------------------------------------------- asymmetric

def test_asymmetric_two_class():
    m = asymmetric_matrix(2, [(0, 1, 0.3)])
    np.testing.assert_allclose(m.probs, [[0.7, 0.3], [0.0, 1.0]])


def test_asymmetric_empty_pairs_identity():
    m = asymmetric_matrix(3, [])
    np.testing.assert_allclose(m.probs, np.eye(3))


def test_asymmetric_dominance_error():
    with pytest.raises(ValueError):
        asymmetric_matrix(3, [(0, 1, 0.6)])


def test_asymmetric_duplicate_pair_error():
    with pytest.raises(ValueError):
        asymmetric_matrix(3, [(0, 1, 0.1), (0, 1, 0.2)])


def test_asymmetric_rows_sum_and_dominance():
    m = asymmetric_matrix(3, [(0, 1, 0.3), (1, 2, 0.2), (1, 0, 0.1)])
    np.testing.assert_allclose(m.probs.sum(axis=1), 1.0, atol=1e-12)
    for k in range(3):
        for l in range(3):
            if l != k:
                assert m.probs[k, k] > m.probs[k, l]


# ---------------------------------------------------------------- injection

def test_identity_injection_is_noop():
    ds = synth_gaussian(3, 20, 2, 5.0, seed=1)
    noisy, report = inject_noise(ds, symmetric_matrix(3, 0.0), seed=1)
    np.testing.assert_array_equal(noisy.observed_labels, ds.observed_labels)
    assert report.injected_count.sum() == 0
    assert report.flip_count == 0


def test_symmetric_realized_frequency():
    # law of large numbers at n=10_000: realized per-class flip rate near beta
    per_class = 2500
    ds = synth_gaussian(4, per_class, 2, 5.0, seed=2)
    _, report = inject_noise(ds, symmetric_matrix(4, 0.3), seed=2)
    assert report.class_counts.tolist() == [per_class] * 4
    np.testing.assert_allclose(report.realized_ratio, 0.3, atol=0.02)
    assert abs(report.flip_rate - 0.3) <= 0.02


def test_asymmetric_flips_only_listed_pair():
    ds = synth_gaussian(2, 200, 2, 5.0, seed=3)
    noisy, report = inject_noise(ds, asymmetric_matrix(2, [(0, 1, 0.3)]), seed=3)
    changed = noisy.observed_labels != ds.observed_labels
    assert changed.any()
    # every flip starts at class 0 and lands at class 1
    assert (ds.observed_labels[changed] == 0).all()
    assert (noisy.observed_labels[changed] == 1).all()
    assert report.injected_count[1] == 0


def test_injection_deterministic():
    ds = synth_gaussian(3, 100, 2, 5.0, seed=4)
    a, _ = inject_noise(ds, symmetric_matrix(3, 0.4), seed=9)
    b, _ = inject_noise(ds, symmetric_matrix(3, 0.4), seed=9)
    np.testing.assert_array_equal(a.observed_labels, b.observed_labels)


def test_injection_preserves_features_and_truth():
    ds = synth_gaussian(3, 50, 2, 5.0, seed=5)
    noisy, _ = inject_noise(ds, symmetric_matrix(3, 0.5), seed=5)
    np.testing.assert_array_equal(noisy.features, ds.features)
    np.testing.assert_array_equal(noisy.true_labels, ds.true_labels)
    np.testing.assert_array_equal(noisy.ids, ds.ids)


def test_out_of_space_injection():
    ds = make_dataset([[float(i)] for i in range(400)], [i % 2 for i in range(400)], c=2)
    m = with_out_of_space(symmetric_matrix(2, 0.1), 0.2)
    noisy, report = inject_noise(ds, m, seed=6)
    oos = noisy.observed_labels == OUT_OF_SPACE
    assert oos.any()
    assert abs(oos.mean() - 0.2) < 0.08
    assert report.realized.shape == (2, 3)


def test_realized_rows_normalized():
    ds = synth_gaussian(3, 500, 2, 5.0, seed=7)
    _, report = inject_noise(ds, symmetric_matrix(3, 0.25), seed=7)
    np.testing.assert_allclose(report.realized.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("matrix", [
    symmetric_matrix(4, 0.3),
    asymmetric_matrix(3, [(0, 1, 0.3), (2, 0, 0.2)]),
    with_out_of_space(symmetric_matrix(3, 0.4), 0.15),
], ids=["symmetric", "asymmetric", "out-of-space"])
def test_injection_matches_per_row_searchsorted(matrix):
    c = matrix.class_count
    cum = np.cumsum(matrix.probs, axis=1)
    cum[:, -1] = 1.0
    for seed in range(20):
        ds = synth_gaussian(c, 25, 2, 5.0, seed=seed)
        noisy, _ = inject_noise(ds, matrix, seed=seed)
        draws = derive_rng(seed, INJECT).random(ds.n)
        cols = np.array([np.searchsorted(cum[t], u, side="right")
                         for t, u in zip(ds.true_labels, draws)])
        np.testing.assert_array_equal(noisy.observed_labels,
                                      np.where(cols < c, cols, OUT_OF_SPACE))


# ---------------------------------------------------------------- persistence

def test_matrix_roundtrip(tmp_path):
    m = asymmetric_matrix(3, [(0, 1, 0.3), (2, 0, 0.2)])
    path = tmp_path / "m.matrix"
    save_matrix(m, path)
    with open(path) as fh:
        assert fh.readline() == "transition-matrix v1\n"
        assert fh.readline() == f"3 {int(m.has_out_of_space)}\n"
        back = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    assert back.tobytes() == m.probs.tobytes()
