"""Evaluation metrics: confusion matrix, accuracy, F1, contribution ratio."""

import numpy as np
import pytest

from fednl import (
    ModelParams,
    confusion_matrix,
    detection_scores,
    evaluate,
    format_snapshot,
    synth_gaussian,
)

from conftest import make_dataset


def perfect_model_for(ds):
    """One strongly dominant column per class mean: predicts blobs exactly."""
    c = ds.class_count
    weights = np.zeros((ds.d + 1, c))
    for k in range(c):
        mean = ds.features[ds.observed_labels == k].mean(axis=0)
        weights[:-1, k] = 10.0 * mean
        weights[-1, k] = -5.0 * float(mean @ mean)
    return ModelParams(weights, c)


# ---------------------------------------------------------------- snapshots

def test_perfect_predictor():
    ds = synth_gaussian(3, 40, 2, 10.0, seed=1)
    snapshot = evaluate(perfect_model_for(ds), ds)
    assert snapshot.accuracy == 1.0
    assert snapshot.macro_f1 == 1.0
    off_diagonal = snapshot.confusion[~np.eye(3, dtype=bool)]
    assert (off_diagonal == 0).all()


def test_constant_predictor_balanced_two_class():
    # always predicts class 0: accuracy 1/2, F1 = (2/3 + 0)/2 = 1/3
    features = [[5.0], [5.0], [5.0], [5.0]]
    labels = [0, 0, 1, 1]
    ds = make_dataset(features, labels, c=2)
    weights = np.array([[1.0, -1.0], [0.5, -0.5]])
    snapshot = evaluate(ModelParams(weights, 2), ds)
    assert snapshot.accuracy == pytest.approx(0.5)
    assert snapshot.macro_f1 == pytest.approx(1 / 3, abs=1e-12)


def test_confusion_rows_are_supports():
    ds = synth_gaussian(3, 25, 2, 6.0, seed=2)
    snapshot = evaluate(perfect_model_for(ds), ds)
    np.testing.assert_array_equal(snapshot.confusion.sum(axis=1), snapshot.support)
    assert snapshot.confusion.sum() == ds.n


def test_zero_support_class_flagged():
    ds = make_dataset([[1.0], [2.0]], [0, 0], c=3)
    weights = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    snapshot = evaluate(ModelParams(weights, 3), ds)
    assert 1 in snapshot.zero_support and 2 in snapshot.zero_support
    assert snapshot.f1[1] == 0.0
    assert snapshot.macro_f1 == pytest.approx(np.mean(snapshot.f1))


def test_micro_f1_equals_accuracy():
    ds = synth_gaussian(3, 30, 2, 3.0, seed=3)
    weights = np.random.default_rng(3).normal(size=(3, 3))
    snapshot = evaluate(ModelParams(weights, 3), ds)
    assert snapshot.micro_f1 == pytest.approx(snapshot.accuracy, abs=1e-12)


def test_accuracy_is_trace_over_total():
    ds = synth_gaussian(4, 20, 2, 4.0, seed=4)
    weights = np.random.default_rng(4).normal(size=(3, 4))
    snapshot = evaluate(ModelParams(weights, 4), ds)
    assert snapshot.accuracy == pytest.approx(
        np.trace(snapshot.confusion) / snapshot.confusion.sum()
    )


def test_label_source_selects_targets():
    features = [[9.0], [9.0]]
    ds = make_dataset(features, [0, 0], c=2, true_labels=[1, 1])
    weights = np.array([[2.0, -2.0], [0.0, 0.0]])  # predicts class 0 always
    against_observed = evaluate(ModelParams(weights, 2), ds, label_source="observed")
    against_truth = evaluate(ModelParams(weights, 2), ds, label_source="true")
    assert against_observed.accuracy == 1.0
    assert against_truth.accuracy == 0.0


def test_true_labels_required_when_requested():
    ds = make_dataset([[1.0]], [0], c=2)
    weights = np.zeros((2, 2))
    with pytest.raises(ValueError):
        evaluate(ModelParams(weights, 2), ds, label_source="true")


def test_confusion_matrix_direct():
    cm = confusion_matrix(np.array([0, 0, 1, 2]), np.array([0, 1, 1, 2]), 3)
    expected = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    np.testing.assert_array_equal(cm, expected)


def test_format_snapshot_smoke():
    ds = synth_gaussian(3, 20, 2, 6.0, seed=5)
    text = format_snapshot(evaluate(perfect_model_for(ds), ds))
    assert "accuracy" in text
    assert "macro F1" in text


# ---------------------------------------------------------------- detection

def test_detection_perfect():
    precision, recall = detection_scores({1, 2, 3}, {1, 2, 3})
    assert precision == 1.0
    assert recall == 1.0


def test_detection_partial():
    precision, recall = detection_scores({1, 2, 3, 4}, {3, 4, 5, 6})
    assert precision == pytest.approx(0.5)
    assert recall == pytest.approx(0.5)


def test_detection_empty_sets_count_as_perfect():
    precision, recall = detection_scores(set(), set())
    assert precision == 1.0
    assert recall == 1.0
