"""Shared test helpers."""

import numpy as np
import pytest

from fednl import Dataset, DatasetStack, ModelParams, gradient, loss, rounds, train_local


def make_dataset(features, labels, c, ids=None, true_labels=None, name="fixture"):
    """Build a small Dataset from plain lists."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    if ids is None:
        ids = np.arange(labels.shape[0], dtype=np.int64)
    else:
        ids = np.asarray(ids, dtype=np.int64)
    if true_labels is not None:
        true_labels = np.asarray(true_labels, dtype=np.int64)
    return Dataset(
        features=features,
        observed_labels=labels,
        ids=ids,
        class_count=c,
        true_labels=true_labels,
        name=name,
    )



def train_one(model, dataset, config, seed, step_base=0):
    """`train_local` on a stack of one: the trained model."""
    return train_local(model, DatasetStack([dataset]), config, [seed], [step_base])[0]

def reference_loss(weights, dataset, l2_lambda):
    """Regularized mean cross-entropy of one weight matrix, written out step by step."""
    x = np.hstack([dataset.features, np.ones((dataset.n, 1))])
    logits = x @ weights
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    nll = -logp[np.arange(dataset.n), dataset.observed_labels].mean()
    return float(nll + 0.5 * l2_lambda * np.sum(weights ** 2))


def reference_objective(dataset, l2_lambda):
    """Per-call `loss` and `gradient` of flat weights, the solver objective before buffering."""
    shape = (dataset.d + 1, dataset.class_count)

    def evaluate(w):
        model = ModelParams(weights=w.reshape(shape), class_count=dataset.class_count)
        return loss(model, dataset, l2_lambda), gradient(model, dataset, l2_lambda).ravel()

    return evaluate


def reference_stacked_objective(members, l2_lambda):
    """`reference_objective` of each listed member in turn: the stacked objective, unbuffered."""
    evaluates = [reference_objective(ds, l2_lambda) for ds in members]

    def evaluate(w, which):
        pairs = [evaluates[j](row) for row, j in zip(w, np.asarray(which).tolist())]
        return np.array([v for v, _ in pairs]), np.array([g for _, g in pairs])

    return evaluate


def round_constants_bytes(constants):
    """The float64 bytes of a `RoundConstants`: L, each sigma_i^2, G^2, Gamma, the
    pooled optimum's loss, the init gap, then the optimum's weights."""
    comps = constants.components
    return (np.array([constants.smooth.L, *comps.sigma_sq, comps.G_sq, comps.Gamma,
                      comps.optimum.loss, constants.init_gap]).tobytes()
            + comps.optimum.model.weights.tobytes())


def record_probes(monkeypatch):
    """A 1 for each `rounds.measure_smoothness` call, and a 1 for each probe
    it runs."""
    calls, probes = [], []
    measure, largest = rounds.measure_smoothness, rounds._largest_ratio

    def measured(*args, **kwargs):
        calls.append(1)
        return measure(*args, **kwargs)

    def probed(*args):
        probes.append(1)
        return largest(*args)

    monkeypatch.setattr(rounds, "measure_smoothness", measured)
    monkeypatch.setattr(rounds, "_largest_ratio", probed)
    return calls, probes


@pytest.fixture
def tiny_dataset():
    """Nine linearly separated instances over three classes."""
    features = [[float(k * 5 + j), 1.0] for k in range(3) for j in range(3)]
    labels = [k for k in range(3) for _ in range(3)]
    return make_dataset(features, labels, c=3)
