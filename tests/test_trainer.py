"""Softmax-regression trainer: schedules, loss, gradient, SGD loop."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fednl import (
    Constant,
    DatasetStack,
    Diminishing,
    DivergenceError,
    TrainerConfig,
    gradient,
    init_model,
    loss,
    lr_at,
    predict,
    save_model,
    server_init,
    smoothness_bound,
    steps_per_round,
    synth_gaussian,
    train_local,
)
from fednl import ModelParams, trainer
from fednl._rng import TRAIN, derive_rng
from fednl.rounds import _row_dot
from fednl.trainer import (_LOSS_BLOCK, _augment, _exp_class_sum, _label_free_gradient, _layout,
                           _log_softmax, _member_losses, _stacked_objective, _xent)

from conftest import make_dataset, reference_loss, train_one


def reference_gradient(weights, features, labels, lam):
    """Independent gradient oracle: per-instance loop, no shared code."""
    n, _ = features.shape
    aug = np.hstack([features, np.ones((n, 1))])
    total = np.zeros_like(weights)
    for j in range(n):
        scores = aug[j] @ weights
        scores = scores - scores.max()
        p = np.exp(scores) / np.exp(scores).sum()
        p[labels[j]] -= 1.0
        total += np.outer(aug[j], p)
    return total / n + lam * weights


# ---------------------------------------------------------------- schedules

def test_diminishing_rate_fixture():
    # theta = 2/mu with mu = 1, alpha = 9, first step
    assert lr_at(Diminishing(theta=2.0, alpha=9.0), 1) == pytest.approx(0.2)


def test_constant_rate():
    for t in (1, 5, 1000):
        assert lr_at(Constant(0.05), t) == 0.05


def test_diminishing_halving_bound():
    # theta/(t+alpha) <= 2*theta/(t+E+alpha) whenever E <= alpha + 1... checked
    # on the schedule itself over a grid of steps and epoch counts
    for alpha in (4.0, 9.0, 100.0):
        sched = Diminishing(theta=2.0, alpha=alpha)
        for epochs in range(1, int(alpha + 1) + 1):
            for t in (1, 2, 7, 50, 1000):
                assert lr_at(sched, t) <= 2.0 * lr_at(sched, t + epochs) + 1e-15


def test_schedule_validation():
    with pytest.raises(ValueError):
        Diminishing(theta=0.0, alpha=1.0)
    with pytest.raises(ValueError):
        Constant(0.0)
    with pytest.raises(ValueError):
        lr_at(Constant(0.1), 0)


# ---------------------------------------------------------------- loss

def test_zero_weights_uniform_loss():
    ds = make_dataset([[1.0, 2.0], [3.0, 4.0]], [0, 3], c=4)
    model = init_model(2, 4)
    assert loss(model, ds) == pytest.approx(math.log(4), abs=1e-12)


def test_loss_decreases_after_full_batch_step():
    ds = synth_gaussian(3, 30, 2, 6.0, seed=1)
    model = server_init(2, 3, 1, 0.5)
    before = loss(model, ds, l2_lambda=0.01)
    grad = gradient(model, ds, l2_lambda=0.01)
    stepped = ModelParams(weights=model.weights - 0.05 * grad, class_count=3)
    assert loss(stepped, ds, l2_lambda=0.01) < before


def test_duplicated_dataset_same_loss():
    ds = synth_gaussian(3, 20, 2, 6.0, seed=2)
    doubled = make_dataset(
        np.vstack([ds.features, ds.features]),
        np.concatenate([ds.observed_labels, ds.observed_labels]),
        c=3,
    )
    model = server_init(2, 3, 2, 0.3)
    assert loss(model, doubled, 0.01) == pytest.approx(loss(model, ds, 0.01), abs=1e-12)


def test_loss_matches_reference_formula():
    # Bitwise, on a small and a wide shape.
    for c, d, per_class in ((3, 2, 20), (10, 20, 100)):
        ds = synth_gaussian(c, per_class, d, 3.0, seed=c)
        model = server_init(d, c, c, 0.4)
        assert loss(model, ds, 0.01) == reference_loss(model.weights, ds, 0.01)


def test_loss_rejects_empty_dataset():
    empty = make_dataset(np.zeros((0, 2)), [], c=3)
    with pytest.raises(ValueError):
        loss(init_model(2, 3), empty)


# ---------------------------------------------------------------- buffered objective

def _objective_cases():
    """Datasets for the buffered objective: wide, one row, and an empty class."""
    yield synth_gaussian(10, 100, 20, 3.0, seed=21)
    yield make_dataset([[0.5, -1.0]], [2], c=3)
    rng = np.random.default_rng(22)
    yield make_dataset(rng.normal(size=(12, 3)), [0, 1, 3] * 4, c=4)


@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_objective_bitwise_equals_loss_and_gradient(lam):
    # The one-member stacked objective, as the smoothness probe runs it.
    rng = np.random.default_rng(23)
    for ds in _objective_cases():
        evaluate = _stacked_objective([ds], lam)
        # Repeated calls on one closure reuse its buffer; none may see another's values.
        for _ in range(4):
            weights = rng.normal(size=(ds.d + 1, ds.class_count))
            values, grads = evaluate(weights.reshape(1, -1), [0])
            model = ModelParams(weights, ds.class_count)
            assert values[0] == loss(model, ds, lam)
            assert grads.shape == (1, weights.size)
            assert grads[0].tobytes() == gradient(model, ds, lam).ravel().tobytes()


def test_objective_result_survives_next_call():
    ds = synth_gaussian(3, 20, 2, 3.0, seed=24)
    evaluate = _stacked_objective([ds], 0.01)
    first = evaluate(np.zeros((1, 9)), [0])[1]
    kept = first.copy()
    evaluate(np.ones((1, 9)), [0])
    assert first.tobytes() == kept.tobytes()


def test_objective_rejects_untrainable_dataset():
    with pytest.raises(ValueError):
        _stacked_objective([make_dataset(np.zeros((0, 2)), [], c=3)], 0.0)
    with pytest.raises(ValueError):
        _stacked_objective([make_dataset([[0.0, 1.0]], [-1], c=3)], 0.0)


def _mixed_runs(shared_rows=130, own_runs=((2, 17), (1, 1), (3, 40))):
    """Weights, runs, labels and datasets of the models of one `_xent` call, c = 4.

    Three models share a block of ``shared_rows`` rows (broadcast), then
    each (k, m) of ``own_runs`` is a run of k models on m own rows each.
    """
    rng = np.random.default_rng(25)
    shared = synth_gaussian(4, -(-shared_rows // 4), 3, 3.0, seed=25).take(np.arange(shared_rows))
    own = _stack_members([m for k, m in own_runs for _ in range(k)], 4, 3, seed=26)
    counts = [k for k, _ in own_runs]
    weights = rng.normal(scale=0.8, size=(3 + len(own), 4, 4))
    runs = [np.broadcast_to(_augment(shared.features), (3, shared_rows, 4))]
    labels = [np.tile(shared.observed_labels, 3)]
    start = 0
    for k in counts:
        block = own[start:start + k]
        runs.append(np.stack([_augment(ds.features) for ds in block]))
        labels += [ds.observed_labels for ds in block]
        start += k
    return weights, runs, np.concatenate(labels), [shared] * 3 + own


@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_xent_mixed_runs_bitwise_equal_each_model_alone(lam):
    weights, runs, labels, members = _mixed_runs()
    n = labels.size
    grads = np.empty_like(weights)
    losses = _xent(weights, _layout(runs, np.empty((n, 4))), labels, lam, grads)
    assert n == 545 and losses.shape == (9,)
    for w, ds, value, grad in zip(weights, members, losses, grads):
        assert value == reference_loss(w, ds, lam)
        assert grad.tobytes() == gradient(ModelParams(w, 4), ds, lam).tobytes()


@pytest.mark.parametrize("last", [0, 1])
def test_xent_at_the_loss_block_bitwise_equals_each_model_alone(last):
    # 2048 rows of c = 4 are one loss block of logits, the class-major copy
    # of one block; one row more takes a second block of that one row. Each
    # model alone fits one block.
    weights, runs, labels, members = _mixed_runs(300, ((2, 400), (1, 1), (1, 347 + last)))
    n = labels.size
    assert n * 4 == _LOSS_BLOCK + 4 * last
    grads = np.empty_like(weights)
    losses = _xent(weights, _layout(runs, np.empty((n, 4))), labels, 0.02, grads)
    for w, ds, value, grad in zip(weights, members, losses, grads):
        assert value == reference_loss(w, ds, 0.02)
        assert grad.tobytes() == gradient(ModelParams(w, 4), ds, 0.02).tobytes()


# ---------------------------------------------------------------- class-major log-softmax

def test_exp_class_sum_bitwise_equals_row_reduction():
    # numpy's pairwise order changes at 8 and 128 terms and splits halves
    # above 128; every class count up to 300 crosses each rule. Scaled so
    # the exps span hundreds of orders of magnitude and stay finite.
    rng = np.random.default_rng(31)
    for c in range(1, 301):
        for shape in ((5, c), (2, 3, c)):
            values = rng.standard_normal(shape) * 50.0
            want = np.add.reduce(np.exp(values), axis=-1)
            major = np.moveaxis(values, -1, 0)
            for got in (_exp_class_sum(major), _exp_class_sum(major, np.empty(major.shape))):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (c, shape)


def test_solver_row_dot_bitwise_equals_one_dot_per_row():
    # The lockstep L-BFGS takes every dot and norm of a row from `_row_dot`;
    # each must be what solving that row's problem alone computes.
    rng = np.random.default_rng(35)
    for p in (6, 7, 8, 15, 16, 17, 31, 32, 33, 64, 100, 129, 210, 211, 500, 999, 1000):
        for scale in (1e-8, 1e-3, 1.0, 1e3):
            rings = rng.standard_normal((7, 3, p)) * scale
            b = rng.standard_normal((7, p)) * scale
            # Rows strided apart, and contiguous rows of unequal scales.
            for a in (rings[:, 1], rings[:, 2] * rng.uniform(0.5, 2.0, size=(7, 1))):
                dots, norms = _row_dot(a, b), np.sqrt(_row_dot(a, a))
                for i in range(len(a)):
                    assert dots[i] == a[i] @ b[i], (p, scale, i)
                    assert norms[i] == np.linalg.norm(a[i]), (p, scale, i)


def _log_softmax_cases():
    rng = np.random.default_rng(33)
    for shape in ((1, 1), (1, 10), (200, 1), (200, 3), (500, 10), (3, 40, 10), (2, 1, 4),
                  (4, 25, 3), (40, 7), (40, 8), (40, 16), (40, 17), (60, 130), (40, 257)):
        yield rng.normal(scale=4.0, size=shape)
    tied = rng.normal(size=(50, 6))
    tied[:, 2] = tied[:, 4] = tied.max(axis=1) + 1.0
    yield tied
    yield np.zeros((7, 5))
    extreme = rng.choice([-700.0, 700.0, 0.0, -0.0], size=(2, 30, 9))
    extreme[0, :, 0] = -700.0
    extreme[1, 0] = [-0.0, 0.0, -700.0, -0.0, 0.0, -700.0, -0.0, -0.0, 0.0]  # max is a signed zero
    yield extreme


def _row_log_softmax(logits):
    """The log-softmax along each row, written out in numpy."""
    top = np.max(logits, axis=-1, keepdims=True)
    return logits - top - np.log(np.sum(np.exp(logits - top), axis=-1, keepdims=True))


def test_column_log_softmax_bitwise_equals_row_form():
    # The class-major form, with and without a spare buffer for the exps,
    # against the log-softmax along each row.
    for logits in _log_softmax_cases():
        want = _row_log_softmax(logits)
        for spare in (None, np.empty(np.moveaxis(logits, -1, 0).shape)):
            major = np.moveaxis(logits, -1, 0).copy()
            assert _log_softmax(major, spare) is major
            assert np.moveaxis(major, 0, -1).tobytes() == want.tobytes(), logits.shape


def test_log_softmax_runs_a_loss_block_of_rows_at_a_time(monkeypatch):
    # `_xent` and `_label_free_gradient` copy their logits class-major in
    # blocks of at most `_LOSS_BLOCK` logits, the last block holding what
    # is left; the blocked gradient is bitwise the one-pass form.
    shapes = []
    real = trainer._log_softmax
    monkeypatch.setattr(trainer, "_log_softmax", lambda values, *rest:
                        shapes.append(values.shape) or real(values, *rest))
    rng = np.random.default_rng(34)
    for n, c in ((819, 10), (820, 10), (2048, 4), (4097, 4), (8192, 1), (8193, 1)):
        x = _augment(rng.normal(size=(n, 2)))
        _xent(rng.normal(size=(1, 3, c)), _layout([x[None]], np.empty((n, c))),
              rng.integers(0, c, size=n), 0.0)
    assert shapes == [(10, 819), (10, 819), (10, 1), (4, 2048), (4, 2048), (4, 2048), (4, 1),
                      (1, 8192), (1, 8192), (1, 1)]
    shapes.clear()
    x, w = _augment(rng.normal(size=(2731, 2))), rng.normal(size=(3, 3))
    got = _label_free_gradient(w, x, np.empty((2731, 3)), 0.01)
    assert shapes == [(3, 2730), (3, 1)]
    want = x.T @ np.exp(_row_log_softmax(x @ w))
    want /= len(x)
    want += 0.01 * w
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- gradient

def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    features = rng.normal(size=(5, 3))
    labels = rng.integers(0, 4, size=5)
    ds = make_dataset(features, labels, c=4)
    model = ModelParams(weights=rng.normal(scale=0.5, size=(4, 4)), class_count=4)
    lam = 0.02
    grad = gradient(model, ds, l2_lambda=lam)
    h = 1e-6
    for r in range(4):
        for c_ in range(4):
            up = model.weights.copy()
            up[r, c_] += h
            down = model.weights.copy()
            down[r, c_] -= h
            numeric = (
                loss(ModelParams(up, 4), ds, lam) - loss(ModelParams(down, 4), ds, lam)
            ) / (2 * h)
            assert abs(grad[r, c_] - numeric) <= 1e-5


def test_gradient_matches_independent_formula():
    rng = np.random.default_rng(4)
    features = rng.normal(size=(12, 3))
    labels = rng.integers(0, 3, size=12)
    ds = make_dataset(features, labels, c=3)
    model = ModelParams(weights=rng.normal(size=(4, 3)), class_count=3)
    expected = reference_gradient(model.weights, features, labels, 0.05)
    np.testing.assert_allclose(gradient(model, ds, 0.05), expected, atol=1e-12)


def test_gradient_small_at_solved_optimum():
    from fednl import solve_optimum

    ds = synth_gaussian(3, 40, 2, 4.0, seed=5)
    config = TrainerConfig(l2_lambda=0.1)
    opt = solve_optimum(ds, config)
    grad = gradient(opt.model, ds, l2_lambda=0.1)
    assert np.linalg.norm(grad) <= 1e-6


def test_batch_gradient_is_mean_of_instances():
    rng = np.random.default_rng(6)
    features = rng.normal(size=(8, 2))
    labels = rng.integers(0, 3, size=8)
    ds = make_dataset(features, labels, c=3)
    model = ModelParams(weights=rng.normal(size=(3, 3)), class_count=3)
    whole = gradient(model, ds, 0.0)
    singles = [
        gradient(model, make_dataset(features[j: j + 1], labels[j: j + 1], c=3), 0.0)
        for j in range(8)
    ]
    np.testing.assert_allclose(whole, np.mean(singles, axis=0), atol=1e-12)


# ---------------------------------------------------------------- properties

def test_strong_convexity_inner_product():
    # lam * |wa - wb|^2 <= <grad(wa) - grad(wb), wa - wb>
    rng = np.random.default_rng(7)
    ds = synth_gaussian(3, 30, 2, 5.0, seed=7)
    lam = 0.05
    for _ in range(20):
        wa = ModelParams(rng.normal(size=(3, 3)), 3)
        wb = ModelParams(rng.normal(size=(3, 3)), 3)
        diff = wa.weights - wb.weights
        inner = np.sum((gradient(wa, ds, lam) - gradient(wb, ds, lam)) * diff)
        assert lam * np.sum(diff ** 2) <= inner + 1e-10


def test_smoothness_bound_holds():
    rng = np.random.default_rng(8)
    ds = synth_gaussian(3, 30, 2, 5.0, seed=8)
    lam = 0.01
    bound = smoothness_bound(ds, l2_lambda=lam)
    for _ in range(20):
        wa = ModelParams(rng.normal(size=(3, 3)), 3)
        wb = ModelParams(rng.normal(size=(3, 3)), 3)
        diff_norm = np.linalg.norm(wa.weights - wb.weights)
        grad_norm = np.linalg.norm(gradient(wa, ds, lam) - gradient(wb, ds, lam))
        assert grad_norm <= bound * diff_norm + 1e-10


def test_full_batch_descent_is_monotone():
    ds = synth_gaussian(3, 60, 2, 5.0, seed=9)
    lam = 0.01
    eta = 1.0 / smoothness_bound(ds, l2_lambda=lam)
    config = TrainerConfig(
        local_epochs=1, batch_size=ds.n, lr_schedule=Constant(eta), l2_lambda=lam)
    model = server_init(2, 3, 9, 0.5)
    previous = loss(model, ds, lam)
    for k in range(20):
        model = train_one(model, ds, config, 9, k)
        final = loss(model, ds, lam)
        assert final <= previous + 1e-12
        previous = final


# ---------------------------------------------------------------- training

def test_trainer_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(local_epochs=0)
    with pytest.raises(ValueError):
        TrainerConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainerConfig(l2_lambda=-0.1)


def test_single_full_batch_step_is_one_gradient_step():
    ds = synth_gaussian(3, 25, 2, 5.0, seed=10)
    lam = 0.01
    for eta in (1e-3, 1e-4):
        config = TrainerConfig(
            local_epochs=1, batch_size=ds.n, lr_schedule=Constant(eta), l2_lambda=lam)
        start = server_init(2, 3, 10, 0.2)
        trained = train_one(start, ds, config, 10)
        expected = reference_gradient(
            start.weights, ds.features, ds.observed_labels, lam
        )
        step = (start.weights - trained.weights) / eta
        np.testing.assert_allclose(step, expected, atol=1e-12 / eta)


def reference_train_local(model, dataset, config, seed, step_base=0):
    """The SGD step loop written with the array methods and a schedule lookup per step."""
    x = np.hstack([dataset.features, np.ones((dataset.n, 1))])
    y = dataset.observed_labels
    weights = model.weights.copy()
    rng = derive_rng(seed, TRAIN)
    lam = config.l2_lambda
    step = step_base
    batch = min(config.batch_size, dataset.n)
    for _ in range(config.local_epochs):
        order = rng.permutation(dataset.n)
        for start in range(0, dataset.n, batch):
            rows = order[start:start + batch]
            step += 1
            xb, yb = x[rows], y[rows]
            logits = xb @ weights
            shifted = logits - logits.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            batch_loss = -logp[np.arange(len(rows)), yb].mean() + 0.5 * lam * np.sum(weights ** 2)
            if not np.isfinite(batch_loss):
                raise DivergenceError(
                    f"loss went non-finite at global step {step}; lower the learning rate")
            probs = np.exp(logp)
            probs[np.arange(len(rows)), yb] -= 1.0
            grad = xb.T @ probs / len(rows) + lam * weights
            weights -= lr_at(config.lr_schedule, step) * grad
    return weights


@pytest.mark.parametrize("schedule, batch_size, step_base", [
    (Constant(0.1), 16, 0),                        # 50 rows: short last batch of 2
    (Diminishing(theta=2.0, alpha=9.0), 16, 0),
    (Diminishing(theta=2.0, alpha=9.0), 7, 120),   # nonzero global step base
    (Constant(0.05), 64, 31),                      # batch larger than the dataset
])
def test_train_local_matches_step_loop_reference(schedule, batch_size, step_base):
    ds = synth_gaussian(5, 10, 3, 4.0, seed=14)
    config = TrainerConfig(local_epochs=3, batch_size=batch_size, lr_schedule=schedule,
                           l2_lambda=0.01)
    start = server_init(3, 5, 14, 0.3)
    model = train_one(start, ds, config, 14, step_base)
    ref_weights = reference_train_local(start, ds, config, 14, step_base)
    assert model.weights.tobytes() == ref_weights.tobytes()


def _stack_members(sizes, c, d, seed):
    """One dataset per size, cut from one blob set so every member has its own rows."""
    ds = synth_gaussian(c, -(-sum(sizes) // c), d, 4.0, seed=seed)
    order = derive_rng(seed, 99).permutation(ds.n)
    bounds = np.cumsum([0] + list(sizes))
    return [ds.take(np.sort(order[a:b])) for a, b in zip(bounds[:-1], bounds[1:])]


@pytest.mark.parametrize("schedule", [Constant(0.1), Diminishing(theta=2.0, alpha=9.0)])
@pytest.mark.parametrize("sizes, bases, batch_size, c", [
    # batch 8: 50 rows end each epoch on a batch of 2 at step 7, 19 rows on
    # 3 at step 3, 33 rows on 1 at step 5; 5 rows are fewer than a batch,
    # 24 rows have no short batch; step bases all differ.
    ((50, 19, 5, 24, 33), (0, 17, 120, 3, 55), 8, 5),
    # 30 models of 10 to 150 rows with batch 64: blocks of 6 models, and
    # groups of equal row counts that are not adjacent in the stack.
    (tuple(10 + (37 * j) % 141 for j in range(30)), tuple(7 * j for j in range(30)), 64, 10),
])
def test_stacked_train_local_matches_sequential_reference(schedule, sizes, bases, batch_size, c):
    members = _stack_members(sizes, c, 4, seed=31)
    config = TrainerConfig(local_epochs=3, batch_size=batch_size, lr_schedule=schedule,
                           l2_lambda=0.01)
    seeds = [1000 + j for j in range(len(members))]
    start = server_init(4, c, 31, 0.3)
    models = train_local(start, DatasetStack(members), config, seeds, bases)
    assert len(models) == len(members)
    for ds, seed, base, model in zip(members, seeds, bases, models):
        ref_weights = reference_train_local(start, ds, config, seed, base)
        assert model.weights.tobytes() == ref_weights.tobytes()


def _record_layouts(monkeypatch):
    """The row-count signature of every tick layout built from here on."""
    built = []
    real = trainer._tick_layout

    def recording(sizes, *args):
        built.append(sizes)
        return real(sizes, *args)

    monkeypatch.setattr(trainer, "_tick_layout", recording)
    return built


def test_train_local_builds_each_tick_layout_once(monkeypatch):
    # Ten members of 50 rows with batch 16: every step is one tick, of
    # 16-row batches three times an epoch and 2-row batches once. The stack
    # keeps its plan, so a second call on it, with other seeds and step
    # bases, builds none.
    members = _stack_members([50] * 10, 3, 2, seed=40)
    config = TrainerConfig(local_epochs=3, batch_size=16)
    stack = DatasetStack(members)
    built = _record_layouts(monkeypatch)
    train_local(init_model(2, 3), stack, config, list(range(10)))
    assert built == [(16,) * 10, (2,) * 10]
    train_local(init_model(2, 3), stack, config, list(range(10, 20)), list(range(0, 50, 5)))
    assert len(built) == 2


@pytest.mark.parametrize("schedule", [Constant(0.1), Diminishing(theta=2.0, alpha=9.0)])
def test_calls_on_one_stack_train_as_fresh_stacks(monkeypatch, schedule):
    # Members of unequal size give many signatures of row counts. The second
    # call reuses the first call's plan; the third, at another batch size,
    # builds a second plan beside it; the fourth reuses the first again.
    # Each call's models are bitwise a fresh stack's.
    members = _stack_members([50, 19, 5, 24, 33, 50], 5, 4, seed=42)
    config = TrainerConfig(local_epochs=3, batch_size=8, lr_schedule=schedule, l2_lambda=0.01)
    start = server_init(4, 5, 42, 0.3)
    stack = DatasetStack(members)
    calls = [(config, list(range(100, 106)), None),
             (replace(config, l2_lambda=0.1), list(range(200, 206)), list(range(0, 54, 9))),
             (replace(config, batch_size=16), list(range(300, 306)), [3] * 6),
             (config, list(range(400, 406)), list(range(50, 44, -1)))]
    built = _record_layouts(monkeypatch)
    counts = []
    for cfg, seeds, bases in calls:
        models = train_local(start, stack, cfg, seeds, bases)
        counts.append(len(built))
        fresh = train_local(start, DatasetStack(members), cfg, seeds, bases)
        assert [m.weights.tobytes() for m in models] == [m.weights.tobytes() for m in fresh]
        del built[counts[-1]:]
    assert counts[0] > 2 and counts[1] == counts[0] < counts[2] == counts[3]


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_plan_survives_a_diverged_call(monkeypatch):
    # Members of 30, 27 and 25 rows take 4 batches of 8 an epoch, so every
    # planned tick holds all three. At theta = 1e30 member 1 (step base 0)
    # diverges, while members 0 and 2 run at rates near 1e-10. Member 2 is
    # dropped and member 0 trains on alone, in ticks the plan did not hold.
    # A later call on the same stack still trains bitwise as a fresh stack
    # does.
    calm = synth_gaussian(3, 20, 2, 4.0, seed=43)
    members = [calm.take(np.arange(30)), calm.take(np.arange(30, 57)), calm.take(np.arange(25))]
    config = TrainerConfig(local_epochs=4, batch_size=8,
                           lr_schedule=Diminishing(theta=1e30, alpha=1.0), l2_lambda=0.01)
    start = server_init(2, 3, 43, 0.3)
    stack = DatasetStack(members)
    built = _record_layouts(monkeypatch)
    with pytest.raises(DivergenceError) as raised:
        train_local(start, stack, config, [0, 1, 2], [10 ** 40, 0, 10 ** 40])
    assert raised.value.member == 1
    assert {len(sizes) for sizes in built} == {1, 3}
    before = len(built)
    calm_config = replace(config, lr_schedule=Constant(0.05))
    models = train_local(start, stack, calm_config, [5, 6, 7], [1, 2, 3])
    assert len(built) == before
    fresh = train_local(start, DatasetStack(members), calm_config, [5, 6, 7], [1, 2, 3])
    assert [m.weights.tobytes() for m in models] == [m.weights.tobytes() for m in fresh]


@pytest.mark.parametrize("schedule", [Constant(0.1), Diminishing(theta=2.0, alpha=9.0)])
def test_reused_tick_layouts_train_each_model_as_alone(monkeypatch, schedule):
    # Batch 256 with c = 8 puts two models in a tick. Members of 300, 520
    # and 40 rows end their epochs, and their training, at different steps,
    # so the ticks change members and row counts, and a layout serves
    # ticks of different members.
    sizes = [300, 300, 300, 520, 40, 300]
    members = _stack_members(sizes, 8, 3, seed=41)
    config = TrainerConfig(local_epochs=3, batch_size=256, lr_schedule=schedule,
                           l2_lambda=0.01)
    seeds, bases = [300 + j for j in range(6)], [5 * j for j in range(6)]
    start = server_init(3, 8, 41, 0.3)
    built = _record_layouts(monkeypatch)
    ticks = _record_ticks(monkeypatch)
    models = train_local(start, DatasetStack(members), config, seeds, bases)
    assert len(set(built)) == len(built) < len(ticks)
    served = {}  # the member sets each layout served
    for js, rows, _ in ticks:
        served.setdefault(tuple(rows), set()).add(tuple(js))
    assert max(len(sets) for sets in served.values()) > 1
    for ds, seed, base, model in zip(members, seeds, bases, models):
        alone = train_one(start, ds, config, seed, base)
        assert model.weights.tobytes() == alone.weights.tobytes()


def test_dataset_stack_validation():
    ds = synth_gaussian(3, 5, 2, 4.0, seed=33)
    with pytest.raises(ValueError, match="at least one member"):
        DatasetStack([])
    start, config = init_model(2, 3), TrainerConfig(local_epochs=1)
    with pytest.raises(ValueError, match="as many seeds"):
        train_local(start, DatasetStack([ds, ds]), config, [1])
    with pytest.raises(ValueError, match="as many seeds"):
        train_local(start, DatasetStack([ds]), config, [1], [0, 0])
    config = replace(config, lr_schedule=Diminishing(theta=2.0, alpha=9.0))
    omitted = train_local(start, DatasetStack([ds, ds]), config, [1, 2])
    zeros = train_local(start, DatasetStack([ds, ds]), config, [1, 2], [0, 0])
    assert [m.weights.tobytes() for m in omitted] == [m.weights.tobytes() for m in zeros]
    assert DatasetStack([ds, ds]).n == 2 * ds.n


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_stack_reports_lowest_failing_member():
    config = TrainerConfig(local_epochs=5, batch_size=8, lr_schedule=Constant(1e6),
                           l2_lambda=0.01)
    calm = synth_gaussian(3, 30, 2, 4.0, seed=34)
    wild = make_dataset(calm.features * 1e50, calm.observed_labels, c=3)
    empty = make_dataset(np.zeros((0, 2)), [], c=3)
    start = init_model(2, 3)
    errors = {}
    for name, ds in (("calm", calm), ("wild", wild)):
        with pytest.raises(DivergenceError) as raised:
            train_one(start, ds, config, 0)
        errors[name] = str(raised.value)
    steps = {name: int(message.split("global step ")[1].split(";")[0])
             for name, message in errors.items()}
    assert steps["wild"] < steps["calm"]
    # Member 1 diverges first in lockstep order; member 0 still decides.
    with pytest.raises(DivergenceError) as raised:
        train_local(start, DatasetStack([calm, wild, empty]), config, [0, 0, 0])
    assert str(raised.value) == errors["calm"]
    assert raised.value.member == 0
    # A member that cannot train at all fails after the ones below it finish.
    with pytest.raises(ValueError, match="dataset is empty") as raised:
        train_local(start, DatasetStack([calm.take(np.arange(8)), empty, wild]),
                    replace(config, lr_schedule=Constant(0.1)), [0, 0, 0])
    assert raised.value.member == 1


def _record_ticks(monkeypatch):
    """(members, batch row counts, batch losses) of every fused tick from here on, in slot order."""
    ticks = []
    real = trainer._sgd_tick

    def recording(weights, tick, batches, *args):
        batch_loss = real(weights, tick, batches, *args)
        ticks.append((list(tick[0]), [len(rows) for rows in batches], batch_loss.copy()))
        return batch_loss

    monkeypatch.setattr(trainer, "_sgd_tick", recording)
    return ticks


@pytest.mark.parametrize("schedule", [Constant(0.1), Diminishing(theta=2.0, alpha=9.0)])
def test_fused_ticks_of_mixed_row_counts_match_sequential_reference(monkeypatch, schedule):
    # 40 members of 9 to 120 rows with batch 16 and c = 8: a tick holds at
    # most 4096 // (16 * 8) = 32 models, so a step runs up to two ticks, and
    # the short last batches put many row counts in one tick.
    sizes = [9 + (29 * j) % 112 for j in range(40)]
    bases = [(13 * j) % 50 for j in range(40)]
    members = _stack_members(sizes, 8, 3, seed=37)
    config = TrainerConfig(local_epochs=2, batch_size=16, lr_schedule=schedule, l2_lambda=0.01)
    seeds = [500 + j for j in range(40)]
    start = server_init(3, 8, 37, 0.3)
    ticks = _record_ticks(monkeypatch)
    models = train_local(start, DatasetStack(members), config, seeds, bases)
    assert max(len(tick) for tick, _, _ in ticks) == 32
    assert max(len(set(rows)) for _, rows, _ in ticks) >= 3
    for ds, seed, base, model in zip(members, seeds, bases, models):
        ref_weights = reference_train_local(start, ds, config, seed, base)
        assert model.weights.tobytes() == ref_weights.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_tick_divergence_names_lowest_member_not_first_slot(monkeypatch):
    # At step 2 members 0 and 2 take 8 rows and member 1 takes 5, so the
    # tick's slots run 0, 2, 1. Members 2 and 1 diverge in it together; the
    # error is member 1's, at its own global step 3 + 2, not member 2's 42.
    # Member 0's huge step base makes its rate tiny, so it never diverges.
    calm = synth_gaussian(2, 8, 2, 4.0, seed=38)
    wild = make_dataset(calm.features * 1e200, calm.observed_labels, c=2)
    config = TrainerConfig(local_epochs=3, batch_size=8,
                           lr_schedule=Diminishing(theta=1.0, alpha=1.0), l2_lambda=0.01)
    stack = DatasetStack([calm, wild.take(np.arange(5)), wild])
    ticks = _record_ticks(monkeypatch)
    with pytest.raises(DivergenceError, match="global step 5;") as raised:
        train_local(init_model(2, 2), stack, config, [0, 1, 2], [10 ** 9, 3, 40])
    assert raised.value.member == 1
    failing = [(tick, rows, np.flatnonzero(~np.isfinite(batch_loss)).tolist())
               for tick, rows, batch_loss in ticks if not np.isfinite(batch_loss).all()]
    assert failing[0] == ([0, 2, 1], [8, 8, 5], [1, 2])


@pytest.mark.parametrize("lam", [0.0, 0.03])
def test_member_losses_bitwise_equal_single_model_losses(monkeypatch, lam):
    # c = 3, so a block holds 1365 rows: 1 + 500 + 750 + 1 rows, then the
    # 200-row member that would cross the boundary starts the next block
    # with 1000 more; 1500 rows are over the budget and scored alone.
    sizes = [1, 500, 750, 1, 200, 1000, 1500, 1, 1, 7, 1364]
    members = _stack_members(sizes, 3, 4, seed=39)
    rng = np.random.default_rng(39)
    weights = [rng.normal(scale=0.7, size=(5, 3)) for _ in sizes]
    expected = [reference_loss(w, ds, lam) for w, ds in zip(weights, members)]
    blocks = []
    real = trainer._log_softmax
    monkeypatch.setattr(trainer, "_log_softmax", lambda values, *rest:
                        blocks.append(values.shape[-1]) or real(values, *rest))
    assert _member_losses(weights, members, lam) == expected
    assert blocks == [1252, 1200, 1500, 9, 1364]


def test_training_deterministic_bitwise():
    ds = synth_gaussian(3, 50, 2, 5.0, seed=11)
    config = TrainerConfig(local_epochs=3, batch_size=16)
    a = train_one(init_model(2, 3), ds, config, 11)
    b = train_one(init_model(2, 3), ds, config, 11)
    assert a.weights.tobytes() == b.weights.tobytes()


def test_training_reaches_high_accuracy():
    ds = synth_gaussian(3, 200, 2, 8.0, seed=7)
    config = TrainerConfig(local_epochs=20, batch_size=32, lr_schedule=Constant(0.1))
    model = train_one(init_model(2, 3), ds, config, 7)
    acc = float(np.mean(predict(model, ds.features) == ds.observed_labels))
    assert acc >= 0.98


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_guard_names_step():
    ds = synth_gaussian(3, 30, 2, 5.0, seed=12)
    config = TrainerConfig(
        local_epochs=5, batch_size=8, lr_schedule=Constant(1e6), l2_lambda=0.01)
    with pytest.raises(DivergenceError, match=r"global step \d+") as raised:
        train_one(init_model(2, 3), ds, config, 12, 40)
    with pytest.raises(DivergenceError) as expected:
        reference_train_local(init_model(2, 3), ds, config, 12, 40)
    assert str(raised.value) == str(expected.value)


def test_global_step_base_moves_diminishing_rate():
    ds = synth_gaussian(2, 10, 1, 5.0, seed=13)
    sched = Diminishing(theta=10.0, alpha=5.0)
    config = TrainerConfig(
        local_epochs=1, batch_size=ds.n, lr_schedule=sched, l2_lambda=0.01)
    start = server_init(1, 2, 13, 0.2)
    early = train_one(start, ds, config, 13, 0)
    late = train_one(start, ds, config, 13, 100)
    # same start, one full-batch step at different schedule positions:
    # the late step uses a smaller rate, so it moves less
    early_move = np.linalg.norm(early.weights - start.weights)
    late_move = np.linalg.norm(late.weights - start.weights)
    assert late_move < early_move
    ratio = early_move / late_move
    assert ratio == pytest.approx(lr_at(sched, 1) / lr_at(sched, 101), rel=1e-9)


def test_steps_per_round():
    config = TrainerConfig(local_epochs=3, batch_size=8)
    assert steps_per_round(24, config) == 9
    assert steps_per_round(25, config) == 12
    assert steps_per_round(4, config) == 3  # batch clipped to dataset size


# ---------------------------------------------------------------- predict

def test_predict_zero_weights_ties_to_class_zero():
    model = init_model(3, 4)
    x = np.array([[1.0, -2.0, 0.5]])
    assert predict(model, x)[0] == 0


def test_predict_dominant_column():
    weights = np.zeros((3, 3))
    weights[:, 2] = 5.0  # large scores for class 2 on positive features
    model = ModelParams(weights, 3)
    x = np.array([[1.0, 2.0], [0.5, 0.1]])
    assert predict(model, x).tolist() == [2, 2]


def test_predict_matches_argmax_oracle():
    rng = np.random.default_rng(15)
    weights = rng.normal(size=(4, 5))
    model = ModelParams(weights, 5)
    x = rng.normal(size=(100, 3))
    aug = np.hstack([x, np.ones((100, 1))])
    expected = np.argmax(aug @ weights, axis=1)
    np.testing.assert_array_equal(predict(model, x), expected)


# ---------------------------------------------------------------- persistence

def test_model_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(16)
    model = ModelParams(rng.normal(size=(5, 3)), 3)
    path = tmp_path / "m.model"
    save_model(model, path)
    with open(path) as fh:
        assert fh.readline() == "softmax-weights v1\n"
        assert fh.readline() == "5 3\n"
        back = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    assert back.tobytes() == model.weights.tobytes()
