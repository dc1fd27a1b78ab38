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
from fednl.trainer import (_augment, _exp_class_sum, _log_softmax, _log_softmax_columns,
                           _log_softmax_rows, _losses, _member_losses, _objective)

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
    rng = np.random.default_rng(23)
    for ds in _objective_cases():
        evaluate = _objective(ds, lam)
        # Repeated calls on one closure reuse its buffer; none may see another's values.
        for _ in range(4):
            weights = rng.normal(size=(ds.d + 1, ds.class_count))
            value, grad = evaluate(weights.ravel())
            model = ModelParams(weights, ds.class_count)
            assert value == loss(model, ds, lam)
            assert grad.shape == (weights.size,)
            assert grad.tobytes() == gradient(model, ds, lam).ravel().tobytes()


def test_objective_result_survives_next_call():
    ds = synth_gaussian(3, 20, 2, 3.0, seed=24)
    evaluate = _objective(ds, 0.01)
    first = evaluate(np.zeros(9))[1]
    kept = first.copy()
    evaluate(np.ones(9))
    assert first.tobytes() == kept.tobytes()


def test_objective_rejects_untrainable_dataset():
    with pytest.raises(ValueError):
        _objective(make_dataset(np.zeros((0, 2)), [], c=3), 0.0)
    with pytest.raises(ValueError):
        _objective(make_dataset([[0.0, 1.0]], [-1], c=3), 0.0)


# ---------------------------------------------------------------- column log-softmax

def test_exp_class_sum_bitwise_equals_row_reduction():
    # numpy's pairwise order changes at 8 and 128 terms and splits halves
    # above 128; every class count up to 300 crosses each rule. Scaled so
    # the exps span hundreds of orders of magnitude and stay finite.
    rng = np.random.default_rng(31)
    for c in range(1, 301):
        for shape in ((5, c), (2, 3, c)):
            values = rng.standard_normal(shape) * 50.0
            want = np.add.reduce(np.exp(values), axis=-1)
            got = _exp_class_sum(values)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (c, shape)


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


def test_column_log_softmax_bitwise_equals_row_form():
    for logits in _log_softmax_cases():
        want = _log_softmax_rows(logits.copy())
        got = logits.copy()
        assert _log_softmax_columns(got) is got
        assert got.tobytes() == want.tobytes(), logits.shape


def test_log_softmax_takes_columns_from_forty_rows_per_class(monkeypatch):
    chosen = []
    monkeypatch.setattr(trainer, "_log_softmax_rows", lambda a: chosen.append("rows") or a)
    monkeypatch.setattr(trainer, "_log_softmax_columns", lambda a: chosen.append("cols") or a)
    for shape in ((399, 10), (400, 10), (3, 133, 10), (4, 100, 10), (119, 3), (120, 3),
                  (39, 1), (40, 1)):
        _log_softmax(np.zeros(shape))
    assert chosen == ["rows", "cols", "rows", "cols", "rows", "cols", "rows", "cols"]


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
    models = train_local(start, DatasetStack(members, seeds, bases), config)
    assert len(models) == len(members)
    for ds, seed, base, model in zip(members, seeds, bases, models):
        ref_weights = reference_train_local(start, ds, config, seed, base)
        assert model.weights.tobytes() == ref_weights.tobytes()


def test_dataset_stack_validation():
    ds = synth_gaussian(3, 5, 2, 4.0, seed=33)
    with pytest.raises(ValueError, match="at least one member"):
        DatasetStack([], [])
    with pytest.raises(ValueError, match="as many seeds"):
        DatasetStack([ds, ds], [1])
    with pytest.raises(ValueError, match="as many seeds"):
        DatasetStack([ds], [1], [0, 0])
    assert DatasetStack([ds, ds], [1, 2]).step_bases == (0, 0)
    assert DatasetStack([ds, ds], [1, 2]).n == 2 * ds.n


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
        train_local(start, DatasetStack([calm, wild, empty], [0, 0, 0]), config)
    assert str(raised.value) == errors["calm"]
    assert raised.value.member == 0
    # A member that cannot train at all fails after the ones below it finish.
    with pytest.raises(ValueError, match="dataset is empty") as raised:
        train_local(start, DatasetStack([calm.take(np.arange(8)), empty, wild], [0, 0, 0]),
                    replace(config, lr_schedule=Constant(0.1)))
    assert raised.value.member == 1


def _record_ticks(monkeypatch):
    """(members, batch row counts, batch losses) of every fused tick from here on, in slot order."""
    ticks = []
    real = trainer._sgd_tick

    def recording(weights, tick, *args):
        batch_loss = real(weights, tick, *args)
        ticks.append(([j for j, _ in tick], [len(rows) for _, rows in tick], batch_loss.copy()))
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
    models = train_local(start, DatasetStack(members, seeds, bases), config)
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
    stack = DatasetStack([calm, wild.take(np.arange(5)), wild], [0, 1, 2], [10 ** 9, 3, 40])
    ticks = _record_ticks(monkeypatch)
    with pytest.raises(DivergenceError, match="global step 5;") as raised:
        train_local(init_model(2, 2), stack, config)
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
    expected = [_losses(w[None], _augment(ds.features), ds.observed_labels, lam)[0]
                for w, ds in zip(weights, members)]
    blocks = []
    real = trainer._log_softmax
    monkeypatch.setattr(trainer, "_log_softmax", lambda logits: blocks.append(logits.shape[-2])
                        or real(logits))
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
