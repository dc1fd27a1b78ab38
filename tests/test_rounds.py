"""Communication-round estimation and measured constants."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from fednl import (
    Constant,
    Diminishing,
    FederationConfig,
    MeasurementError,
    ModelParams,
    NoStrongConvexityError,
    RoundParams,
    ShuffleSplit,
    SmoothnessParams,
    TrainerConfig,
    compute_B,
    concat_datasets,
    estimate_rounds,
    gradient,
    inject_noise,
    measure_b_components,
    measure_init_gap,
    measure_round_constants,
    measure_round_grid,
    measure_smoothness,
    partition_non_iid,
    run_fedavg,
    server_init,
    solve_optimum,
    symmetric_matrix,
    synth_gaussian,
    verify_rate,
)
from fednl import rounds
from fednl._rng import INJECT, MEASURE, TRAIN, derive_rng, derive_seed
from fednl.data import OUT_OF_SPACE
from fednl.engine import RoundRecord, RunReport

from conftest import (make_dataset, record_probes, reference_objective,
                      reference_stacked_objective, round_constants_bytes, train_one)


CONFIG = TrainerConfig(local_epochs=5, batch_size=32, l2_lambda=0.05)


# ---------------------------------------------------------------- smoothness

def test_mu_is_exactly_lambda():
    ds = synth_gaussian(3, 30, 2, 6.0, seed=1)
    smooth = measure_smoothness([ds], CONFIG, seed=1)
    assert smooth.mu == 0.05


def test_L_at_least_mu():
    ds = synth_gaussian(2, 10, 1, 3.0, seed=2)
    smooth = measure_smoothness([ds], CONFIG, seed=2)
    assert smooth.L >= smooth.mu


def test_L_stable_across_seeds():
    ds = synth_gaussian(3, 60, 2, 6.0, seed=3)
    a = measure_smoothness([ds], CONFIG, seed=10)
    b = measure_smoothness([ds], CONFIG, seed=20)
    assert abs(a.L - b.L) / a.L <= 0.2


def test_zero_lambda_rejected():
    ds = synth_gaussian(2, 10, 2, 3.0, seed=4)
    loose = TrainerConfig(local_epochs=1, batch_size=8, l2_lambda=0.0)
    with pytest.raises(NoStrongConvexityError):
        measure_smoothness([ds], loose, seed=4)


def test_smoothness_params_validation():
    with pytest.raises(ValueError):
        SmoothnessParams(L=0.5, mu=1.0)
    with pytest.raises(ValueError):
        SmoothnessParams(L=1.0, mu=0.0)


def _probe_L(ds, mu, seed, grad):
    """The L of `measure_smoothness` on the in-space set ``ds``, with the
    gradient of each weight draw taken by ``grad``."""
    rng = derive_rng(seed, MEASURE)
    shape = (ds.d + 1, ds.class_count)
    best = 0.0
    for _ in range(rounds._SMOOTHNESS_PAIRS):
        wa = rng.standard_normal(shape)
        wb = rng.standard_normal(shape)
        ga, gb = grad(wa), grad(wb)
        denom = float(np.linalg.norm(wa - wb))
        if denom == 0.0:
            continue
        best = max(best, float(np.linalg.norm(ga - gb)) / denom)
    return max(mu, 1.2 * best)


def reference_smoothness_L(dataset, trainer_config, seed=0):
    """The L of `measure_smoothness`, one `gradient` call per weight draw."""
    mu = trainer_config.l2_lambda
    ds = dataset.in_space()
    return _probe_L(ds, mu, seed, lambda w: gradient(ModelParams(w, ds.class_count), ds, mu))


def reference_label_free_L(dataset, trainer_config, seed=0):
    """The L of `measure_smoothness` in plain numpy: each draw's gradient
    without its label term, x' softmax(x w) / n + lambda w."""
    mu = trainer_config.l2_lambda
    ds = dataset.in_space()
    x = np.hstack([ds.features, np.ones((ds.n, 1))])

    def grad(w):
        logits = x @ w
        shifted = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))
        return x.T @ p / ds.n + mu * w

    return _probe_L(ds, mu, seed, grad)


def test_smoothness_bitwise_equals_per_call_gradients():
    # Bitwise the label-free reference; within a few ulps of per-call
    # `gradient`s, whose label term rounds the differences otherwise.
    wide = synth_gaussian(10, 30, 20, 3.0, seed=11)
    small = synth_gaussian(3, 20, 2, 6.0, seed=12)
    labels = small.observed_labels.copy()
    labels[:4] = OUT_OF_SPACE
    with_out_of_space = make_dataset(small.features, labels, c=3, ids=small.ids)
    for ds, seed in ((wide, 11), (small, 12), (with_out_of_space, 13)):
        got = measure_smoothness([ds], CONFIG, seed=seed)
        assert got.L == reference_label_free_L(ds, CONFIG, seed=seed)
        per_call = reference_smoothness_L(ds, CONFIG, seed=seed)
        assert abs(got.L - per_call) <= 4 * math.ulp(per_call)


def test_smoothness_of_several_sets_bitwise_equals_their_concatenation():
    # One probe over the sets' pooled in-space rows, whatever their labels
    # or out-of-space rows: L is that of the concatenated set, to the bit.
    small = synth_gaussian(3, 20, 2, 6.0, seed=12)
    labels = small.observed_labels.copy()
    labels[:4] = OUT_OF_SPACE
    with_out_of_space = make_dataset(small.features, labels, c=3, ids=small.ids + 100)
    other = synth_gaussian(3, 10, 2, 3.0, seed=13, id_base=200)
    sets = [small, with_out_of_space, other]
    got = measure_smoothness(sets, CONFIG, seed=12)
    pooled = concat_datasets([ds.in_space() for ds in sets])
    assert got == measure_smoothness([pooled], CONFIG, seed=12)
    assert got.L == reference_label_free_L(pooled, CONFIG, seed=12)


@pytest.mark.parametrize("other, what", [
    (synth_gaussian(4, 10, 2, 6.0, seed=1, id_base=100), "class count: 3 and 4"),
    (synth_gaussian(3, 10, 5, 6.0, seed=1, id_base=100), "feature dimension: 2 and 5"),
])
def test_smoothness_refuses_sets_over_other_spaces(other, what):
    ds = synth_gaussian(3, 10, 2, 6.0, seed=0)
    with pytest.raises(ValueError, match=f"datasets disagree on the {what}"):
        measure_smoothness([ds, other], CONFIG, seed=0)


def test_smoothness_of_the_same_rows_ignores_their_labels():
    # Each set probed on its own: L is a function of the rows alone, to the
    # bit, as it is of each level of a grid over the same rows.
    ds = synth_gaussian(4, 15, 3, 6.0, seed=0)
    rolled = make_dataset(ds.features, np.roll(ds.observed_labels, 7), c=4, ids=ds.ids)
    a = measure_smoothness([ds], CONFIG, seed=0)
    b = measure_smoothness([rolled], CONFIG, seed=0)
    assert a.L.hex() == b.L.hex()
    base = synth_gaussian(4, 60, 3, 4.0, seed=0)
    parts = partition_non_iid(base, 3, seed=0, strategy=ShuffleSplit())
    trainer = TrainerConfig(local_epochs=3, batch_size=24, l2_lambda=0.01)
    grid = measure_round_grid(parts, trainer, 0, (0.0, 0.3, 0.5), init_scale=0.02)
    assert len({got.smooth.L.hex() for got in grid}) == 1


# ---------------------------------------------------------------- optimum

def test_solved_optimum_has_small_gradient():
    ds = synth_gaussian(3, 50, 2, 5.0, seed=5)
    opt = solve_optimum(ds, CONFIG)
    assert opt.grad_norm <= 1e-6
    assert np.linalg.norm(gradient(opt.model, ds, CONFIG.l2_lambda)) <= 1e-6


def test_optimum_bitwise_equals_per_call_objective(monkeypatch):
    ds = synth_gaussian(4, 40, 3, 4.0, seed=14)
    start = server_init(ds.d, 4, seed=14)
    got = solve_optimum(ds, CONFIG, start=start)
    monkeypatch.setattr(rounds, "_stacked_objective", reference_stacked_objective)
    want = solve_optimum(ds, CONFIG, start=start)
    assert got.model.weights.tobytes() == want.model.weights.tobytes()
    assert (got.loss, got.grad_norm) == (want.loss, want.grad_norm)


def test_optimum_nonconvergence_reported(monkeypatch):
    ds = synth_gaussian(3, 50, 2, 5.0, seed=6)
    monkeypatch.setattr(rounds, "_LBFGS_MAX_ITER", 1)
    with pytest.raises(MeasurementError):
        solve_optimum(ds, CONFIG)


def _uneven_members():
    """Members of 240, 17, 90, 1 and 40 rows; the 90-row one has features scaled by 30."""
    base = synth_gaussian(4, 100, 3, 4.0, seed=14)
    perm = np.random.default_rng(3).permutation(base.n)
    cuts = np.split(perm, np.cumsum([240, 17, 90, 1, 40])[:-1])
    members = [base.take(np.sort(rows)) for rows in cuts[:5]]
    scaled = members[2]
    members[2] = make_dataset(scaled.features * 30.0, scaled.observed_labels, c=4, ids=scaled.ids)
    return members


def _record_evaluations(monkeypatch):
    """The members each call of the stacked solver objective evaluates."""
    calls = []
    real = rounds._stacked_objective

    def recording(members, l2_lambda):
        evaluate = real(members, l2_lambda)

        def recorded(w, which):
            calls.append(np.asarray(which).tolist())
            return evaluate(w, which)

        return recorded

    monkeypatch.setattr(rounds, "_stacked_objective", recording)
    return calls


def test_stacked_solve_bitwise_equals_solving_each_alone(monkeypatch):
    members = _uneven_members()
    start = server_init(3, 4, seed=14)
    calls = _record_evaluations(monkeypatch)
    got = rounds._solve(members, CONFIG, start)
    # The run covers what lockstep must get right: the one-row member stops
    # long before the others, and a row that fails Armijo retries alone or
    # with a few others (a later call evaluates more members again).
    last = [max(i for i, call in enumerate(calls) if j in call) for j in range(len(members))]
    assert last[3] < len(calls) // 10 and last[2] == len(calls) - 1
    retries = [calls[i] for i in range(len(calls) - 1) if len(calls[i + 1]) > len(calls[i])]
    assert [2] in retries
    for optimum, ds in zip(got, members):
        alone = solve_optimum(ds, CONFIG, start=start)
        assert optimum.model.weights.tobytes() == alone.model.weights.tobytes()
        assert (optimum.loss, optimum.grad_norm) == (alone.loss, alone.grad_norm)


def test_stacked_solve_nonconvergence_reported(monkeypatch):
    monkeypatch.setattr(rounds, "_LBFGS_MAX_ITER", 1)
    with pytest.raises(MeasurementError):
        rounds._solve(_uneven_members(), CONFIG, None)


def test_lockstep_rare_paths_bitwise_equal_solving_alone(monkeypatch):
    # Nonconvex rows skip curvature pairs (s'y <= 0), so rows hold unequal
    # pair counts and the two-loop masks the ages some lack; row 3's value
    # is NaN, so every step fails Armijo until the point stops moving. The
    # spies make sure those paths run.
    rng = np.random.default_rng(0)
    k, p = 8, 12
    coef = rng.uniform(0.5, 3.0, size=k)
    shift = rng.normal(size=(k, p))

    def evaluate(w, which):
        which = np.asarray(which)
        z = w - shift[which]
        a = coef[which][:, None]
        grad = -a * np.sin(z) + 0.04 * z
        value = np.add.reduce(a * np.cos(z) + 0.02 * z * z, axis=-1)
        value[which == 3] = np.nan
        return value, grad

    x0 = rng.normal(scale=2.0, size=(k, p))
    used = {"roll": 0, "flatnonzero": 0}
    for name in used:
        real = getattr(np, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            used[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    stacked = rounds._lbfgs(evaluate, x0, 500, 1e-12)
    assert used["roll"] and used["flatnonzero"]
    monkeypatch.undo()
    assert stacked[3].tobytes() == x0[3].tobytes()
    for j in range(k):
        alone = rounds._lbfgs(lambda w, which: evaluate(w, [j]), x0[j:j + 1], 500, 1e-12)
        assert stacked[j].tobytes() == alone[0].tobytes(), j


def test_optimum_matches_scipy_lbfgsb():
    optimize = pytest.importorskip("scipy.optimize")
    ds = synth_gaussian(10, 50, 20, 3.0, seed=15)
    config = TrainerConfig(l2_lambda=0.01)
    start = server_init(ds.d, 10, seed=15)
    got = solve_optimum(ds, config, start=start)
    res = optimize.minimize(reference_objective(ds, config.l2_lambda), start.weights.ravel(),
                            jac=True, method="L-BFGS-B",
                            options={"maxiter": 5000, "gtol": 1e-10, "ftol": 1e-18})
    assert got.loss == pytest.approx(float(res.fun), rel=1e-12, abs=0.0)
    assert got.grad_norm <= 1e-6


def test_init_gap_positive_and_deterministic():
    ds = synth_gaussian(3, 40, 2, 5.0, seed=7)
    opt = solve_optimum(ds, CONFIG)
    a = measure_init_gap(ds.d, 3, seed=7, w_star=opt.model)
    b = measure_init_gap(ds.d, 3, seed=7, w_star=opt.model)
    assert a == b
    assert a > 0
    # tiny init means the gap is essentially the optimum's own norm
    assert a == pytest.approx(np.sum(opt.model.weights ** 2), rel=0.05)


# ---------------------------------------------------------------- B components

def test_gamma_zero_for_identical_data():
    # three copies of the same instances under disjoint ids: the pooled
    # optimum equals every local optimum, so the heterogeneity term vanishes
    copies = [synth_gaussian(3, 40, 2, 6.0, seed=8, id_base=1000 * i)
              for i in range(3)]
    model = server_init(copies[0].d, 3, seed=8)
    comps = measure_b_components(copies, [model] * 3, model, CONFIG, seed=8)
    assert comps.Gamma <= 1e-6


def reference_b_moments(datasets, models, trainer_config, seed):
    """The sigma_i^2 and G^2 of `measure_b_components`, one `gradient` call per batch."""
    lam = trainer_config.l2_lambda
    sigma_sq, g_sq = [], 0.0
    for i, (ds, model) in enumerate(zip(datasets, models)):
        ds = ds.in_space()
        rng = derive_rng(seed, MEASURE, i)
        full = gradient(model, ds, lam)
        worst = 0.0
        batch = min(trainer_config.batch_size, ds.n)
        for _ in range(rounds._B_BATCHES):
            rows = np.sort(rng.choice(ds.n, size=batch, replace=False))
            bgrad = gradient(model, ds.take(rows), lam)
            worst = max(worst, float(np.sum((bgrad - full) ** 2)))
            g_sq = max(g_sq, float(np.sum(bgrad ** 2)))
        sigma_sq.append(worst)
    return tuple(sigma_sq), g_sq


def test_b_moments_bitwise_equal_per_batch_gradients():
    base = synth_gaussian(10, 12, 20, 3.0, seed=16)
    parts = partition_non_iid(base, 3, seed=16, strategy=ShuffleSplit())
    labels = parts[1].observed_labels.copy()
    labels[:5] = OUT_OF_SPACE
    parts[1] = make_dataset(parts[1].features, labels, c=10, ids=parts[1].ids)
    init = server_init(base.d, 10, seed=16)
    models = [train_one(init, ds.in_space(), CONFIG, seed=16 + i) for i, ds in enumerate(parts)]
    for trainer in (CONFIG, replace(CONFIG, batch_size=500)):
        comps = measure_b_components(parts, models, init, trainer, seed=17)
        assert (comps.sigma_sq, comps.G_sq) == reference_b_moments(parts, models, trainer, 17)


def test_b_components_carry_the_pooled_optimum():
    base = synth_gaussian(3, 40, 2, 6.0, seed=15)
    parts = partition_non_iid(base, 3, seed=15, strategy=ShuffleSplit())
    model = server_init(base.d, 3, seed=15)
    comps = measure_b_components(parts, [model] * 3, model, CONFIG, seed=15)
    fresh = solve_optimum(concat_datasets(parts, name="pooled"), CONFIG, start=model)
    assert comps.optimum.model.weights.tobytes() == fresh.model.weights.tobytes()
    assert (comps.optimum.loss, comps.optimum.grad_norm) == (fresh.loss, fresh.grad_norm)
    assert comps.L_star == fresh.loss


def reference_round_constants(participants, trainer, seed, level, init_scale):
    """The measurement sequence `fednl rounds` once wrote out inline."""
    d, c = participants[0].d, participants[0].class_count
    init = server_init(d, c, seed, init_scale)
    key = int(round(level * 10**6))
    if level > 0.0:
        matrix = symmetric_matrix(c, level)
        participants = [inject_noise(ds, matrix, derive_seed(seed, INJECT, key, i))[0]
                        for i, ds in enumerate(participants)]
    train_sets = [ds.training_view().in_space() for ds in participants]
    models = [train_one(init, ds, trainer, derive_seed(seed, TRAIN, key, i))
              for i, ds in enumerate(train_sets)]
    smooth = measure_smoothness(train_sets, trainer,
                                   seed=seed)
    comps = measure_b_components(train_sets, models, init, trainer,
                                 seed=derive_seed(seed, MEASURE, key))
    gap = measure_init_gap(d, c, seed, comps.optimum.model, init_scale=init_scale)
    return smooth, comps, gap


@pytest.mark.parametrize("level", [0.0, 0.3])
def test_round_constants_match_inline_reference(level):
    base = synth_gaussian(3, 40, 2, 8.0, seed=13)
    parts = partition_non_iid(base, 3, seed=13, strategy=ShuffleSplit())
    trainer = TrainerConfig(local_epochs=5, batch_size=16, l2_lambda=0.01)
    got = measure_round_constants(parts, trainer, 13, level, init_scale=0.02)
    smooth, comps, gap = reference_round_constants(parts, trainer, 13, level, 0.02)
    assert got.smooth == smooth
    assert got.init_gap == gap
    # The optimum's weights are compared by bytes; every other field by ==.
    assert replace(got.components, optimum=None) == replace(comps, optimum=None)
    assert got.components.optimum.model.weights.tobytes() == comps.optimum.model.weights.tobytes()
    assert ((got.components.optimum.loss, got.components.optimum.grad_norm)
            == (comps.optimum.loss, comps.optimum.grad_norm))
    uniform = np.full(3, 1.0 / 3)
    for epochs, q_o, shifted in [(5, 0.1, False), (20, 0.01, True)]:
        B = compute_B(uniform, comps.sigma_sq, smooth.L, comps.Gamma, epochs, comps.G_sq)
        est = estimate_rounds(smooth, RoundParams(epochs, q_o, B, gap), alpha_minus_one=shifted)
        assert got.rounds(epochs, q_o, alpha_minus_one=shifted) == (B, est)


#: sha256 of `measure_round_constants`' float64 outputs on a small config at
#: two noise levels, as `test_round_constants_bytes_are_pinned` takes them.
PINNED_ROUND_CONSTANTS_DIGEST = "ae9b71c7424ba2f994cf7fb30d51a040ea0dc9ce32a82efb5922521f30aac1a9"


def _pinned_config():
    base = synth_gaussian(4, 60, 3, 4.0, seed=21)
    parts = partition_non_iid(base, 3, seed=21, strategy=ShuffleSplit())
    return parts, TrainerConfig(local_epochs=3, batch_size=24, l2_lambda=0.01)


def test_round_constants_bytes_are_pinned():
    # The table prints at .5g, so this pins what it rounds: L, each sigma_i^2,
    # G^2, Gamma, the pooled optimum's weights and loss and the init gap. The
    # pooled set's log-softmax reduces over the class columns, the
    # participants' along each row, and their 80 rows make short last batches.
    parts, trainer = _pinned_config()
    digest = hashlib.sha256()
    for level in (0.0, 0.3):
        digest.update(round_constants_bytes(
            measure_round_constants(parts, trainer, 21, level, init_scale=0.02)))
    assert digest.hexdigest() == PINNED_ROUND_CONSTANTS_DIGEST


def test_round_grid_bytes_are_pinned(monkeypatch):
    # Both levels in one grid: one probe, whose L the second level reuses,
    # as its training sets hold the same rows under other labels.
    parts, trainer = _pinned_config()
    calls, probes = record_probes(monkeypatch)
    digest = hashlib.sha256()
    for got in measure_round_grid(parts, trainer, 21, (0.0, 0.3), init_scale=0.02):
        digest.update(round_constants_bytes(got))
    assert calls == [1] and probes == [1]
    assert digest.hexdigest() == PINNED_ROUND_CONSTANTS_DIGEST


def test_full_batch_variance_vanishes():
    ds = synth_gaussian(3, 30, 2, 6.0, seed=9)
    full = TrainerConfig(local_epochs=1, batch_size=ds.n, l2_lambda=0.05)
    model = server_init(ds.d, 3, seed=9)
    comps = measure_b_components([ds], [model], model, full, seed=9)
    assert max(comps.sigma_sq) <= 1e-12


def test_variance_grows_as_batch_shrinks():
    wins = 0
    for seed in range(5):
        ds = synth_gaussian(3, 40, 2, 6.0, seed=seed)
        model = server_init(ds.d, 3, seed=seed)
        big = TrainerConfig(local_epochs=1, batch_size=ds.n, l2_lambda=0.05)
        small = TrainerConfig(local_epochs=1, batch_size=max(1, ds.n // 10),
                              l2_lambda=0.05)
        s_big = measure_b_components([ds], [model], model, big, seed=seed).sigma_sq[0]
        s_small = measure_b_components([ds], [model], model, small, seed=seed).sigma_sq[0]
        if s_small > s_big:
            wins += 1
    assert wins >= 3


def test_gamma_floored_at_zero():
    ds = synth_gaussian(3, 40, 2, 6.0, seed=10)
    parts = partition_non_iid(ds, 2, seed=10, strategy=ShuffleSplit())
    model = server_init(ds.d, 3, seed=10)
    comps = measure_b_components(parts, [model, model], model, CONFIG, seed=10)
    assert comps.Gamma >= 0.0


# ---------------------------------------------------------------- B formula

def test_B_vanishes_for_single_epoch_no_spread():
    eps = np.array([0.5, 0.5])
    assert compute_B(eps, [0.0, 0.0], L=1.0, Gamma=0.0, local_epochs=1, G_sq=5.0) == 0.0


def test_B_worked_fixture():
    eps = np.array([0.5, 0.5])
    B = compute_B(eps, [4.0, 4.0], L=1.0, Gamma=0.5, local_epochs=2, G_sq=1.0)
    assert B == pytest.approx(13.0, abs=1e-12)


def test_B_linear_in_G_sq():
    eps = np.array([0.5, 0.5])
    low = compute_B(eps, [4.0, 4.0], L=1.0, Gamma=0.5, local_epochs=2, G_sq=1.0)
    high = compute_B(eps, [4.0, 4.0], L=1.0, Gamma=0.5, local_epochs=2, G_sq=2.0)
    assert high - low == pytest.approx(8.0, abs=1e-12)


# ---------------------------------------------------------------- round count

def test_rounds_worked_fixture():
    smooth = SmoothnessParams(L=1.0, mu=0.1)
    params = RoundParams(local_epochs=20, q_o=0.01, B=13.0, init_gap=1.0)
    estimate = estimate_rounds(smooth, params)
    assert estimate.alpha == 80.0
    assert estimate.raw == pytest.approx(13196.05, abs=1e-9)
    assert estimate.rounds == 13_197


def test_rounds_clamped_to_one():
    smooth = SmoothnessParams(L=1.0, mu=0.1)
    params = RoundParams(local_epochs=20, q_o=1e12, B=13.0, init_gap=1.0)
    estimate = estimate_rounds(smooth, params)
    assert estimate.raw <= 0
    assert estimate.rounds == 1


def test_rounds_match_independent_recomputation():
    rng = np.random.default_rng(11)
    for _ in range(100):
        L = rng.uniform(0.5, 10.0)
        mu = rng.uniform(0.01, L)
        E = int(rng.integers(1, 50))
        q_o = rng.uniform(1e-4, 1.0)
        B = rng.uniform(0.0, 50.0)
        gap = rng.uniform(0.0, 10.0)
        smooth = SmoothnessParams(L=L, mu=mu)
        estimate = estimate_rounds(smooth, RoundParams(E, q_o, B, gap))
        alpha = max(8.0 * L / mu, float(E))
        raw = (L / (2.0 * mu * mu * q_o) * (4.0 * B + mu * mu * alpha * gap)
               + 1.0 - alpha) / E
        assert estimate.raw == pytest.approx(raw, abs=1e-12 * max(1.0, abs(raw)))
        assert estimate.rounds == max(1, math.ceil(raw))


def test_alpha_variants():
    smooth = SmoothnessParams(L=1.0, mu=1.0)
    params = RoundParams(local_epochs=20, q_o=0.01, B=1.0, init_gap=1.0)
    assert estimate_rounds(smooth, params).alpha == 20.0
    proof_form = estimate_rounds(smooth, params, alpha_minus_one=True)
    assert proof_form.alpha == 19.0


def test_rounds_monotone_in_epochs_for_fixed_B():
    smooth = SmoothnessParams(L=1.0, mu=0.1)
    low = estimate_rounds(smooth, RoundParams(20, 0.01, 13.0, 1.0))
    high = estimate_rounds(smooth, RoundParams(40, 0.01, 13.0, 1.0))
    assert high.rounds <= low.rounds


def test_round_params_validation():
    with pytest.raises(ValueError):
        RoundParams(local_epochs=1, q_o=0.0, B=1.0, init_gap=1.0)
    with pytest.raises(ValueError):
        RoundParams(local_epochs=1, q_o=0.1, B=-1.0, init_gap=1.0)
    with pytest.raises(ValueError):
        RoundParams(local_epochs=0, q_o=0.1, B=1.0, init_gap=1.0)


# ---------------------------------------------------------------- rate check

def _fabricated_run(gaps, epochs_per_round=1):
    records = []
    for t, gap in enumerate(gaps, start=1):
        records.append(RoundRecord(
            t=t,
            learning_rates=(0.1,),
            local_losses=(1.0 + gap,),
            global_loss=1.0 + gap,
            epsilon=(1.0,),
            gamma=None,
            cumulative_epochs=t * epochs_per_round,
            global_accuracy=None,
            global_macro_f1=None,
        ))
    trainer = TrainerConfig(local_epochs=epochs_per_round, batch_size=8,
                            lr_schedule=Diminishing(theta=2.0, alpha=10.0),
                            l2_lambda=0.01)
    config = FederationConfig(rounds=len(gaps), trainer=trainer,
                              seed=0, procedure1=False, procedure2=False,
                              weighting="fedavg-size")
    model = server_init(1, 2, seed=0)
    return RunReport(
        records=tuple(records), global_model=model, local_models=(model,),
        final_metrics=None, estimates=None, transcripts=None,
        training_sizes=(8,), betas=(0.0,), config=config,
    )


def test_exact_inverse_t_sequence_gives_minus_one():
    run = _fabricated_run([1.0 / t for t in range(1, 101)])
    assert verify_rate(run, 1.0) == pytest.approx(-1.0, abs=1e-6)


def test_constant_gap_gives_zero_slope():
    run = _fabricated_run([0.5] * 60)
    assert verify_rate(run, 1.0) == pytest.approx(0.0, abs=1e-9)


def test_nonpositive_gaps_clipped_with_warning(caplog):
    import logging

    run = _fabricated_run([1.0 / t for t in range(1, 20)] + [-0.01])
    with caplog.at_level(logging.WARNING):
        slope = verify_rate(run, 1.0)
    assert math.isfinite(slope)
    assert any("clip" in m.lower() or "non-positive" in m.lower()
               for m in caplog.messages)


def test_verify_rate_needs_enough_rounds():
    run = _fabricated_run([0.5, 0.4, 0.3])
    with pytest.raises(ValueError):
        verify_rate(run, 1.0)


def test_real_run_slope_in_theorem_band():
    # weak regularization puts the whole horizon inside the schedule's
    # transient, where the log-log slope tracks the 1/T reference rate
    lam = 0.0006
    base = synth_gaussian(3, 80, 2, 8.0, seed=1)
    parts = partition_non_iid(base, 4, seed=1, strategy=ShuffleSplit())
    pooled_views = [p.training_view() for p in parts]
    from fednl import concat_datasets

    pooled = concat_datasets(pooled_views, name="pooled")
    probe = TrainerConfig(local_epochs=1, batch_size=60,
                          lr_schedule=Diminishing(2.0 / lam, 1.0),
                          l2_lambda=lam)
    smooth = measure_smoothness([pooled], probe, seed=1)
    alpha = max(8.0 * smooth.L / smooth.mu, 1.0)
    trainer = TrainerConfig(local_epochs=1, batch_size=60,
                            lr_schedule=Diminishing(2.0 / lam, alpha),
                            l2_lambda=lam)
    config = FederationConfig(rounds=200, trainer=trainer,
                              seed=1, procedure1=False, procedure2=False,
                              weighting="fedavg-size")
    run = run_fedavg(config, parts)
    opt = solve_optimum(pooled, trainer)
    slope = verify_rate(run, opt.loss)
    assert -1.4 <= slope <= -0.6
