"""Influence-based contribution weights with decayed history."""

import numpy as np
import pytest

from fednl import (
    GAMMA_MIN,
    DegenerateAggregateError,
    FederationConfig,
    ModelParams,
    TrainerConfig,
    contributions,
    decay_factor,
    effective_sizes,
    influence,
    inject_noise,
    leave_one_out_aggregate,
    partition_non_iid,
    run_fednl,
    ShuffleSplit,
    symmetric_matrix,
    synth_gaussian,
)


def model_of(values, c=2):
    return ModelParams(np.asarray(values, dtype=np.float64), c)


# ---------------------------------------------------------------- leave-one-out

def test_loo_two_equal_excluding_first_gives_second():
    models = [model_of([[1.0, 2.0]]), model_of([[5.0, 6.0]])]
    out = leave_one_out_aggregate(models, [10.0, 10.0], 0)
    np.testing.assert_allclose(out.weights, models[1].weights)


def test_loo_identical_models_any_exclusion():
    w = [[0.5, -1.0], [2.0, 0.0]]
    models = [model_of(w) for _ in range(3)]
    for i in range(3):
        out = leave_one_out_aggregate(models, [1.0, 2.0, 3.0], i)
        np.testing.assert_allclose(out.weights, w)


def test_loo_matches_direct_arithmetic():
    rng = np.random.default_rng(1)
    models = [model_of(rng.normal(size=(3, 2))) for _ in range(4)]
    sizes = [10.0, 30.0, 5.0, 15.0]
    for i in range(4):
        others = [l for l in range(4) if l != i]
        total = sum(sizes[l] for l in others)
        expected = sum(sizes[l] / total * models[l].weights for l in others)
        out = leave_one_out_aggregate(models, sizes, i)
        np.testing.assert_allclose(out.weights, expected, atol=1e-12)


def test_weighted_mean_fixture():
    # sizes (10, 30): the full aggregate uses weights (0.25, 0.75)
    models = [model_of([[1.0, 0.0]]), model_of([[0.0, 1.0]])]
    full = leave_one_out_aggregate(models + [model_of([[0.0, 0.0]])],
                                   [10.0, 30.0, 0.0], 2)
    np.testing.assert_allclose(full.weights, [[0.25, 0.75]], atol=1e-12)


def test_loo_needs_two_participants():
    with pytest.raises(ValueError):
        leave_one_out_aggregate([model_of([[1.0, 1.0]])], [1.0], 0)


def test_loo_degenerate_when_others_have_no_mass():
    models = [model_of([[1.0, 0.0]]), model_of([[0.0, 1.0]])]
    with pytest.raises(DegenerateAggregateError):
        leave_one_out_aggregate(models, [5.0, 0.0], 0)


# ---------------------------------------------------------------- influence

def _influence_setup(seed=2):
    server_test = synth_gaussian(2, 20, 2, 6.0, seed=seed, id_base=900)
    config = TrainerConfig(local_epochs=5, batch_size=16, l2_lambda=0.01, seed=seed)
    return server_test, config


def test_identical_models_floor_to_gamma_min():
    server_test, config = _influence_setup()
    w = np.array([[0.3, -0.3], [0.1, 0.0], [0.0, 0.2]])
    models = [ModelParams(w, 2) for _ in range(3)]
    agg = leave_one_out_aggregate(models + [ModelParams(w, 2)], [1.0] * 4, 3)
    state = influence(0, models, [1.0, 1.0, 1.0], agg, server_test,
                      gamma_prev=0.0, eta=0.1, trainer_config=config)
    assert state.instantaneous == pytest.approx(0.0, abs=1e-15)
    assert state.gamma == GAMMA_MIN


def test_first_round_influence_is_instantaneous_term():
    server_test, config = _influence_setup(3)
    rng = np.random.default_rng(3)
    models = [ModelParams(rng.normal(scale=0.4, size=(3, 2)), 2) for _ in range(3)]
    sizes = [8.0, 12.0, 10.0]
    agg = leave_one_out_aggregate(models + [models[0]], sizes + [0.0], 3)
    state = influence(1, models, sizes, agg, server_test,
                      gamma_prev=0.0, eta=0.05, trainer_config=config)
    assert state.gamma == pytest.approx(max(state.instantaneous, GAMMA_MIN))
    assert state.instantaneous > 0


def test_history_decay_applied():
    server_test, config = _influence_setup(4)
    rng = np.random.default_rng(4)
    models = [ModelParams(rng.normal(scale=0.4, size=(3, 2)), 2) for _ in range(2)]
    agg = leave_one_out_aggregate(models, [1.0, 1.0], 1)  # placeholder aggregate
    prev = 0.7
    eta = 0.1
    state = influence(0, models, [1.0, 1.0], agg, server_test,
                      gamma_prev=prev, eta=eta, trainer_config=config)
    q_hat = decay_factor(eta, config.l2_lambda, config.local_epochs)
    assert state.q_hat == pytest.approx(q_hat)
    assert state.gamma == pytest.approx(q_hat * prev + state.instantaneous)


def test_matrix_norm_influence_is_spectral_norm_of_loo_shift():
    server_test, config = _influence_setup(5)
    rng = np.random.default_rng(5)
    models = [ModelParams(rng.normal(scale=0.4, size=(3, 2)), 2) for _ in range(3)]
    sizes = [8.0, 12.0, 10.0]
    agg = leave_one_out_aggregate(models + [models[0]], sizes + [0.0], 3)
    loo = leave_one_out_aggregate(models, sizes, 2)
    state = influence(2, models, sizes, agg, server_test, gamma_prev=0.0, eta=0.05,
                      trainer_config=config, matrix_norm=True)
    assert state.instantaneous == np.linalg.norm(loo.weights - agg.weights, 2)
    assert state.instantaneous > 0


def test_decay_factor_values():
    assert decay_factor(0.1, 0.0, 5) == pytest.approx(1.0)
    assert decay_factor(0.1, 0.01, 1) == pytest.approx(0.999)
    assert decay_factor(0.1, 0.01, 3) == pytest.approx(0.999 ** 3)
    # eta * lambda >= 1 clips to zero instead of oscillating sign
    assert decay_factor(2.0, 1.0, 4) == 0.0


# ---------------------------------------------------------------- weights

def test_uniform_gammas_uniform_weights():
    w = contributions([1.0, 1.0, 1.0])
    np.testing.assert_allclose(w.epsilon, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_two_gammas_inverse_proportion():
    w = contributions([1.0, 2.0])
    np.testing.assert_allclose(w.epsilon, [2 / 3, 1 / 3], atol=1e-15)


def test_scale_invariance():
    base = contributions([0.2, 0.5, 1.3])
    scaled = contributions([2.0, 5.0, 13.0])
    np.testing.assert_allclose(base.epsilon, scaled.epsilon, atol=1e-12)


def test_weights_sum_to_one_and_antitone():
    rng = np.random.default_rng(5)
    for _ in range(200):
        gammas = rng.uniform(GAMMA_MIN, 10.0, size=rng.integers(2, 8))
        eps = contributions(gammas).epsilon
        assert eps.sum() == pytest.approx(1.0, abs=1e-12)
        assert (eps >= 0).all()
        order = np.argsort(gammas)
        sorted_eps = eps[order]
        assert (np.diff(sorted_eps) <= 1e-15).all()


def test_contributions_reject_below_floor():
    with pytest.raises(ValueError):
        contributions([0.0, 1.0])


# ---------------------------------------------------------------- sizes

def test_effective_sizes_default_discounts_noise():
    out = effective_sizes([100, 200], [0.2, 0.5])
    np.testing.assert_allclose(out, [80.0, 100.0])


def test_effective_sizes_literal_variant():
    out = effective_sizes([100, 200], [0.2, 0.5], literal_noise_adjustment=True)
    np.testing.assert_allclose(out, [20.0, 100.0])


# ---------------------------------------------------------------- trend

def test_noisy_participant_ends_with_smallest_weight():
    # full pipeline: the 50%-noise participant is the one flagged with the
    # largest residual ratio, and its aggregation weight is the smallest
    # from round 3 on
    wins = 0
    for seed in range(5):
        base = synth_gaussian(3, 200, 2, 8.0, seed=seed)
        parts = partition_non_iid(base, 3, seed=seed, strategy=ShuffleSplit())
        noisy, _ = inject_noise(parts[2], symmetric_matrix(3, 0.5), seed=seed)
        parts = [parts[0], parts[1], noisy]
        server = synth_gaussian(3, 200, 2, 8.0, seed=500 + seed, id_base=10_000)
        config = FederationConfig(
            n_participants=3,
            rounds=5,
            trainer=TrainerConfig(local_epochs=5, batch_size=32, seed=seed),
            seed=seed,
            weighting="fednl",
        )
        run = run_fednl(config, parts, server)
        later = [r for r in run.records if r.t >= 3]
        ok = (int(np.argmax(run.betas)) == 2
              and all(np.argmin(r.epsilon) == 2 for r in later))
        wins += ok
    assert wins >= 4
