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
    leave_one_out_aggregates,
    partition_non_iid,
    run_fednl,
    ShuffleSplit,
    symmetric_matrix,
    synth_gaussian,
)

from conftest import reference_loss


def model_of(values, c=2):
    return ModelParams(np.asarray(values, dtype=np.float64), c)


# ---------------------------------------------------------------- leave-one-out

def reference_loo(models, sizes, i):
    """Participant i's leave-one-out aggregate as an explicit Python sum."""
    sizes = np.asarray(sizes, dtype=np.float64)
    keep = [l for l in range(len(models)) if l != i]
    total = sizes[keep].sum()
    weights = np.zeros_like(sizes)
    weights[keep] = sizes[keep] / total
    return sum(weights[l] * models[l].weights for l in keep)


def test_loo_two_equal_excluding_first_gives_second():
    models = [model_of([[1.0, 2.0]]), model_of([[5.0, 6.0]])]
    out = leave_one_out_aggregates(models, [10.0, 10.0])
    np.testing.assert_allclose(out[0], models[1].weights)
    np.testing.assert_allclose(out[1], models[0].weights)


def test_loo_identical_models_any_exclusion():
    w = [[0.5, -1.0], [2.0, 0.0]]
    models = [model_of(w) for _ in range(3)]
    out = leave_one_out_aggregates(models, [1.0, 2.0, 3.0])
    for i in range(3):
        np.testing.assert_allclose(out[i], w)


def test_loo_matches_direct_arithmetic():
    # Bitwise: the stack accumulates in the explicit sum's order. At n = 130
    # the totals and coefficients take five blocks of rows each.
    rng = np.random.default_rng(1)
    for n in (2, 4, 17, 130):
        models = [model_of(rng.normal(size=(3, 2))) for _ in range(n)]
        sizes = rng.uniform(0.0, 40.0, size=n)
        out = leave_one_out_aggregates(models, sizes)
        assert out.shape == (n, 3, 2)
        for i in range(n):
            np.testing.assert_array_equal(out[i], reference_loo(models, sizes, i))


def test_weighted_mean_fixture():
    # sizes (10, 30): the full aggregate uses weights (0.25, 0.75)
    models = [model_of([[1.0, 0.0]]), model_of([[0.0, 1.0]])]
    full = leave_one_out_aggregates(models + [model_of([[0.0, 0.0]])], [10.0, 30.0, 0.0])[2]
    np.testing.assert_allclose(full, [[0.25, 0.75]], atol=1e-12)


def test_loo_needs_two_participants():
    with pytest.raises(ValueError):
        leave_one_out_aggregates([model_of([[1.0, 1.0]])], [1.0])


def test_loo_degenerate_when_others_have_no_mass():
    models = [model_of([[1.0, 0.0]]), model_of([[0.0, 1.0]]), model_of([[1.0, 1.0]])]
    with pytest.raises(DegenerateAggregateError, match="participant 2's"):
        leave_one_out_aggregates(models, [0.0, 0.0, 5.0])


@pytest.mark.parametrize("sizes, named", [
    ([0.0] * 130, 0),                                   # every complement is empty
    ([0.0] * 100 + [3.0] + [0.0] * 29, 100),            # one, in a later row block
    ([0.0] * 129 + [3.0], 129),                         # one, in the last row block
])
def test_loo_degenerate_names_the_empty_complement_in_any_block(sizes, named):
    models = [model_of([[float(k), 1.0]]) for k in range(len(sizes))]
    with pytest.raises(DegenerateAggregateError, match=f"participant {named}'s"):
        leave_one_out_aggregates(models, sizes)


# ---------------------------------------------------------------- influence

def _influence_setup(seed=2):
    server_test = synth_gaussian(2, 20, 2, 6.0, seed=seed, id_base=900)
    config = TrainerConfig(local_epochs=5, batch_size=16, l2_lambda=0.01)
    return server_test, config


def aggregate_of(models, sizes):
    """The size-weighted mean of every model."""
    sizes = np.asarray(sizes, dtype=np.float64)
    weights = sum(m / sizes.sum() * model.weights for m, model in zip(sizes, models))
    return ModelParams(weights, models[0].class_count)


def reference_influence(models, sizes, aggregated, server_test, gammas_prev, etas,
                        config, matrix_norm):
    """Per-participant influence update: one explicit LOO aggregate and two losses each."""
    gammas, inst = [], []
    lam = config.l2_lambda
    for i in range(len(models)):
        loo = reference_loo(models, sizes, i)
        if matrix_norm:
            s = float(np.linalg.norm(loo - aggregated.weights, 2))
        else:
            s = abs(reference_loss(loo, server_test, lam)
                    - reference_loss(aggregated.weights, server_test, lam))
        q_hat = decay_factor(etas[i], lam, config.local_epochs)
        gammas.append(max(GAMMA_MIN, q_hat * gammas_prev[i] + s))
        inst.append(s)
    return gammas, inst


def test_identical_models_floor_to_gamma_min():
    server_test, config = _influence_setup()
    w = np.array([[0.3, -0.3], [0.1, 0.0], [0.0, 0.2]])
    models = [ModelParams(w, 2) for _ in range(3)]
    agg = aggregate_of(models, [1.0] * 3)
    state = influence(models, [1.0, 1.0, 1.0], agg, server_test,
                      gammas_prev=[0.0] * 3, etas=[0.1] * 3, trainer_config=config)
    np.testing.assert_allclose(state.instantaneous, 0.0, atol=1e-15)
    np.testing.assert_array_equal(state.gamma, GAMMA_MIN)


def test_first_round_influence_is_instantaneous_term():
    server_test, config = _influence_setup(3)
    rng = np.random.default_rng(3)
    models = [ModelParams(rng.normal(scale=0.4, size=(3, 2)), 2) for _ in range(3)]
    sizes = [8.0, 12.0, 10.0]
    agg = aggregate_of(models, sizes)
    state = influence(models, sizes, agg, server_test,
                      gammas_prev=[0.0] * 3, etas=[0.05] * 3, trainer_config=config)
    np.testing.assert_allclose(state.gamma, np.maximum(state.instantaneous, GAMMA_MIN))
    assert (state.instantaneous > 0).all()


def test_history_decay_applied():
    server_test, config = _influence_setup(4)
    rng = np.random.default_rng(4)
    models = [ModelParams(rng.normal(scale=0.4, size=(3, 2)), 2) for _ in range(2)]
    agg = ModelParams(reference_loo(models, [1.0, 1.0], 1), 2)  # placeholder aggregate
    prev = [0.7, 0.2]
    etas = [0.1, 0.3]
    state = influence(models, [1.0, 1.0], agg, server_test,
                      gammas_prev=prev, etas=etas, trainer_config=config)
    q_hat = [decay_factor(eta, config.l2_lambda, config.local_epochs) for eta in etas]
    np.testing.assert_allclose(state.q_hat, q_hat)
    np.testing.assert_allclose(state.gamma, np.array(q_hat) * prev + state.instantaneous)


def test_influence_decays_each_participant_at_its_own_rate():
    # Rates repeat and differ, as under a diminishing schedule with unequal
    # training-set sizes: each q_hat is its own rate's decay, bitwise.
    server_test, config = _influence_setup(8)
    rng = np.random.default_rng(8)
    n = 9
    models = [ModelParams(rng.normal(scale=0.4, size=(3, 2)), 2) for _ in range(n)]
    sizes = rng.uniform(5.0, 20.0, size=n)
    etas = [0.1, 0.05, 0.1, 0.025, 0.05, 0.1, 1 / 30, 0.025, 0.3]
    state = influence(models, sizes, aggregate_of(models, sizes), server_test,
                      gammas_prev=[0.5] * n, etas=etas, trainer_config=config)
    q_hat = [decay_factor(eta, config.l2_lambda, config.local_epochs) for eta in etas]
    assert state.q_hat.tolist() == q_hat


def test_matrix_norm_influence_is_spectral_norm_of_loo_shift():
    server_test, config = _influence_setup(5)
    rng = np.random.default_rng(5)
    models = [ModelParams(rng.normal(scale=0.4, size=(3, 2)), 2) for _ in range(3)]
    sizes = [8.0, 12.0, 10.0]
    agg = aggregate_of(models, sizes)
    state = influence(models, sizes, agg, server_test, gammas_prev=[0.0] * 3,
                      etas=[0.05] * 3, trainer_config=config, matrix_norm=True)
    for i in range(3):
        loo = reference_loo(models, sizes, i)
        assert state.instantaneous[i] == np.linalg.norm(loo - agg.weights, 2)
    assert (state.instantaneous > 0).all()


@pytest.mark.parametrize("matrix_norm", [False, True])
def test_influence_matches_per_participant_reference(matrix_norm):
    # 19 participants on a 300-row, 3-class split: the losses are scored in
    # several blocks of models, and every value must still be bitwise equal.
    server_test = synth_gaussian(3, 100, 4, 3.0, seed=6, id_base=900)
    config = TrainerConfig(local_epochs=3, l2_lambda=0.02)
    rng = np.random.default_rng(6)
    n = 19
    models = [ModelParams(rng.normal(scale=0.5, size=(5, 3)), 3) for _ in range(n)]
    models[4] = models[3]
    sizes = rng.uniform(1.0, 80.0, size=n)
    gammas_prev = rng.uniform(GAMMA_MIN, 2.0, size=n).tolist()
    etas = rng.uniform(0.01, 0.2, size=n).tolist()
    agg = aggregate_of(models, sizes)
    state = influence(models, sizes, agg, server_test, gammas_prev, etas, config,
                      matrix_norm=matrix_norm)
    gammas, inst = reference_influence(models, sizes, agg, server_test, gammas_prev, etas,
                                       config, matrix_norm)
    assert state.gamma.tolist() == gammas
    assert state.instantaneous.tolist() == inst


def test_influence_raises_on_degenerate_aggregate():
    server_test, config = _influence_setup(7)
    models = [ModelParams(np.full((3, 2), float(k)), 2) for k in range(3)]
    with pytest.raises(DegenerateAggregateError, match="participant 1's"):
        influence(models, [0.0, 4.0, 0.0], models[1], server_test, [0.0] * 3, [0.1] * 3,
                  config)


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
            rounds=5,
            trainer=TrainerConfig(local_epochs=5, batch_size=32),
            seed=seed,
            weighting="fednl",
        )
        run = run_fednl(config, parts, server)
        later = [r for r in run.records if r.t >= 3]
        ok = (int(np.argmax(run.betas)) == 2
              and all(np.argmin(r.epsilon) == 2 for r in later))
        wins += ok
    assert wins >= 4
