"""End-to-end checks for the headline behaviors, one test per claim.

Every test here is fully seeded, so a failure is a regression, never
flakiness. Each prints a one-line verdict; run with ``pytest -s`` to see
the checklist.
"""

import math

import numpy as np

from fednl import (
    Constant,
    Dataset,
    Diminishing,
    FederationConfig,
    ModelParams,
    RoundParams,
    ShuffleSplit,
    SmoothnessParams,
    TrainerConfig,
    compute_B,
    concat_datasets,
    contributions,
    estimate_noise,
    estimate_rounds,
    gradient,
    inject_noise,
    loss,
    measure_round_constants,
    measure_smoothness,
    normalize_noise,
    partition_non_iid,
    reestimate_seed,
    run_fedavg,
    run_fednl,
    save_model,
    solve_optimum,
    symmetric_matrix,
    asymmetric_matrix,
    synth_gaussian,
    verify_rate,
)

# Estimator runs want a longer local fit than the federated trainer default.
ESTIMATE_CONFIG = TrainerConfig(local_epochs=20, batch_size=32,
                                lr_schedule=Constant(0.1), l2_lambda=0.01)


def test_disabled_pipeline_reduces_to_fedavg(tmp_path):
    """Criterion 1: with both procedures off and size weighting, the full
    engine and the plain FedAvg engine produce byte-identical global models
    after every round 1..10."""
    base = synth_gaussian(3, 30, 2, 6.0, seed=5)
    parts = partition_non_iid(base, 4, seed=5, strategy=ShuffleSplit())
    trainer = TrainerConfig(local_epochs=2, batch_size=16,
                            lr_schedule=Constant(0.1))
    for rounds in range(1, 11):
        config = FederationConfig(n_participants=4, rounds=rounds,
                                  trainer=trainer, seed=5,
                                  run_procedure1=False, run_procedure2=False,
                                  weighting="fedavg-size")
        reduced = run_fednl(config, parts)
        plain = run_fedavg(config, parts)
        path_a = tmp_path / f"reduced_{rounds}.model"
        path_b = tmp_path / f"plain_{rounds}.model"
        save_model(reduced.global_model, path_a)
        save_model(plain.global_model, path_b)
        assert path_a.read_bytes() == path_b.read_bytes(), \
            f"serialized models differ after round {rounds}"
    print("criterion 1 PASS: reduced engine matches FedAvg bytewise over 10 rounds")


def test_gradient_matches_central_differences():
    """Criterion 2: analytic gradient vs central finite differences, 20
    random (model, batch) pairs, every coordinate within 1e-5."""
    rng = np.random.default_rng(42)
    h = 1e-6
    worst = 0.0
    for pair in range(20):
        d = int(rng.integers(2, 5))
        c = int(rng.integers(2, 5))
        n = int(rng.integers(3, 40))
        ds = Dataset(features=rng.standard_normal((n, d)),
                     observed_labels=rng.integers(0, c, size=n),
                     ids=np.arange(n), class_count=c)
        lam = float(rng.uniform(0.0, 0.2))
        weights = rng.standard_normal((d + 1, c))
        analytic = gradient(ModelParams(weights, c), ds, lam)
        for r in range(d + 1):
            for k in range(c):
                up_w = weights.copy()
                up_w[r, k] += h
                down_w = weights.copy()
                down_w[r, k] -= h
                up = loss(ModelParams(up_w, c), ds, lam)
                down = loss(ModelParams(down_w, c), ds, lam)
                fd = (up - down) / (2 * h)
                err = abs(analytic[r, k] - fd)
                worst = max(worst, err)
                assert err <= 1e-5, f"pair {pair}, coordinate ({r},{k}): |{analytic[r, k]} - {fd}| = {err}"
    print(f"criterion 2 PASS: max |analytic - central FD| = {worst:.2e} over 20 pairs")


def test_noise_ratio_recovery():
    """Criterion 3: symmetric beta=0.2 on separable data (600 instances) is
    estimated within [0.15, 0.25] with removal precision and recall >= 0.8,
    in at least 4 of 5 seeds."""
    wins = 0
    details = []
    for seed in range(5):
        clean = synth_gaussian(3, 200, 2, 8.0, seed=seed)
        noisy, _ = inject_noise(clean, symmetric_matrix(3, 0.2), seed=seed)
        flipped = set(noisy.ids[noisy.observed_labels != noisy.true_labels].tolist())
        est = estimate_noise(noisy.training_view(), ESTIMATE_CONFIG, seed=seed)
        removed = set(est.removed_ids)
        hits = len(removed & flipped)
        precision = hits / len(removed) if removed else 0.0
        recall = hits / len(flipped) if flipped else 1.0
        ok = 0.15 <= est.beta_mean <= 0.25 and precision >= 0.8 and recall >= 0.8
        wins += ok
        details.append(f"seed {seed}: beta={est.beta_mean:.3f} P={precision:.2f} R={recall:.2f}")
    assert wins >= 4, "; ".join(details)
    print(f"criterion 3 PASS: {wins}/5 seeds recover beta=0.2 ({'; '.join(details)})")


def test_exchange_equalizes_per_class_noise():
    """Criterion 4: asymmetric per-class noise (0.1/0.3/0.3) starts with a
    per-class ratio spread >= 0.15; after server normalization the re-run
    estimate's spread is <= 0.10."""
    pairs = [(0, 1, 0.1), (1, 0, 0.3), (2, 0, 0.3)]

    def spread(estimate):
        betas = [ce.beta for ce in estimate.per_class]
        return max(betas) - min(betas)

    for seed in range(5):
        clean = synth_gaussian(3, 150, 2, 8.0, seed=seed)
        noisy, _ = inject_noise(clean, asymmetric_matrix(3, pairs), seed=seed)
        server = synth_gaussian(3, 400, 2, 8.0, seed=1000 + seed, id_base=10_000)
        view = noisy.training_view()
        est = estimate_noise(view, ESTIMATE_CONFIG, seed=seed)
        pre = spread(est)
        result = normalize_noise(view, est, server, seed=seed)
        post = spread(estimate_noise(result.dataset, ESTIMATE_CONFIG, reestimate_seed(seed, 3)))
        assert pre >= 0.15, f"seed {seed}: pre-exchange spread {pre:.3f} too small to demonstrate"
        assert post <= 0.10, f"seed {seed}: spread {pre:.3f} -> {post:.3f}"
    print("criterion 4 PASS: per-class spread >= 0.15 drops to <= 0.10 in 5/5 seeds")


def test_contribution_weights_properties_and_trend():
    """Criterion 5: weights sum to one, are antitone in influence, and are
    scale-invariant; the beta=0.5 participant holds the smallest weight by
    round 3 in at least 4 of 5 seeds."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        gammas = rng.uniform(1e-6, 5.0, size=n)
        eps = contributions(gammas).epsilon
        assert abs(float(eps.sum()) - 1.0) <= 1e-12
        assert np.all(eps >= 0.0)
        order = np.argsort(gammas)
        assert np.all(np.diff(eps[order]) <= 1e-15), "weights must fall as influence rises"
        scaled = contributions(gammas * 3.7).epsilon
        np.testing.assert_allclose(scaled, eps, rtol=0, atol=1e-12)

    wins = 0
    for seed in range(5):
        base = synth_gaussian(3, 200, 2, 8.0, seed=seed)
        parts = partition_non_iid(base, 4, seed=seed, strategy=ShuffleSplit())
        noisy, _ = inject_noise(parts[0], symmetric_matrix(3, 0.5), seed=seed)
        parts = [noisy] + parts[1:]
        server = synth_gaussian(3, 200, 2, 8.0, seed=900 + seed, id_base=10_000)
        trainer = TrainerConfig(local_epochs=5, batch_size=32,
                                lr_schedule=Constant(0.1))
        config = FederationConfig(n_participants=4, rounds=5, trainer=trainer,
                                  seed=seed, weighting="fednl")
        report = run_fednl(config, parts, server)
        round3 = report.records[2]
        wins += int(np.argmin(round3.epsilon) == 0)
    assert wins >= 4, f"noisy participant had the smallest weight by round 3 in only {wins}/5 seeds"
    print(f"criterion 5 PASS: weight properties hold; smallest weight lands on the noisy participant in {wins}/5 seeds")


def test_noise_aware_run_matches_or_beats_fedavg():
    """Criterion 6: four participants, one with beta=0.5 labels, 50 rounds.
    Final global accuracy of the full pipeline >= plain FedAvg in at least
    4 of 5 seeds."""
    wins = 0
    details = []
    for seed in range(5):
        base = synth_gaussian(3, 100, 2, 4.0, seed=seed)
        parts = partition_non_iid(base, 4, seed=seed, strategy=ShuffleSplit())
        noisy, _ = inject_noise(parts[0], symmetric_matrix(3, 0.5), seed=seed)
        parts = [noisy] + parts[1:]
        server = synth_gaussian(3, 400, 2, 4.0, seed=700 + seed, id_base=10_000)
        trainer = TrainerConfig(local_epochs=5, batch_size=32,
                                lr_schedule=Constant(0.1))
        full = FederationConfig(n_participants=4, rounds=50, trainer=trainer,
                                seed=seed, weighting="fednl")
        plain = FederationConfig(n_participants=4, rounds=50, trainer=trainer,
                                 seed=seed, run_procedure1=False,
                                 run_procedure2=False, weighting="fedavg-size")
        acc_full = run_fednl(full, parts, server).final_metrics.accuracy
        acc_plain = run_fedavg(plain, parts, server).final_metrics.accuracy
        wins += acc_full >= acc_plain
        details.append(f"seed {seed}: {acc_full:.3f} vs {acc_plain:.3f}")
    assert wins >= 4, "; ".join(details)
    print(f"criterion 6 PASS: noise-aware run >= FedAvg in {wins}/5 seeds ({'; '.join(details)})")


def test_round_formula_matches_recomputation():
    """Criterion 7: compute_B and estimate_rounds agree with an independent
    plain-Python recomputation to 1e-12 on 100 random parameter sets, plus
    the two worked fixtures B=13 and R=13,197."""

    def ref_b(eps, sig, L, gamma, epochs, g_sq):
        variance = sum(e * e * s for e, s in zip(eps, sig))
        return variance + 6.0 * L * gamma + 8.0 * (epochs - 1) ** 2 * g_sq

    def ref_raw(L, mu, epochs, q_o, B, gap):
        alpha = max(8.0 * L / mu, float(epochs))
        bracket = 4.0 * B + mu * mu * alpha * gap
        return (L / (2.0 * mu * mu * q_o) * bracket + 1.0 - alpha) / epochs, alpha

    fixture_b = compute_B([0.5, 0.5], [4.0, 4.0], 1.0, 0.5, 2, 1.0)
    assert abs(fixture_b - 13.0) <= 1e-12
    fixture = estimate_rounds(SmoothnessParams(L=1.0, mu=0.1),
                              RoundParams(local_epochs=20, q_o=0.01, B=13.0, init_gap=1.0))
    assert fixture.alpha == 80.0
    assert abs(fixture.raw - 13196.05) <= 1e-9
    assert fixture.rounds == 13_197

    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        eps = rng.uniform(0.0, 1.0, size=n)
        eps /= eps.sum()
        sig = rng.uniform(0.0, 10.0, size=n)
        L = float(rng.uniform(0.1, 50.0))
        mu = L * float(rng.uniform(1e-4, 1.0))
        gamma = float(rng.uniform(0.0, 5.0))
        g_sq = float(rng.uniform(0.0, 10.0))
        epochs = int(rng.integers(1, 50))
        q_o = float(10.0 ** rng.uniform(-6.0, 0.0))
        gap = float(rng.uniform(0.0, 10.0))

        b = compute_B(eps, sig, L, gamma, epochs, g_sq)
        expect_b = ref_b(eps.tolist(), sig.tolist(), L, gamma, epochs, g_sq)
        assert abs(b - expect_b) <= 1e-12 * max(1.0, abs(expect_b))

        est = estimate_rounds(SmoothnessParams(L=L, mu=mu),
                              RoundParams(local_epochs=epochs, q_o=q_o,
                                          B=b, init_gap=gap))
        expect_raw, expect_alpha = ref_raw(L, mu, epochs, q_o, b, gap)
        assert est.alpha == expect_alpha
        assert abs(est.raw - expect_raw) <= 1e-12 * max(1.0, abs(expect_raw))
        assert est.rounds == max(1, math.ceil(expect_raw))
    print("criterion 7 PASS: round formula matches recomputation on fixtures and 100 random sets")


def _measured_round_constants(seed, noise_level, trainer):
    """One local round per participant at the given noise level, then the
    measured constants the round estimate needs, as `fednl rounds` measures
    them."""
    base = synth_gaussian(3, 200, 2, 4.0, seed=seed)
    parts = partition_non_iid(base, 3, seed=seed, strategy=ShuffleSplit())
    return measure_round_constants(parts, trainer, seed, noise_level)


def test_round_estimate_trends():
    """Criterion 8: on measured constants, the round estimate strictly
    decreases in the precision target and strictly increases with the
    injected noise ratio at fixed local epochs."""
    trainer = TrainerConfig(local_epochs=5, batch_size=16,
                            lr_schedule=Constant(0.1), l2_lambda=0.01)

    by_noise = []
    clean_constants = None
    for level in (0.0, 0.2, 0.4):
        constants = _measured_round_constants(13, level, trainer)
        by_noise.append(constants.rounds(5, 0.01)[1].rounds)
        if level == 0.0:
            clean_constants = constants
    assert by_noise[0] < by_noise[1] < by_noise[2], f"rounds vs noise: {by_noise}"

    by_target = [clean_constants.rounds(5, q_o)[1].rounds for q_o in (0.1, 0.01, 0.001)]
    assert by_target[0] < by_target[1] < by_target[2], f"rounds vs target: {by_target}"
    print(f"criterion 8 PASS: rounds rise with noise {by_noise} and fall with looser targets {by_target[::-1]}")


def test_convergence_rate_slope():
    """Criterion 9: a clean run under the diminishing schedule theta=2/mu
    shows a log-log slope of the optimality gap against cumulative epochs
    inside [-1.4, -0.6]."""
    lam = 0.0006
    base = synth_gaussian(3, 80, 2, 8.0, seed=1)
    parts = partition_non_iid(base, 4, seed=1, strategy=ShuffleSplit())
    pooled = concat_datasets([p.training_view() for p in parts], name="pooled")

    probe = TrainerConfig(local_epochs=1, batch_size=60,
                          lr_schedule=Diminishing(2.0 / lam, 1.0),
                          l2_lambda=lam)
    smooth = measure_smoothness(pooled, probe, seed=1)
    alpha = max(8.0 * smooth.L / smooth.mu, 1.0)
    trainer = TrainerConfig(local_epochs=1, batch_size=60,
                            lr_schedule=Diminishing(2.0 / lam, alpha),
                            l2_lambda=lam)
    config = FederationConfig(n_participants=4, rounds=200, trainer=trainer,
                              seed=1, run_procedure1=False,
                              run_procedure2=False, weighting="fedavg-size")
    report = run_fedavg(config, parts)
    optimum = solve_optimum(pooled, trainer).loss
    slope = verify_rate(report, optimum)
    assert -1.4 <= slope <= -0.6, f"log-log slope {slope:.3f} outside [-1.4, -0.6]"
    print(f"criterion 9 PASS: optimality-gap slope {slope:.3f} within [-1.4, -0.6]")


def test_injection_matches_channel():
    """Criterion 10: realized flip frequencies at n=10,000 sit within 0.02
    of every transition-matrix entry."""
    matrix = symmetric_matrix(4, 0.3)
    clean = synth_gaussian(4, 2500, 2, 6.0, seed=3)
    _, report = inject_noise(clean, matrix, seed=3)
    gap = float(np.max(np.abs(report.realized - matrix.probs)))
    assert gap <= 0.02, f"worst entry deviation {gap:.4f}"
    print(f"criterion 10 PASS: realized frequencies within {gap:.4f} of the channel at n=10,000")
