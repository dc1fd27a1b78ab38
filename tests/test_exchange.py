"""Server-assisted noise normalization with the minimum-allocation rule."""

import numpy as np
import pytest

from fednl import (
    AllocationError,
    ClassEstimate,
    DemandPlan,
    ExchangeTranscript,
    NoiseEstimate,
    TrainerConfig,
    apply_exchange,
    asymmetric_matrix,
    compute_demands,
    concat_datasets,
    estimate_noise,
    fulfill_demands,
    inject_noise,
    normalize_noise,
    reestimate_seed,
    run_fednl,
    synth_gaussian,
    transcript_to_dict,
)
from fednl._rng import EXCHANGE, derive_rng, derive_seed
from fednl.config import build_datasets, build_federation_config, parse_config_text

CONFIG = TrainerConfig(local_epochs=20, batch_size=32, l2_lambda=0.01)


def fake_estimate(betas, sizes, ids_start=0):
    """NoiseEstimate with prescribed per-class ratios, for demand arithmetic."""
    per_class = []
    next_id = ids_start
    for k, (beta, size) in enumerate(zip(betas, sizes)):
        removed = int(round(beta * size))
        ids = list(range(next_id, next_id + size))
        next_id += size
        per_class.append(ClassEstimate(
            class_id=k,
            size=size,
            noise_free_ids=tuple(ids[removed:]),
            removed_ids=tuple(ids[:removed]),
            beta=removed / size if size else 0.0,
            empty=size == 0,
        ))
    betas_exact = [ce.beta for ce in per_class]
    return NoiseEstimate(
        per_class=tuple(per_class),
        beta_min=min(betas_exact),
        best_class=int(np.argmin(betas_exact)),
        beta_mean=float(np.mean(betas_exact)),
        out_of_space_ids=(),
        trainings=3,
    )


# ---------------------------------------------------------------- demands

def test_equal_ratios_demand_nothing():
    estimate = fake_estimate([0.1, 0.1, 0.1], [100, 100, 100])
    plan = compute_demands(estimate, [100, 100, 100])
    assert plan.fractions == (0.0, 0.0, 0.0)
    assert plan.demanded == (0, 0, 0)


def test_two_class_demand():
    estimate = fake_estimate([0.1, 0.3], [100, 100])
    plan = compute_demands(estimate, [100, 100])
    assert plan.fractions == pytest.approx((0.0, 0.2))
    assert plan.demanded == (0, 20)


def test_three_class_demand_floor():
    estimate = fake_estimate([0.0, 0.5, 0.25], [40, 40, 40])
    plan = compute_demands(estimate, [40, 40, 40])
    assert plan.demanded == (0, 20, 10)


def test_argmin_class_never_demands():
    estimate = fake_estimate([0.4, 0.1, 0.3], [50, 50, 50])
    plan = compute_demands(estimate, [50, 50, 50])
    assert plan.demanded[1] == 0
    assert plan.fractions[1] == 0.0


def test_demand_cap_z_variant():
    # the alternative reading caps each fraction at the minimum ratio
    estimate = fake_estimate([0.1, 0.5], [100, 100])
    plan = compute_demands(estimate, [100, 100], demand_cap="z")
    assert plan.fractions[1] == pytest.approx(0.1)
    assert plan.demanded == (0, 10)


# ---------------------------------------------------------------- fulfillment

def test_fulfill_minimum_rule():
    estimate = fake_estimate([0.0, 0.5, 0.25], [40, 40, 40])
    plan = fulfill_demands(compute_demands(estimate, [40, 40, 40]), [50, 50, 50])
    assert plan.delta1 == (0, 20, 10)
    assert plan.u == 10
    assert plan.final == (0, 10, 10)
    assert not plan.starved


def test_fulfill_starved_server():
    estimate = fake_estimate([0.1, 0.3], [100, 100])
    plan = fulfill_demands(compute_demands(estimate, [100, 100]), [50, 0])
    assert plan.u == 0
    assert plan.final == (0, 0)
    assert plan.starved


def test_fulfill_no_demands_not_starved():
    estimate = fake_estimate([0.2, 0.2], [50, 50])
    plan = fulfill_demands(compute_demands(estimate, [50, 50]), [50, 50])
    assert plan.final == (0, 0)
    assert not plan.starved


def test_fulfill_caps_at_server_stock():
    estimate = fake_estimate([0.0, 0.5], [100, 100])
    plan = fulfill_demands(compute_demands(estimate, [100, 100]), [100, 30])
    assert plan.delta1[1] == 30  # demanded 50, stock 30
    assert plan.u == 30
    assert plan.final == (0, 30)


# ---------------------------------------------------------------- application

def _noisy_participant(seed):
    clean = synth_gaussian(3, 80, 2, 8.0, seed=seed)
    matrix = asymmetric_matrix(3, [(1, 0, 0.3), (2, 0, 0.3), (0, 1, 0.1)])
    noisy, _ = inject_noise(clean, matrix, seed=seed)
    return noisy.training_view()


def test_zero_allocation_drops_noisy_instances():
    participant = _noisy_participant(1)
    estimate = estimate_noise(participant, CONFIG, seed=1)
    plan = compute_demands(estimate, participant.class_sizes())
    starved = fulfill_demands(plan, [0, 0, 0])
    server = synth_gaussian(3, 10, 2, 8.0, seed=99, id_base=10_000)
    result = apply_exchange(participant, estimate, server.training_view(),
                            starved, seed=1)
    survivors = set()
    for ce in estimate.per_class:
        survivors.update(ce.noise_free_ids)
    assert set(result.dataset.ids.tolist()) == survivors


def test_allocation_adds_exactly_u_per_demanding_class():
    participant = _noisy_participant(2)
    estimate = estimate_noise(participant, CONFIG, seed=2)
    plan = fulfill_demands(
        compute_demands(estimate, participant.class_sizes()),
        [500, 500, 500],
    )
    server = synth_gaussian(3, 500, 2, 8.0, seed=98, id_base=10_000)
    result = apply_exchange(participant, estimate, server.training_view(),
                            plan, seed=2)
    for k, ce in enumerate(estimate.per_class):
        expected = len(ce.noise_free_ids) + plan.final[k]
        expected = min(expected, ce.size)  # hard cap at original class size
        assert result.dataset.class_sizes()[k] == expected


def test_transfers_come_from_server_only():
    participant = _noisy_participant(3)
    estimate = estimate_noise(participant, CONFIG, seed=3)
    server = synth_gaussian(3, 400, 2, 8.0, seed=97, id_base=10_000)
    result = normalize_noise(participant, estimate, server.training_view(),
                             seed=3)
    participant_ids = set(participant.ids.tolist())
    server_ids = set(server.ids.tolist())
    for k, transferred in result.transcript.transfers.items():
        assert set(transferred) <= server_ids
        assert set(transferred).isdisjoint(participant_ids)


def test_transcript_carries_only_class_counts():
    # the demand side of the exchange is (class id, count) pairs: no instance
    # ids, features, or labels from the participant appear
    participant = _noisy_participant(4)
    estimate = estimate_noise(participant, CONFIG, seed=4)
    server = synth_gaussian(3, 400, 2, 8.0, seed=96, id_base=10_000)
    result = normalize_noise(participant, estimate, server.training_view(),
                             seed=4)
    demands = result.transcript.demands
    assert all(isinstance(k, int) and isinstance(v, int) for k, v in demands.items())
    payload = transcript_to_dict(result.transcript)
    assert set(payload["demands"]) <= {str(k) for k in range(3)} | {0, 1, 2}


def test_normalization_shrinks_spread():
    lowered = 0
    for seed in (5, 6, 7):
        participant = _noisy_participant(seed)
        estimate = estimate_noise(participant, CONFIG, seed=seed)
        betas = [ce.beta for ce in estimate.per_class]
        before = max(betas) - min(betas)
        server = synth_gaussian(3, 400, 2, 8.0, seed=1000 + seed, id_base=10_000)
        result = normalize_noise(participant, estimate, server.training_view(),
                                 seed=seed)
        after = estimate_noise(result.dataset, CONFIG, reestimate_seed(seed, 3))
        after_betas = [ce.beta for ce in after.per_class]
        after = max(after_betas) - min(after_betas)
        if after < before:
            lowered += 1
    assert lowered >= 2


def test_exchange_deterministic():
    participant = _noisy_participant(8)
    estimate = estimate_noise(participant, CONFIG, seed=8)
    server = synth_gaussian(3, 300, 2, 8.0, seed=95, id_base=10_000)
    a = normalize_noise(participant, estimate, server.training_view(),
                        seed=8)
    b = normalize_noise(participant, estimate, server.training_view(),
                        seed=8)
    np.testing.assert_array_equal(a.dataset.ids, b.dataset.ids)
    assert a.transcript.final == b.transcript.final


def test_apply_rejects_overallocation():
    participant = _noisy_participant(9)
    estimate = estimate_noise(participant, CONFIG, seed=9)
    plan = compute_demands(estimate, participant.class_sizes())
    demanding = [k for k, d in enumerate(plan.demanded) if d > 0]
    if not demanding:
        pytest.skip("estimation found no spread on this seed")
    forced = plan.__class__(
        fractions=plan.fractions,
        demanded=plan.demanded,
        delta1=plan.demanded,
        u=max(plan.demanded),
        final=tuple(10_000 for _ in plan.demanded),
        starved=False,
    )
    server = synth_gaussian(3, 20, 2, 8.0, seed=94, id_base=10_000)
    with pytest.raises(AllocationError):
        apply_exchange(participant, estimate, server.training_view(),
                       forced, seed=9)


def test_apply_rejects_shared_ids_naming_first_five():
    participant = synth_gaussian(3, 10, 2, 8.0, seed=10)  # ids 0..29
    server = synth_gaussian(3, 10, 2, 8.0, seed=11, id_base=23)
    server = server.take(np.arange(server.n)[::-1])  # ids 52 down to 23
    estimate = fake_estimate([0.2, 0.0, 0.1], [10, 10, 10])
    plan = fulfill_demands(compute_demands(estimate, [10, 10, 10]), server.class_sizes())
    with pytest.raises(ValueError, match=r"share instance ids: \[23, 24, 25, 26, 27\]$"):
        apply_exchange(participant, estimate, server, plan, seed=10)


# ---------------------------------------------------------------- per-class reference

def reference_exchange(participant, estimate, server, plan, seed):
    """Post-exchange dataset and transcript, assembled class by class."""
    class_sizes = participant.class_sizes()
    parts, transfers, truncated = [], {}, {}
    for k in range(participant.class_count):
        survivors = participant.by_ids(estimate.per_class[k].noise_free_ids)
        grant = int(plan.final[k])
        pool = np.flatnonzero(server.observed_labels == k)
        room = int(class_sizes[k]) - survivors.n
        if grant > room:
            truncated[k] = grant - room
            grant = room
        if grant > 0:
            rng = derive_rng(seed, EXCHANGE, k)
            chunk = server.take(np.sort(rng.choice(pool, size=grant, replace=False)))
            transfers[k] = tuple(int(i) for i in chunk.ids)
            parts.extend([survivors, chunk] if survivors.n else [chunk])
        elif survivors.n:
            parts.append(survivors)
    dataset = concat_datasets(parts, name=participant.name) if parts else participant.take(
        np.array([], dtype=np.int64))
    transcript = ExchangeTranscript(
        demands={k: plan.demanded[k] for k in plan.demanding_classes},
        delta1=plan.delta1, u=int(plan.u), final=plan.final, transfers=transfers,
        truncated=truncated, starved=plan.starved)
    return dataset, transcript


def _plan(kind, estimate, participant):
    plan = compute_demands(estimate, participant.class_sizes())
    if kind == "normal":
        return fulfill_demands(plan, [400, 400, 400])
    if kind == "starved":
        return fulfill_demands(plan, [0, 0, 0])
    # Grant three more than each class lost, so every class hits its size cap.
    final = tuple(len(ce.removed_ids) + 3 for ce in estimate.per_class)
    return DemandPlan(fractions=plan.fractions, demanded=final, delta1=final,
                      u=min(final), final=final)


@pytest.mark.parametrize("kind", ["normal", "starved", "truncated"])
def test_apply_matches_per_class_reference(kind):
    participant = _noisy_participant(12)
    estimate = estimate_noise(participant, CONFIG, seed=12)
    server = synth_gaussian(3, 400, 2, 8.0, seed=93, id_base=10_000).training_view()
    plan = _plan(kind, estimate, participant)
    result = apply_exchange(participant, estimate, server, plan, seed=12)
    dataset, transcript = reference_exchange(participant, estimate, server, plan, 12)
    assert bool(transcript.transfers) == (kind != "starved")
    assert bool(transcript.truncated) == (kind == "truncated")
    assert result.dataset.name == dataset.name
    np.testing.assert_array_equal(result.dataset.ids, dataset.ids)
    assert result.dataset.features.tobytes() == dataset.features.tobytes()
    np.testing.assert_array_equal(result.dataset.observed_labels, dataset.observed_labels)
    assert result.transcript == transcript
    assert (estimate_noise(result.dataset, CONFIG, reestimate_seed(12, 3))
            == estimate_noise(dataset, CONFIG, derive_seed(12, EXCHANGE, 3)))


# The fednl_wide benchmark scenario at config seed 57: participant 2's estimate
# keeps 1 of its 75 rows and no class demands anything.
WIDE_SEED_57 = """
seed = 57
participants = 160
rounds = 12
data.classes = 3
data.dim = 2
data.separation = 4
data.per_class = 4000
server.per_class = 400
noise.kind = symmetric
noise.beta = 0.4
noise.participants = {noisy}
trainer.local_epochs = 2
""".format(noisy=",".join(str(i) for i in range(40)))


def test_too_small_for_folds_keeps_pre_exchange_estimate(caplog):
    config = parse_config_text(WIDE_SEED_57)
    participants, server = build_datasets(config)
    with caplog.at_level("WARNING", logger="fednl.engine"):
        report = run_fednl(build_federation_config(config), participants, server)
    assert report.training_sizes[2] == 1
    assert not report.transcripts[2].demands
    # The estimate covers all of participant 2's rows, not the one left.
    estimate = report.estimates[2]
    assert sum(k.size for k in estimate.per_class) + len(estimate.out_of_space_ids) == 75
    assert participants[2].n == 75
    assert len(estimate.noise_free_ids) == 1
    assert [r.getMessage() for r in caplog.records] == [
        "participants/p2: 1 row(s) after the exchange cannot form three folds; "
        "keeping the pre-exchange estimate"]
    assert len(report.records) == 12
