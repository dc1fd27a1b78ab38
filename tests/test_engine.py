"""Federation round loop, aggregation, and the size-weighted baseline."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from fednl import (
    AggregationError,
    Constant,
    ContributionWeights,
    Dataset,
    DatasetStack,
    Diminishing,
    DivergenceError,
    EstimationError,
    FederationConfig,
    ModelParams,
    ShuffleSplit,
    TrainerConfig,
    aggregate,
    estimate_noise,
    inject_noise,
    normalize_noise,
    partition_non_iid,
    record_to_dict,
    reestimate_seed,
    run_fedavg,
    run_fednl,
    server_init,
    symmetric_matrix,
    synth_gaussian,
    train_local,
)
from fednl import engine, estimator, trainer
from fednl._rng import ESTIMATE, EXCHANGE, TRAIN, derive_seed
from fednl.contribution import GAMMA_MIN, effective_sizes, influence
from fednl.data import OUT_OF_SPACE
from fednl.engine import FEDAVG, _prepare_fednl, _server_rows

from conftest import make_dataset, reference_loss, train_one


def weights_of(values, c=2):
    return ModelParams(np.asarray(values, dtype=np.float64), c)


def make_parts(seed, c=3, per_class=40, n_parts=4, sep=8.0):
    base = synth_gaussian(c, per_class, 2, sep, seed=seed)
    return partition_non_iid(base, n_parts, seed=seed, strategy=ShuffleSplit())


# ---------------------------------------------------------------- aggregate

def test_aggregate_degenerate_weight():
    models = [weights_of([[1.0, 2.0]]), weights_of([[5.0, 5.0]])]
    out = aggregate(models, ContributionWeights(np.array([1.0, 0.0])))
    np.testing.assert_allclose(out.weights, models[0].weights)


def test_aggregate_identical_models():
    w = [[0.5, -0.5], [1.0, 0.0]]
    models = [weights_of(w) for _ in range(3)]
    out = aggregate(models, ContributionWeights(np.array([0.2, 0.5, 0.3])))
    np.testing.assert_allclose(out.weights, w)


def test_aggregate_matches_direct_arithmetic():
    a = weights_of([[1.0, 0.0], [2.0, -2.0]])
    b = weights_of([[3.0, 4.0], [0.0, 1.0]])
    out = aggregate([a, b], ContributionWeights(np.array([0.25, 0.75])))
    np.testing.assert_allclose(
        out.weights, 0.25 * a.weights + 0.75 * b.weights, atol=1e-12
    )


def test_aggregate_shape_mismatch():
    a = weights_of([[1.0, 0.0]])
    b = ModelParams(np.zeros((2, 2)), 2)
    with pytest.raises(AggregationError):
        aggregate([a, b], ContributionWeights(np.array([0.5, 0.5])))


# ---------------------------------------------------------------- server utils

def test_server_init_deterministic_and_bounded():
    a = server_init(4, 3, seed=1, scale=0.01)
    b = server_init(4, 3, seed=1, scale=0.01)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.weights.shape == (5, 3)
    assert np.abs(a.weights).max() <= 0.01


def test_split_server_fraction_and_disjoint():
    server = synth_gaussian(3, 50, 2, 6.0, seed=2)
    pool, test = (server.take(rows) for rows in _server_rows(server.n, 0.2, seed=2))
    assert test.n == 30
    assert pool.n == 120
    assert set(pool.ids.tolist()).isdisjoint(test.ids.tolist())
    assert set(pool.ids.tolist()) | set(test.ids.tolist()) == set(server.ids.tolist())


@pytest.mark.parametrize("procedure2", [False, True])
def test_pool_is_taken_only_for_procedure2(monkeypatch, procedure2):
    parts = make_parts(5)
    server = synth_gaussian(3, 30, 2, 8.0, seed=5, id_base=10_000)
    pool, test = (server.take(rows) for rows in _server_rows(server.n, 0.2, seed=5))
    taken = {}
    take = Dataset.take

    def recording_take(self, positions, name=None):
        out = take(self, positions, name)
        taken.setdefault(out.name, []).append(out.ids.tolist())
        return out

    monkeypatch.setattr(Dataset, "take", recording_take)
    config = FederationConfig(rounds=1, seed=5,
                              trainer=TrainerConfig(local_epochs=1),
                              procedure2=procedure2)
    run_fednl(config, parts, server)
    assert taken[f"{server.name}/test"][0] == test.ids.tolist()
    assert taken.get(f"{server.name}/pool") == ([pool.ids.tolist()] if procedure2 else None)


# ---------------------------------------------------------------- degenerate

def test_single_participant_equals_local_training():
    parts = make_parts(3, n_parts=1)
    trainer = TrainerConfig(local_epochs=4, batch_size=16)
    config = FederationConfig(
        rounds=3, trainer=trainer, seed=3,
        procedure1=False, procedure2=False, weighting="fedavg-size",
    )
    run = run_fednl(config, parts)
    nonfed = server_init(parts[0].d, parts[0].class_count, 3, 0.01)
    ds = parts[0].training_view().in_space()
    step = 0
    for t, record in enumerate(run.records, start=1):
        nonfed = train_one(nonfed, ds, trainer, derive_seed(3, TRAIN, t, 0), step)
        step += 4 * -(-ds.n // 16)
        assert record.local_losses == (reference_loss(nonfed.weights, ds, trainer.l2_lambda),)
        assert record.epsilon == (1.0,)
    np.testing.assert_allclose(run.global_model.weights, nonfed.weights, atol=0)


def test_fedavg_reduction_is_bitwise():
    parts = make_parts(4)
    trainer = TrainerConfig(local_epochs=3, batch_size=16)
    fednl_config = FederationConfig(
        rounds=5, trainer=trainer, seed=4,
        procedure1=False, procedure2=False, weighting="fedavg-size",
    )
    # Default flags (both procedures, influence weighting) and no server
    # dataset: run_fedavg must override all three or run_fednl rejects it.
    fedavg_config = FederationConfig(rounds=5, trainer=trainer, seed=4)
    a = run_fednl(fednl_config, parts)
    b = run_fedavg(fedavg_config, parts)
    assert b.config == fednl_config
    assert a.global_model.weights.tobytes() == b.global_model.weights.tobytes()
    for ra, rb in zip(a.records, b.records):
        assert ra.local_losses == rb.local_losses
        assert ra.global_loss == rb.global_loss
        assert ra.epsilon == rb.epsilon


# ---------------------------------------------------------------- baseline

def test_fedavg_size_weights_every_round():
    base = synth_gaussian(2, 20, 2, 8.0, seed=5)
    order = np.argsort(base.observed_labels, kind="stable")
    a = base.take(order[:10], name="small")
    b = base.take(order[10:], name="large")
    config = FederationConfig(
        rounds=4,
        trainer=TrainerConfig(local_epochs=2, batch_size=8),
        seed=5, procedure1=False, procedure2=False, weighting="fedavg-size",
    )
    run = run_fedavg(config, [a, b])
    for record in run.records:
        np.testing.assert_allclose(record.epsilon, (0.25, 0.75), atol=1e-12)


def test_fedavg_loss_trend_mostly_decreasing():
    parts = make_parts(6, per_class=60, sep=6.0)
    config = FederationConfig(
        rounds=50,
        trainer=TrainerConfig(
            local_epochs=2, batch_size=32,
            lr_schedule=Constant(0.02),
        ),
        seed=6, procedure1=False, procedure2=False, weighting="fedavg-size",
    )
    run = run_fedavg(config, parts)
    losses = [r.global_loss for r in run.records]
    upticks = sum(1 for x, y in zip(losses, losses[1:]) if y > x + 1e-12)
    assert upticks <= 2


# ---------------------------------------------------------------- records

def test_round_records_bookkeeping():
    parts = make_parts(7)
    server = synth_gaussian(3, 50, 2, 8.0, seed=700, id_base=10_000)
    config = FederationConfig(
        rounds=4,
        trainer=TrainerConfig(local_epochs=3, batch_size=16),
        seed=7, weighting="fednl",
    )
    run = run_fednl(config, parts, server)
    assert len(run.records) == 4
    for t, record in enumerate(run.records, start=1):
        assert record.t == t
        assert record.cumulative_epochs == t * 3
        assert sum(record.epsilon) == pytest.approx(1.0, abs=1e-9)
        assert record.global_loss == pytest.approx(
            float(np.dot(record.epsilon, record.local_losses)), abs=1e-12
        )
        assert record.global_accuracy is not None
    payload = record_to_dict(run.records[0])
    assert payload["t"] == 1 and "epsilon" in payload


def test_diminishing_rates_decrease_across_rounds():
    parts = make_parts(8)
    config = FederationConfig(
        rounds=5,
        trainer=TrainerConfig(
            local_epochs=2, batch_size=16,
            lr_schedule=Diminishing(theta=10.0, alpha=50.0),
        ),
        seed=8, procedure1=False, procedure2=False, weighting="fedavg-size",
    )
    run = run_fedavg(config, parts)
    first_rates = [r.learning_rates[0] for r in run.records]
    assert all(x > y for x, y in zip(first_rates, first_rates[1:]))


def test_freeze_epsilon_holds_round_one_weights():
    parts = make_parts(9)
    server = synth_gaussian(3, 50, 2, 8.0, seed=900, id_base=10_000)
    config = FederationConfig(
        rounds=5,
        trainer=TrainerConfig(local_epochs=2, batch_size=16),
        seed=9, weighting="fednl", freeze_epsilon=True,
    )
    run = run_fednl(config, parts, server)
    first = run.records[0].epsilon
    for record in run.records[1:]:
        assert record.epsilon == first


def _noisy_parts(seed):
    """Four participants with symmetric label noise of 0.1 to 0.4, and a server."""
    parts = [inject_noise(ds, symmetric_matrix(3, 0.1 * (i + 1)), seed=seed + i)[0]
             for i, ds in enumerate(make_parts(seed))]
    return parts, synth_gaussian(3, 50, 2, 8.0, seed=seed + 100, id_base=10_000)


@pytest.mark.parametrize("flag", ["literal_noise_adjustment", "matrix_norm_influence"])
def test_influence_flags_reach_the_round_loop(flag):
    # Round 1 trains the same models under either setting; its influence
    # must be the one `influence` computes with the flag as configured.
    # Without the exchange every participant keeps a positive noise ratio.
    parts, server = _noisy_parts(12)
    config = FederationConfig(rounds=1, seed=12, procedure2=False,
                              trainer=TrainerConfig(local_epochs=2, batch_size=16))
    test = server.take(_server_rows(server.n, config.server_test_fraction, config.seed)[1])
    gammas = {}
    for on in (False, True):
        run = run_fednl(replace(config, **{flag: on}), parts, server)
        literal = on and flag == "literal_noise_adjustment"
        expected = influence(list(run.local_models),
                             effective_sizes(run.training_sizes, run.betas,
                                             literal_noise_adjustment=literal),
                             run.global_model, test, [GAMMA_MIN] * 4,
                             run.records[0].learning_rates, config.trainer,
                             matrix_norm=on and flag == "matrix_norm_influence")
        gammas[on] = run.records[0].gamma
        assert gammas[on] == tuple(expected.gamma.tolist())
    assert gammas[True] != gammas[False]


def test_demand_cap_reaches_the_exchange():
    parts, server = _noisy_parts(12)
    config = FederationConfig(rounds=1, seed=12, demand_cap="z",
                              trainer=TrainerConfig(local_epochs=2, batch_size=16))
    pool = server.take(_server_rows(server.n, config.server_test_fraction, config.seed)[0])
    run = run_fednl(config, parts, server)
    for i, ds in enumerate(parts):
        view = ds.training_view()
        estimate = estimate_noise(view, config.trainer, derive_seed(12, ESTIMATE, i))
        expected = normalize_noise(view, estimate, pool, derive_seed(12, EXCHANGE, i),
                                   demand_cap="z").transcript
        assert run.transcripts[i] == expected
    assert run.transcripts != run_fednl(replace(config, demand_cap="size"), parts,
                                        server).transcripts


def test_participant_order_permutation_same_aggregate():
    parts = make_parts(10)
    trainer = TrainerConfig(local_epochs=2, batch_size=16)
    broadcast = server_init(2, 3, seed=10)
    models = train_local(broadcast, DatasetStack(parts), trainer, [10] * len(parts))
    eps = np.array([0.1, 0.2, 0.3, 0.4])
    perm = [2, 0, 3, 1]
    a = aggregate(models, ContributionWeights(eps))
    b = aggregate([models[p] for p in perm], ContributionWeights(eps[perm]))
    np.testing.assert_allclose(a.weights, b.weights, atol=1e-12)
    assert not np.allclose(a.weights, aggregate(models, ContributionWeights(eps[perm])).weights)


def test_procedure2_requires_server():
    parts = make_parts(11)
    config = FederationConfig(
        rounds=2,
        trainer=TrainerConfig(local_epochs=2, batch_size=16),
        seed=11, procedure1=True, procedure2=True, weighting="fednl",
    )
    with pytest.raises(ValueError):
        run_fednl(config, parts)


@pytest.mark.parametrize("labels, server_classes, error, message", [
    ([0, 1], 3, EstimationError,
     "participant 1, estimate: need at least 3 in-space instances to form folds, got 2"),
    # One row per class: every fold model is fit to another class, so the
    # estimate removes all three rows, no class demands anything and the
    # re-estimate sees none.
    ([0, 1, 2], 3, EstimationError, "participant 1, re-estimate after exchange: "
     "need at least 3 in-space instances to form folds, got 0"),
    ([0, 1, 2], 4, ValueError,
     "participant 0, exchange: server_class_sizes length disagrees with the plan"),
])
def test_prepare_errors_name_participant_and_stage(labels, server_classes, error, message):
    parts = make_parts(13, n_parts=1)
    features = [[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]][:len(labels)]
    small = make_dataset(features, labels, c=3, ids=[5000 + j for j in range(len(labels))])
    server = synth_gaussian(server_classes, 50, 2, 8.0, seed=13, id_base=10_000)
    config = FederationConfig(rounds=1, seed=13,
                              trainer=TrainerConfig(local_epochs=2, batch_size=16))
    with pytest.raises(error) as caught:
        run_fednl(config, parts + [small], server)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("small, extra", [
    # One row per class: Procedure 1 keeps none of them, and Procedure 2 is
    # off, so nothing refills the set.
    ([0, 1, 2], {"procedure2": False}),
    # No in-space row, and no Procedure 1 to drop any.
    ([OUT_OF_SPACE] * 3, {"procedure1": False, "procedure2": False}),
], ids=["procedure1_keeps_none", "no_in_space_rows"])
def test_empty_round_training_set_names_round_and_participant(small, extra):
    parts = make_parts(13, n_parts=1)
    small = make_dataset([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]], small, c=3,
                         ids=[5000, 5001, 5002])
    server = synth_gaussian(3, 50, 2, 8.0, seed=13, id_base=10_000)
    config = FederationConfig(rounds=2, seed=13,
                              trainer=TrainerConfig(local_epochs=2, batch_size=16), **extra)
    with pytest.raises(ValueError) as caught:
        run_fednl(config, parts + [small], server)
    assert type(caught.value) is ValueError
    assert str(caught.value) == "round 1, participant 1: dataset is empty"


def test_round_loop_plans_once_and_frees_the_plan(monkeypatch):
    # Procedure 1 leaves training sets of unequal sizes. The run's one stack
    # plans its ticks in round 1, so three rounds build the layouts one does;
    # Procedure 1's one-shot stacks build theirs the same in both. No plan
    # outlives the run.
    parts = make_parts(14)
    parts[0] = inject_noise(parts[0], symmetric_matrix(3, 0.4), 14)[0]
    server = synth_gaussian(3, 50, 2, 8.0, seed=14, id_base=10_000)
    built, plans = [], []
    layout = trainer._tick_layout
    monkeypatch.setattr(trainer, "_tick_layout",
                        lambda sizes, *rest: built.append(sizes) or layout(sizes, *rest))

    class Recorded(trainer._TickPlan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(weakref.ref(self))

    monkeypatch.setattr(trainer, "_TickPlan", Recorded)
    counts = {}
    for rounds in (1, 3):
        del built[:], plans[:]
        config = FederationConfig(rounds=rounds, seed=14,
                                  trainer=TrainerConfig(local_epochs=2, batch_size=16))
        report = run_fednl(config, parts, server)
        counts[rounds] = len(built), len(plans)
        assert plans and all(ref() is None for ref in plans)
    assert len(set(report.training_sizes)) > 1
    assert counts[1] == counts[3]


def _record_stacks(monkeypatch):
    """Member id arrays of every Procedure 1 `train_local` stack, in call order."""
    stacks = []
    train = estimator.train_local

    def recording(model, stack, *rest):
        stacks.append([ds.ids for ds in stack.members])
        return train(model, stack, *rest)

    monkeypatch.setattr(estimator, "train_local", recording)
    return stacks


#: At this rate the ridge term alone scales the weights by about -1e4 a step,
#: so within 25 epochs every fold model diverges; larger features make it
#: diverge sooner.
WILD_TRAINER = TrainerConfig(local_epochs=25, batch_size=8, lr_schedule=Constant(1e6),
                             l2_lambda=0.01)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("rows", [estimator._ESTIMATE_ROWS, 3])
def test_reestimate_failure_precedes_later_estimate_failure(monkeypatch, rows):
    # Participant 0 fails only in its re-estimate (see the three-row case
    # above), participant 1 in its estimate. A budget of 3 rows puts them in
    # separate chunks; the default puts them in one.
    small = make_dataset([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]], [0, 1, 2], c=3,
                         ids=[5000, 5001, 5002])
    calm = synth_gaussian(3, 30, 2, 4.0, seed=35)
    wild = make_dataset(calm.features * 1e100, calm.observed_labels, c=3, ids=calm.ids)
    trainer = replace(WILD_TRAINER, local_epochs=5)
    with pytest.raises(DivergenceError):
        estimate_noise(wild, trainer, derive_seed(13, ESTIMATE, 1))
    server = synth_gaussian(3, 50, 2, 8.0, seed=13, id_base=10_000)
    monkeypatch.setattr(estimator, "_ESTIMATE_ROWS", rows)
    stacks = _record_stacks(monkeypatch)
    config = FederationConfig(rounds=1, seed=13, trainer=trainer)
    with pytest.raises(EstimationError) as raised:
        run_fednl(config, [small, wild], server)
    assert str(raised.value) == ("participant 0, re-estimate after exchange: "
                                 "need at least 3 in-space instances to form folds, got 0")
    assert len(stacks[0]) == (6 if rows > small.n else 3)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_fold_divergence_names_lowest_participant(monkeypatch):
    # Participant 1's fold models diverge at an earlier lockstep step than
    # participant 0's; trained in turn, participant 0 would have failed first.
    calm = synth_gaussian(3, 30, 2, 4.0, seed=35)
    wild = make_dataset(calm.features * 1e100, calm.observed_labels, c=3, ids=calm.ids + 1000)
    alone = {}
    for i, ds in enumerate((calm, wild)):
        with pytest.raises(DivergenceError) as raised:
            estimate_noise(ds, WILD_TRAINER, derive_seed(35, ESTIMATE, i))
        alone[i] = str(raised.value)
    step = {i: int(message.split("global step ")[1].split(";")[0])
            for i, message in alone.items()}
    assert step[1] < step[0]
    server = synth_gaussian(3, 50, 2, 8.0, seed=35, id_base=10_000)
    stacks = _record_stacks(monkeypatch)
    config = FederationConfig(rounds=1, seed=35, trainer=WILD_TRAINER)
    with pytest.raises(DivergenceError) as raised:
        run_fednl(config, [calm, wild], server)
    assert str(raised.value) == f"participant 0, estimate: {alone[0]}"
    assert len(stacks[0]) == 6  # both participants' fold models in one call


def _mixed_participants():
    """Datasets of different sizes: out-of-space labels, an empty class, one of 240 rows."""
    c = 3
    parts, base = [], 0
    for seed, n in enumerate((30, 45, 240, 60, 25, 40)):
        clean = synth_gaussian(c, n // c, 2, 3.0, seed=60 + seed, id_base=base)
        base += clean.n
        ds, _ = inject_noise(clean, symmetric_matrix(c, 0.3), seed=60 + seed)
        if seed == 1:
            labels = ds.observed_labels.copy()
            labels[::7] = OUT_OF_SPACE
            ds = make_dataset(ds.features, labels, c=c, ids=ds.ids)
        if seed == 3:
            ds = ds.take(np.flatnonzero(ds.observed_labels != 2))
        parts.append(ds)
    server = synth_gaussian(c, 80, 2, 3.0, seed=70, id_base=base)
    return parts, server


@pytest.mark.parametrize("procedure2", [False, True])
@pytest.mark.parametrize("resplit", [False, True])
def test_chunked_procedure1_matches_one_participant_at_a_time(monkeypatch, resplit, procedure2):
    parts, server = _mixed_participants()
    budget = 150
    monkeypatch.setattr(estimator, "_ESTIMATE_ROWS", budget)
    stacks = _record_stacks(monkeypatch)
    trainer = TrainerConfig(local_epochs=3, batch_size=16)
    config = FederationConfig(rounds=1, seed=8, trainer=trainer,
                              procedure2=procedure2, per_class_resplit=resplit)
    pool = server.take(_server_rows(server.n, config.server_test_fraction, config.seed)[0])
    train_sets, betas, estimates, _ = _prepare_fednl(config, parts, pool)
    chunked = list(stacks)

    for i, ds in enumerate(parts):
        view = ds.training_view()
        expected = estimate_noise(view, trainer, derive_seed(8, ESTIMATE, i), resplit)
        if procedure2:
            seed = derive_seed(8, EXCHANGE, i)
            view = normalize_noise(view, expected, pool, seed).dataset
            expected = estimate_noise(view, trainer, reestimate_seed(seed, 3), resplit)
        else:
            view = view.by_ids(expected.noise_free_ids)
        assert estimates[i] == expected
        assert betas[i] == expected.beta_mean
        np.testing.assert_array_equal(train_sets[i].ids, view.ids)

    # Participants whose rows each stack trains on (server transfers aside).
    owner = {i: p for p, ds in enumerate(parts) for i in ds.ids.tolist()}
    held = [{owner[i] for ids in members for i in ids.tolist() if i in owner}
            for members in chunked]
    rows = [sum(ids.size for ids in members) for members in chunked]
    assert any(len(h) > 1 for h in held)
    # Only participant 2 is over the budget on its own.
    assert all(n <= budget or h == {2} for n, h in zip(rows, held))
    assert any(n > budget for n in rows)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_divergence_names_lowest_participant_not_first_in_lockstep():
    # Participant 1's features are 1e50 times larger, so it diverges at an
    # earlier step; trained in turn, participant 0 would have failed first.
    calm = synth_gaussian(3, 30, 2, 4.0, seed=35)
    wild = make_dataset(calm.features * 1e50, calm.observed_labels, c=3,
                        ids=calm.ids + 1000)
    trainer = TrainerConfig(local_epochs=5, batch_size=8, lr_schedule=Constant(1e6),
                            l2_lambda=0.01)
    config = FederationConfig(rounds=2, trainer=trainer, seed=35,
                              procedure1=False, procedure2=False,
                              weighting="fedavg-size")
    broadcast = server_init(2, 3, 35, config.init_scale)
    alone = {}
    for i, ds in enumerate((calm, wild)):
        with pytest.raises(DivergenceError) as raised:
            train_one(broadcast, ds, trainer, derive_seed(35, TRAIN, 1, i))
        alone[i] = str(raised.value)
    step = {i: int(message.split("global step ")[1].split(";")[0])
            for i, message in alone.items()}
    assert step[1] < step[0]
    with pytest.raises(DivergenceError) as raised:
        run_fedavg(config, [calm, wild])
    assert str(raised.value) == f"round 1, participant 0: {alone[0]}"


@pytest.mark.parametrize("procedure2", [True, False])
def test_bad_demand_cap_rejected_on_construction(procedure2):
    # Rejected before any fold model trains, and also where no exchange runs.
    with pytest.raises(ValueError, match="demand_cap must be 'size' or 'z', got 'bogus'"):
        FederationConfig(rounds=1, trainer=TrainerConfig(), seed=1,
                         procedure2=procedure2, demand_cap="bogus")


def test_duplicate_ids_rejected():
    base = synth_gaussian(2, 10, 2, 6.0, seed=12)
    config = FederationConfig(
        rounds=2,
        trainer=TrainerConfig(local_epochs=1, batch_size=8),
        seed=12, procedure1=False, procedure2=False, weighting="fedavg-size",
    )
    with pytest.raises(ValueError):
        run_fedavg(config, [base, base])


def test_run_takes_its_participants_from_the_datasets():
    trainer = TrainerConfig(local_epochs=1, batch_size=8)
    config = FederationConfig(rounds=1, trainer=trainer, seed=12, **FEDAVG)
    with pytest.raises(ValueError, match="a run needs at least one participant dataset"):
        run_fednl(config, [])
    parts = partition_non_iid(synth_gaussian(2, 12, 2, 6.0, seed=12), 3, seed=12,
                              strategy=ShuffleSplit())
    assert len(run_fednl(config, parts).records[0].epsilon) == 3


def test_shared_ids_name_the_first_dataset_that_repeats_one():
    def holding(*ids):
        return make_dataset(np.zeros((len(ids), 2)), [0] * len(ids), c=3, ids=list(ids))

    parts = [holding(9, 1, 5, 2, 3), holding(20, 21), holding(30, 21, 9, 8, 3, 1, 5, 2, 40),
             holding(1)]
    # Participant 2 is the first to repeat an earlier id: six of them, the
    # first five named in order.
    with pytest.raises(ValueError) as info:
        engine._check_disjoint_ids(parts, None)
    assert str(info.value) == ("instance ids are shared across datasets: [1, 2, 3, 5, 9]; "
                               "give each source its own id_base")
    with pytest.raises(ValueError) as info:
        engine._check_disjoint_ids(parts[:2], holding(50, 21, 20))
    assert str(info.value) == ("instance ids are shared across datasets: [20, 21]; "
                               "give each source its own id_base")
    engine._check_disjoint_ids(parts[:2], holding(50, 60))
