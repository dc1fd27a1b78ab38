"""Per-class noise-ratio estimation via three-fold cross-prediction."""

import numpy as np
import pytest

from fednl import (
    OUT_OF_SPACE,
    ClassEstimate,
    EstimationError,
    NoiseEstimate,
    TrainerConfig,
    classify_instance,
    estimate_noise,
    estimate_to_dict,
    format_estimate,
    init_model,
    inject_noise,
    predict,
    symmetric_matrix,
    synth_gaussian,
)
from fednl._rng import ESTIMATE, FOLDS, derive_rng, derive_seed

from conftest import make_dataset, train_one

ESTIMATE_CONFIG = TrainerConfig(local_epochs=20, batch_size=32, l2_lambda=0.01)


def flipped_ids(clean, noisy):
    changed = noisy.observed_labels != clean.observed_labels
    return set(noisy.ids[changed].tolist())


def removed_ids(estimate):
    out = set()
    for ce in estimate.per_class:
        out.update(ce.removed_ids)
    out.update(estimate.out_of_space_ids)
    return out


# ---------------------------------------------------------------- agreement rule

def test_agreement_rule_unanimous_is_noise_free():
    assert classify_instance(0, 0, 0)


def test_agreement_rule_existing_disagrees():
    assert not classify_instance(0, 1, 1)


def test_agreement_rule_single_disagreement():
    assert not classify_instance(2, 2, 1)


def test_agreement_rule_on_arrays():
    existing = np.array([0, 0, 2, 2])
    verdict = classify_instance(existing, np.array([0, 1, 2, 2]), np.array([0, 1, 1, 2]))
    np.testing.assert_array_equal(verdict, [True, False, False, True])


# ---------------------------------------------------------------- estimation

def test_clean_data_low_beta():
    ds = synth_gaussian(3, 60, 2, 8.0, seed=1)
    estimate = estimate_noise(ds.training_view(), ESTIMATE_CONFIG, seed=1)
    for ce in estimate.per_class:
        assert ce.beta <= 0.05
    assert estimate.beta_mean <= 0.05
    if estimate.beta_min == estimate.per_class[0].beta:
        # ties resolve to the lowest class id
        assert estimate.best_class == 0


def test_symmetric_noise_recovered():
    clean = synth_gaussian(3, 200, 2, 8.0, seed=2)
    noisy, _ = inject_noise(clean, symmetric_matrix(3, 0.2), seed=2)
    estimate = estimate_noise(noisy.training_view(), ESTIMATE_CONFIG, seed=2)
    assert abs(estimate.beta_mean - 0.2) <= 0.05
    actual = flipped_ids(clean, noisy)
    flagged = removed_ids(estimate)
    both = flagged & actual
    assert len(both) / max(len(flagged), 1) >= 0.8   # precision
    assert len(both) / max(len(actual), 1) >= 0.8    # recall


def test_consistent_relabel_is_invisible():
    # a bijective class rename is self-consistent: fold models learn the
    # renamed mapping and agree with it, so nothing is flagged
    clean = synth_gaussian(3, 100, 2, 8.0, seed=3)
    shifted = make_dataset(
        clean.features,
        (clean.observed_labels + 1) % 3,
        c=3,
        ids=clean.ids,
    )
    estimate = estimate_noise(shifted, ESTIMATE_CONFIG, seed=3)
    assert estimate.beta_mean <= 0.05


def test_structureless_labels_mostly_flagged():
    # labels independent of the features leave the folds nothing to agree on
    clean = synth_gaussian(3, 100, 2, 8.0, seed=0)
    rng = np.random.default_rng(0)
    scrambled = make_dataset(
        clean.features,
        rng.integers(0, 3, size=clean.n),
        c=3,
        ids=clean.ids,
    )
    estimate = estimate_noise(scrambled, ESTIMATE_CONFIG, seed=0)
    assert estimate.beta_mean >= 0.75


def test_beta_monotone_in_injected_noise():
    wins = 0
    for seed in range(5):
        clean = synth_gaussian(3, 150, 2, 8.0, seed=seed)
        low, _ = inject_noise(clean, symmetric_matrix(3, 0.1), seed=seed)
        high, _ = inject_noise(clean, symmetric_matrix(3, 0.35), seed=seed)
        b_low = estimate_noise(low.training_view(), ESTIMATE_CONFIG, seed=seed).beta_mean
        b_high = estimate_noise(high.training_view(), ESTIMATE_CONFIG, seed=seed).beta_mean
        if b_high > b_low:
            wins += 1
    assert wins >= 3


def test_too_small_dataset_rejected():
    ds = make_dataset([[0.0], [1.0]], [0, 1], c=2)
    with pytest.raises(EstimationError):
        estimate_noise(ds, ESTIMATE_CONFIG, seed=0)


def test_out_of_space_goes_to_removed_pool():
    ds = synth_gaussian(3, 20, 2, 8.0, seed=4)
    labels = ds.observed_labels.copy()
    labels[:4] = OUT_OF_SPACE
    tagged = make_dataset(ds.features, labels, c=3, ids=ds.ids)
    estimate = estimate_noise(tagged, ESTIMATE_CONFIG, seed=4)
    assert set(estimate.out_of_space_ids) == set(ds.ids[:4].tolist())
    kept = set()
    for ce in estimate.per_class:
        kept.update(ce.noise_free_ids)
        kept.update(ce.removed_ids)
    assert kept.isdisjoint(estimate.out_of_space_ids)


def test_empty_class_flagged_zero_beta():
    ds = synth_gaussian(2, 30, 2, 8.0, seed=5)
    widened = make_dataset(ds.features, ds.observed_labels, c=3, ids=ds.ids)
    estimate = estimate_noise(widened, ESTIMATE_CONFIG, seed=5)
    third = estimate.per_class[2]
    assert third.empty
    assert third.beta == 0.0
    assert third.size == 0


def test_minimum_and_mean_definitions():
    clean = synth_gaussian(3, 120, 2, 8.0, seed=6)
    noisy, _ = inject_noise(clean, symmetric_matrix(3, 0.25), seed=6)
    estimate = estimate_noise(noisy.training_view(), ESTIMATE_CONFIG, seed=6)
    betas = [ce.beta for ce in estimate.per_class]
    assert estimate.beta_min == min(betas)
    assert estimate.best_class == int(np.argmin(betas))
    assert estimate.beta_mean == pytest.approx(np.mean(betas), abs=1e-12)
    for ce in estimate.per_class:
        assert ce.beta == pytest.approx(len(ce.removed_ids) / ce.size, abs=1e-15)
        assert len(ce.noise_free_ids) + len(ce.removed_ids) == ce.size


def test_every_instance_lands_in_exactly_one_pool():
    ds = synth_gaussian(3, 45, 2, 8.0, seed=7)
    estimate = estimate_noise(ds.training_view(), ESTIMATE_CONFIG, seed=7)
    seen = []
    for ce in estimate.per_class:
        seen.extend(ce.noise_free_ids)
        seen.extend(ce.removed_ids)
    seen.extend(estimate.out_of_space_ids)
    assert sorted(seen) == sorted(ds.ids.tolist())
    assert estimate.trainings == 3


def test_estimation_deterministic():
    ds = synth_gaussian(3, 90, 2, 8.0, seed=8)
    noisy, _ = inject_noise(ds, symmetric_matrix(3, 0.3), seed=8)
    a = estimate_noise(noisy.training_view(), ESTIMATE_CONFIG, seed=8)
    b = estimate_noise(noisy.training_view(), ESTIMATE_CONFIG, seed=8)
    for ca, cb in zip(a.per_class, b.per_class):
        assert ca.noise_free_ids == cb.noise_free_ids
        assert ca.removed_ids == cb.removed_ids


def test_per_class_resplit_variant_runs():
    ds = synth_gaussian(3, 60, 2, 8.0, seed=9)
    estimate = estimate_noise(ds.training_view(), ESTIMATE_CONFIG, seed=9,
                              per_class_resplit=True)
    assert estimate.trainings == 9  # three trainings per class
    assert estimate.beta_mean <= 0.1


def test_report_serialization_smoke():
    ds = synth_gaussian(3, 30, 2, 8.0, seed=10)
    estimate = estimate_noise(ds.training_view(), ESTIMATE_CONFIG, seed=10)
    payload = estimate_to_dict(estimate)
    assert "per_class" in payload and len(payload["per_class"]) == 3
    text = format_estimate(estimate)
    assert "class" in text


# ---------------------------------------------------------------- per-id reference

def reference_cross_predict(dataset, trainer_config, seed_keys):
    """Cross-prediction with per-fold datasets and an id -> (pred, pred) dict."""
    n = dataset.n
    order = derive_rng(derive_seed(*seed_keys, 0), FOLDS).permutation(n)
    folds, start = [], 0
    for q in range(3):
        size = n // 3 + (1 if q < n % 3 else 0)
        folds.append(dataset.take(np.sort(order[start:start + size])))
        start += size
    preds = {int(i): [] for i in dataset.ids}
    for j, fold in enumerate(folds):
        model = init_model(dataset.d, dataset.class_count)
        model, _ = train_one(model, fold.training_view(), trainer_config,
                             derive_seed(*seed_keys, 1 + j))
        for other in (folds[(j + 1) % 3], folds[(j + 2) % 3]):
            labels = predict(model, other.features)
            for pos in range(other.n):
                preds[int(other.ids[pos])].append(int(labels[pos]))
    for instance_id, got in preds.items():
        assert len(got) == 2, f"instance {instance_id} got {len(got)} predictions"
    return {i: (p[0], p[1]) for i, p in preds.items()}


def reference_score_class(dataset, k, preds):
    """One class's split, deciding each row by id."""
    rows = np.flatnonzero(dataset.observed_labels == k)
    if rows.size == 0:
        return ClassEstimate(class_id=k, size=0, noise_free_ids=(), removed_ids=(),
                             beta=0.0, empty=True)
    kept, removed = [], []
    for pos in rows:
        instance_id = int(dataset.ids[pos])
        p1, p2 = preds[instance_id]
        (kept if k == p1 == p2 else removed).append(instance_id)
    return ClassEstimate(class_id=k, size=int(rows.size), noise_free_ids=tuple(kept),
                         removed_ids=tuple(removed), beta=len(removed) / rows.size)


def reference_estimate(dataset, trainer_config, seed, per_class_resplit=False):
    in_space = dataset.in_space()
    c = dataset.class_count
    # A class with no rows is scored without predictions, so it costs no trainings.
    present = [k for k in range(c) if np.any(in_space.observed_labels == k)]
    if per_class_resplit:
        estimates = [reference_score_class(
            in_space, k, reference_cross_predict(in_space, trainer_config, (seed, ESTIMATE, 1, k))
            if k in present else None)
            for k in range(c)]
    else:
        preds = reference_cross_predict(in_space, trainer_config, (seed, ESTIMATE, 0))
        estimates = [reference_score_class(in_space, k, preds) for k in range(c)]
    betas = np.array([e.beta for e in estimates])
    best = int(np.argmin(betas))
    return NoiseEstimate(
        per_class=tuple(estimates),
        beta_min=float(betas[best]),
        best_class=best,
        beta_mean=float(betas.mean()),
        out_of_space_ids=tuple(int(i) for i in dataset.out_of_space_ids()),
        trainings=3 * len(present) if per_class_resplit else 3,
    )


@pytest.mark.parametrize("per_class_resplit", [False, True])
def test_estimate_matches_per_id_reference(per_class_resplit):
    # Noisy labels with truth kept, five out-of-space rows and an empty
    # fourth class; ids out of row order so that id and position differ.
    clean = synth_gaussian(3, 40, 2, 6.0, seed=12, id_base=500)
    noisy, _ = inject_noise(clean, symmetric_matrix(3, 0.3), seed=12)
    order = np.random.default_rng(12).permutation(noisy.n)
    labels = noisy.observed_labels[order].copy()
    labels[:5] = OUT_OF_SPACE
    dataset = make_dataset(noisy.features[order], labels, c=4, ids=noisy.ids[order],
                           true_labels=noisy.true_labels[order])
    got = estimate_noise(dataset, ESTIMATE_CONFIG, seed=12,
                         per_class_resplit=per_class_resplit)
    want = reference_estimate(dataset, ESTIMATE_CONFIG, 12,
                              per_class_resplit=per_class_resplit)
    assert got.per_class[3].empty
    assert got.trainings == (9 if per_class_resplit else 3)
    assert len(got.out_of_space_ids) == 5
    assert 0 < got.beta_mean
    assert got == want
