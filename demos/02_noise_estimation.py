"""Per-participant noise-ratio estimation by three-fold cross-prediction.

Each instance is predicted by the two fold models not trained on it; an
instance counts as noise-free only when both predictions agree with the
observed label. The per-class disagreement fraction estimates the noise
ratio without ever seeing ground truth.
"""

from fednl import (
    Constant,
    TrainerConfig,
    estimate_noise,
    inject_noise,
    symmetric_matrix,
    synth_gaussian,
)

TRUE_BETA = 0.2


def main():
    clean = synth_gaussian(3, per_class=200, d=2, separation=8.0, seed=7)
    noisy, _ = inject_noise(clean, symmetric_matrix(3, TRUE_BETA), seed=7)

    # what the estimator gets to see: observed labels only
    view = noisy.training_view()
    config = TrainerConfig(local_epochs=20, batch_size=32,
                           lr_schedule=Constant(0.1), l2_lambda=0.01)
    estimate = estimate_noise(view, config, seed=7)

    print(f"injected symmetric noise: beta = {TRUE_BETA}")
    print(f"fold trainings: {estimate.trainings}")
    print(f"{'class':>5} {'size':>6} {'kept':>6} {'removed':>8} {'beta_ik':>8}")
    for ce in estimate.per_class:
        print(f"{ce.class_id:>5} {ce.size:>6} {len(ce.noise_free_ids):>6} "
              f"{len(ce.removed_ids):>8} {ce.beta:>8.3f}")
    print(f"beta_mean = {estimate.beta_mean:.3f}   "
          f"z (min over classes) = {estimate.beta_min:.3f} at class {estimate.best_class}")

    # we kept ground truth on the side, so score the removal decision
    flipped = set(noisy.ids[noisy.observed_labels != noisy.true_labels].tolist())
    removed = set(estimate.removed_ids)
    hits = len(removed & flipped)
    print(f"removal precision {hits / len(removed):.3f}, recall {hits / len(flipped):.3f} "
          f"against the injection record")


if __name__ == "__main__":
    main()
