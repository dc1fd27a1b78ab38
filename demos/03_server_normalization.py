"""Server-assisted normalization of skewed per-class noise.

A participant whose classes are corrupted unevenly ends up with unbalanced
noise-free sets. The server grants every demanding class the same number of
clean instances (the minimum it can afford across them), which evens the
per-class ratios out; the re-run estimate confirms it.
"""

from fednl import (
    Constant,
    TrainerConfig,
    asymmetric_matrix,
    estimate_noise,
    inject_noise,
    normalize_noise,
    reestimate_seed,
    synth_gaussian,
)


def spread(estimate):
    betas = [ce.beta for ce in estimate.per_class]
    return max(betas) - min(betas)


def main():
    clean = synth_gaussian(3, per_class=150, d=2, separation=8.0, seed=4)
    # class 0 stays mostly clean, classes 1 and 2 lose 30% into class 0
    channel = asymmetric_matrix(3, [(0, 1, 0.1), (1, 0, 0.3), (2, 0, 0.3)])
    noisy, _ = inject_noise(clean, channel, seed=4)
    server = synth_gaussian(3, per_class=400, d=2, separation=8.0,
                            seed=1004, id_base=10_000)

    view = noisy.training_view()
    config = TrainerConfig(local_epochs=20, batch_size=32,
                           lr_schedule=Constant(0.1), l2_lambda=0.01)
    before = estimate_noise(view, config, seed=4)
    print("per-class ratios before exchange:",
          [round(ce.beta, 3) for ce in before.per_class])
    print(f"spread {spread(before):.3f}, threshold z = {before.beta_min:.3f}")

    result = normalize_noise(view, before, server, seed=4)
    t = result.transcript
    print(f"\ndemands (class: count): { {k: v for k, v in sorted(t.demands.items())} }")
    print(f"granted after stock check: {list(t.delta1)}")
    print(f"uniform grant u = {t.u}")

    after = estimate_noise(result.dataset, config, seed=reestimate_seed(4, 3))
    print("\nper-class ratios after exchange: ",
          [round(ce.beta, 3) for ce in after.per_class])
    print(f"spread {spread(before):.3f} -> {spread(after):.3f}")
    print(f"training set {view.n} -> {result.dataset.n} instances "
          f"(removals gone, server transfers in)")


if __name__ == "__main__":
    main()
