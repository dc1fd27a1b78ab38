"""How many communication rounds a precision target costs.

Measures the constants the bound needs (smoothness, gradient variance,
heterogeneity, initial gap) from one locally-trained round on synthetic
federated data, then tabulates the round estimate over precision targets
and local-epoch counts.
"""

from dataclasses import replace

import numpy as np

from fednl import (
    Constant,
    RoundParams,
    ShuffleSplit,
    TrainerConfig,
    compute_B,
    concat_datasets,
    estimate_rounds,
    measure_b_components,
    measure_init_gap,
    measure_smoothness,
    partition_non_iid,
    server_init,
    synth_gaussian,
    train_local,
)
from fednl._rng import derive_seed, TRAIN

SEED = 13


def main():
    base = synth_gaussian(3, per_class=200, d=2, separation=4.0, seed=SEED)
    parts = [ds.training_view().in_space()
             for ds in partition_non_iid(base, 3, seed=SEED, strategy=ShuffleSplit())]
    trainer = TrainerConfig(local_epochs=5, batch_size=16,
                            lr_schedule=Constant(0.1), l2_lambda=0.01, seed=SEED)
    init = server_init(base.d, base.class_count, SEED, 0.01)

    # one local round per participant gives the models the variance terms
    # are measured at
    models = []
    for i, ds in enumerate(parts):
        model, _ = train_local(init, ds, replace(trainer, seed=derive_seed(SEED, TRAIN, i)))
        models.append(model)

    pooled = concat_datasets(parts, name="pooled")
    smooth = measure_smoothness(pooled, trainer, seed=SEED)
    comps = measure_b_components(parts, models, init, trainer, seed=SEED)
    w_star = comps.optimum
    gap = measure_init_gap(base.d, base.class_count, SEED, w_star.model)

    print(f"L = {smooth.L:.3f}, mu = {smooth.mu:.3f} ({smooth.provenance})")
    print(f"max sigma_i^2 = {max(comps.sigma_sq):.4f}, G^2 = {comps.G_sq:.4f}, "
          f"Gamma = {comps.Gamma:.4f}")
    print(f"optimum loss = {w_star.loss:.4f}, init gap = {gap:.4f}\n")

    uniform = np.full(len(parts), 1.0 / len(parts))
    print(f"{'E':>4} {'q_o':>8} {'B':>10} {'rounds':>12}")
    for epochs in (1, 5, 20):
        for q_o in (0.1, 0.01):
            B = compute_B(uniform, comps.sigma_sq, smooth.L, comps.Gamma,
                          epochs, comps.G_sq)
            est = estimate_rounds(smooth, RoundParams(epochs, q_o, B, gap))
            print(f"{epochs:>4} {q_o:>8.3g} {B:>10.3f} {est.rounds:>12,}")
    print("\ntighter targets cost rounds roughly linearly in 1/q_o; the")
    print("(E-1)^2 drift term in B makes extra local epochs expensive here")


if __name__ == "__main__":
    main()
