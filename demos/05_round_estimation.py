"""How many communication rounds a precision target costs.

Measures the constants the bound needs (smoothness, gradient variance,
heterogeneity, initial gap) from one locally-trained round on synthetic
federated data, then tabulates the round estimate over precision targets
and local-epoch counts.
"""

from fednl import (
    Constant,
    ShuffleSplit,
    TrainerConfig,
    measure_round_constants,
    partition_non_iid,
    synth_gaussian,
)

SEED = 13


def main():
    base = synth_gaussian(3, per_class=200, d=2, separation=4.0, seed=SEED)
    parts = partition_non_iid(base, 3, seed=SEED, strategy=ShuffleSplit())
    trainer = TrainerConfig(local_epochs=5, batch_size=16,
                            lr_schedule=Constant(0.1), l2_lambda=0.01)

    # one local round per participant gives the models the variance terms
    # are measured at
    constants = measure_round_constants(parts, trainer, SEED)
    smooth, comps = constants.smooth, constants.components

    print(f"L = {smooth.L:.3f} (measured), mu = {smooth.mu:.3f} (the L2 term)")
    print(f"max sigma_i^2 = {max(comps.sigma_sq):.4f}, G^2 = {comps.G_sq:.4f}, "
          f"Gamma = {comps.Gamma:.4f}")
    print(f"optimum loss = {comps.L_star:.4f}, init gap = {constants.init_gap:.4f}\n")

    print(f"{'E':>4} {'q_o':>8} {'B':>10} {'rounds':>12}")
    for epochs in (1, 5, 20):
        for q_o in (0.1, 0.01):
            B, est = constants.rounds(epochs, q_o)
            print(f"{epochs:>4} {q_o:>8.3g} {B:>10.3f} {est.rounds:>12,}")
    print("\ntighter targets cost rounds roughly linearly in 1/q_o; the")
    print("(E-1)^2 drift term in B makes extra local epochs expensive here")


if __name__ == "__main__":
    main()
