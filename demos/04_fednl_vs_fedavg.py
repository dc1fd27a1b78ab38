"""Noise-aware federation against plain FedAvg, one corrupted participant.

Four participants split the same blobs; participant 0's labels go through a
beta=0.5 symmetric channel. The full pipeline estimates the noise, swaps in
clean server instances, and shifts aggregation weight away from the damage.
FedAvg averages by size and takes the corruption at face value.
"""

import numpy as np

from fednl import (
    FederationConfig,
    ShuffleSplit,
    TrainerConfig,
    inject_noise,
    partition_non_iid,
    run_fedavg,
    run_fednl,
    symmetric_matrix,
    synth_gaussian,
)

SEED = 1


def main():
    base = synth_gaussian(3, per_class=100, d=2, separation=4.0, seed=SEED)
    parts = partition_non_iid(base, 4, seed=SEED, strategy=ShuffleSplit())
    noisy, _ = inject_noise(parts[0], symmetric_matrix(3, 0.5), seed=SEED)
    parts = [noisy] + parts[1:]
    server = synth_gaussian(3, per_class=400, d=2, separation=4.0,
                            seed=700 + SEED, id_base=10_000)

    trainer = TrainerConfig(local_epochs=5, batch_size=32)
    config = FederationConfig(rounds=30, trainer=trainer, seed=SEED, weighting="fednl")

    aware = run_fednl(config, parts, server)
    # The same config with FedAvg's fields: no estimation, no exchange,
    # size weighting.
    avg = run_fedavg(config, parts, server)

    print(f"estimated noise ratios: {[round(b, 3) for b in aware.betas]}")
    print(f"training sizes after exchange: {list(aware.training_sizes)}")
    print(f"\n{'t':>3} {'weight on noisy':>16} {'aware acc':>10} {'fedavg acc':>11}")
    for ra, rb in zip(aware.records, avg.records):
        if ra.t % 5 and ra.t != 1:
            continue
        print(f"{ra.t:>3} {ra.epsilon[0]:>16.3f} {ra.global_accuracy:>10.3f} "
              f"{rb.global_accuracy:>11.3f}")

    fa = aware.final_metrics
    fb = avg.final_metrics
    print(f"\nfinal: noise-aware acc {fa.accuracy:.3f} / macro F1 {fa.macro_f1:.3f}, "
          f"fedavg acc {fb.accuracy:.3f} / macro F1 {fb.macro_f1:.3f}")
    uniform = 1.0 / 4
    print(f"noisy participant's weight ended at {aware.records[-1].epsilon[0]:.3f} "
          f"(uniform would be {uniform:.3f})")
    assert not np.isnan(fa.accuracy)


if __name__ == "__main__":
    main()
