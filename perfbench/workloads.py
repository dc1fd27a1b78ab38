"""The benchmark's workloads: fixed fednl configs whose seed the caller picks.

Each workload is one CLI command on one config. `expected` lists the spans
that must record calls in a traced run; a refactor that moves a call site
then fails the benchmark instead of reporting a silent zero.
"""

from dataclasses import dataclass

#: Layers every command goes through.
_COMMON = ("cli.main", "config.build_datasets", "data.synth_gaussian",
           "data.partition_non_iid")
_LOOP = _COMMON + ("engine.run", "trainer.train_local.loop", "engine.aggregate",
                   "metrics.evaluate", "noise.inject_noise")
_FEDNL = _LOOP + ("trainer.train_local.estimate", "contribution.influence",
                  "trainer.loss.influence", "estimator.estimate_noise",
                  "exchange.normalize_noise", "data.Dataset.by_ids", "data.Dataset.take")


@dataclass(frozen=True)
class Workload:
    why: str
    command: str  # "run" or "rounds"
    keys: dict
    expected: tuple = ()

    def config_text(self, seed: int) -> str:
        lines = [f"seed = {seed}"] + [f"{key} = {value}" for key, value in self.keys.items()]
        return "\n".join(lines) + "\n"


#: ROADMAP item 4's scenario: 10 participants, c=10, d=20, half of them noisy.
_DEEP = {
    "participants": 10,
    "rounds": 100,
    "data.classes": 10,
    "data.dim": 20,
    "data.separation": 3,
    "data.per_class": 500,
    "server.per_class": 200,
    "noise.kind": "symmetric",
    "noise.beta": 0.5,
    "noise.participants": "0,1,2,3,4",
}

WORKLOADS = {
    "fednl_deep": Workload(
        why="full pipeline on 10 x 500 instances, c=10, d=20: local SGD dominates",
        command="run",
        keys=_DEEP,
        expected=_FEDNL,
    ),
    "fedavg_deep": Workload(
        why="same inputs on the separate run_fedavg loop: no estimation, exchange or "
            "influence, so only SGD and loop changes show",
        command="run",
        # Full 500-instance shards make a round ~2.5x fednl_deep's; fewer
        # rounds keep repeats of similar length.
        keys={**_DEEP, "algorithm": "fedavg", "rounds": 40},
        expected=_LOOP,
    ),
    "fednl_wide": Workload(
        why="160 participants of 75 instances, c=3, d=2: O(n^2) leave-one-out influence, "
            "320 estimates, 160 exchanges and many short SGD calls",
        command="run",
        keys={
            "participants": 160,
            "rounds": 12,
            "data.classes": 3,
            "data.dim": 2,
            "data.separation": 4,
            "data.per_class": 4000,
            "server.per_class": 400,
            "noise.kind": "symmetric",
            "noise.beta": 0.4,
            "noise.participants": ",".join(str(i) for i in range(40)),
            "trainer.local_epochs": 2,
        },
        expected=_FEDNL,
    ),
    "rounds_grid": Workload(
        why="fednl rounds on fednl_deep's data: L-BFGS optima, smoothness and B "
            "measurements, full-batch gradients and many Dataset.take calls",
        command="rounds",
        keys={
            **{k: v for k, v in _DEEP.items() if k != "rounds"},
            # `fednl rounds` builds clean data and injects the grid's own noise.
            "noise.kind": "none",
            "rounds_grid.noise": "0, 0.3",
            "rounds_grid.local_epochs": "5, 20",
            "rounds_grid.q_o": "0.1, 0.01",
        },
        expected=_COMMON + ("rounds.solve_optimum", "rounds.measure_b_components",
                            "rounds.measure_smoothness", "trainer.gradient.rounds",
                            "trainer.loss.rounds", "data.Dataset.take",
                            "noise.inject_noise"),
    ),
}
