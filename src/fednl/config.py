"""Experiment configuration: a flat key = value text format with a strict schema.

Unknown keys are rejected and every problem is reported in one pass, because
a silently ignored typo in an experiment config is worse than a crash. The
same module turns a validated config into domain objects (datasets,
transition matrix, trainer and federation configs) so the command-line layer
stays thin.
"""

from dataclasses import dataclass
from pathlib import Path

from ._rng import INJECT, SYNTH, derive_seed
from .data import (ColumnSchema, Dataset, LabelSkew, ShuffleSplit, load_dataset,
                   partition_non_iid, synth_gaussian)
from .engine import FederationConfig
from .noise import TransitionMatrix, asymmetric_matrix, inject_noise, symmetric_matrix, with_out_of_space
from .trainer import Constant, Diminishing, TrainerConfig


class ConfigError(ValueError):
    """One or more configuration problems; ``errors`` lists them all."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors))


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def parse_flip_rules(raw: str) -> list[tuple[int, int, float]]:
    """Asymmetric flip rules: 'src>dst:mass' entries, comma-separated."""
    pairs = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            arrow, mass = chunk.split(":")
            src, dst = arrow.split(">")
            pairs.append((int(src), int(dst), float(mass)))
        except ValueError:
            raise ValueError(f"bad flip rule {chunk!r}; expected src>dst:mass") from None
    if not pairs:
        raise ValueError("no flip rules given")
    return pairs


def _parse_int_list(raw: str) -> list[int]:
    return [int(v) for v in raw.split(",") if v.strip()]


def _parse_float_list(raw: str) -> list[float]:
    return [float(v) for v in raw.split(",") if v.strip()]


def _identity(raw: str) -> str:
    return raw.strip()


def _choice(*options):
    def parse(raw: str) -> str:
        value = raw.strip()
        if value not in options:
            raise ValueError(f"must be one of {', '.join(options)}; got {value!r}")
        return value
    return parse


def _ranged(kind, low=None, high=None, low_open=False, high_open=False):
    def parse(raw: str):
        value = kind(raw)
        if low is not None and (value <= low if low_open else value < low):
            raise ValueError(f"must be {'>' if low_open else '>='} {low}, got {value}")
        if high is not None and (value >= high if high_open else value > high):
            raise ValueError(f"must be {'<' if high_open else '<='} {high}, got {value}")
        return value
    return parse


#: key -> (parser, default). Defaults of None mean "unset"; required keys
#: have the sentinel _REQUIRED and must appear in the file.
_REQUIRED = object()

_SCHEMA = {
    "seed": (_ranged(int, low=0), _REQUIRED),
    "output": (_identity, "run"),
    "algorithm": (_choice("fednl", "fedavg"), "fednl"),
    "participants": (_ranged(int, low=1), 4),
    "rounds": (_ranged(int, low=1), 10),

    "data.source": (_choice("synth", "file"), "synth"),
    "data.path": (_identity, None),
    "data.classes": (_ranged(int, low=2), 3),
    "data.per_class": (_ranged(int, low=1), 200),
    "data.dim": (_ranged(int, low=1), 2),
    "data.separation": (_ranged(float, low=0.0, low_open=True), 8.0),

    "partition.strategy": (_choice("shuffle-split", "label-skew"), "shuffle-split"),
    "partition.k_major": (_ranged(int, low=1), 1),
    "partition.skew": (_ranged(float, low=0.0, high=1.0), 0.8),

    "server.source": (_choice("synth", "file", "none"), "synth"),
    "server.path": (_identity, None),
    "server.per_class": (_ranged(int, low=1), 200),
    "server.test_fraction": (_ranged(float, low=0.0, high=1.0, high_open=True), 0.2),

    "noise.kind": (_choice("none", "symmetric", "asymmetric"), "none"),
    "noise.beta": (_ranged(float, low=0.0, high=1.0, high_open=True), 0.2),
    "noise.pairs": (parse_flip_rules, None),
    "noise.out_of_space": (_ranged(float, low=0.0, high=1.0, high_open=True), 0.0),
    "noise.participants": (_identity, "all"),

    "trainer.local_epochs": (_ranged(int, low=1), 5),
    "trainer.batch_size": (_ranged(int, low=1), 32),
    "trainer.l2_lambda": (_ranged(float, low=0.0), 0.01),
    "trainer.schedule": (_choice("constant", "diminishing"), "constant"),
    "trainer.eta": (_ranged(float, low=0.0, low_open=True), 0.1),
    "trainer.theta": (_ranged(float, low=0.0, low_open=True), None),
    "trainer.alpha": (_ranged(float, low=0.0, low_open=True), None),

    "pipeline.procedure1": (_parse_bool, True),
    "pipeline.procedure2": (_parse_bool, True),
    "pipeline.weighting": (_choice("fednl", "fedavg-size"), "fednl"),
    "pipeline.freeze_epsilon": (_parse_bool, False),
    "pipeline.literal_noise_adjustment": (_parse_bool, False),
    "pipeline.matrix_norm_influence": (_parse_bool, False),
    "pipeline.demand_cap": (_choice("size", "z"), "size"),
    "pipeline.per_class_resplit": (_parse_bool, False),
    "pipeline.init_scale": (_ranged(float, low=0.0), 0.01),

    "rounds_grid.q_o": (_parse_float_list, [0.01]),
    "rounds_grid.local_epochs": (_parse_int_list, [20]),
    "rounds_grid.noise": (_parse_float_list, [0.0]),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated key-value view of one experiment file."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def echo(self) -> str:
        """Canonical re-serialization: every effective key, sorted."""
        lines = []
        for key in sorted(self.values):
            value = self.values[key]
            if value is None:
                continue
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, list):
                if value and isinstance(value[0], tuple):
                    value = ",".join(f"{s}>{d}:{m:g}" for s, d, m in value)
                else:
                    value = ",".join(f"{v:g}" if isinstance(v, float) else str(v) for v in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse and validate; all problems raise one ConfigError together."""
    errors = []
    values = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            errors.append(f"{source}:{line_no}: expected 'key = value', got {line!r}")
            continue
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _SCHEMA:
            errors.append(f"{source}:{line_no}: unknown key {key!r}")
            continue
        if key in values:
            errors.append(f"{source}:{line_no}: duplicate key {key!r}")
            continue
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(raw_value)
        except ValueError as e:
            errors.append(f"{source}:{line_no}: {key}: {e}")

    for key, (_, default) in _SCHEMA.items():
        if key in values:
            continue
        if default is _REQUIRED:
            errors.append(f"{source}: missing required key {key!r}")
        else:
            values[key] = default

    if not errors:
        errors.extend(_cross_validate(values))
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(values=values)


def _cross_validate(values: dict) -> list[str]:
    errors = []
    if values["data.source"] == "file":
        if values["data.path"] is None:
            errors.append("data.path is required when data.source = file")
        elif not Path(values["data.path"]).exists():
            errors.append(f"data.path does not exist: {values['data.path']}")
    if values["server.source"] == "file":
        if values["server.path"] is None:
            errors.append("server.path is required when server.source = file")
        elif not Path(values["server.path"]).exists():
            errors.append(f"server.path does not exist: {values['server.path']}")
    if values["noise.kind"] == "asymmetric" and values["noise.pairs"] is None:
        errors.append("noise.pairs is required when noise.kind = asymmetric")
    if values["trainer.schedule"] == "diminishing":
        if values["trainer.alpha"] is None:
            errors.append("trainer.alpha is required when trainer.schedule = diminishing")
        if values["trainer.theta"] is None and values["trainer.l2_lambda"] <= 0.0:
            errors.append("trainer.theta defaults to 2/l2_lambda; give theta or a positive l2_lambda")
    if values["noise.participants"] != "all":
        try:
            indices = _parse_int_list(values["noise.participants"])
            bad = [i for i in indices if not 0 <= i < values["participants"]]
            if bad:
                errors.append(f"noise.participants indices out of range: {bad}")
        except ValueError:
            errors.append("noise.participants must be 'all' or a comma-separated index list")
    if (values["algorithm"] == "fednl" and values["pipeline.procedure2"]
            and values["server.source"] == "none"):
        errors.append("pipeline.procedure2 needs a server dataset; set server.source")
    if (values["algorithm"] == "fednl" and values["pipeline.weighting"] == "fednl"
            and values["server.source"] == "none"):
        errors.append("pipeline.weighting = fednl needs a server dataset; set server.source")
    for key in ("rounds_grid.q_o", "rounds_grid.local_epochs", "rounds_grid.noise"):
        if not values[key]:
            errors.append(f"{key} must list at least one value")
    return errors


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    return parse_config_text(path.read_text(), source=str(path))


def noisy_participant_indices(config: ExperimentConfig) -> list[int]:
    raw = config["noise.participants"]
    if raw == "all":
        return list(range(config["participants"]))
    return _parse_int_list(raw)


def build_transition_matrix(config: ExperimentConfig) -> TransitionMatrix | None:
    kind = config["noise.kind"]
    if kind == "none":
        return None
    if kind == "symmetric":
        matrix = symmetric_matrix(config["data.classes"], config["noise.beta"])
    else:
        matrix = asymmetric_matrix(config["data.classes"], config["noise.pairs"])
    if config["noise.out_of_space"] > 0.0:
        matrix = with_out_of_space(matrix, config["noise.out_of_space"])
    return matrix


def build_trainer_config(config: ExperimentConfig) -> TrainerConfig:
    if config["trainer.schedule"] == "constant":
        schedule = Constant(config["trainer.eta"])
    else:
        theta = config["trainer.theta"]
        if theta is None:
            theta = 2.0 / config["trainer.l2_lambda"]
        schedule = Diminishing(theta=theta, alpha=config["trainer.alpha"])
    return TrainerConfig(
        local_epochs=config["trainer.local_epochs"],
        batch_size=config["trainer.batch_size"],
        lr_schedule=schedule,
        l2_lambda=config["trainer.l2_lambda"],
    )


def build_federation_config(config: ExperimentConfig) -> FederationConfig:
    return FederationConfig(
        n_participants=config["participants"],
        rounds=config["rounds"],
        trainer=build_trainer_config(config),
        seed=config["seed"],
        run_procedure1=config["pipeline.procedure1"],
        run_procedure2=config["pipeline.procedure2"],
        weighting=config["pipeline.weighting"],
        server_test_fraction=config["server.test_fraction"],
        freeze_epsilon=config["pipeline.freeze_epsilon"],
        literal_noise_adjustment=config["pipeline.literal_noise_adjustment"],
        matrix_norm_influence=config["pipeline.matrix_norm_influence"],
        demand_cap=config["pipeline.demand_cap"],
        per_class_resplit=config["pipeline.per_class_resplit"],
        init_scale=config["pipeline.init_scale"],
    )


def build_datasets(config: ExperimentConfig) -> tuple[list[Dataset], Dataset | None]:
    """Materialize participant datasets (noise applied) and the server dataset.

    Server ids start after the largest participant id so every instance id in
    the experiment is unique.
    """
    seed = config["seed"]
    if config["data.source"] == "synth":
        base = synth_gaussian(
            c=config["data.classes"],
            per_class=config["data.per_class"],
            d=config["data.dim"],
            separation=config["data.separation"],
            seed=seed,
            name="participants",
        )
    else:
        base = load_dataset(config["data.path"], ColumnSchema(allow_out_of_space=True))
    if config["partition.strategy"] == "shuffle-split":
        strategy = ShuffleSplit()
    else:
        strategy = LabelSkew(k_major=config["partition.k_major"], skew=config["partition.skew"])
    parts = partition_non_iid(base, config["participants"], seed, strategy)

    matrix = build_transition_matrix(config)
    if matrix is not None:
        noisy = set(noisy_participant_indices(config))
        parts = [
            inject_noise(ds, matrix, derive_seed(seed, INJECT, i))[0] if i in noisy else ds
            for i, ds in enumerate(parts)
        ]

    server = None
    if config["server.source"] != "none":
        id_base = int(base.ids.max()) + 1 if base.n else 0
        if config["server.source"] == "synth":
            server = synth_gaussian(
                c=config["data.classes"],
                per_class=config["server.per_class"],
                d=config["data.dim"],
                separation=config["data.separation"],
                seed=derive_seed(seed, SYNTH, 1),
                name="server",
                id_base=id_base,
            )
        else:
            server = load_dataset(config["server.path"], ColumnSchema(), id_base=id_base)
    return parts, server
