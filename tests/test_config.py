"""Experiment-config parsing, validation, and dataset assembly."""

import numpy as np
import pytest

from fednl import LabelSkew, ShuffleSplit, partition_non_iid, synth_gaussian
from fednl.config import (
    _SCHEMA,
    ConfigError,
    build_datasets,
    build_federation_config,
    build_trainer_config,
    build_transition_matrix,
    load_config,
    noisy_participant_indices,
    parse_config_text,
    parse_flip_rules,
)
from fednl.engine import FEDAVG


MINIMAL = "seed = 7\n"


def test_minimal_config_fills_defaults():
    config = parse_config_text(MINIMAL)
    assert config["seed"] == 7
    assert config["algorithm"] == "fednl"
    assert config["participants"] == 4
    assert config["trainer.batch_size"] == 32
    assert config["noise.kind"] == "none"


def test_missing_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        parse_config_text("rounds = 5\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="definitely_not_a_key"):
        parse_config_text(MINIMAL + "definitely_not_a_key = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")


def test_all_errors_reported_at_once():
    bad = "noise.beta = 1.2\ntrainer.batch_size = 0\nbogus = 3\n"
    with pytest.raises(ConfigError) as info:
        parse_config_text(bad)
    text = str(info.value)
    assert "noise.beta" in text
    assert "trainer.batch_size" in text
    assert "bogus" in text
    assert len(info.value.errors) >= 4  # the three above plus missing seed


def test_out_of_range_value_names_field_and_line():
    with pytest.raises(ConfigError, match=r"noise\.beta"):
        parse_config_text("seed = 1\nnoise.beta = 1.2\n", source="exp.cfg")


def test_file_source_must_exist():
    text = "seed = 1\ndata.source = file\ndata.path = /nonexistent/never.csv\n"
    with pytest.raises(ConfigError, match="data.path"):
        parse_config_text(text)


def test_asymmetric_noise_needs_pairs():
    with pytest.raises(ConfigError, match="noise.pairs"):
        parse_config_text("seed = 1\nnoise.kind = asymmetric\n")


def test_empty_rounds_grid_rejected():
    with pytest.raises(ConfigError, match="rounds_grid"):
        parse_config_text("seed = 1\nrounds_grid.q_o =\n")


@pytest.mark.parametrize("line, message", [
    ("rounds_grid.noise = 0, -0.1", "rounds_grid.noise: must be >= 0.0, got -0.1"),
    ("rounds_grid.noise = nan", "rounds_grid.noise: must be finite, got nan"),
    ("rounds_grid.noise = 0.3, 1.0", "rounds_grid.noise: must be < 1.0, got 1.0"),
    ("rounds_grid.q_o = inf", "rounds_grid.q_o: must be finite, got inf"),
    ("rounds_grid.q_o = 0.1, -1", "rounds_grid.q_o: must be > 0.0, got -1.0"),
    ("rounds_grid.q_o = 0", "rounds_grid.q_o: must be > 0.0, got 0.0"),
    ("rounds_grid.local_epochs = 5, 0", "rounds_grid.local_epochs: must be >= 1, got 0"),
])
def test_bad_rounds_grid_value_rejected_at_load(line, message):
    with pytest.raises(ConfigError) as info:
        parse_config_text(MINIMAL + line + "\n", source="exp.cfg")
    assert info.value.errors == [f"exp.cfg:2: {message}"]


@pytest.mark.parametrize("line, message", [
    ("noise.beta = nan", "noise.beta: must be finite, got nan"),
    ("trainer.eta = inf", "trainer.eta: must be finite, got inf"),
    ("trainer.l2_lambda = nan", "trainer.l2_lambda: must be finite, got nan"),
    ("pipeline.init_scale = inf", "pipeline.init_scale: must be finite, got inf"),
    ("data.separation = inf", "data.separation: must be finite, got inf"),
    ("partition.skew = nan", "partition.skew: must be finite, got nan"),
])
def test_non_finite_scalar_float_rejected_at_load(line, message):
    # NaN passes every bound check and inf passes the one-sided ones.
    with pytest.raises(ConfigError) as info:
        parse_config_text(MINIMAL + line + "\n", source="exp.cfg")
    assert info.value.errors == [f"exp.cfg:2: {message}"]


@pytest.mark.parametrize("mass", ["nan", "inf"])
def test_non_finite_flip_mass_rejected_at_load(mass):
    text = MINIMAL + f"noise.kind = asymmetric\nnoise.pairs = 1>0:{mass}\n"
    with pytest.raises(ConfigError) as info:
        parse_config_text(text, source="exp.cfg")
    assert info.value.errors == [
        f"exp.cfg:3: noise.pairs: flip rule '1>0:{mass}' has a non-finite mass"]


def test_rounds_grid_values_parsed():
    config = parse_config_text(MINIMAL + "rounds_grid.noise = 0, 0.3\n"
                               "rounds_grid.q_o = 0.1, 1e-3\nrounds_grid.local_epochs = 1, 20\n")
    assert config["rounds_grid.noise"] == [0.0, 0.3]
    assert config["rounds_grid.q_o"] == [0.1, 0.001]
    assert config["rounds_grid.local_epochs"] == [1, 20]


def test_noise_participants_range_checked():
    text = "seed = 1\nparticipants = 3\nnoise.kind = symmetric\nnoise.participants = 0,5\n"
    with pytest.raises(ConfigError, match="noise.participants"):
        parse_config_text(text)


def test_flip_rule_parsing():
    rules = parse_flip_rules("1>0:0.3, 2>0:0.25")
    assert rules == [(1, 0, 0.3), (2, 0, 0.25)]
    with pytest.raises(ValueError):
        parse_flip_rules("1-0:0.3")


def test_echo_roundtrip():
    # List floats and flip masses print every digit, as scalar floats do.
    text = (
        "seed = 9\nalgorithm = fedavg\nnoise.kind = asymmetric\nnoise.beta = 0.3\n"
        "noise.pairs = 0>1:0.1234567\nrounds_grid.q_o = 0.00123456789, 0.5\n"
        "trainer.eta = 0.05\nrounds = 12\n"
    )
    config = parse_config_text(text)
    echoed = parse_config_text(config.echo())
    assert echoed.values == config.values
    assert echoed.echo() == config.echo()
    assert echoed["noise.pairs"] == [(0, 1, 0.1234567)]
    assert echoed["rounds_grid.q_o"] == [0.00123456789, 0.5]


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("seed = 3\nrounds = 2\n")
    config = load_config(path)
    assert config["seed"] == 3
    assert config["rounds"] == 2


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\nseed = 4\n   # indented comment\nrounds = 6\n"
    config = parse_config_text(text)
    assert config["rounds"] == 6


# ---------------------------------------------------------------- builders

def test_build_transition_matrix_kinds():
    none = parse_config_text("seed = 1\n")
    assert build_transition_matrix(none) is None
    sym = parse_config_text("seed = 1\nnoise.kind = symmetric\nnoise.beta = 0.2\n")
    matrix = build_transition_matrix(sym)
    assert matrix.probs[0, 0] == pytest.approx(0.8)
    asym = parse_config_text(
        "seed = 1\nnoise.kind = asymmetric\nnoise.pairs = 0>1:0.3\n"
    )
    matrix = build_transition_matrix(asym)
    assert matrix.probs[0, 1] == pytest.approx(0.3)


def test_build_trainer_config_diminishing_defaults_theta():
    text = "seed = 1\ntrainer.schedule = diminishing\ntrainer.alpha = 50\n"
    trainer = build_trainer_config(parse_config_text(text))
    # theta defaults to 2/l2_lambda
    assert trainer.lr_schedule.theta == pytest.approx(2.0 / 0.01)
    assert trainer.lr_schedule.alpha == 50.0


#: Every `pipeline.X` key, a value other than its default, and the value
#: FederationConfig field X then holds.
PIPELINE_FLAGS = [
    ("pipeline.procedure1", "false", False),
    ("pipeline.procedure2", "false", False),
    ("pipeline.weighting", "fedavg-size", "fedavg-size"),
    ("pipeline.freeze_epsilon", "true", True),
    ("pipeline.literal_noise_adjustment", "true", True),
    ("pipeline.matrix_norm_influence", "true", True),
    ("pipeline.demand_cap", "z", "z"),
    ("pipeline.per_class_resplit", "true", True),
    ("pipeline.init_scale", "0.5", 0.5),
]


def test_build_federation_config_mirrors_pipeline_flags():
    assert ({key for key, *_ in PIPELINE_FLAGS}
            == {key for key in _SCHEMA if key.startswith("pipeline.")})
    text = "seed = 1\nrounds = 3\n" + "".join(f"{key} = {value}\n"
                                             for key, value, _ in PIPELINE_FLAGS)
    federation = build_federation_config(parse_config_text(text))
    default = build_federation_config(parse_config_text("seed = 1\n"))
    assert federation.rounds == 3
    for key, _, value in PIPELINE_FLAGS:
        field = key.removeprefix("pipeline.")
        assert getattr(federation, field) == value, key
        assert getattr(default, field) != value, key


@pytest.mark.parametrize("extra", [
    "", "pipeline.procedure1 = false\n", "server.source = none\n",
    "pipeline.weighting = fednl\npipeline.procedure2 = true\n"])
def test_fedavg_preset_is_set_before_the_fields_are_checked(extra):
    # `algorithm = fedavg` is a preset of three pipeline fields, set before
    # FederationConfig checks them: a user's procedure1 = false alone would
    # otherwise leave procedure2 on without estimates.
    federation = build_federation_config(
        parse_config_text("seed = 1\nalgorithm = fedavg\n" + extra))
    assert {field: getattr(federation, field) for field in FEDAVG} == FEDAVG


def test_noisy_participants_all_and_list():
    everyone = parse_config_text("seed = 1\nparticipants = 3\n")
    assert noisy_participant_indices(everyone) == [0, 1, 2]
    some = parse_config_text(
        "seed = 1\nparticipants = 3\nnoise.kind = symmetric\nnoise.participants = 0,2\n"
    )
    assert noisy_participant_indices(some) == [0, 2]


def test_build_datasets_disjoint_ids_and_selective_noise():
    text = (
        "seed = 5\nparticipants = 3\ndata.classes = 3\ndata.per_class = 30\n"
        "noise.kind = symmetric\nnoise.beta = 0.4\nnoise.participants = 1\n"
        "server.source = synth\nserver.per_class = 20\n"
    )
    parts, server = build_datasets(parse_config_text(text))
    assert len(parts) == 3
    assert server is not None
    all_ids = np.concatenate([p.ids for p in parts] + [server.ids])
    assert len(np.unique(all_ids)) == len(all_ids)
    # only participant 1 carries label noise
    flips = [int((p.observed_labels != p.true_labels).sum()) for p in parts]
    assert flips[0] == 0 and flips[2] == 0
    assert flips[1] > 0
    assert int((server.observed_labels != server.true_labels).sum()) == 0


def test_build_datasets_without_server():
    text = "seed = 6\nparticipants = 2\nserver.source = none\npipeline.procedure2 = false\npipeline.weighting = fedavg-size\n"
    parts, server = build_datasets(parse_config_text(text))
    assert len(parts) == 2
    assert server is None


def test_build_datasets_label_skew_is_partition_non_iid():
    text = ("seed = 8\nparticipants = 3\ndata.classes = 3\ndata.per_class = 30\n"
            "partition.strategy = label-skew\npartition.k_major = 2\npartition.skew = 0.6\n")
    config = parse_config_text(text)
    parts, _ = build_datasets(config)
    base = synth_gaussian(3, 30, config["data.dim"], config["data.separation"], seed=8,
                          name="participants")

    def arrays(ds):
        return ds.name, ds.features.tobytes(), ds.observed_labels.tobytes(), ds.ids.tobytes()

    expected = partition_non_iid(base, 3, 8, LabelSkew(k_major=2, skew=0.6))
    assert [arrays(ds) for ds in parts] == [arrays(ds) for ds in expected]
    shuffled = partition_non_iid(base, 3, 8, ShuffleSplit())
    assert [arrays(ds) for ds in parts] != [arrays(ds) for ds in shuffled]
