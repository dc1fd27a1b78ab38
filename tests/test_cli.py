"""Command-line harness: all six subcommands plus exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fednl
from fednl import (MeasurementError, asymmetric_matrix, cli, inject_noise, load_dataset, rounds,
                   save_dataset, synth_gaussian)
from fednl.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main

from conftest import (make_dataset, record_probes, reference_stacked_objective,
                      round_constants_bytes)


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


BASE_RUN = """
seed = 11
participants = 2
rounds = 3
data.classes = 3
data.per_class = 30
data.separation = 8
server.source = synth
server.per_class = 20
trainer.local_epochs = 2
trainer.batch_size = 16
"""


def test_cli_import_leaves_scipy_unloaded():
    # A module-level scipy import costs every `fednl` process about 0.5 s.
    probe = "import sys, fednl, fednl.cli; print('scipy' in sys.modules)"
    # The child finds fednl where this process did, with or without PYTHONPATH.
    src = str(Path(fednl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "False"


# ---------------------------------------------------------------- synth

def test_synth_writes_expected_rows(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = run_cli("synth", "--classes", "3", "--per-class", "200", "--dim", "2",
                   "--separation", "8", "--seed", "7", "--out", str(out))
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 601  # header plus 600 instances
    assert "wrote 600 instances" in capsys.readouterr().out


def test_synth_rerun_identical_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli("synth", "--classes", "2", "--per-class", "50",
                       "--seed", "3", "--out", str(out)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_synth_requires_seed(tmp_path):
    code = run_cli("synth", "--out", str(tmp_path / "d.csv"))
    assert code == EXIT_VALIDATION


def test_synth_refuses_overwrite_without_force(tmp_path):
    out = tmp_path / "d.csv"
    assert run_cli("synth", "--seed", "1", "--out", str(out)) == EXIT_OK
    assert run_cli("synth", "--seed", "1", "--out", str(out)) == EXIT_VALIDATION
    assert run_cli("synth", "--seed", "1", "--out", str(out), "--force") == EXIT_OK


# ---------------------------------------------------------------- inject/estimate

def test_inject_then_estimate_chain(tmp_path, capsys):
    data = tmp_path / "clean.csv"
    noisy = tmp_path / "noisy.csv"
    assert run_cli("synth", "--classes", "3", "--per-class", "60",
                   "--seed", "5", "--out", str(data)) == EXIT_OK
    assert run_cli("inject", "--data", str(data), "--out", str(noisy),
                   "--seed", "5", "--beta", "0.3") == EXIT_OK
    injected = capsys.readouterr().out
    assert "total flips" in injected and "rate" in injected
    report = tmp_path / "estimate.json"
    assert run_cli("estimate", "--data", str(noisy), "--seed", "5",
                   "--epochs", "20", "--json", str(report)) == EXIT_OK
    printed = capsys.readouterr().out
    assert "class" in printed
    payload = json.loads(report.read_text())
    assert len(payload["per_class"]) == 3
    assert 0.1 <= payload["beta_mean"] <= 0.5


def test_estimate_per_class_resplit_trains_each_nonempty_class(tmp_path):
    # Labels 0 and 2 only: class 1 is in the class space but empty.
    base = synth_gaussian(3, 30, 2, 8.0, seed=5)
    data = tmp_path / "gap.csv"
    save_dataset(base.take(np.flatnonzero(base.observed_labels != 1)), data)
    report = tmp_path / "estimate.json"
    assert run_cli("estimate", "--data", str(data), "--seed", "5", "--per-class-resplit",
                   "--json", str(report)) == EXIT_OK
    payload = json.loads(report.read_text())
    nonempty = [c for c in payload["per_class"] if not c["empty"]]
    assert len(payload["per_class"]) == 3 and len(nonempty) == 2
    assert payload["trainings"] == 3 * len(nonempty)


@pytest.mark.parametrize("flag, value", [
    ("--eta", "0"), ("--epochs", "0"), ("--batch-size", "0"), ("--l2", "-1"),
])
def test_estimate_bad_trainer_flag_is_validation_error(tmp_path, capsys, flag, value):
    data = tmp_path / "d.csv"
    save_dataset(synth_gaussian(3, 10, 2, 8.0, seed=1), data)
    assert run_cli("estimate", "--data", str(data), "--seed", "1",
                   flag, value) == EXIT_VALIDATION
    assert "invalid configuration" in capsys.readouterr().err


def test_estimate_bad_true_label_names_file_and_row(tmp_path, capsys):
    data = tmp_path / "d.csv"
    # The class count comes from both label columns, so only a negative
    # true label can fall outside it here.
    data.write_text("f0,label,true_label\n0.5,0,0\n1.5,1,-2\n")
    assert run_cli("estimate", "--data", str(data), "--seed", "1") == EXIT_VALIDATION
    assert f"{data}: row 2 true label -2 outside [0, 2)" in capsys.readouterr().err


def test_estimate_counts_a_class_only_true_labels_hold(tmp_path, capsys):
    # Noise flipped every row of class 2 away; its true label still counts it.
    data = tmp_path / "d.csv"
    data.write_text("f0,label,true_label\n0.1,0,0\n1.1,1,1\n0.2,0,0\n1.2,1,1\n0.5,1,2\n")
    assert run_cli("estimate", "--data", str(data), "--seed", "1") == EXIT_OK
    out = capsys.readouterr().out
    assert "    2      0      0        0  0.000  (empty)" in out.splitlines()


#: sha256 of the files `test_file_chain_is_pinned` writes, as it takes it.
PINNED_CHAIN_DIGEST = "c49aef55957f72dd0cb2d0ac3b57615a16d36b961759ba0cc4821cffd245df5d"


def test_file_chain_is_pinned(tmp_path):
    # synth -> inject -> estimate through the data files: a fourth class that
    # only flips reach, out-of-space labels and a true_label column.
    clean, noisy, est = tmp_path / "clean.csv", tmp_path / "noisy.csv", tmp_path / "est.json"
    assert run_cli("synth", "--classes", "3", "--per-class", "80", "--dim", "3",
                   "--separation", "5", "--seed", "17", "--out", str(clean)) == EXIT_OK
    assert run_cli("inject", "--data", str(clean), "--out", str(noisy), "--seed", "17",
                   "--beta", "0.3", "--out-of-space", "0.05", "--classes", "4") == EXIT_OK
    assert run_cli("estimate", "--data", str(noisy), "--seed", "17", "--epochs", "3",
                   "--json", str(est)) == EXIT_OK
    digest = hashlib.sha256()
    for path in (clean, noisy, est):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    assert digest.hexdigest() == PINNED_CHAIN_DIGEST


def test_inject_requires_exactly_one_channel(tmp_path):
    data = tmp_path / "d.csv"
    assert run_cli("synth", "--seed", "1", "--out", str(data)) == EXIT_OK
    out = tmp_path / "n.csv"
    assert run_cli("inject", "--data", str(data), "--out", str(out),
                   "--seed", "1") == EXIT_VALIDATION
    assert run_cli("inject", "--data", str(data), "--out", str(out), "--seed", "1",
                   "--beta", "0.2", "--pairs", "0>1:0.1") == EXIT_VALIDATION


def test_inject_pairs_writes_the_asymmetric_channel(tmp_path, capsys):
    data, out = tmp_path / "d.csv", tmp_path / "n.csv"
    assert run_cli("synth", "--classes", "3", "--per-class", "40", "--seed", "9",
                   "--out", str(data)) == EXIT_OK
    assert run_cli("inject", "--data", str(data), "--out", str(out), "--seed", "9",
                   "--pairs", "0>1:0.3") == EXIT_OK
    clean = load_dataset(data)
    noisy = inject_noise(clean, asymmetric_matrix(3, [(0, 1, 0.3)]), 9)[0]
    assert (noisy.observed_labels != clean.observed_labels).any()
    expected = tmp_path / "expected.csv"
    save_dataset(noisy, expected)
    assert out.read_bytes() == expected.read_bytes()
    capsys.readouterr()
    refused = tmp_path / "refused.csv"
    assert run_cli("inject", "--data", str(data), "--out", str(refused), "--seed", "9",
                   "--pairs", "0>0:0.3") == EXIT_VALIDATION
    assert "flip rule for class 0 targets itself" in capsys.readouterr().err
    assert not refused.exists()


def test_inject_missing_input_file(tmp_path):
    code = run_cli("inject", "--data", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "n.csv"), "--seed", "1", "--beta", "0.1")
    assert code == EXIT_VALIDATION


# ---------------------------------------------------------------- run

def test_run_writes_directory(tmp_path, capsys):
    config = write_config(tmp_path, BASE_RUN + f"output = {tmp_path / 'runs' / 'a'}\n")
    assert run_cli("run", "--config", str(config)) == EXIT_OK
    run_dir = tmp_path / "runs" / "a"
    records = (run_dir / "rounds.ndrecords").read_text().splitlines()
    assert len(records) == 3
    assert (run_dir / "config.echo").exists()
    assert (run_dir / "models" / "global.model").exists()
    assert (run_dir / "models" / "local_00.model").exists()
    assert (run_dir / "metrics.final").exists()
    assert "final" in capsys.readouterr().out
    parsed = [json.loads(line) for line in records]
    assert [r["t"] for r in parsed] == [1, 2, 3]


def test_run_label_skew_partition(tmp_path):
    config = write_config(tmp_path, BASE_RUN + "partition.strategy = label-skew\n"
                          f"output = {tmp_path / 'skew'}\n")
    assert run_cli("run", "--config", str(config)) == EXIT_OK
    assert "partition.strategy = label-skew" in (tmp_path / "skew" / "config.echo").read_text()


def test_run_without_server_has_no_final_metrics(tmp_path, capsys):
    text = BASE_RUN.replace("server.source = synth\nserver.per_class = 20\n",
                            "server.source = none\n")
    config = write_config(tmp_path, text + f"algorithm = fedavg\noutput = {tmp_path / 'bare'}\n")
    assert run_cli("run", "--config", str(config)) == EXIT_OK
    run_dir = tmp_path / "bare"
    assert (run_dir / "metrics.final").read_text() == "no server test split; no final metrics\n"
    capsys.readouterr()
    assert run_cli("report", "--run", str(run_dir)) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.split()[:2] == ["t", "loss"])
    rounds_rows = [line.split() for line in lines[header + 1:header + 4]]
    assert [row[0] for row in rounds_rows] == ["1", "2", "3"]
    assert all(row[2:4] == ["-", "-"] for row in rounds_rows)


def test_run_rerun_identical_records(tmp_path):
    config_a = write_config(tmp_path, BASE_RUN + f"output = {tmp_path / 'ra'}\n", "a.cfg")
    config_b = write_config(tmp_path, BASE_RUN + f"output = {tmp_path / 'rb'}\n", "b.cfg")
    assert run_cli("run", "--config", str(config_a)) == EXIT_OK
    assert run_cli("run", "--config", str(config_b)) == EXIT_OK
    assert (tmp_path / "ra" / "rounds.ndrecords").read_bytes() == \
        (tmp_path / "rb" / "rounds.ndrecords").read_bytes()


# Twenty noisy participants of about 105 rows, c=3, the exchange on: Procedure
# 1 runs in more than one chunk of participants.
PINNED_RUN = """
seed = 21
participants = 20
rounds = 3
data.classes = 3
data.per_class = 700
data.separation = 4
server.per_class = 60
noise.kind = symmetric
noise.beta = 0.4
noise.out_of_space = 0.05
noise.participants = 0,1,2,3,4,5
trainer.local_epochs = 2
trainer.batch_size = 16
"""

#: sha256 of PINNED_RUN's deterministic artifacts, as `run_digest` takes it.
PINNED_RUN_DIGEST = "eb5412d8fdef7e7e0b15283b9b5738b04f009ee4aa244cc9b817bac678795c3d"

#: The same run with Procedure 1 re-splitting per class; no benchmark
#: workload runs this mode.
PINNED_RESPLIT_DIGEST = "edc7ace4b0738d244a6599a725c140fa00057d699c836c2120052336154289cc"


def run_digest(run_dir):
    """sha256 over rounds, transcript, final metrics and every model, names included."""
    digest = hashlib.sha256()
    paths = [run_dir / name for name in ("rounds.ndrecords", "exchange.transcript",
                                         "metrics.final")]
    paths += sorted((run_dir / "models").iterdir())
    for path in paths:
        digest.update(str(path.relative_to(run_dir)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def test_run_artifacts_are_pinned(tmp_path):
    config = write_config(tmp_path, PINNED_RUN)
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "run")) == EXIT_OK
    assert run_digest(tmp_path / "run") == PINNED_RUN_DIGEST


def test_resplit_run_artifacts_are_pinned(tmp_path):
    config = write_config(tmp_path, PINNED_RUN + "pipeline.per_class_resplit = true\n")
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "run")) == EXIT_OK
    assert run_digest(tmp_path / "run") == PINNED_RESPLIT_DIGEST


def test_run_fedavg_equals_disabled_pipeline(tmp_path):
    disabled = BASE_RUN + (
        "pipeline.procedure1 = false\npipeline.procedure2 = false\n"
        "pipeline.weighting = fedavg-size\n"
    )
    config_a = write_config(
        tmp_path, disabled + f"output = {tmp_path / 'fednl'}\n", "a.cfg")
    config_b = write_config(
        tmp_path,
        BASE_RUN + f"algorithm = fedavg\noutput = {tmp_path / 'fedavg'}\n",
        "b.cfg")
    assert run_cli("run", "--config", str(config_a)) == EXIT_OK
    assert run_cli("run", "--config", str(config_b)) == EXIT_OK
    assert (tmp_path / "fednl" / "rounds.ndrecords").read_bytes() == \
        (tmp_path / "fedavg" / "rounds.ndrecords").read_bytes()


@pytest.mark.parametrize("extra", [
    "pipeline.procedure1 = false\n",
    "pipeline.procedure1 = false\npipeline.procedure2 = true\npipeline.weighting = fednl\n",
], ids=["procedure1_off", "every_key_against"])
def test_run_fedavg_sets_its_fields_over_the_pipeline_keys(tmp_path, capsys, extra):
    # `algorithm = fedavg` sets both procedures off and size weighting
    # whatever the pipeline keys say; procedure1 = false alone once left
    # procedure2 on and exited 3.
    runs = {}
    for name, keys in (("alone", ""), ("keyed", extra)):
        config = write_config(tmp_path, BASE_RUN + f"algorithm = fedavg\n"
                              f"output = {tmp_path / name}\n" + keys, f"{name}.cfg")
        assert run_cli("run", "--config", str(config)) == EXIT_OK
        runs[name] = (tmp_path / name / "rounds.ndrecords").read_bytes()
    assert runs["keyed"] == runs["alone"]
    assert capsys.readouterr().err == ""


def test_run_invalid_config_lists_field(tmp_path, capsys):
    config = write_config(tmp_path, "seed = 1\nnoise.beta = 1.2\n")
    assert run_cli("run", "--config", str(config)) == EXIT_VALIDATION
    assert "noise.beta" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra, key", [
    ("run", "pipeline.procedure1 = false\npipeline.procedure2 = true\n",
     "pipeline.procedure2"),
    ("run", "noise.kind = asymmetric\nnoise.pairs = 0>1:0.6\n", "noise.pairs"),
    ("run", "noise.kind = asymmetric\nnoise.pairs = 0>7:0.2\n", "noise.pairs"),
    ("run", "participants = 1000\n", "participants"),
    ("rounds", "participants = 1000\n", "participants"),
])
def test_config_rejected_at_load_before_any_work(tmp_path, capsys, command, extra, key):
    # Each parses, but would fail later with a runtime exit: in the engine's
    # procedure check, the flip rules' matrix or the partition's row count.
    out = tmp_path / "out"
    config = write_config(tmp_path, f"seed = 1\noutput = {out}\n" + extra)
    assert run_cli(command, "--config", str(config)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and key in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def _four_class_files(tmp_path):
    """A 4-class `fednl synth` participant file and a 4-class server file."""
    paths = tmp_path / "four.csv", tmp_path / "server4.csv"
    for seed, path in enumerate(paths, start=1):
        assert run_cli("synth", "--classes", "4", "--per-class", "30", "--seed", str(seed),
                       "--out", str(path)) == EXIT_OK
    return paths


@pytest.mark.parametrize("extra, message", [
    ("data.source = file\ndata.path = {data}\nnoise.kind = symmetric\n",
     "data.classes: must be 4, the class count of data.path, got 3"),
    ("data.source = file\ndata.path = {data}\n",
     "data.classes: the server holds 3 classes, the participants 4"),
    ("data.source = file\ndata.path = {data}\nalgorithm = fedavg\n",
     "data.classes: the server holds 3 classes, the participants 4"),
    ("server.source = file\nserver.path = {server}\n",
     "server.path: the server holds 4 classes, the participants 3"),
], ids=["channel", "synth_server", "fedavg", "server_file"])
def test_run_class_count_mismatch_is_validation_error(tmp_path, capsys, extra, message):
    # Each once failed with a runtime exit inside the channel, the exchange
    # or the evaluation on the server's test split.
    data, server = _four_class_files(tmp_path)
    out = tmp_path / "out"
    config = write_config(tmp_path, f"seed = 1\nparticipants = 3\nrounds = 2\noutput = {out}\n"
                          + extra.format(data=data, server=server))
    capsys.readouterr()
    assert run_cli("run", "--config", str(config)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    ("data.source = file\ndata.path = {data}\n",
     "data.dim: the server holds 2 features, the participants 5"),
    ("data.source = file\ndata.path = {data}\nalgorithm = fedavg\n",
     "data.dim: the server holds 2 features, the participants 5"),
    ("server.source = file\nserver.path = {server}\n",
     "server.path: the server holds 5 features, the participants 2"),
    ("server.test_fraction = 0\n",
     "server.test_fraction: 0 of 600 server rows rounds to an empty test split"),
    ("server.per_class = 1\nserver.test_fraction = 0.1\n",
     "server.test_fraction: 0.1 of 3 server rows rounds to an empty test split"),
], ids=["synth_server", "fedavg", "server_file", "no_test_split", "test_split_rounds_to_0"])
def test_run_server_mismatch_is_validation_error(tmp_path, capsys, extra, message):
    # Each once failed with a runtime exit: in the exchange, in a matrix
    # product of the evaluation, or in the engine's influence check.
    paths = tmp_path / "five.csv", tmp_path / "server5.csv"
    for seed, path in enumerate(paths, start=1):
        save_dataset(synth_gaussian(3, 30, 5, 8.0, seed=seed, id_base=1000 * seed), path)
    out = tmp_path / "out"
    config = write_config(tmp_path, f"seed = 1\nparticipants = 3\nrounds = 2\noutput = {out}\n"
                          + extra.format(data=paths[0], server=paths[1]))
    assert run_cli("run", "--config", str(config)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["inject", "estimate", "run"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_feature_is_validation_error(tmp_path, capsys, command, value):
    # Each once loaded: `estimate` and `run` then failed at the first SGD
    # step with a runtime exit, and `inject` wrote the value through.
    data = tmp_path / "data.csv"
    save_dataset(synth_gaussian(3, 20, 2, 8.0, seed=1), data)
    lines = data.read_text().splitlines(keepends=True)
    row = lines[5].split(",")
    lines[5] = ",".join([value] + row[1:])
    data.write_text("".join(lines))
    out = tmp_path / "out"
    config = write_config(tmp_path, f"seed = 1\nparticipants = 2\nrounds = 2\noutput = {out}\n"
                                    f"data.source = file\ndata.path = {data}\n")
    argv = {"inject": ["--data", str(data), "--out", str(out), "--seed", "1", "--beta", "0.2"],
            "estimate": ["--data", str(data), "--seed", "1", "--json", str(out)],
            "run": ["--config", str(config)]}[command]
    assert run_cli(command, *argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{data}: row 5 has a non-finite feature" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "exp.cfg"]


def test_too_few_rows_to_estimate_is_validation_error(tmp_path, capsys):
    # Two in-space rows cannot form three folds. The input is at fault, not
    # the run, so the exit is a validation one (it was a runtime exit).
    data = tmp_path / "data.csv"
    data.write_text("f0,label\n1.0,0\n2.0,1\n")
    out = tmp_path / "estimate.json"
    assert run_cli("estimate", "--data", str(data), "--seed", "0",
                   "--json", str(out)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{data}: need at least 3 in-space instances to form folds, got 2" in captured.err
    assert not out.exists()


def test_synth_has_no_id_base_flag(tmp_path, capsys):
    # The saved file holds no ids, so the flag changed no byte it wrote.
    out = tmp_path / "data.csv"
    assert run_cli("synth", "--seed", "1", "--out", str(out), "--id-base", "5") == EXIT_VALIDATION
    assert "--id-base" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, argv", [
    ("synth", ["--out", "{out}"]),
    ("inject", ["--data", "{data}", "--out", "{out}", "--beta", "0.2"]),
    ("estimate", ["--data", "{data}", "--json", "{out}"]),
], ids=["synth", "inject", "estimate"])
def test_negative_seed_is_validation_error(tmp_path, capsys, command, argv):
    data = tmp_path / "data.csv"
    save_dataset(synth_gaussian(3, 20, 2, 8.0, seed=1), data)
    out = tmp_path / "out"
    argv = [arg.format(data=data, out=out) for arg in argv]
    assert run_cli(command, *argv, "--seed", "-1") == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed: expected a non-negative integer, got '-1'" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


@pytest.mark.parametrize("command", ["run", "rounds"])
@pytest.mark.parametrize("rows, message", [
    (120, "participants: cannot split 120 instances among 200 participants"),
    (0, "data.path: cannot partition an empty dataset"),
], ids=["too_few_rows", "header_only"])
def test_partition_refusal_is_validation_error(tmp_path, capsys, command, rows, message):
    data = tmp_path / "data.csv"
    save_dataset(synth_gaussian(3, 40, 2, 8.0, seed=1), data)
    if rows == 0:
        data.write_text(data.read_text().splitlines(keepends=True)[0])
    out = tmp_path / "out"
    config = write_config(tmp_path, f"seed = 1\nparticipants = 200\noutput = {out}\n"
                          f"data.source = file\ndata.path = {data}\n")
    assert run_cli(command, "--config", str(config)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "exp.cfg"]


def test_rounds_on_four_class_file_ignores_data_classes(tmp_path, capsys):
    # `fednl rounds` injects its own channel over the file's classes and
    # reads no server, so data.classes = 3 does not stop it.
    data, _ = _four_class_files(tmp_path)
    config = write_config(tmp_path, "seed = 1\nparticipants = 3\nrounds = 2\n"
                          f"data.source = file\ndata.path = {data}\n")
    capsys.readouterr()
    assert run_cli("rounds", "--config", str(config)) == EXIT_OK
    out = capsys.readouterr().out
    assert "error" not in out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "96e2d4ec423f05d8d0d2229d3315b6f36e7e7e8fda758b7a0f20d74d804decae")


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_run_divergence_is_runtime_error(tmp_path, capsys):
    config = write_config(tmp_path, BASE_RUN + (
        f"output = {tmp_path / 'boom'}\ntrainer.eta = 1e200\n"
        "pipeline.procedure1 = false\npipeline.procedure2 = false\n"
    ))
    assert run_cli("run", "--config", str(config)) == EXIT_RUNTIME
    assert "step" in capsys.readouterr().err


def test_run_empty_training_set_is_runtime_error(tmp_path, capsys):
    # At config seed 1 every row of participant 1 turns out-of-space, and
    # with Procedure 1 off nothing else fails first: round 1 names it.
    config = write_config(tmp_path, BASE_RUN.replace("seed = 11", "seed = 1") + (
        f"output = {tmp_path / 'empty'}\nnoise.kind = symmetric\nnoise.beta = 0.2\n"
        "noise.out_of_space = 0.999\nnoise.participants = 1\n"
        "pipeline.procedure1 = false\npipeline.procedure2 = false\n"
    ))
    assert run_cli("run", "--config", str(config)) == EXIT_RUNTIME
    assert "error: round 1, participant 1: dataset is empty" in capsys.readouterr().err


def test_run_out_flag_and_env_root(tmp_path, monkeypatch):
    config = write_config(tmp_path, BASE_RUN + "output = nested/run\n")
    monkeypatch.setenv("FEDNL_OUTPUT_ROOT", str(tmp_path / "root"))
    assert run_cli("run", "--config", str(config)) == EXIT_OK
    assert (tmp_path / "root" / "nested" / "run" / "rounds.ndrecords").exists()
    override = tmp_path / "explicit"
    assert run_cli("run", "--config", str(config), "--out", str(override)) == EXIT_OK
    assert (override / "rounds.ndrecords").exists()


def test_env_root_covers_whole_artifact_chain(tmp_path, monkeypatch):
    """Relative paths for written artifacts and run-dir reads all live
    under FEDNL_OUTPUT_ROOT, so synth -> inject -> run -> report chains
    work with bare names."""
    monkeypatch.setenv("FEDNL_OUTPUT_ROOT", str(tmp_path))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert run_cli("synth", "--classes", "3", "--per-class", "30",
                   "--seed", "5", "--out", "base.csv") == EXIT_OK
    assert (tmp_path / "base.csv").exists()
    assert run_cli("inject", "--data", str(tmp_path / "base.csv"), "--beta", "0.2",
                   "--seed", "5", "--out", "noisy.csv",
                   "--matrix-out", "chan.json") == EXIT_OK
    assert (tmp_path / "noisy.csv").exists()
    assert (tmp_path / "chan.json").exists()
    assert run_cli("estimate", "--data", str(tmp_path / "noisy.csv"),
                   "--seed", "5", "--json", "est.json") == EXIT_OK
    assert (tmp_path / "est.json").exists()
    config = write_config(tmp_path, BASE_RUN + "output = runs/a\n")
    assert run_cli("run", "--config", str(config)) == EXIT_OK
    assert run_cli("report", "--run", "runs/a") == EXIT_OK


def test_run_refuses_existing_directory(tmp_path):
    config = write_config(tmp_path, BASE_RUN + f"output = {tmp_path / 'dup'}\n")
    assert run_cli("run", "--config", str(config)) == EXIT_OK
    assert run_cli("run", "--config", str(config)) == EXIT_VALIDATION
    assert run_cli("run", "--config", str(config), "--force") == EXIT_OK


# ---------------------------------------------------------------- rounds

ROUNDS_CONFIG = """
seed = 13
participants = 3
data.classes = 3
data.per_class = 40
data.separation = 8
server.source = synth
server.per_class = 20
trainer.local_epochs = 5
trainer.batch_size = 16
rounds_grid.q_o = 0.1, 0.01
rounds_grid.local_epochs = 5
rounds_grid.noise = 0.0
"""


def test_rounds_grid_monotone_in_target(tmp_path, capsys):
    config = write_config(tmp_path, ROUNDS_CONFIG)
    assert run_cli("rounds", "--config", str(config)) == EXIT_OK
    out = capsys.readouterr().out
    by_q = {}
    for line in out.splitlines():
        fields = line.split()
        if len(fields) != 7 or line.startswith("#"):
            continue
        try:
            q_o = float(fields[2])
        except ValueError:
            continue
        by_q[q_o] = int(fields[-1])
    assert "error" not in out
    assert by_q[0.01] > by_q[0.1]


#: `fednl rounds` on ROUNDS_CONFIG. The rounds column carries up to seven
#: digits of B and the init gap, so a solver change that moves them fails here.
ROUNDS_TABLE = """\
 noise    E        q_o            B     alpha            raw   rounds
---------------------------------------------------------------------
# noise 0.000: L=1.581 mu=0.01 max sigma^2=0.01328 G^2=0.05601 Gamma=0.0003706 gap=2.967
 0.000    5        0.1       7.1766      1265     4.5952e+05   459517
 0.000    5       0.01       7.1766      1265     4.5974e+06  4597442
"""


def test_rounds_table_is_pinned(tmp_path, capsys):
    config = write_config(tmp_path, ROUNDS_CONFIG)
    assert run_cli("rounds", "--config", str(config)) == EXIT_OK
    assert capsys.readouterr().out == ROUNDS_TABLE


#: `fednl rounds` on ROUNDS_CONFIG over two noise levels and two epoch
#: counts. L is equal at both levels; the rest differs, so a value that
#: leaks from one level into the other fails here.
ROUNDS_TABLE_TWO_LEVELS = """\
 noise    E        q_o            B     alpha            raw   rounds
---------------------------------------------------------------------
# noise 0.000: L=1.581 mu=0.01 max sigma^2=0.01328 G^2=0.05601 Gamma=0.0003706 gap=2.967
 0.000    5        0.1       7.1766      1265     4.5952e+05   459517
 0.000    5       0.01       7.1766      1265     4.5974e+06  4597442
 0.000   20        0.1       161.77      1265     2.5589e+06  2558880
 0.000   20       0.01       161.77      1265     2.5589e+07 25589366
# noise 0.300: L=1.581 mu=0.01 max sigma^2=1.493 G^2=2.501 Gamma=0.04344 gap=0.2451
 0.300    5        0.1       320.83      1265     2.0289e+07 20288826
 0.300    5       0.01       320.83      1265     2.0289e+08 202890526
 0.300   20        0.1       7222.3      1265     1.1418e+08 114181832
 0.300   20       0.01       7222.3      1265     1.1418e+09 1141818881
"""

TWO_LEVELS = {"rounds_grid.noise = 0.0": "rounds_grid.noise = 0.0, 0.3",
              "rounds_grid.local_epochs = 5": "rounds_grid.local_epochs = 5, 20"}


def _edit(text, replacements):
    for old, new in replacements.items():
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


def test_rounds_two_level_table_is_pinned_and_probed_once(tmp_path, capsys, monkeypatch):
    calls, probes = record_probes(monkeypatch)
    config = write_config(tmp_path, _edit(ROUNDS_CONFIG, TWO_LEVELS))
    assert run_cli("rounds", "--config", str(config)) == EXIT_OK
    assert capsys.readouterr().out == ROUNDS_TABLE_TWO_LEVELS
    assert calls == [1] and probes == [1]


def _grid_and_levels_alone(tmp_path, capsys, monkeypatch, text):
    """`fednl rounds` on a config: its table, the grid's results, each level
    measured alone by `measure_round_constants`, and the probe counts."""
    recorded = []
    grid = cli.measure_round_grid

    def recording(*args):
        recorded.append((args, grid(*args)))
        return recorded[-1][1]

    monkeypatch.setattr(cli, "measure_round_grid", recording)
    calls, probes = record_probes(monkeypatch)
    assert run_cli("rounds", "--config", str(write_config(tmp_path, text))) == EXIT_OK
    out = capsys.readouterr().out
    counts = (calls[:], probes[:])
    ((participants, trainer, seed, levels, init_scale), results), = recorded
    alone = []
    for level in levels:
        try:
            alone.append(rounds.measure_round_constants(participants, trainer, seed, level,
                                                        init_scale))
        except rounds._GRID_ERRORS as e:
            alone.append(e)
    for got, want in zip(results, alone, strict=True):
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want))
        else:
            assert round_constants_bytes(got) == round_constants_bytes(want)
    return out, results, counts


def _file_grid_config(tmp_path, keep_truth, extra=""):
    """A three-participant rounds grid at noise 0 and 0.3 over a data file whose
    every seventh row has an out-of-space observed label; its true label is
    kept in the file when ``keep_truth``."""
    base = synth_gaussian(3, 40, 2, 8.0, seed=31)
    labels = base.observed_labels.copy()
    labels[::7] = -1
    dataset = make_dataset(base.features, labels, c=3, ids=base.ids,
                           true_labels=base.observed_labels if keep_truth else None)
    path = tmp_path / "data.csv"
    save_dataset(dataset, path)
    return (f"seed = 31\nparticipants = 3\ndata.source = file\ndata.path = {path}\n"
            "trainer.local_epochs = 3\ntrainer.batch_size = 16\n"
            "rounds_grid.q_o = 0.1, 0.01\nrounds_grid.local_epochs = 5\n"
            "rounds_grid.noise = 0, 0.3\n" + extra)


def _file_grid(tmp_path, capsys, monkeypatch, keep_truth, levels):
    """`_grid_and_levels_alone` on `_file_grid_config` at the noise levels
    ``levels``, with the sha256 of its table in place of the table."""
    text = _edit(_file_grid_config(tmp_path, keep_truth),
                 {"rounds_grid.noise = 0, 0.3": f"rounds_grid.noise = {levels}"})
    out, results, counts = _grid_and_levels_alone(tmp_path, capsys, monkeypatch, text)
    return hashlib.sha256(out.encode()).hexdigest(), out, results, counts


def test_rounds_file_grid_probes_unequal_pooled_rows_apart(tmp_path, capsys, monkeypatch):
    # Level 0 drops the out-of-space rows; level 0.3 draws every row's label
    # from its true label, so its training sets keep them: two probes.
    digest, out, results, counts = _file_grid(tmp_path, capsys, monkeypatch, True, "0, 0.3")
    assert counts == ([1, 1], [1, 1])
    assert "error" not in out and out.count("# noise") == 2
    assert results[0].smooth.L != results[1].smooth.L
    assert digest == "88c07e91c11ccc90b9972d1bea6618c83463aa565f3aca5ca79203ab02c7728d"


def test_rounds_file_grid_reuses_L_of_equal_rows(tmp_path, capsys, monkeypatch):
    # Each level's in-space views are fresh arrays, so the second level 0
    # finds the first one's rows by value, not identity: two probes for
    # three levels, and the two level-0 results hold the same L.
    digest, out, results, counts = _file_grid(tmp_path, capsys, monkeypatch, True, "0, 0.3, 0")
    assert counts == ([1, 1], [1, 1])
    assert "error" not in out and out.count("# noise") == 3
    assert results[0].smooth.L.hex() == results[2].smooth.L.hex()
    assert round_constants_bytes(results[0]) == round_constants_bytes(results[2])
    assert digest == "cf4058c6bbb92ba7a35712a5a3e2422be45f10485d36348ae0e5f2f71e44800b"


def test_rounds_file_grid_failed_first_level_spares_the_next(tmp_path, capsys, monkeypatch):
    # Levels run in order: 0.3 fails to inject, then level 0 probes its own rows.
    digest, out, results, counts = _file_grid(tmp_path, capsys, monkeypatch, False, "0.3, 0")
    assert counts == ([1], [1])
    assert isinstance(results[0], ValueError) and "cannot inject noise" in str(results[0])
    assert out.count("# noise") == 1 and "2 grid point(s) failed" in out
    assert digest == "0f5ab9459382fd1ff9afc84f97e80afbd1750319a59458c57a2ac157282c377b"


def test_rounds_file_grid_failed_injection_spares_clean_level(tmp_path, capsys, monkeypatch):
    # Without true labels the out-of-space rows cannot be injected at 0.3;
    # level 0 trains on the in-space rows and prints its table.
    out, results, counts = _grid_and_levels_alone(
        tmp_path, capsys, monkeypatch, _file_grid_config(tmp_path, keep_truth=False))
    assert counts == ([1], [1])
    rows = [line for line in out.splitlines() if line.startswith(" 0.")]
    assert len(rows) == 4 and "error" not in "".join(rows[:2])
    message = "error: cannot inject noise without a true in-space label for every instance"
    assert rows[2:] == [f" 0.300    5 {q_o:>10.4g}  {message}" for q_o in (0.1, 0.01)]
    assert isinstance(results[1], ValueError)
    assert "2 grid point(s) failed" in out


def test_rounds_file_grid_without_l2_fails_every_level(tmp_path, capsys, monkeypatch):
    out, results, counts = _grid_and_levels_alone(
        tmp_path, capsys, monkeypatch,
        _file_grid_config(tmp_path, keep_truth=True, extra="trainer.l2_lambda = 0\n"))
    assert counts == ([1, 1], [])
    assert all(isinstance(r, rounds.NoStrongConvexityError) for r in results)
    assert out.count("error: l2_lambda is 0; the objective is not strongly convex") == 4
    assert "4 grid point(s) failed" in out


def test_rounds_alpha_minus_one_shifts_only_alpha(tmp_path, capsys, monkeypatch):
    estimates = []
    estimate = rounds.estimate_rounds

    def recorded(*args, **kwargs):
        estimates.append(estimate(*args, **kwargs))
        return estimates[-1]

    monkeypatch.setattr(rounds, "estimate_rounds", recorded)
    config = write_config(tmp_path, ROUNDS_CONFIG)
    columns = []
    for flag in (), ("--alpha-minus-one",):
        assert run_cli("rounds", "--config", str(config), *flag) == EXIT_OK
        # The B column of every table row (a noise level, not "#" or the header).
        columns.append([line.split()[3] for line in capsys.readouterr().out.splitlines()
                        if line.startswith(" 0.000")])
    assert len(columns[0]) == 2 and columns[1] == columns[0]
    assert len(estimates) == 4
    for before, after in zip(estimates[:2], estimates[2:]):
        assert after.alpha == before.alpha - 1.0


def test_rounds_empty_grid_rejected(tmp_path):
    config = write_config(tmp_path, ROUNDS_CONFIG.replace(
        "rounds_grid.q_o = 0.1, 0.01", "rounds_grid.q_o ="))
    assert run_cli("rounds", "--config", str(config)) == EXIT_VALIDATION


@pytest.mark.parametrize("old, new", [
    ("rounds_grid.noise = 0.0", "rounds_grid.noise = 0.0, 1.0"),
    ("rounds_grid.q_o = 0.1, 0.01", "rounds_grid.q_o = inf"),
    ("rounds_grid.local_epochs = 5", "rounds_grid.local_epochs = 0"),
])
def test_rounds_bad_grid_value_is_validation_error(tmp_path, capsys, old, new):
    # Rejected when the config loads, before any training, naming the key.
    config = write_config(tmp_path, _edit(ROUNDS_CONFIG, {old: new}))
    assert run_cli("rounds", "--config", str(config)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and new.split(" =")[0] + ": must be" in captured.err


def test_rounds_non_finite_l2_lambda_is_validation_error(tmp_path, capsys):
    # Once printed a "loss went non-finite" row per grid point and exited 0.
    config = write_config(tmp_path, ROUNDS_CONFIG + "trainer.l2_lambda = nan\n")
    assert run_cli("rounds", "--config", str(config)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and "trainer.l2_lambda: must be finite, got nan" in captured.err


def _record_solves(monkeypatch):
    """Calls of `solve_optimum`, and the member sizes of each stacked solve.

    Every solve runs on `reference_stacked_objective`, per-call `loss` and
    `gradient`.
    """
    calls, stacks = [], []
    solve = rounds.solve_optimum

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    def reference(members, l2_lambda):
        stacks.append([ds.n for ds in members])
        return reference_stacked_objective(members, l2_lambda)

    monkeypatch.setattr(rounds, "solve_optimum", counted)
    monkeypatch.setattr(rounds, "_stacked_objective", reference)
    return calls, stacks


def test_rounds_table_bitwise_equals_per_call_objective(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path, ROUNDS_CONFIG)
    assert run_cli("rounds", "--config", str(config)) == EXIT_OK
    got = capsys.readouterr().out
    calls, stacks = _record_solves(monkeypatch)
    assert run_cli("rounds", "--config", str(config)) == EXIT_OK
    assert capsys.readouterr().out == got
    assert "error" not in got
    # The smoothness probe runs the kernel itself, with no solver objective
    # (`test_smoothness_bitwise_equals_per_call_gradients` checks its bits).
    # The pooled set is solved once, through `solve_optimum`, and the three
    # participants once each, in one stack over the same rows; the init gap
    # reuses the pooled optimum.
    assert len(calls) == 1
    assert [len(sizes) for sizes in stacks] == [1, 3]
    assert stacks[0] == [sum(stacks[1])]


def test_rounds_measurement_failure_prints_error_rows(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise MeasurementError("optimizer stopped")

    monkeypatch.setattr(rounds, "measure_smoothness", fail)
    config = write_config(tmp_path, ROUNDS_CONFIG)
    assert run_cli("rounds", "--config", str(config)) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("error: optimizer stopped") == 2
    assert "2 grid point(s) failed" in out


def test_rounds_program_error_is_runtime_exit(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in the measurement path")

    monkeypatch.setattr(rounds, "measure_smoothness", broken)
    config = write_config(tmp_path, ROUNDS_CONFIG)
    assert run_cli("rounds", "--config", str(config)) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert "error:" not in captured.out
    assert "bug in the measurement path" in captured.err


# ---------------------------------------------------------------- report

def make_run(tmp_path, name, extra=""):
    config = write_config(
        tmp_path, BASE_RUN + extra + f"output = {tmp_path / name}\n", f"{name}.cfg")
    assert run_cli("run", "--config", str(config)) == EXIT_OK
    return tmp_path / name


def test_report_series_lengths(tmp_path, capsys):
    run_dir = make_run(tmp_path, "r1")
    assert run_cli("report", "--run", str(run_dir)) == EXIT_OK
    out = capsys.readouterr().out
    assert "accuracy" in out
    series = (run_dir / "report" / "accuracy_by_round.tsv").read_text().splitlines()
    assert len(series) == 4  # header plus one row per round
    ratio = (run_dir / "report" / "contribution_ratio.tsv").read_text().splitlines()
    assert len(ratio) == 4


def test_report_compare_two_runs(tmp_path, capsys):
    a = make_run(tmp_path, "cmp_a")
    b = make_run(tmp_path, "cmp_b", extra="algorithm = fedavg\n")
    assert run_cli("report", "--run", str(a), "--compare", str(b)) == EXIT_OK
    out = capsys.readouterr().out
    assert "delta" in out


def test_report_missing_directory(tmp_path):
    assert run_cli("report", "--run", str(tmp_path / "nope")) == EXIT_VALIDATION


def test_report_corrupt_record_names_index(tmp_path, capsys):
    run_dir = make_run(tmp_path, "broken")
    records = run_dir / "rounds.ndrecords"
    lines = records.read_text().splitlines()
    lines[1] = "{not json"
    records.write_text("\n".join(lines) + "\n")
    assert run_cli("report", "--run", str(run_dir)) == EXIT_VALIDATION
    assert "record 2" in capsys.readouterr().err
    # A record that parses but lacks a field `report` reads is malformed too.
    lines[1] = '{"t": 1}'
    records.write_text("\n".join(lines) + "\n")
    assert run_cli("report", "--run", str(run_dir)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "record 2 is corrupt: lacks epsilon, global_loss, global_accuracy" in err
