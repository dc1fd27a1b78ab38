"""Command-line harness: all six subcommands plus exit codes."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from fednl import MeasurementError, rounds, save_dataset, synth_gaussian
from fednl.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main

from conftest import reference_objective


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
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout
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


def test_inject_requires_exactly_one_channel(tmp_path):
    data = tmp_path / "d.csv"
    assert run_cli("synth", "--seed", "1", "--out", str(data)) == EXIT_OK
    out = tmp_path / "n.csv"
    assert run_cli("inject", "--data", str(data), "--out", str(out),
                   "--seed", "1") == EXIT_VALIDATION
    assert run_cli("inject", "--data", str(data), "--out", str(out), "--seed", "1",
                   "--beta", "0.2", "--pairs", "0>1:0.1") == EXIT_VALIDATION


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


def test_run_invalid_config_lists_field(tmp_path, capsys):
    config = write_config(tmp_path, "seed = 1\nnoise.beta = 1.2\n")
    assert run_cli("run", "--config", str(config)) == EXIT_VALIDATION
    assert "noise.beta" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_run_divergence_is_runtime_error(tmp_path, capsys):
    config = write_config(tmp_path, BASE_RUN + (
        f"output = {tmp_path / 'boom'}\ntrainer.eta = 1e200\n"
        "pipeline.procedure1 = false\npipeline.procedure2 = false\n"
    ))
    assert run_cli("run", "--config", str(config)) == EXIT_RUNTIME
    assert "step" in capsys.readouterr().err


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


def _count_solves(monkeypatch):
    calls = []
    solve = rounds.solve_optimum

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(rounds, "solve_optimum", counted)
    return calls


def test_rounds_table_bitwise_equals_per_call_objective(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path, ROUNDS_CONFIG)
    solves = _count_solves(monkeypatch)
    assert run_cli("rounds", "--config", str(config)) == EXIT_OK
    got = capsys.readouterr().out
    # One pooled solve and one per participant: the init gap reuses the pooled one.
    assert len(solves) == 4
    monkeypatch.setattr(rounds, "_objective", reference_objective)
    assert run_cli("rounds", "--config", str(config)) == EXIT_OK
    assert capsys.readouterr().out == got
    assert "error" not in got


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
