"""Self-tests of the benchmark harness: python3 -m pytest perfbench

They start real fednl processes on small configs, so they take a few seconds.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import Workload  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = Workload(
    why="acceptance-scale run",
    command="run",
    keys={"participants": 4, "rounds": 3, "data.per_class": 100, "data.separation": 4,
          "server.per_class": 100, "noise.kind": "symmetric", "noise.beta": 0.4,
          "noise.participants": "0"},
    expected=("cli.main", "engine.run", "trainer.train_local.loop",
              "contribution.influence", "exchange.normalize_noise"),
)

# 80 participants x 30 instances, c=3, beta=0.4 on 20 of them: the
# post-exchange re-estimate raises EstimationError. If fednl learns to run
# this shape, replace it with another that raises.
RAISING = Workload(
    why="shape whose run raises",
    command="run",
    keys={"participants": 80, "rounds": 2, "data.per_class": 800,
          "noise.kind": "symmetric", "noise.beta": 0.4,
          "noise.participants": ",".join(str(i) for i in range(20))},
)


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "INPUT_SETS", 2)
    env = run.child_env()
    return lambda name, workload, trace: run.measure(name, 3, 0, trace, SPEC, env, {},
                                                     workload=workload)


def test_raising_run_counts_as_failed_and_the_benchmark_goes_on(bench, capsys):
    raising = bench("raising", RAISING, False)
    assert (raising["attempted"], raising["failed"]) == (4, 4)
    assert not raising["correct"]
    assert "to form folds" in capsys.readouterr().err
    after = bench("tiny", TINY, False)
    assert after["correct"] and (after["attempted"], after["failed"]) == (4, 0)
    assert after["metrics"]["success_ratio"]["value"] == 1.0
    assert set(after["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_run_replays_and_reports_every_layer_metric(bench):
    result = bench("tiny", TINY, True)
    assert result["correct"], result
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trainer.train_local.loop.calls"]["value"] == 4 * 3


def test_expected_span_without_calls_is_an_error():
    plain = {"inputs": 0, "traced": False, "run_s": 1.0, "checksum": "a"}
    traced = {**plain, "traced": True, "layers": {"cli.main.calls": 1}}
    _, errors = run.per_layer([plain, traced], ["cli.main.calls"], ("cli.main", "engine.run"))
    assert errors == ["span engine.run recorded no calls on a workload where it must fire"]


def test_replay_is_checked_per_input_set_and_traced_against_untraced():
    runs = [{"inputs": 0, "traced": False, "checksum": "a"},
            {"inputs": 0, "traced": True, "checksum": "b"},
            {"inputs": 1, "traced": False, "checksum": "c"},
            {"inputs": 1, "traced": False, "checksum": "d"}]
    assert run.replay_errors(runs) == [
        "traced run's checksum differs from the untraced one",
        "replay: 2 distinct checksums over untraced repeats of input set 1"]


def test_self_time_subtracts_direct_children_only():
    # name, caller, parent, start, end: a(0..10) > b(1..4) > c(2..3), a > d(5..6)
    recorded = [["a", None, -1, 0.0, 10.0], ["b", None, 0, 1.0, 4.0],
                ["c", None, 1, 2.0, 3.0], ["d", None, 0, 5.0, 6.0]]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]
    assert spans.inclusive_time(recorded, {"b", "c"}) == 3.0


def test_input_set_that_always_raises_counts_as_failed_not_as_incorrect():
    good = {"inputs": 1, "traced": False, "checksum": "a", "setup_s_cal": 0.5,
            "run_s_cal": 2.0, "train_steps": 1000, "peak_rss_mb": 80.0, "final_accuracy": 0.8}
    raised = {"inputs": 0, "traced": False, "error": "fednl run exited 3"}
    runs = [raised, good, raised, good]
    assert run.replay_errors(runs) == []
    metrics = run.end_to_end(runs)
    assert metrics["success_ratio"] == 0.5
    assert metrics["train_steps_per_s"] == 500.0
    assert run.replay_errors([raised, {**raised, "inputs": 1}]) == ["no untraced repeat succeeded"]


def test_input_set_that_raises_only_sometimes_breaks_replay():
    runs = [{"inputs": 0, "traced": False, "checksum": "a"},
            {"inputs": 0, "traced": False, "error": "repeat killed after 60 s"}]
    assert run.replay_errors(runs) == [
        "replay: 1 of 2 repeats of input set 0 failed, the others succeeded"]
