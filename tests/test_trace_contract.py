"""The benchmark's tracer finds every fednl name it wraps.

`perfbench/spans.py` wraps functions by module and name, and
`perfbench/workloads.py` lists the spans each workload must record. A rename
in `fednl`, or a call that stops going through a traced name, would only
show up as a failed benchmark run; these checks make it fail here. One
workload's output is pinned too, so a change to the bytes the benchmark
checks fails here first. The perfbench files are read and run as they are,
never edited.
"""

import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fednl import (FederationConfig, ShuffleSplit, TrainerConfig, measure_round_constants,
                   partition_non_iid, run_fednl, synth_gaussian)
from fednl import cli, engine, estimator, rounds

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("mod_name, fn_name", [
    (mod, fn) for mod, functions in spans.LAYERS.items() for fn in functions])
def test_traced_function_exists(mod_name, fn_name):
    module = importlib.import_module(f"fednl.{mod_name}")
    assert callable(getattr(module, fn_name, None)), f"fednl.{mod_name}.{fn_name} is gone"


def test_traced_methods_exist():
    for mod_name, classes in spans.METHODS.items():
        module = importlib.import_module(f"fednl.{mod_name}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for method in methods:
                assert callable(getattr(cls, method, None)), f"{cls_name}.{method} is gone"


def test_expected_caller_spans_have_a_binding():
    # A span such as `trainer.loss.influence` records only calls made through
    # the calling module's own binding of the traced function.
    tags = {tag: holder for holder, tag in spans.CALLER_TAGS.items()}
    traced = {f"{mod}.{fn}": (mod, fn) for mod, fns in spans.LAYERS.items() for fn in fns}
    for workload in workloads.WORKLOADS.values():
        for span in workload.expected:
            qualified, _, tag = span.rpartition(".")
            if qualified not in traced:
                continue
            mod_name, fn_name = traced[qualified]
            fn = getattr(importlib.import_module(f"fednl.{mod_name}"), fn_name)
            holder = tags.get(tag, tag)
            module = importlib.import_module(f"fednl.{holder}")
            assert any(value is fn for value in vars(module).values()), (
                f"fednl.{holder} holds no binding of {qualified}; span {span} would be empty")


class _StubTracer:
    def __init__(self):
        self.counts = {}

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value


def _capture_train_local(monkeypatch, module, calls):
    real = module.train_local

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(module, "train_local", recording)


def test_train_local_observer_reads_every_program_call(monkeypatch):
    # The observer runs `steps_per_round(args[1].n, args[2])` on every traced
    # call, so each caller's second argument must expose `.n` and its third
    # must be the trainer config.
    calls = {"loop": [], "estimate": [], "rounds": []}
    for module, tag in ((engine, "loop"), (estimator, "estimate"), (rounds, "rounds")):
        _capture_train_local(monkeypatch, module, calls[tag])
    base = synth_gaussian(3, 40, 2, 6.0, seed=41)
    parts = partition_non_iid(base, 3, seed=41, strategy=ShuffleSplit())
    server = synth_gaussian(3, 30, 2, 6.0, seed=42, id_base=10_000)
    trainer = TrainerConfig(local_epochs=2, batch_size=16)
    run_fednl(FederationConfig(rounds=2, trainer=trainer, seed=41),
              parts, server)
    measure_round_constants(parts, trainer, 41, noise_level=0.2)
    # One call per round, one per Procedure 1 stage (estimate, re-estimate)
    # for the three participants' fold models together, one per measurement.
    assert [len(calls[tag]) for tag in ("loop", "estimate", "rounds")] == [2, 2, 1]
    for tag, recorded in calls.items():
        for args, kwargs, result in recorded:
            tracer = _StubTracer()
            spans._observe_train_local(tracer, tag, args, kwargs, result)
            assert tracer.counts["trainer.train_local.steps"] > 0
            assert tracer.counts[f"trainer.train_local.{tag}.steps"] > 0


def _run_child_twice(tmp_path, name, command, small):
    """The benchmark's child on a small cut of one workload, traced and untraced.

    Returns the traced run's layer figures and whether both runs wrote the
    same bytes.
    """
    workload = workloads.WORKLOADS[name]
    config = tmp_path / "small.cfg"
    config.write_text(workloads.Workload(why="", command=command,
                                         keys={**workload.keys, **small}).config_text(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PERFBENCH.parent / "src"),
                                                      env.get("PYTHONPATH")]))
    env.pop("FEDNL_OUTPUT_ROOT", None)
    outcomes = {}
    for mode, flags in (("traced", ["--trace"]), ("untraced", [])):
        result = tmp_path / f"{mode}.json"
        subprocess.run([sys.executable, str(PERFBENCH / "child.py"), "--config", str(config),
                        "--command", command, "--run-dir", str(tmp_path / mode),
                        "--result", str(result), "--t0", repr(time.time()), *flags],
                       env=env, cwd=PERFBENCH.parent, check=True, timeout=120)
        outcomes[mode] = json.loads(result.read_text())
        assert "error" not in outcomes[mode], outcomes[mode].get("error")
    return (outcomes["traced"]["layers"],
            outcomes["traced"]["checksum"] == outcomes["untraced"]["checksum"])


@pytest.mark.parametrize("extra", [{}, {"pipeline.per_class_resplit": "true"}],
                         ids=["shared", "per_class_resplit"])
def test_fednl_workload_spans_fire_in_a_traced_child(tmp_path, extra):
    # The benchmark fails a workload whose `expected` span records no calls,
    # for example when a fast path stops going through `Dataset.take`, and
    # one whose traced run writes other bytes than its untraced runs. Run
    # the benchmark's own child on a small cut of `fednl_wide`, tracer on
    # and off; its noisy participant gives the SGD ticks mixed row counts.
    # No benchmark workload re-splits per class, so this runs that mode too.
    expected = {span for name, workload in workloads.WORKLOADS.items()
                if name.startswith("fednl") for span in workload.expected}
    small = {"participants": 4, "rounds": 2, "data.per_class": 100, "server.per_class": 100,
             "noise.participants": "0", **extra}
    layers, replayed = _run_child_twice(tmp_path, "fednl_wide", "run", small)
    silent = sorted(span for span in expected if not layers.get(f"{span}.calls"))
    assert not silent, f"spans that recorded no calls: {silent}"
    assert replayed


def test_fedavg_workload_spans_fire_in_a_traced_child(tmp_path):
    # The same check for `fedavg_deep`: `fednl run` under `algorithm = fedavg`
    # makes one `run_fednl` call, so the round loop records one `engine.run`
    # span, not a `run_fedavg` span around a nested `run_fednl` one.
    small = {"participants": 3, "rounds": 2, "data.classes": 3, "data.dim": 2,
             "data.per_class": 40, "server.per_class": 20, "noise.participants": "0"}
    layers, replayed = _run_child_twice(tmp_path, "fedavg_deep", "run", small)
    silent = sorted(span for span in workloads.WORKLOADS["fedavg_deep"].expected
                    if not layers.get(f"{span}.calls"))
    assert not silent, f"spans that recorded no calls: {silent}"
    assert layers["engine.run.calls"] == 1
    assert replayed


def test_rounds_workload_spans_fire_in_a_traced_child(tmp_path):
    # The same check for `rounds_grid`: its optima must still go through
    # `rounds.solve_optimum`, its one smoothness probe through
    # `rounds.measure_smoothness` (the second noise level, over the same
    # rows, reuses the first one's L), and `loss`/`gradient` through
    # `rounds`' own bindings, or the benchmark marks the workload's outputs
    # incorrect.
    small = {"participants": 3, "data.classes": 3, "data.dim": 2, "data.per_class": 40,
             "server.per_class": 20, "noise.participants": "0", "rounds_grid.noise": "0, 0.3"}
    layers, replayed = _run_child_twice(tmp_path, "rounds_grid", "rounds", small)
    silent = sorted(span for span in workloads.WORKLOADS["rounds_grid"].expected
                    if not layers.get(f"{span}.calls"))
    assert not silent, f"spans that recorded no calls: {silent}"
    assert layers["rounds.measure_smoothness.calls"] == 1
    assert replayed


#: sha256 of `fednl rounds` stdout on `rounds_grid` at config seed 4: the
#: checksum `perfbench/run.py --seed 1` prints for that config. Its noise
#: levels hold the same rows under other labels, and must print one L.
PINNED_ROUNDS_GRID_SEED4 = "62a05e44700afe6c2a50dbbae845d2e70f676d6babb6eaa6514e94d66383a6bb"


def test_rounds_grid_workload_output_is_pinned(tmp_path, capsys):
    config = tmp_path / "rounds_grid.cfg"
    config.write_text(workloads.WORKLOADS["rounds_grid"].config_text(4))
    assert cli.main(["rounds", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_ROUNDS_GRID_SEED4
