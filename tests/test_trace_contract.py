"""The benchmark's tracer finds every fednl name it wraps.

`perfbench/spans.py` wraps functions by module and name, and
`perfbench/workloads.py` lists the spans each workload must record. A rename
in `fednl`, or a call that stops going through a traced name, would only
show up as a failed benchmark run; these checks make it fail here. The
perfbench files are read and run as they are, never edited.
"""

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
from fednl import engine, estimator, rounds

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
    run_fednl(FederationConfig(n_participants=3, rounds=2, trainer=trainer, seed=41),
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


def test_fednl_workload_spans_fire_in_a_traced_child(tmp_path):
    # The benchmark fails a workload whose `expected` span records no calls,
    # for example when a fast path stops going through `Dataset.take`, and
    # one whose traced run writes other bytes than its untraced runs. Run
    # the benchmark's own child on a small cut of `fednl_wide`, tracer on
    # and off; its noisy participant gives the SGD ticks mixed row counts.
    expected = {span for name, workload in workloads.WORKLOADS.items()
                if name.startswith("fednl") for span in workload.expected}
    small = {"participants": 4, "rounds": 2, "data.per_class": 100, "server.per_class": 100,
             "noise.participants": "0"}
    wide = workloads.WORKLOADS["fednl_wide"]
    config = tmp_path / "small.cfg"
    config.write_text(workloads.Workload(why="", command="run",
                                         keys={**wide.keys, **small}).config_text(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PERFBENCH.parent / "src"),
                                                      env.get("PYTHONPATH")]))
    env.pop("FEDNL_OUTPUT_ROOT", None)
    outcomes = {}
    for mode, flags in (("traced", ["--trace"]), ("untraced", [])):
        result = tmp_path / f"{mode}.json"
        subprocess.run([sys.executable, str(PERFBENCH / "child.py"), "--config", str(config),
                        "--command", "run", "--run-dir", str(tmp_path / mode),
                        "--result", str(result), "--t0", repr(time.time()), *flags],
                       env=env, cwd=PERFBENCH.parent, check=True, timeout=120)
        outcomes[mode] = json.loads(result.read_text())
        assert "error" not in outcomes[mode], outcomes[mode].get("error")
    silent = sorted(span for span in expected
                    if not outcomes["traced"]["layers"].get(f"{span}.calls"))
    assert not silent, f"spans that recorded no calls: {silent}"
    assert outcomes["traced"]["checksum"] == outcomes["untraced"]["checksum"]
