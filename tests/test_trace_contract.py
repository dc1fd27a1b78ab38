"""The benchmark's tracer finds every fednl name it wraps.

`perfbench/spans.py` wraps functions by module and name, and
`perfbench/workloads.py` lists the spans each workload must record. A rename
in `fednl` would only show up as a failed benchmark run; these checks make
it fail here. Both files are read as they are, never edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
