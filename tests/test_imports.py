"""A fednl process imports no numpy submodule it does not use.

numpy's set routines (`np.unique`, `np.isin`, `np.in1d`) import `numpy.ma` on
first use in numpy 2.4, which costs a process 8-13 ms and 1.2 MB for
masked arrays the package never makes. Each command runs in a fresh
interpreter, so a module some earlier test imported cannot hide one.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

#: Runs the CLI on argv, then prints the exit code and the numpy.ma modules
#: loaded as the last line.
_PROBE = """
import json, sys
from fednl.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"])]))
"""


def _command_modules(tmp_path, name, small, *extra):
    workload = workloads.WORKLOADS[name]
    config = tmp_path / "small.cfg"
    config.write_text(workloads.Workload(why="", command=workload.command,
                                         keys={**workload.keys, **small}).config_text(0))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("FEDNL_OUTPUT_ROOT", None)
    done = subprocess.run([sys.executable, "-c", _PROBE, workload.command, "--config",
                           str(config), *extra],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name, small, extra", [
    ("fednl_wide", {"participants": 4, "rounds": 2, "data.per_class": 100,
                    "server.per_class": 100, "noise.participants": "0"}, ("--out", "run")),
    ("rounds_grid", {"participants": 3, "data.classes": 3, "data.dim": 2, "data.per_class": 40,
                     "server.per_class": 20, "noise.participants": "0",
                     "rounds_grid.noise": "0, 0.3"}, ()),
], ids=["run", "rounds"])
def test_command_never_imports_numpy_ma(tmp_path, name, small, extra):
    code, loaded = _command_modules(tmp_path, name, small, *extra)
    assert code == 0
    assert loaded == [], "a set routine such as np.unique or np.isin is back in fednl"
