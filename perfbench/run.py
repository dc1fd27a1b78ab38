"""fednl benchmark: closed-loop, offline runs of `fednl run` and `fednl rounds`.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the repository root. Each repeat is one fresh process (one
client, no concurrency) that imports fednl from ./src, builds one input set
of the workload and runs one CLI command; repeats go on until --seconds have
passed and every input set has run twice. With --trace 0 the last line
reports the end-to-end metrics of BENCHMARK.json: medians over each input
set's repeats, averaged over the sets. With --trace 1 repeats alternate
untraced and traced on the first input set that runs, and the last line
reports the per-layer metrics from the traced ones. Every repeat of a
workload must write byte-identical artifacts (exact replay), traced ones
included. The exit code is 1 when a check fails, with the result line
still printed. Per-repeat results, the environment and the last traced
run's spans are written to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = HERE / ".work"

#: Input sets per untraced run: its repeats cycle through configs seeded
#: from --seed, so the figures average over several draws of the data, whose
#: training-set sizes differ by up to a quarter on fednl_deep.
INPUT_SETS = 3
#: A repeat that outlives this is killed and counted as failed; a normal
#: one takes under 10 s.
CHILD_TIMEOUT_S = 60
#: BLAS thread settings of every child, whatever the caller's environment
#: says: the matrices are small, one thread per process keeps timings steady,
#: and the bounds were measured with it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ENV_PROBE = """
import json, sys, numpy, scipy, fednl
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "fednl": fednl.__file__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("FEDNL_OUTPUT_ROOT", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def environment(env: dict) -> dict:
    """Versions, BLAS and threads, CPUs, commit and src/ size of this run.

    Starting the probe process also warms the file cache before any timing.
    """
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if probe.returncode != 0:
        raise RuntimeError(f"cannot import fednl from {SRC}: {probe.stderr.strip()}")
    info = json.loads(probe.stdout.strip().splitlines()[-1])
    if not Path(info["fednl"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"fednl imported from {info['fednl']}, not from {SRC}")
    del info["fednl"]
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or None
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    info.update({
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        # For information only; never gated.
        "src_lines": sum(len(path.read_text().splitlines()) for path in sources),
    })
    return info


def run_child(workload, config: Path, run_dir: Path, result_path: Path, traced: bool,
              env: dict) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), "--config", str(config),
            "--command", workload.command, "--run-dir", str(run_dir),
            "--result", str(result_path)]
    if traced:
        argv.append("--trace")
    t0 = time.time()
    try:
        proc = subprocess.run(argv + ["--t0", repr(t0)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"repeat killed after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(result_path.read_text())
    result_path.unlink()
    shutil.rmtree(run_dir, ignore_errors=True)
    return result


def input_seeds(seed: int) -> list[int]:
    """Config seeds of a run's input sets; distinct --seed values share none."""
    return [seed * INPUT_SETS + j for j in range(INPUT_SETS)]


def repeat(workload, seed: int, seconds: float, trace: bool, work: Path,
           env: dict) -> list[dict]:
    """Closed loop of fresh processes, stopped only after whole cycles.

    Untraced, repeats cycle through the input sets, so each set runs at
    least twice and its replay is checked. Traced, repeats alternate
    untraced and traced on the first input set whose untraced repeat
    succeeds. A repeat that fails is kept, and counts as failed.
    """
    work.mkdir(parents=True, exist_ok=True)
    seeds = input_seeds(seed)
    configs = []
    for j, config_seed in enumerate(seeds):
        configs.append(work / f"inputs{j}.cfg")
        configs[-1].write_text(workload.config_text(config_seed))
    runs = []

    def run_once(inputs: int, traced: bool) -> bool:
        index = len(runs)
        result = run_child(workload, configs[inputs], work / f"run{index}",
                           work / f"result{index}.json", traced, env)
        runs.append({"inputs": inputs, "seed": seeds[inputs], "traced": traced, **result})
        return "error" not in result

    start = time.monotonic()
    if not trace:
        while (len(runs) < 2 * len(seeds) or time.monotonic() - start < seconds
               or len(runs) % len(seeds)):
            run_once(len(runs) % len(seeds), False)
        return runs
    inputs = 0
    while not run_once(inputs, False):
        if inputs + 1 == len(seeds):
            return runs
        inputs += 1
    while len(ok(runs, traced=True)) < 2 or time.monotonic() - start < seconds:
        run_once(inputs, True)
        run_once(inputs, False)
    return runs


def ok(runs, traced: bool | None = None) -> list[dict]:
    return [r for r in runs if "error" not in r and traced in (None, r["traced"])]


def replay_errors(runs) -> list[str]:
    """Exact replay: per input set, one outcome and one checksum over every repeat.

    An input set whose every repeat fails is a failure of the program, counted
    in `failed`; it breaks no check as long as another set succeeds.
    """
    errors = []
    for inputs in sorted({r["inputs"] for r in runs}):
        repeats = [r for r in runs if r["inputs"] == inputs]
        done = ok(repeats)
        plain = {r["checksum"] for r in done if not r["traced"]}
        traced = {r["checksum"] for r in done if r["traced"]}
        if done and len(done) < len(repeats):
            errors.append(f"replay: {len(repeats) - len(done)} of {len(repeats)} repeats "
                          f"of input set {inputs} failed, the others succeeded")
        if len(plain) > 1:
            errors.append(f"replay: {len(plain)} distinct checksums over untraced repeats "
                          f"of input set {inputs}")
        if len(traced) > 1:
            errors.append(f"replay: {len(traced)} distinct checksums over traced repeats "
                          f"of input set {inputs}")
        if plain and traced and plain != traced:
            errors.append("traced run's checksum differs from the untraced one")
    if not ok(runs, traced=False):
        errors.append("no untraced repeat succeeded")
    return errors


def end_to_end(runs) -> dict:
    """Medians over each input set's repeats, averaged over the sets."""
    plain = [r for r in runs if not r["traced"]]
    done = ok(plain)
    per_set = [[r for r in done if r["inputs"] == inputs]
               for inputs in sorted({r["inputs"] for r in done})]

    def mean_of_medians(value) -> float:
        return statistics.mean(statistics.median(value(r) for r in rs) for rs in per_set)

    return {
        "setup_s": mean_of_medians(lambda r: r["setup_s_cal"]),
        "run_s": mean_of_medians(lambda r: r["run_s_cal"]),
        "train_steps_per_s": mean_of_medians(lambda r: r["train_steps"] / r["run_s_cal"]),
        "peak_rss_mb": mean_of_medians(lambda r: r["peak_rss_mb"]),
        "final_accuracy": mean_of_medians(lambda r: r["final_accuracy"]),
        "success_ratio": len(done) / len(plain),
    }


def per_layer(runs, names: list[str], expected) -> tuple[dict, list[str]]:
    traced, plain = ok(runs, traced=True), ok(runs, traced=False)
    per_repeat = [r["layers"] for r in traced]
    errors = [f"span {span} recorded no calls on a workload where it must fire"
              for span in expected
              if any(values.get(f"{span}.calls", 0) == 0 for values in per_repeat)]
    metrics = {name: statistics.median(values.get(name, 0) for values in per_repeat)
               for name in names if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                   - statistics.median(r["run_s"] for r in plain))
    return metrics, errors


def describe(values: list[float]) -> str:
    return (f"median {statistics.median(values):.6g} over n={len(values)} "
            f"(min {min(values):.6g}, max {max(values):.6g})")


def measure(name: str, seed: int, seconds: float, trace: bool, spec: dict, env: dict,
            info: dict, workload=None) -> dict:
    """Run one workload; print its report and return the result object."""
    workload = workload or WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    try:
        runs = repeat(workload, seed, seconds, trace, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [f"repeat {i}: {r['error']}" for i, r in enumerate(runs) if "error" in r]
    errors = replay_errors(runs)
    metrics = {}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if not errors and not trace:
        metrics = end_to_end(runs)
        for key in ("setup_s", "run_s", "setup_s_cal", "run_s_cal"):
            print(f"{name} {key}: {describe([r[key] for r in ok(runs)])} s")
    elif not errors and ok(runs, traced=True):
        metrics, errors = per_layer(runs, [m["name"] for m in spec["per_layer"]],
                                    workload.expected)
    elif trace:
        errors.append("no traced repeat succeeded")
    for key, value in metrics.items():
        print(f"{name} {key} = {value!r} {units[key]}")
    checksums = {}
    for r in ok(runs):
        checksums.setdefault(r["seed"], r["checksum"])
    for config_seed, checksum in sorted(checksums.items()):
        print(f"{name} checksum {checksum} (config seed {config_seed})")
    for line in failures:
        print(f"{name} failed: {line}", file=sys.stderr)
    for line in errors:
        print(f"{name} error: {line}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": info, "checksums": checksums, "errors": failures + errors,
              "metrics": metrics,
              "repeats": [{k: v for k, v in r.items() if k != "spans"} for r in runs]}
    traced = ok(runs, traced=True)
    if traced:
        record["spans"] = {"fields": ["name", "caller", "parent", "start_s", "end_s"],
                           "spans": traced[-1]["spans"]}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return {"correct": not errors, "attempted": len(runs), "failed": len(failures),
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload; default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fednl" / "__init__.py").is_file():
        print(f"error: no fednl sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    env = child_env()
    try:
        info = environment(env)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("environment " + json.dumps(info, sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: measure(name, args.seed, seconds, bool(args.trace), spec, env, info)
               for name in names}
    correct = all(r["correct"] for r in results.values())
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0 if correct else 1
    for name, result in results.items():
        print(f"result {name} " + json.dumps(result))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": value for name, r in results.items()
                    for key, value in r["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
