"""One measured fednl process: set up, run one CLI command, check its output.

    python3 child.py --config CFG --command run|rounds --run-dir DIR
                     --result OUT.json --t0 EPOCH_SECONDS [--trace]

Set-up is `import fednl`, `load_config` and `build_datasets`, timed from
`--t0`, the wall clock the parent read just before starting this process.
The run is `fednl.cli.main` on the same config; its `load_config` and
`build_datasets` bindings are pointed at the objects set-up built, so the
run does not redo set-up and the timed region starts with inputs ready.
`run` ends when the run directory is written, `rounds` when the grid table
is printed. The result (timings, checksum, quality, optional trace) goes to
`--result` as JSON.

On a VM shared with other tenants the speed of the same code drifts by up
to 1.6x over seconds to minutes. So each timing is also reported scaled
to a fixed machine speed: a reference kernel runs right before and right
after the timed run, and `*_cal` figures are the wall figures times
REFERENCE_STEP_S over its measured time per step.
"""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import spans

RUN_ARTIFACTS = ("rounds.ndrecords", "exchange.transcript", "metrics.final")

#: Nominal seconds per reference step; calibrated times are wall times at
#: this speed. Close to an uncontended 2.1 GHz x86 vCPU, so the two agree
#: when the host is quiet.
REFERENCE_STEP_S = 20e-6
#: Wall time the reference kernel runs for on each side of the timed run.
REFERENCE_SECONDS = 0.4


def reference_step_s(seconds: float = REFERENCE_SECONDS) -> float:
    """Mean time of one fixed SGD-like step: a 32-row minibatch of 21
    features through a 10-class softmax and its gradient, the shapes and
    numpy calls of fednl's hot loop, so it slows down with the host as the
    loop does."""
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.standard_normal((500, 21))
    w = rng.standard_normal((21, 10))
    steps = 0
    start = time.perf_counter()
    while True:
        for _ in range(50):
            xb = x[rng.integers(0, 500, 32)]
            logits = xb @ w
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            w -= 1e-3 * (xb.T @ p) / 32
        steps += 50
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / steps


def run_checksum(run_dir: Path) -> str:
    """sha256 over the run's deterministic artifacts, names included."""
    digest = hashlib.sha256()
    paths = [run_dir / name for name in RUN_ARTIFACTS]
    paths += sorted((run_dir / "models").iterdir())
    for path in paths:
        digest.update(str(path.relative_to(run_dir)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def final_accuracy(run_dir: Path) -> float:
    """Global accuracy on the server test split in the last round record."""
    last = (run_dir / "rounds.ndrecords").read_text().splitlines()[-1]
    return float(json.loads(last)["global_accuracy"])


def training_sizes(stdout: str) -> list[int]:
    prefix = "training sizes: "
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return ast.literal_eval(line[len(prefix):])
    raise ValueError("run printed no training sizes")


def grid_outcome(stdout: str, config) -> tuple[int, int]:
    """(grid points, failed grid points) of a `fednl rounds` table."""
    points = (len(config["rounds_grid.noise"]) * len(config["rounds_grid.local_epochs"])
              * len(config["rounds_grid.q_o"]))
    failed = sum(1 for line in stdout.splitlines() if "  error: " in line)
    return points, failed


def measure(args) -> dict:
    # Set-up cost: numpy, scipy and the package.
    from fednl import cli, config as config_mod, trainer

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    config = config_mod.load_config(args.config)
    datasets = config_mod.build_datasets(config)
    ready_wall = time.time()
    before = reference_step_s()

    def prepared_config(path):
        if Path(path) != Path(args.config):
            raise RuntimeError(f"unexpected config {path}")
        return config

    def prepared_datasets(cfg):
        if cfg.echo() != config.echo():
            raise RuntimeError("the command built datasets from another config")
        return datasets

    cli.load_config = prepared_config
    cli.build_datasets = prepared_datasets
    argv = ["run", "--config", args.config, "--out", args.run_dir] if args.command == "run" \
        else ["rounds", "--config", args.config]
    out, err = io.StringIO(), io.StringIO()
    ready = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    run_s = time.perf_counter() - ready
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = reference_step_s()

    setup_s = ready_wall - args.t0
    result = {"setup_s": setup_s, "run_s": run_s, "reference_step_s": [before, after],
              "setup_s_cal": setup_s * REFERENCE_STEP_S / before,
              "run_s_cal": run_s * 2 * REFERENCE_STEP_S / (before + after),
              "peak_rss_mb": peak_rss_mb}
    if code != 0:
        result["error"] = f"fednl {args.command} exited {code}: {err.getvalue().strip()}"
        return result

    stdout = out.getvalue()
    trainer_cfg = config_mod.build_trainer_config(config)
    if args.command == "run":
        run_dir = Path(args.run_dir)
        result["checksum"] = run_checksum(run_dir)
        result["final_accuracy"] = final_accuracy(run_dir)
        result["train_steps"] = config["rounds"] * sum(
            trainer.steps_per_round(n, trainer_cfg) for n in training_sizes(stdout))
    else:
        points, failed = grid_outcome(stdout, config)
        result["checksum"] = hashlib.sha256(stdout.encode()).hexdigest()
        # No global model exists; the grid's result is its completed points.
        result["final_accuracy"] = (points - failed) / points
        if tracer is not None:
            tracer.count("rounds.grid_points_failed", failed)
        participants, _ = datasets
        result["train_steps"] = len(config["rounds_grid.noise"]) * sum(
            trainer.steps_per_round(ds.n, trainer_cfg) for ds in participants)
    if tracer is not None:
        result["spans"] = tracer.spans
        result["layers"] = spans.summarize(tracer.spans, tracer.counts, run_s)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--command", choices=("run", "rounds"), required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    try:
        result = measure(args)
    except Exception:
        result = {"error": traceback.format_exc()}
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
