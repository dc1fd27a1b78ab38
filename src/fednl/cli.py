"""Command-line harness: synth, inject, estimate, run, rounds, report.

Exit codes: 0 on success, 2 for validation problems (bad flags, bad config,
malformed input files, data that does not fit the config, refusing to
overwrite), 3 for runtime failures (diverged training, failed measurements,
allocation faults).
"""

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .config import (ConfigError, ExperimentConfig, build_datasets,
                     build_federation_config, build_trainer_config, load_config,
                     parse_flip_rules)
from .data import ParseError, SchemaError, load_dataset, save_dataset, synth_gaussian
from .engine import record_to_dict, run_fednl, server_test_rows
from .estimator import EstimationError, estimate_noise, estimate_to_dict, format_estimate
from .exchange import transcript_to_dict
from .metrics import format_snapshot
from .noise import asymmetric_matrix, inject_noise, save_matrix, symmetric_matrix, with_out_of_space
from .rounds import _GRID_ERRORS, measure_round_grid
from .trainer import Constant, TrainerConfig, save_model

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

#: Environment override for where relative run directories land.
OUTPUT_ROOT_ENV = "FEDNL_OUTPUT_ROOT"

logger = logging.getLogger(__name__)


def _require_fresh(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise ConfigError([f"{path} already exists; pass --force to overwrite"])


def _under_root(path_str: str) -> Path:
    """The env root relocates relative artifact paths; absolute paths win."""
    path = Path(path_str)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _resolve_output(configured: str, override: str | None) -> Path:
    """CLI --out beats the config; the env root relocates relative paths."""
    return _under_root(override if override else configured)


def _seed(raw: str) -> int:
    """A --seed value: a non-negative integer, as every derived stream needs."""
    if not raw.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {raw!r}")
    return int(raw)


def cmd_synth(args) -> int:
    out = _under_root(args.out)
    _require_fresh(out, args.force)
    try:
        dataset = synth_gaussian(args.classes, args.per_class, args.dim, args.separation,
                                 args.seed, name=out.stem)
    except ValueError as e:
        raise ConfigError([str(e)]) from e
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out)
    print(f"wrote {dataset.n} instances ({dataset.class_count} classes, "
          f"{dataset.d} features) to {out}")
    return EXIT_OK


def cmd_inject(args) -> int:
    out = _under_root(args.out)
    _require_fresh(out, args.force)
    if (args.beta is None) == (args.pairs is None):
        raise ConfigError(["give exactly one of --beta or --pairs"])
    dataset = load_dataset(args.data, class_count=args.classes)
    try:
        if args.beta is not None:
            matrix = symmetric_matrix(dataset.class_count, args.beta)
        else:
            matrix = asymmetric_matrix(dataset.class_count, parse_flip_rules(args.pairs))
        if args.out_of_space > 0.0:
            matrix = with_out_of_space(matrix, args.out_of_space)
    except ValueError as e:
        raise ConfigError([str(e)]) from e

    noisy, report = inject_noise(dataset, matrix, args.seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(noisy, out)
    if args.matrix_out:
        matrix_out = _under_root(args.matrix_out)
        matrix_out.parent.mkdir(parents=True, exist_ok=True)
        save_matrix(matrix, matrix_out)

    print(f"label channel over {matrix.class_count} classes"
          + (" with an out-of-space column" if matrix.has_out_of_space else ""))
    print(f"{'class':>5} {'size':>6} {'flipped':>8} {'realized':>9}")
    for k in range(dataset.class_count):
        print(f"{k:>5} {report.class_counts[k]:>6} {report.injected_count[k]:>8} "
              f"{report.realized_ratio[k]:>9.4f}")
    print(f"total flips: {report.flip_count}/{dataset.n} (rate {report.flip_rate:.4f})")
    print(f"wrote noisy dataset to {out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    dataset = load_dataset(args.data, allow_out_of_space=True)
    try:
        trainer = TrainerConfig(local_epochs=args.epochs, batch_size=args.batch_size,
                                lr_schedule=Constant(args.eta), l2_lambda=args.l2)
    except ValueError as e:
        raise ConfigError([str(e)]) from e
    try:
        estimate = estimate_noise(dataset, trainer, args.seed,
                                  per_class_resplit=args.per_class_resplit)
    except EstimationError as e:
        raise ConfigError([f"{args.data}: {e}"]) from e
    print(format_estimate(estimate))
    if args.json:
        json_out = _under_root(args.json)
        json_out.parent.mkdir(parents=True, exist_ok=True)
        json_out.write_text(json.dumps(estimate_to_dict(estimate),
                                       sort_keys=True, indent=2) + "\n")
        print(f"wrote estimate to {json_out}")
    return EXIT_OK


def _write_run_dir(run_dir: Path, config: ExperimentConfig, run) -> None:
    """Fixed artifact names: config.echo, rounds.ndrecords, models/,
    exchange.transcript, metrics.final."""
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.echo").write_text(config.echo())
    with open(run_dir / "rounds.ndrecords", "w") as fh:
        for record in run.records:
            fh.write(json.dumps(record_to_dict(record), sort_keys=True) + "\n")
    models_dir = run_dir / "models"
    models_dir.mkdir(exist_ok=True)
    save_model(run.global_model, models_dir / "global.model")
    for i, model in enumerate(run.local_models):
        save_model(model, models_dir / f"local_{i:02d}.model")
    with open(run_dir / "exchange.transcript", "w") as fh:
        for i, transcript in enumerate(run.transcripts or ()):
            fh.write(json.dumps({"participant": i, **transcript_to_dict(transcript)},
                                sort_keys=True) + "\n")
    if run.final_metrics is not None:
        (run_dir / "metrics.final").write_text(format_snapshot(run.final_metrics) + "\n")
    else:
        (run_dir / "metrics.final").write_text("no server test split; no final metrics\n")


def _check_server(config: ExperimentConfig, fed, participant, server) -> None:
    """Refuse a server whose class or feature space is not the participants',
    or whose test split leaves influence weighting nothing to score.

    Checked here, not in `build_datasets`: `fednl rounds` reads no server.
    """
    synth = config["server.source"] == "synth"
    errors = []
    if server.class_count != participant.class_count:
        errors.append(f"{'data.classes' if synth else 'server.path'}: the server holds "
                      f"{server.class_count} classes, the participants {participant.class_count}")
    if server.d != participant.d:
        errors.append(f"{'data.dim' if synth else 'server.path'}: the server holds "
                      f"{server.d} features, the participants {participant.d}")
    fraction = config["server.test_fraction"]
    if fed.weighting == "fednl" and server_test_rows(server.n, fraction) == 0:
        errors.append(f"server.test_fraction: {fraction:g} of {server.n} server rows rounds to "
                      "an empty test split; influence weighting needs a non-empty one")
    if errors:
        raise ConfigError(errors)


def cmd_run(args) -> int:
    config = load_config(args.config)
    run_dir = _resolve_output(config["output"], args.out)
    _require_fresh(run_dir, args.force)

    participants, server = build_datasets(config)
    fed = build_federation_config(config)
    if server is not None:
        _check_server(config, fed, participants[0], server)
    run = run_fednl(fed, participants, server)

    _write_run_dir(run_dir, config, run)
    last = run.records[-1]
    print(f"{config['algorithm']} run: {len(run.records)} rounds, "
          f"{len(participants)} participants")
    print(f"training sizes: {list(run.training_sizes)}")
    print(f"estimated noise ratios: {[round(b, 4) for b in run.betas]}")
    print(f"final weights: {[round(e, 4) for e in last.epsilon]}")
    if last.global_accuracy is not None:
        print(f"final accuracy {last.global_accuracy:.4f}, "
              f"macro F1 {last.global_macro_f1:.4f}")
    print(f"artifacts in {run_dir}")
    return EXIT_OK


def cmd_rounds(args) -> int:
    config = load_config(args.config)
    clean_cfg = ExperimentConfig(values={**config.values, "noise.kind": "none"})
    participants, _ = build_datasets(clean_cfg)
    trainer = build_trainer_config(config)
    grid_epochs = config["rounds_grid.local_epochs"]
    grid_qo = config["rounds_grid.q_o"]

    header = (f"{'noise':>6} {'E':>4} {'q_o':>10} {'B':>12} {'alpha':>9} "
              f"{'raw':>14} {'rounds':>8}")
    print(header)
    print("-" * len(header))
    failures = 0
    levels = config["rounds_grid.noise"]
    grid = measure_round_grid(participants, trainer, config["seed"], levels,
                              config["pipeline.init_scale"])
    for level, constants in zip(levels, grid):
        if isinstance(constants, Exception):
            for epochs in grid_epochs:
                for q_o in grid_qo:
                    print(f"{level:>6.3f} {epochs:>4} {q_o:>10.4g}  error: {constants}")
                    failures += 1
            continue
        smooth, comps = constants.smooth, constants.components
        print(f"# noise {level:.3f}: L={smooth.L:.4g} mu={smooth.mu:.4g} "
              f"max sigma^2={max(comps.sigma_sq):.4g} G^2={comps.G_sq:.4g} "
              f"Gamma={comps.Gamma:.4g} gap={constants.init_gap:.4g}")
        for epochs in grid_epochs:
            for q_o in grid_qo:
                try:
                    B, est = constants.rounds(epochs, q_o, alpha_minus_one=args.alpha_minus_one)
                except _GRID_ERRORS as e:
                    print(f"{level:>6.3f} {epochs:>4} {q_o:>10.4g}  error: {e}")
                    failures += 1
                    continue
                print(f"{level:>6.3f} {epochs:>4} {q_o:>10.4g} {B:>12.5g} "
                      f"{est.alpha:>9.4g} {est.raw:>14.5g} {est.rounds:>8}")
    if failures:
        print(f"{failures} grid point(s) failed")
    return EXIT_OK


#: The fields of a round record that `report` reads.
_RECORD_FIELDS = ("t", "epsilon", "global_loss", "global_accuracy", "global_macro_f1")


def _load_records(run_dir: Path) -> list[dict]:
    path = run_dir / "rounds.ndrecords"
    if not path.exists():
        raise ConfigError([f"{path} not found; is {run_dir} a run directory?"])
    records = []
    with open(path) as fh:
        for index, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}: record {index} is corrupt: {e}") from None
            if not isinstance(record, dict):
                raise ParseError(f"{path}: record {index} is corrupt: not a round record")
            missing = [key for key in _RECORD_FIELDS if key not in record]
            if missing:
                raise ParseError(f"{path}: record {index} is corrupt: lacks {', '.join(missing)}")
            records.append(record)
    if not records:
        raise ParseError(f"{path}: no records")
    return records


def _write_series(run_dir: Path, records: list[dict]) -> list[Path]:
    report_dir = run_dir / "report"
    report_dir.mkdir(exist_ok=True)
    n = len(records[0]["epsilon"])
    written = []

    path = report_dir / "accuracy_by_round.tsv"
    with open(path, "w") as fh:
        fh.write("t\tglobal_loss\tglobal_accuracy\tglobal_macro_f1\n")
        for r in records:
            acc = "" if r["global_accuracy"] is None else f"{r['global_accuracy']:.6f}"
            f1 = "" if r["global_macro_f1"] is None else f"{r['global_macro_f1']:.6f}"
            fh.write(f"{r['t']}\t{r['global_loss']:.10g}\t{acc}\t{f1}\n")
    written.append(path)

    path = report_dir / "contribution_by_round.tsv"
    with open(path, "w") as fh:
        fh.write("t\t" + "\t".join(f"eps_{i}" for i in range(n)) + "\n")
        for r in records:
            fh.write(str(r["t"]) + "\t" + "\t".join(f"{e:.10g}" for e in r["epsilon"]) + "\n")
    written.append(path)

    # Ratio of each weight to the uniform share: 1.0 means "weighted as if clean".
    path = report_dir / "contribution_ratio.tsv"
    with open(path, "w") as fh:
        fh.write("t\t" + "\t".join(f"ratio_{i}" for i in range(n)) + "\n")
        for r in records:
            fh.write(str(r["t"]) + "\t"
                     + "\t".join(f"{e * n:.10g}" for e in r["epsilon"]) + "\n")
    written.append(path)
    return written


def cmd_report(args) -> int:
    run_dir = _under_root(args.run)
    if not run_dir.is_dir():
        raise ConfigError([f"run directory not found: {run_dir}"])
    records = _load_records(run_dir)
    n = len(records[0]["epsilon"])
    last = records[-1]

    print(f"run at {run_dir}: {len(records)} rounds, {n} participants")
    print()
    print(f"{'t':>5} {'loss':>12} {'accuracy':>9} {'macro_f1':>9}  epsilon")
    for r in records:
        acc = "      -  " if r["global_accuracy"] is None else f"{r['global_accuracy']:>9.4f}"
        f1 = "      -  " if r["global_macro_f1"] is None else f"{r['global_macro_f1']:>9.4f}"
        eps = " ".join(f"{e:.4f}" for e in r["epsilon"])
        print(f"{r['t']:>5} {r['global_loss']:>12.6f} {acc} {f1}  {eps}")
    print()
    print("contribution ratio to the uniform share (last round):")
    print("  " + " ".join(f"{e * n:.4f}" for e in last["epsilon"]))

    metrics_path = run_dir / "metrics.final"
    if metrics_path.exists():
        print()
        print(metrics_path.read_text().rstrip())

    for path in _write_series(run_dir, records):
        print(f"wrote {path}")

    if args.compare:
        other_dir = _under_root(args.compare)
        if not other_dir.is_dir():
            raise ConfigError([f"run directory not found: {other_dir}"])
        other = _load_records(other_dir)
        print()
        print(f"comparison against {other_dir}:")
        print(f"{'t':>5} {'accuracy_a':>11} {'accuracy_b':>11} {'delta':>9}")
        for ra, rb in zip(records, other):
            if ra["global_accuracy"] is None or rb["global_accuracy"] is None:
                continue
            delta = ra["global_accuracy"] - rb["global_accuracy"]
            print(f"{ra['t']:>5} {ra['global_accuracy']:>11.4f} "
                  f"{rb['global_accuracy']:>11.4f} {delta:>+9.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fednl",
        description="Noise-aware federated learning simulator.")
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a Gaussian-blob dataset file")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--per-class", type=int, default=200)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--separation", type=float, default=8.0)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true", help="overwrite an existing file")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("inject", help="pass labels through a noise channel")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--beta", type=float, help="symmetric flip probability")
    p.add_argument("--pairs", help="asymmetric rules, e.g. 1>0:0.3,2>0:0.3")
    p.add_argument("--out-of-space", type=float, default=0.0,
                   help="extra mass flipped outside the class space")
    p.add_argument("--classes", type=int, help="override the inferred class count")
    p.add_argument("--matrix-out", help="also save the transition matrix here")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("estimate", help="estimate per-class noise ratios on one dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--l2", type=float, default=0.01)
    p.add_argument("--per-class-resplit", action="store_true",
                   help="re-draw the fold split for every class")
    p.add_argument("--json", help="also write the estimate as JSON here")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("run", help="execute a federated run from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="run directory (overrides the config's output key)")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("rounds", help="estimate communication rounds over a config grid")
    p.add_argument("--config", required=True)
    p.add_argument("--alpha-minus-one", action="store_true",
                   help="use the shifted alpha from the derivation")
    p.set_defaults(func=cmd_rounds)

    p = sub.add_parser("report", help="render tables and series from a run directory")
    p.add_argument("--run", required=True)
    p.add_argument("--compare", help="second run directory for a per-round comparison")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_VALIDATION
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as e:
        print(e, file=sys.stderr)
        return EXIT_VALIDATION
    except (ParseError, SchemaError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
