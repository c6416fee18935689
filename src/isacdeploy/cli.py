"""Command-line entry point.

One subcommand per experiment kind. Every run writes a self-contained output
directory: `config-echo.json` (the fully resolved configuration), one CSV per
result table, one JSON file per saved deployment, and `summary.json` (headline
numbers, run-check results, wall time). Reruns with the same config and seed
reproduce every artifact byte for byte except the wall time, which lives only
in `summary.json`.

Exit status: 0 when all run checks pass, 1 when the run completed but a check
failed (a `failure-report.json` names the offenders), 2 for unusable input
(bad config, bad deployment file, bad options).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .config import (
    EXPERIMENT_KINDS,
    ConfigError,
    config_to_dict,
    deployment_to_dict,
    load_config,
    load_deployment,
    parse_config,
    with_seed,
)
from .correlation import UndefinedCorrelationError
from .experiments import InfeasibleDeploymentError, Table, run_experiment
from .geometry import DegenerateGeometryError
from .validation import integer_at_least

_COMMAND_HELP = {
    "optimize": "run the genetic optimizer and save the best deployment",
    "montecarlo": "compare the optimized deployment against baselines and a random ensemble",
    "alpha-sweep": "calibrate the distance-weight exponent against localization error",
    "snr-sweep": "track each placement strategy's worst localization error across SNR levels",
    "node-sweep": "compare optimized and random deployments as the node count varies",
    "evaluate": "compute the metrics of one deployment JSON file",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isac-deploy",
        description="Optimize and evaluate sensing-node deployments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for kind in EXPERIMENT_KINDS:
        sub = subparsers.add_parser(kind, help=_COMMAND_HELP[kind])
        sub.add_argument("--config", type=Path, metavar="FILE", help="JSON configuration file")
        sub.add_argument(
            "--out",
            type=Path,
            metavar="DIR",
            help="output directory (default: runs/<command>-seed<seed>)",
        )
        sub.add_argument("--seed", type=int, metavar="N", help="master seed override")
        sub.add_argument(
            "--threads",
            type=int,
            default=1,
            metavar="N",
            help="Monte Carlo worker threads (default: 1); optimize runs no Monte Carlo and does not use it",
        )
        if kind == "evaluate":
            sub.add_argument("deployment", type=Path, help="deployment JSON file to evaluate")
    return parser


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean table cells are not supported")
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _write_csv(path: Path, table: Table) -> None:
    lines = [",".join(table.columns)]
    lines.extend(",".join(_format_cell(cell) for cell in row) for row in table.rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, document) -> None:
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            config = load_config(args.config, expected_kind=args.command)
        else:
            config = parse_config({}, expected_kind=args.command)
        if args.seed is not None:
            try:
                config = with_seed(config, args.seed)
            except ValueError as exc:
                raise ConfigError(f"--seed: {exc}") from exc
        integer_at_least("threads", args.threads, 1)
        deployment = load_deployment(args.deployment) if args.command == "evaluate" else None
    except ValueError as exc:  # a ConfigError, or the threads check
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out
    if out_dir is None:
        out_dir = Path("runs") / f"{args.command}-seed{config.experiment.seed}"
    try:  # before the run, so an unusable --out cannot throw its results away
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "failure-report.json").unlink(missing_ok=True)  # an earlier run's would contradict this one
    except OSError as exc:
        print(f"error: --out {out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        bundle = run_experiment(config, deployment=deployment, threads=args.threads)
    except (InfeasibleDeploymentError, DegenerateGeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UndefinedCorrelationError as exc:
        _write_json(out_dir / "failure-report.json", {"error": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall_time = time.perf_counter() - started

    _write_json(out_dir / "config-echo.json", config_to_dict(config))
    for name, table in bundle.tables.items():
        _write_csv(out_dir / f"{name}.csv", table)
    for name, saved in bundle.deployments.items():
        _write_json(out_dir / f"deployment-{name}.json", deployment_to_dict(saved))
    summary = {**bundle.summary, "checks": dict(bundle.checks), "wall_time_seconds": wall_time}
    _write_json(out_dir / "summary.json", summary)

    failed = sorted(name for name, passed in bundle.checks.items() if not passed)
    if failed:
        _write_json(
            out_dir / "failure-report.json",
            {"failed_checks": failed, "checks": dict(bundle.checks)},
        )
        for name in failed:
            print(f"check failed: {name}", file=sys.stderr)
        print(f"results written to {out_dir} (exit 1: {len(failed)} check(s) failed)", file=sys.stderr)
        return 1
    print(f"results written to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
