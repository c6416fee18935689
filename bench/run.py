"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it uses the checkout's `src/` and
writes only under `.bench_out/`, which it removes again. The workload runs in a
worker process with BLAS pinned to one thread and the program's own thread
count at 1. With `--trace 0` the last line of standard output is a JSON object
with the end-to-end metrics (`run_s`, `setup_s`, `peak_rss_mb`); with
`--trace 1` it has the per-layer metrics. Metric names and units are those of
BENCHMARK.json. The exit code is 0 when every operation ran and passed its
checks, 1 when an operation failed or the worker broke down, 2 when the
checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("ga-reference", "mc-reference", "metric-fine-grid")
SETUP_PROBES = 4
"""Processes that only set up, run both before and after the worker; with the
worker's own set-up they give nine samples of setup_s. The machine's speed
drifts over seconds, so the samples are taken at both ends of the run."""
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def _parse(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics as JSON.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured part of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _environment() -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("ISAC_DEPLOY_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join((str(BENCH), str(ROOT / "src")))
    return env


def _worker(args, out: Path, deadline: float, setup_only: bool = False) -> dict:
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(out),
    ]
    if setup_only:
        command.append("--setup-only")
    try:
        done = subprocess.run(
            command, env=_environment(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError("the worker did not finish in time") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(f"the worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "isacdeploy" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'isacdeploy'}; run from a full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + DEADLINE_S
    out = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [_worker(args, out / f"setup-{k}", deadline, setup_only=True)["setup_s"] for k in range(probes)]
        result = _worker(args, out / "run", deadline)
        setups += [_worker(args, out / f"setup-{k}", deadline, setup_only=True)["setup_s"] for k in range(probes)]
    except WorkerError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            out.parent.rmdir()

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups + [result["setup_s"]])
    if set(metrics) != set(units):
        print(f"error: measured {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    report = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(report))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
