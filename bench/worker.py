"""One workload in its own process: set up, run timed rounds, check, report.

Started by run.py, which pins BLAS to one thread in this process's
environment before numpy loads. The last line of standard output is one JSON
object: the operation counts, the metrics of the requested mode and this
process's set-up time. Set-up time is the CPU time (user + system) the process
has used when it is ready, from interpreter start to generated inputs: unlike
wall time, it does not grow while other tenants hold the machine's cores.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from spans import COUNTS, Tracer


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _run_rounds(workload, seconds: float, traced_mode: bool):
    """Whole rounds until the next one would overrun `seconds`.

    Untraced, every round is plain. Traced, the first round also traces
    allocations, so it sees every cache the process fills; then span-only and
    plain rounds alternate. Each round is (kind, wall seconds, outputs, tracer).
    """
    rounds = []
    began = time.perf_counter()
    while True:
        if not traced_mode:
            kind = "plain"
        elif not rounds:
            kind = "memory"
        else:
            kind = "spans" if len(rounds) % 2 else "plain"
        workload.before_round()
        tracer = None if kind == "plain" else Tracer(memory=kind == "memory")
        if tracer:
            tracer.start()
        started = time.perf_counter()
        raw = workload.run_round()
        wall = time.perf_counter() - started
        if tracer:
            tracer.stop()
        rounds.append((kind, wall, workload.collect(raw), tracer))
        elapsed = time.perf_counter() - began
        if traced_mode and len(rounds) < 3:
            continue
        if elapsed + statistics.median(r[1] for r in rounds) > seconds:
            return rounds


def _layer_metrics(rounds) -> tuple[dict, list[str]]:
    """Per-layer metrics: memory figures and counts from the allocation-traced
    round, times as medians over the span-only rounds, whose counts must repeat
    the first round's exactly."""
    exact = (*COUNTS, "cli.artifact_bytes")
    measured = []
    for kind, _, outputs, tracer in rounds:
        if tracer:
            values = tracer.metrics()
            values["cli.artifact_bytes"] = sum(out.get("artifact_bytes", 0) for out in outputs)
            measured.append((kind, values))
    first = measured[0][1]
    timed = [values for kind, values in measured if kind == "spans"]
    problems = [
        f"{name} is {values[name]} in a later traced round, {first[name]} in the first"
        for values in timed
        for name in exact
        if values[name] != first[name]
    ]
    metrics = {}
    for name, value in first.items():
        if name in exact or name.endswith("_mb"):
            metrics[name] = value
        else:
            metrics[name] = statistics.median(values[name] for values in timed)
    walls = {kind: statistics.median(r[1] for r in rounds if r[0] == kind) for kind in ("spans", "plain")}
    metrics["trace.overhead_s"] = walls["spans"] - walls["plain"]
    for name in rounds[0][3].missing:
        print(f"trace: hooked function {name} is missing; its layer metrics read 0", file=sys.stderr)
    return metrics, problems


def tally(outputs: list[list[dict]], verdicts: list[list[list[str]]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of every round.

    An operation fails if it raised or exited non-zero, or if its output failed
    a check. Either way it is a problem that makes the run incorrect, so a
    broken program cannot pass as a fast one.
    """
    attempted = failed = 0
    problems = []
    for index, (round_outputs, round_verdicts) in enumerate(zip(outputs, verdicts)):
        for op, (out, found) in enumerate(zip(round_outputs, round_verdicts)):
            attempted += 1
            if out["error"] is not None:
                found = [f"failed: {out['error']}"]
            if found:
                failed += 1
                problems += [f"round {index} operation {op}: {p}" for p in found]
    return attempted, failed, problems


def main(argv=None) -> int:
    args = _parse(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.out)
    setup_s = time.process_time()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rounds = _run_rounds(workload, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outputs = [r[2] for r in rounds]
    attempted, failed, incorrect = tally(outputs, workload.check(outputs))
    if args.trace:
        metrics, trace_problems = _layer_metrics(rounds)
        incorrect += trace_problems
    else:
        metrics = {"run_s": statistics.median(r[1] for r in rounds), "peak_rss_mb": peak_rss_mb}
    for line in incorrect[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    walls = " ".join(f"{kind[0]}{wall:.3f}" for kind, wall, _, _ in rounds)
    print(f"{args.workload}: {attempted} operations, {failed} failed; round walls (s): {walls}", file=sys.stderr)
    result = {"correct": not incorrect, "attempted": attempted, "failed": failed, "metrics": metrics, "setup_s": setup_s}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
