"""The benchmark's workloads.

A workload builds its inputs once from the benchmark seed (its set-up), then
runs rounds of the same operations. `run_round` is the timed part and returns
one raw result per operation; `collect` turns those into plain outputs outside
the timer; `check` judges every collected round and returns, per round and per
operation, the list of reasons the output is wrong.

The program is always called through module attributes (`cli.main`,
`music.rmse_map`, ...), so the tracer's wrappers are seen when installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks
import reference
from isacdeploy import cli, correlation, music
from isacdeploy.geometry import Deployment, Scenario
from isacdeploy.signals import PowerLevels
from reference import RefScenario

THREADS = 1
"""The program's own thread count. On the 2-core reference machine, 2 threads
made round times swing about twice as much under load from other tenants."""


def _attempt(call, *args, **kwargs):
    """(result, None) or (None, error text): an operation that raises fails, the run goes on.

    SystemExit is caught too: `cli.main` leaves through it on argument errors.
    """
    try:
        return call(*args, **kwargs), None
    except (Exception, SystemExit) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Input and check generators, both spawned from the one benchmark seed."""
    inputs, check = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(inputs), np.random.default_rng(check)


def _deployment(poses) -> Deployment:
    return Deployment.from_array(np.asarray(poses, dtype=float))


def read_optimize_artifacts(out: Path) -> dict:
    """The parts of an `optimize` output directory that the checks judge."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    summary.pop("wall_time_seconds")
    lines = (out / "convergence.csv").read_text(encoding="utf-8").splitlines()[1:]
    poses = json.loads((out / "deployment-optimized.json").read_text(encoding="utf-8"))["poses"]
    return {
        "error": None,
        "summary": summary,
        "convergence": [(int(g), float(v)) for g, v in (line.split(",") for line in lines)],
        "poses": [(p["x"], p["y"], p["theta"]) for p in poses],
        # summary.json holds the wall time, whose length varies from run to run
        "artifact_bytes": sum(p.stat().st_size for p in out.iterdir() if p.name != "summary.json"),
    }


class GaReference:
    """`isac-deploy optimize` through `cli.main` on the reference scenario."""

    POPULATION = 100
    ELITES = 4
    GENERATIONS = 20
    RANDOM_BASELINES = 200

    def __init__(self, seed: int, out_dir: Path):
        inputs, self._check_rng = _streams(seed)
        self.ref = RefScenario()
        self.out = out_dir / "optimize"
        self.config = out_dir / "config.json"
        document = {
            "ga": {"population_size": self.POPULATION, "elite_count": self.ELITES, "max_generations": self.GENERATIONS},
            "experiment": {"seed": int(inputs.integers(2**63))},
        }
        self.config.write_text(json.dumps(document), encoding="utf-8")

    def before_round(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run_round(self) -> list:
        argv = ["optimize", "--config", str(self.config), "--out", str(self.out), "--threads", str(THREADS)]
        with contextlib.redirect_stdout(io.StringIO()):
            return [_attempt(cli.main, argv)]

    def collect(self, raw: list) -> list:
        (code, error), = raw
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is not None:
            return [{"error": error}]
        return [read_optimize_artifacts(self.out)]

    def check(self, rounds: list[list]) -> list[list[list[str]]]:
        ref = self.ref
        randoms = [reference.random_poses(ref, self._check_rng) for _ in range(self.RANDOM_BASELINES)]
        baselines = {
            "the midpoint baseline": ref.worst_pair(reference.midpoint_poses(ref))[0],
            f"the best of {self.RANDOM_BASELINES} random deployments": min(ref.worst_pair(p)[0] for p in randoms),
        }
        first = None
        verdicts = []
        for (output,) in rounds:
            if output["error"] is not None:
                verdicts.append([[]])
                continue
            problems = checks.check_optimize(output, ref, self.POPULATION, self.ELITES, self.GENERATIONS, baselines)
            if first is None:
                first = output
            elif output != first:
                problems.append("artifacts differ from the first round's")
            verdicts.append([problems])
        return verdicts


class MapOp(NamedTuple):
    """One `rmse_map` call: which layout, at what level (None: noiseless), how many trials."""

    layout: int
    deployment: Deployment
    scenario: Scenario
    snr_db: float | None
    trials: int
    powers: PowerLevels | None


class McReference:
    """`music.rmse_map` at 50 trials on the midpoint and random layouts, at 0 and +20 dB."""

    TRIALS = 50
    NOISELESS_TRIALS = 4
    RANDOM_DEPLOYMENTS = 1
    LEVELS_DB = (0.0, 20.0)

    def __init__(self, seed: int, out_dir: Path):
        inputs, self._check_rng = _streams(seed)
        self.ref = RefScenario()
        self.poses = [reference.midpoint_poses(self.ref)]
        self.poses += [reference.random_poses(self.ref, inputs) for _ in range(self.RANDOM_DEPLOYMENTS)]
        self.noise_seed = int(inputs.integers(2**63))
        scenario = Scenario()
        self.ops = [
            MapOp(k, _deployment(p), replace(scenario, snr_db=level), level, self.TRIALS, None)
            for k, p in enumerate(self.poses)
            for level in self.LEVELS_DB
        ]
        self.ops.append(MapOp(0, self.ops[0].deployment, scenario, None, self.NOISELESS_TRIALS, PowerLevels(1.0, 0.0)))

    def before_round(self) -> None:
        pass

    def run_round(self) -> list:
        return [
            _attempt(
                music.rmse_map, op.deployment, op.scenario, op.trials, np.random.default_rng(self.noise_seed),
                powers=op.powers, threads=THREADS,
            )
            for op in self.ops
        ]

    def collect(self, raw: list) -> list:
        return [
            {"error": error}
            if error is not None
            else {"error": None, "rmse": stats.per_point_rmse, "max": stats.max_rmse, "trials": stats.trials_per_point}
            for stats, error in raw
        ]

    def check(self, rounds: list[list]) -> list[list[list[str]]]:
        ref = self.ref
        at_zero = [i for i, op in enumerate(self.ops) if op.snr_db == 0.0]
        verdicts = []
        for outputs in rounds:
            verdicts.append(
                [
                    []
                    if out["error"] is not None
                    else checks.check_map(out["rmse"], out["max"], ref, op.snr_db, out["trials"], op.trials)
                    for op, out in zip(self.ops, outputs)
                ]
            )
        complete = [outputs for outputs in rounds if all(outputs[i]["error"] is None for i in at_zero)]
        if complete:
            first = complete[0]
            program = np.concatenate([first[i]["rmse"] == 0.0 for i in at_zero])
            independent = np.concatenate(
                [
                    reference.music_exact(
                        ref.steering(self.poses[self.ops[i].layout]), 0.0, ref.snapshots, self.TRIALS, self._check_rng
                    )
                    for i in at_zero
                ]
            )
            pooled = checks.check_exact_share(program, independent)
            for outputs, problems in zip(rounds, verdicts):
                for i, out in enumerate(outputs):
                    if out["error"] is not None:
                        continue
                    if not np.array_equal(out["rmse"], first[i]["rmse"]):
                        problems[i].append("RMSE map differs from the first round's")
                    if i in at_zero:
                        problems[i].extend(pooled)
        return verdicts


class MetricFineGrid:
    """`max_weighted_correlation(build_codebook(d, scenario))` at a 0.25 m grid."""

    RESOLUTION = 0.25
    DEPLOYMENTS = 4
    BRUTE_FORCE = 2

    def __init__(self, seed: int, out_dir: Path):
        inputs, self._check_rng = _streams(seed)
        self.ref = RefScenario(resolution=self.RESOLUTION)
        self.scenario = Scenario(grid_resolution=self.RESOLUTION)
        self.poses = [reference.random_poses(self.ref, inputs) for _ in range(self.DEPLOYMENTS)]
        self.deployments = [_deployment(p) for p in self.poses]

    def before_round(self) -> None:
        pass

    def run_round(self) -> list:
        return [_attempt(self._score, d) for d in self.deployments]

    def _score(self, deployment):
        return correlation.max_weighted_correlation(correlation.build_codebook(deployment, self.scenario))

    def collect(self, raw: list) -> list:
        return [
            {"error": error} if error is not None else {"error": None, "value": r.max_value, "pair": r.arg_pair}
            for r, error in raw
        ]

    def check(self, rounds: list[list]) -> list[list[list[str]]]:
        subset = set(self._check_rng.choice(self.DEPLOYMENTS, self.BRUTE_FORCE, replace=False).tolist())
        brute = {k: self.ref.worst_pair(self.poses[k])[0] for k in sorted(subset)}
        firsts: dict[int, dict] = {}
        verdicts = []
        for outputs in rounds:
            problems = []
            for k, out in enumerate(outputs):
                if out["error"] is not None:
                    problems.append([])
                    continue
                found = checks.check_metric(out["value"], out["pair"], self.ref, self.poses[k], brute.get(k))
                if firsts.setdefault(k, out) != out:
                    found.append("report differs from the first round's")
                problems.append(found)
            verdicts.append(problems)
        return verdicts


WORKLOADS = {"ga-reference": GaReference, "mc-reference": McReference, "metric-fine-grid": MetricFineGrid}
