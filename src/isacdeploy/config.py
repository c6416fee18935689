"""Strict JSON configuration for the experiment harness.

A config document is a single JSON object with up to three blocks mirroring
the library types: "scenario" (physical/simulation parameters), "ga"
(optimizer hyper-parameters), and "experiment" (what to run: kind, master
seed, ensemble sizes, sweep lists). Every block is optional and defaults to
the reference settings; unknown keys are errors so typos fail fast instead of
silently running the wrong experiment.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .ga import GaParams
from .geometry import MAX_NOISE_BLOCK_BYTES, Deployment, Scenario
from .signals import snr_to_powers
from .validation import as_float, integer_at_least, real_in

EXPERIMENT_KINDS = ("optimize", "montecarlo", "alpha-sweep", "snr-sweep", "node-sweep", "evaluate")

_MAX_SEED = 2**64 - 1


class ConfigError(ValueError):
    """A configuration document is malformed or inconsistent."""


@dataclass(frozen=True)
class ExperimentSettings:
    """What to run and at what scale.

    The ensemble defaults are desk-scale (200 random deployments, 50 Monte
    Carlo trials per grid point); larger studies raise them via config.
    `music` toggles Monte Carlo localization where it is optional.
    """

    kind: str
    seed: int = 0
    random_deployment_count: int = 200
    trials_per_point: int = 50
    alpha_values: tuple[float, ...] = (0.01, 0.05, 0.1, 0.2)
    snr_values_db: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    node_counts: tuple[int, ...] = (2, 3, 4, 5)
    music: bool = True

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"kind must be one of {EXPERIMENT_KINDS}, got {self.kind!r}")
        as_float("seed", self.seed)
        if not isinstance(self.seed, int) or not 0 <= self.seed <= _MAX_SEED:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        for name in ("random_deployment_count", "trials_per_point"):
            object.__setattr__(self, name, integer_at_least(name, getattr(self, name), 1))
        if self.kind == "alpha-sweep" and self.random_deployment_count < 2:
            raise ValueError(
                "random_deployment_count must be >= 2 for alpha-sweep (a Pearson coefficient needs two "
                f"deployments), got {self.random_deployment_count!r}"
            )
        alphas = tuple(real_in(f"alpha_values[{index}]", a, 0.0) for index, a in enumerate(self.alpha_values))
        if not alphas:
            raise ValueError(f"alpha_values must be a non-empty list of values >= 0, got {self.alpha_values!r}")
        if len(set(alphas)) < len(alphas):
            raise ValueError(f"alpha_values must list each value once, got {self.alpha_values!r}")
        snrs = tuple(real_in(f"snr_values_db[{index}]", s) for index, s in enumerate(self.snr_values_db))
        if not snrs:
            raise ValueError(f"snr_values_db must be a non-empty list of finite values, got {self.snr_values_db!r}")
        for index, snr_db in enumerate(snrs):
            try:
                snr_to_powers(snr_db)
            except ValueError as exc:
                raise ValueError(f"snr_values_db[{index}]: {exc}") from None
        if len(set(snrs)) < len(snrs):
            raise ValueError(f"snr_values_db must list each level once, got {self.snr_values_db!r}")
        nodes = tuple(integer_at_least(f"node_counts[{index}]", j, 1) for index, j in enumerate(self.node_counts))
        if not nodes:
            raise ValueError(f"node_counts must be a non-empty list of integers >= 1, got {self.node_counts!r}")
        if len(set(nodes)) < len(nodes):
            raise ValueError(f"node_counts must list each node count once, got {self.node_counts!r}")
        if not isinstance(self.music, bool):
            raise ValueError(f"music must be a boolean, got {self.music!r}")
        object.__setattr__(self, "alpha_values", alphas)
        object.__setattr__(self, "snr_values_db", snrs)
        object.__setattr__(self, "node_counts", nodes)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved configuration: scenario + optimizer + experiment plan."""

    scenario: Scenario
    ga: GaParams
    experiment: ExperimentSettings


def _key_name(key: str) -> str:
    """A JSON key as an error message shows it: quoted unless it is a plain name."""
    return key if key.isidentifier() else repr(key)


def _build_section(data, cls, path: str):
    """A `cls` from a JSON object of its fields, with a list where the default
    is a tuple. `cls` checks every value; each of its messages starts with the
    field's name, so the error reads `path.field …`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(data).__name__}")
    valid = {f.name: f.default for f in fields(cls)}
    for key, value in data.items():
        if key not in valid:
            raise ConfigError(f"{path}.{_key_name(key)}: unknown key (valid keys: {', '.join(sorted(valid))})")
        if isinstance(valid[key], tuple) and not isinstance(value, list):
            raise ConfigError(f"{path}.{key}: expected a list of numbers, got {value!r}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.{exc}") from exc


def parse_config(document, expected_kind: str | None = None) -> ExperimentConfig:
    """Build a config from a parsed JSON document, validating strictly.

    `expected_kind` (the CLI subcommand) fills a missing experiment.kind and
    must match an explicit one; without it the document must name the kind.
    """
    if not isinstance(document, dict):
        raise ConfigError(f"top level must be a JSON object, got {type(document).__name__}")
    for key in document:
        if key not in ("scenario", "ga", "experiment"):
            raise ConfigError(f"{_key_name(key)}: unknown top-level key (valid keys: experiment, ga, scenario)")
    scenario = _build_section(document.get("scenario", {}), Scenario, "scenario")
    ga = _build_section(document.get("ga", {}), GaParams, "ga")
    experiment_block = document.get("experiment", {})
    if not isinstance(experiment_block, dict):
        raise ConfigError(f"experiment: expected a JSON object, got {type(experiment_block).__name__}")
    experiment_data = dict(experiment_block)
    kind = experiment_data.get("kind", expected_kind)
    if kind is None:
        raise ConfigError("experiment.kind: required (or implied by the CLI subcommand)")
    if expected_kind is not None and kind != expected_kind:
        raise ConfigError(f"experiment.kind: config says {kind!r} but the command is {expected_kind!r}")
    experiment_data["kind"] = kind
    experiment = _build_section(experiment_data, ExperimentSettings, "experiment")
    for index, alpha in enumerate(experiment.alpha_values):
        try:
            replace(scenario, alpha=alpha)  # the scenario each alpha-sweep level runs
        except ValueError as exc:
            raise ConfigError(f"experiment.alpha_values[{index}]: {exc}") from None
    nodes = max(experiment.node_counts) if kind == "node-sweep" else scenario.node_count
    block = experiment.trials_per_point * scenario.antennas_per_node * nodes * scenario.snapshot_count * 16
    if block > MAX_NOISE_BLOCK_BYTES:
        raise ConfigError(
            f"experiment.trials_per_point: {experiment.trials_per_point} trials of {scenario.antennas_per_node} x "
            f"{nodes} antennas x {scenario.snapshot_count} snapshots make a {block:.3g}-byte noise block, "
            f"above MAX_NOISE_BLOCK_BYTES = {MAX_NOISE_BLOCK_BYTES} per Monte Carlo thread"
        )
    return ExperimentConfig(scenario=scenario, ga=ga, experiment=experiment)


def _read_json(path):
    """Parsed JSON document of a UTF-8 file; read, decoding and syntax errors become located ConfigErrors."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: byte {exc.start}: not valid UTF-8 ({exc.reason})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer of over 4300 digits, or nesting too deep to parse
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path, expected_kind: str | None = None) -> ExperimentConfig:
    """Parse a config file, turning JSON syntax errors into located diagnostics."""
    return parse_config(_read_json(path), expected_kind=expected_kind)


def with_seed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Copy of the config with the master seed replaced (CLI --seed override)."""
    return replace(config, experiment=replace(config.experiment, seed=seed))


def config_to_dict(config: ExperimentConfig) -> dict:
    """Effective configuration as a JSON-serializable document (all defaults
    resolved, including the derived element spacing)."""
    scenario = asdict(config.scenario)
    scenario["region_center"] = list(config.scenario.region_center)
    return {
        "scenario": scenario,
        "ga": asdict(config.ga),
        "experiment": asdict(config.experiment),
    }


def deployment_to_dict(deployment: Deployment) -> dict:
    """Deployment as the on-disk JSON shape {"poses": [{x, y, theta}, ...]}."""
    return {"poses": [{"x": x, "y": y, "theta": theta} for x, y, theta in deployment.poses.tolist()]}


def parse_deployment(document) -> Deployment:
    """Build a deployment from a parsed JSON document, validating strictly."""
    if not isinstance(document, dict) or set(document) != {"poses"}:
        raise ConfigError('deployment document must be exactly {"poses": [...]}')
    poses = document["poses"]
    if not isinstance(poses, list) or not poses:
        raise ConfigError("poses must be a non-empty list")
    rows = []
    for index, pose in enumerate(poses):
        if not isinstance(pose, dict) or set(pose) != {"x", "y", "theta"}:
            raise ConfigError(f"poses[{index}]: each pose needs exactly the keys x, y, theta")
        try:
            rows.append([real_in(f"poses[{index}].{key}", pose[key]) for key in ("x", "y", "theta")])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return Deployment(rows)


def load_deployment(path) -> Deployment:
    """Parse a deployment JSON file with located syntax diagnostics."""
    return parse_deployment(_read_json(path))
