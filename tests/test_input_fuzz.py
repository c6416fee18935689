"""Fuzzed inputs: every subcommand either rejects a mutated desk config or
deployment document with one located `error:` line (exit 2, no traceback) or
parses it and reaches `run_experiment`, which is stubbed out here."""

import contextlib
import copy
import io
import json
import math
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacdeploy import cli
from isacdeploy.config import EXPERIMENT_KINDS, config_to_dict, deployment_to_dict
from isacdeploy.geometry import Scenario, midpoint_baseline

DESK_CONFIG = {
    "scenario": {"region_radius": 4.0, "snapshot_count": 32},
    "ga": {"population_size": 8, "elite_count": 2, "max_generations": 4, "tournament_size": 2},
    "experiment": {
        "seed": 7,
        "random_deployment_count": 6,
        "trials_per_point": 2,
        "alpha_values": [0.01, 0.05],
        "snr_values_db": [-10.0, 20.0],
        "node_counts": [2, 3],
    },
}
DEPLOYMENT = deployment_to_dict(midpoint_baseline(Scenario(region_radius=4.0)))
UNKNOWN_KEYS = ("snr", "Seed", "z")
# where an error may say it is: a config block, the deployment's poses, the
# document itself, a file, or an unknown top-level key (quoted unless a plain name)
LOCATION = re.compile(
    r"error: (scenario|ga|experiment|poses|top level|deployment document|\S+\.json)\b"
    r"|error: (\w+|'.*'|\".*\"): unknown top-level key"
)

# huge, tiny and non-finite numbers, and integers beyond numpy's integer types
EXTREMES = st.sampled_from(
    [10**400, -(10**400), 10**300, -(10**300), 2**64, 2**64 - 1, 1e308, -1e308, 5e-324, -5e-324, 1e20, 0.5, 0, -1]
    + [float("inf"), float("-inf"), float("nan")]
)
SCALARS = st.one_of(
    EXTREMES, st.sampled_from([None, True, False, "", "5"]), st.integers(), st.floats(), st.text(max_size=3)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


def _slots(node):
    """(container, key) of every value inside a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield node, key
        yield from _slots(value)


def _dicts(node):
    if isinstance(node, dict):
        yield node
    for value in node.values() if isinstance(node, dict) else node if isinstance(node, list) else ():
        yield from _dicts(value)


@st.composite
def mutated(draw, document):
    """`document` after one to three mutations: a number made huge, tiny or
    non-finite, a value replaced (by a wrong type, a nested list or an
    object), a key removed, an unknown key added, or the whole document
    replaced."""
    document = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["number", "replace", "remove", "add", "root"]))
        slots = list(_slots(document))
        numbers = [(c, k) for c, k in slots if isinstance(c[k], (int, float)) and not isinstance(c[k], bool)]
        keyed = [(c, k) for c, k in slots if isinstance(c, dict)]
        if op == "number" and numbers:
            container, key = draw(st.sampled_from(numbers))
            container[key] = draw(EXTREMES)
        elif op == "replace" and slots:
            container, key = draw(st.sampled_from(slots))
            container[key] = draw(VALUES)
        elif op == "remove" and keyed:
            container, key = draw(st.sampled_from(keyed))
            del container[key]
        elif op == "add" and isinstance(document, dict):
            target = draw(st.sampled_from(list(_dicts(document))))
            target[draw(st.sampled_from(UNKNOWN_KEYS))] = draw(VALUES)
        else:
            document = draw(VALUES)
    return document


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, (list, tuple)):
        for value in node:
            yield from _numbers(value)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


class Reached(Exception):
    """The input parsed and the run would have started."""


def _reach(config, deployment=None, threads=1):
    # what parsing lets through holds only numbers that are finite floats or fit one
    values = [*_numbers(config_to_dict(config)), *(deployment.poses.ravel() if deployment else ())]
    assert all(math.isfinite(float(value)) for value in values)
    raise Reached


def _run(argv):
    """Run the CLI with the experiment stubbed out: None if the run would have
    started, else the exit code and the lines written to stderr."""
    stderr = io.StringIO()
    with mock.patch.object(cli, "run_experiment", _reach), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except Reached:
            return None
    return code, stderr.getvalue().splitlines()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _assert_located_rejection(outcome):
    if outcome is None:
        return
    code, lines = outcome
    assert code == 2, lines
    assert len(lines) == 1 and LOCATION.match(lines[0]), lines


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(EXPERIMENT_KINDS), config=mutated(DESK_CONFIG))
def test_mutated_configs_exit_two_with_a_located_error_or_reach_the_run(workdir, command, config):
    (workdir / "config.json").write_text(json.dumps(config))
    (workdir / "deployment.json").write_text(json.dumps(DEPLOYMENT))
    argv = [command, "--config", str(workdir / "config.json"), "--out", str(workdir / "out")]
    _assert_located_rejection(_run(argv + [str(workdir / "deployment.json")] if command == "evaluate" else argv))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(deployment=mutated(DEPLOYMENT))
def test_mutated_deployments_exit_two_with_a_located_error_or_reach_the_run(workdir, deployment):
    (workdir / "config.json").write_text(json.dumps(DESK_CONFIG))
    (workdir / "deployment.json").write_text(json.dumps(deployment))
    argv = ["evaluate", "--config", str(workdir / "config.json"), "--out", str(workdir / "out")]
    _assert_located_rejection(_run(argv + [str(workdir / "deployment.json")]))
