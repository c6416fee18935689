"""The package's import-time contract: everything `isacdeploy.__all__` lists
exists, and importing it keeps BLAS on the calling thread unless the user set
the thread count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import isacdeploy

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_every_exported_name_resolves():
    missing = [name for name in isacdeploy.__all__ if not hasattr(isacdeploy, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(set(isacdeploy.__all__)) == len(isacdeploy.__all__)


def test_the_ga_has_no_chromosome_codec():
    # the GA evolves (J, 3) pose arrays and returns a Deployment: there is nothing to encode or decode
    gone = ("GeneBounds", "encode_deployment", "decode_chromosome", "deployment_bounds")
    assert [name for name in gone if name in isacdeploy.__all__ or hasattr(isacdeploy.ga, name)] == []


@pytest.mark.parametrize(
    "preset, expected",
    [({}, ("1", "1", "1")), ({"OPENBLAS_NUM_THREADS": "3"}, ("3", "1", "1"))],
    ids=["unset", "user-set"],
)
def test_import_pins_blas_threads_unless_set(preset, expected):
    env = {name: value for name, value in os.environ.items() if name not in BLAS_VARIABLES}
    env["PYTHONPATH"] = str(Path(isacdeploy.__file__).parents[1])
    script = f"import os, isacdeploy; print(' '.join(os.environ[name] for name in {BLAS_VARIABLES!r}))"
    result = subprocess.run(
        [sys.executable, "-c", script], env={**env, **preset}, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert tuple(result.stdout.split()) == expected
