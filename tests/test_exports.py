"""The package's public names: everything `isacdeploy.__all__` lists exists."""

import isacdeploy


def test_every_exported_name_resolves():
    missing = [name for name in isacdeploy.__all__ if not hasattr(isacdeploy, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(set(isacdeploy.__all__)) == len(isacdeploy.__all__)
