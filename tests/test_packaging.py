"""The package metadata reads its version from the package, so the two cannot drift."""

import warnings
from pathlib import Path

import pytest

import gregtrees

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_version_is_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    # older setuptools flags [tool.setuptools] tables as beta; nothing else is silenced
    beta = getattr(pyprojecttoml, "_BetaConfiguration", None)
    with warnings.catch_warnings():
        if beta is not None:
            warnings.simplefilter("ignore", beta)
        config = pyprojecttoml.read_configuration(PYPROJECT, expand=True)
    assert config["project"]["version"] == gregtrees.__version__
