"""The package metadata reads its version from the package, so the two
cannot drift, and the package exports exactly the public names it imports,
so a removed export cannot dangle."""

import ast
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


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from gregtrees import *", namespace)
    assert len(set(gregtrees.__all__)) == len(gregtrees.__all__)
    assert set(gregtrees.__all__) <= namespace.keys()


def test_all_is_the_public_names_the_package_imports():
    tree = ast.parse(Path(gregtrees.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(gregtrees.__all__) == sorted(n for n in imported if not n.startswith("_"))
