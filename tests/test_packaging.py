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


CONTEXT_MAKERS = {"Context", "localcontext", "setcontext"}


def _decimal_context_uses(path: Path) -> set[str]:
    """The names of decimal's context makers that the module at `path`
    imports or calls."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "decimal":
            used |= {alias.name for alias in node.names} & CONTEXT_MAKERS
        elif isinstance(node, ast.Call):
            func = node.func
            used |= {func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)}
    return used & CONTEXT_MAKERS


def test_only_polys_makes_a_decimal_context():
    """`polys` holds the one exact Decimal context and enters it around its
    own steps; no other module builds, enters or sets a context."""
    uses = {path.stem: _decimal_context_uses(path)
            for path in sorted(Path(gregtrees.__file__).parent.glob("*.py"))}
    assert uses.pop("polys") >= {"Context", "localcontext"}
    assert {module: names for module, names in uses.items() if names} == {}


WORKLOADS = PYPROJECT.parent / "perfbench" / "workloads.py"
CACHES = {"cache", "lru_cache"}


def _bench_cleared_modules() -> set[str]:
    """The module names `clear_program_caches` walks, read from the source
    of ``perfbench/workloads.py`` without importing it."""
    tree = ast.parse(WORKLOADS.read_text())
    clear = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "clear_program_caches")
    loop = next(node for node in ast.walk(clear) if isinstance(node, ast.For))
    return set(ast.literal_eval(loop.iter))


def _cache_uses(path: Path) -> list[str | None]:
    """Each use of functools' `cache` or `lru_cache` in the module at
    `path`: the name of the function it decorates when that function is
    at module level, where the bench finds it, else None."""
    tree = ast.parse(path.read_text())
    decorates = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in node.decorator_list:
                decorates[id(d)] = decorates[id(getattr(d, "func", d))] = node.name
    return [decorates.get(id(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in CACHES
            or isinstance(node, ast.Attribute) and node.attr in CACHES]


def test_the_bench_clears_every_program_cache():
    """`clear_program_caches` walks every module of the package, and every
    functools cache in it decorates a module-level function, where that
    walk finds it.  A cache it misses would survive from one bench
    iteration to the next and read as a gain that is not there."""
    package = Path(gregtrees.__file__).parent
    walked = _bench_cleared_modules()
    assert walked == {path.stem for path in package.glob("*.py")} - {"__init__"}
    for path in sorted(package.glob("*.py")):
        uses = _cache_uses(path)
        assert None not in uses, path.name
        assert not uses or path.stem in walked, path.name
    assert "_imp_polynomials" in _cache_uses(package / "trees.py")
    assert "_family_row" in _cache_uses(package / "wfunc.py")
