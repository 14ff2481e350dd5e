import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import cohkit

SRC = Path(cohkit.__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name", ["cli", "experiments", "linalg", "measures", "sdp", "states", "validation"]
)
def test_each_submodule_imports_on_its_own(name):
    # A fresh interpreter, so no earlier import can mask an import-order dependency.
    proc = subprocess.run(
        [sys.executable, "-c", f"import cohkit.{name}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_freezes_the_import_heap():
    # A fresh interpreter, as a CLI run is: the objects the imports leave are
    # frozen, so no collection during the run traverses them.
    proc = subprocess.run(
        [sys.executable, "-c", "import gc, cohkit.cli; print(gc.get_freeze_count())"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


def test_package_reexports_nothing():
    # Every public name has one import path: the submodule that defines it.
    names = {
        name
        for name, value in vars(cohkit).items()
        if not name.startswith("__") and not isinstance(value, ModuleType)
    }
    assert names == set()


def test_pyproject_version_is_the_package_version():
    # _meta.json records cohkit.__version__, so the two must not drift apart
    tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")
    pyproject = SRC.parent / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("cohkit is not running from its source tree")
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == cohkit.__version__


def test_every_third_party_import_of_the_tests_is_a_declared_dependency():
    # an environment built from ".[test]" collects every test file: each
    # top-level module the tests import from outside the standard library
    # and cohkit is named in dependencies or in the test extra
    tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")
    pyproject = SRC.parent / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("cohkit is not running from its source tree")
    with pyproject.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req)[0].lower().replace("-", "_")
                for req in requirements}
    imported = set()
    for path in Path(__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"cohkit"}
    assert third_party and third_party <= declared, third_party - declared


def _public_definitions(tree: ast.Module) -> set[str]:
    """The public names a module defines at top level: functions, classes and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _references(tree: ast.Module) -> set[str]:
    """Every name a module reads, by bare name, as an attribute or by import."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_every_public_name_is_used_inside_the_package():
    # no public API that no verb or experiment uses: each public top-level
    # name some module defines is read somewhere in the package
    trees = {path.stem: ast.parse(path.read_text()) for path in (SRC / "cohkit").glob("*.py")}
    used = set().union(*(_references(tree) for tree in trees.values()))
    unused = {
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _public_definitions(tree) - used
    }
    assert unused == set()
