import os
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
