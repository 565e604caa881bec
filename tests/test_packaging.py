"""Packaging: every runtime dependency that pyproject.toml declares imports,
and the package imports nothing it does not declare."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_runtime_dependencies_import():
    with PYPROJECT.open("rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert deps
    for requirement in deps:
        name = re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0)
        importlib.import_module(name.replace("-", "_"))


def test_import_leaves_scipy_out():
    # scipy is a test dependency only; a fresh interpreter shows what
    # importing the package pulls in
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    code = "import sys, semiflow; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_public_names_resolve():
    # a definition deleted but left in __all__ breaks the star import
    import semiflow

    names = semiflow.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from semiflow import *", namespace)
    assert set(names) <= set(namespace)
