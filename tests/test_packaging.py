"""Packaging: every runtime dependency that pyproject.toml declares imports."""

import importlib
import re
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
