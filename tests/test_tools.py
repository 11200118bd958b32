"""The generators under ``tools/`` reproduce the committed data files."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from topodata.io import serialize_space

from conftest import DATA_DIR

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name: str):
    """Import a tool script by path, without running its ``main``."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_build_house_reproduces_the_golden_file():
    house = load_tool("build_house").build_house()
    expected = (DATA_DIR / "house.json").read_bytes()
    assert serialize_space(house).encode("utf-8") == expected
