"""The package's ``__all__`` lists exactly the public names it binds, and
every module uses each name it imports."""

from __future__ import annotations

import ast
from pathlib import Path
from types import ModuleType

import pytest

import topodata

MODULES = sorted(p for p in Path(topodata.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_all_matches_public_names():
    bound = {name for name, value in vars(topodata).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert set(topodata.__all__) == bound
    assert len(topodata.__all__) == len(bound)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    # __init__.py is left out: it imports names only to re-export them
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
