"""The package's ``__all__`` lists exactly the public names it binds,
every module uses each name it imports, every source parses at the
declared Python floor, and a command runs only the submodules it uses,
while every submodule is registered at import."""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import topodata
from topodata import algebra, maps

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in Path(topodata.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_all_matches_public_names():
    assert set(topodata.__all__) <= set(dir(topodata))
    for name in topodata.__all__:  # each is bound when first read
        getattr(topodata, name)
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


def test_every_source_parses_at_the_declared_python_floor():
    # the grammar only: a library name or API that a later Python added is not checked
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = project["requires-python"]
    assert declared.startswith(">=")
    floor = tuple(int(part) for part in declared[2:].split("."))
    package = sorted(Path(topodata.__file__).parent.glob("*.py"))
    tools = sorted(ROOT.glob("tools/*.py"))
    assert package and tools
    for path in package + tools:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)


def test_the_tables_of_ids_live_in_maps():
    # io reads and writes them without running algebra, which still binds them
    for name in ("Partition", "ThetaRelation"):
        assert getattr(topodata, name) is getattr(maps, name) is getattr(algebra, name)


# -- submodules run when first used, in fresh interpreters -------------------------

def fresh(program: str) -> str:
    """The stdout of ``program`` run by a new interpreter on the package's sources."""
    done = subprocess.run([sys.executable, "-c", program], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_cli_registers_every_traced_module():
    # the bench's tracer looks each layer's module up in sys.modules, before
    # any command has run the module
    out = fresh(
        "import importlib.util, sys\n"
        "import topodata.cli\n"
        "spec = importlib.util.spec_from_file_location('tracing', 'bench/tracing.py')\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "named = {module for targets in tracing.LAYERS.values() for module, _ in targets}\n"
        "print(len(named), sorted(named - sys.modules.keys()))\n")
    assert out == "6 []\n"  # script, io, space, algebra, maps and constraints


def test_validate_runs_no_operator_script_or_oracle_module():
    # type() reads no attribute, so it does not run a module registered to
    # run when first used; a module that ran is a plain module.  A plain argv
    # is dispatched from the command table, so argparse is never imported
    out = fresh(
        "import sys, types\n"
        "from topodata import cli\n"
        "code = cli.main(['validate', 'demo/lod/manifest.json'])\n"
        "print(code, 'argparse' in sys.modules,\n"
        "      sorted(name for name, module in sys.modules.items()\n"
        "             if name.startswith('topodata') and type(module) is not types.ModuleType))\n")
    assert out.splitlines()[-1] == (
        "0 False ['topodata.algebra', 'topodata.oracle', 'topodata.script']")


def test_run_builds_no_parser_and_runs_no_constraints_or_oracle_module(tmp_path):
    # a plain argv is dispatched from the command table, so argparse and the
    # gettext it imports are never loaded, and io reads constraints only in
    # load_dataset, which a script never calls
    work = tmp_path / "overlay"
    shutil.copytree(ROOT / "demo" / "overlay", work, ignore=shutil.ignore_patterns("out"))
    out = fresh(
        "import sys, types\n"
        "from topodata import cli\n"
        f"code = cli.main(['run', {str(work / 'overlay.topo')!r}])\n"
        "print(code, 'argparse' in sys.modules, 'gettext' in sys.modules,\n"
        "      sorted(name for name, module in sys.modules.items()\n"
        "             if name.startswith('topodata') and type(module) is not types.ModuleType))\n")
    assert out.splitlines()[-1] == "0 False False ['topodata.constraints', 'topodata.oracle']"

