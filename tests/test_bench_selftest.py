"""The benchmark's self-test: the library against the workload generator's reference."""

from __future__ import annotations

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def test_every_traced_layer_resolves():
    # the tracer wraps functions by name; a rename in the package must fail here
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, targets in tracing.LAYERS.items():
        for module_name, dotted in targets:
            importlib.import_module(module_name)
            owner, attr = tracing._owner(module_name, dotted)
            assert attr in vars(owner), f"{layer}: {module_name}.{dotted} is gone"
