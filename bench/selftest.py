#!/usr/bin/env python3
"""Check the benchmark's reference outputs against topodata at tiny sizes.

    python3 bench/selftest.py

For every workload, a few small sizes and seeds: generate the case, run
the CLI on it in this process, and require the exit code, stdout lines
and emitted-file digests that ``workloads.py`` computed from its own
geometry.  Also checks that the comparison notices a wrong output.
Exits 0 when everything agrees, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from run import ROOT, SRC, check, materialize

SIZES = {
    "overlay": [{"n": 1}, {"n": 2}, {"n": 3}],
    "lod_validate": [{"n": 4}, {"n": 8}],
    "cad_extrude": [{"n": 1, "segments": 1, "length": 4},
                    {"n": 2, "segments": 2, "length": 10},
                    {"n": 3, "segments": 1, "length": 40}],
}
SEEDS = range(4)


def run_cli(case: workloads.Case, case_dir: Path) -> str | None:
    from topodata import cli

    materialize(case, case_dir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([case.argv[0], str(case_dir / case.argv[1])])
    return check(case, case_dir, code, out.getvalue(), err.getvalue())


def main() -> int:
    sys.path.insert(0, str(SRC))
    failures = 0
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_selftest_") as tmp:
        case_dir = Path(tmp) / "case"
        for name, sizes in SIZES.items():
            for size in sizes:
                for seed in SEEDS:
                    case = workloads.WORKLOADS[name](seed, **size)
                    problem = run_cli(case, case_dir)
                    print(f"{name:13} {size} seed {seed}: {problem or 'ok'}")
                    failures += problem is not None
        # the comparison must notice a wrong stdout line and a wrong digest
        case = workloads.overlay(0, n=2)
        case.stdout[-1] += "x"
        caught_stdout = run_cli(case, case_dir) is not None
        case = workloads.cad_extrude(0, n=1, segments=1, length=4)
        case.emitted["out/product.json"] = "0" * 64
        caught_digest = run_cli(case, case_dir) is not None
        print(f"wrong stdout noticed: {caught_stdout}, wrong digest noticed: {caught_digest}")
        failures += not caught_stdout
        failures += not caught_digest
        shutil.rmtree(case_dir, ignore_errors=True)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
