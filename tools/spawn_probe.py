#!/usr/bin/env python3
"""Split spawned ``topo`` invocations into start plus import, command and exit.

    python3 tools/spawn_probe.py > spawn.json
    python3 tools/spawn_probe.py --runs 41 --against ../parent-checkout

The three cases of the benchmark are generated from ``--seed`` through
``bench/workloads.py`` and written to a temporary directory, with the
checks of ``bench/run.py``; nothing under ``bench/`` is written.  Each
invocation is spawned the way ``bench/launcher.py`` spawns one
(``posix_spawn``, stdout and stderr to files, ``os.wait4``), one at a
time, and checked against the case's reference.  As there, the spawning
process is a helper started with ``python3 -S``: Linux counts the
high-water mark of the spawning process in a child's max RSS, and the
probe grows while it generates the cases, while the helper stays at the
size of a bare interpreter, below any child's own peak.  The child is
not ``python -m topodata.cli`` but a ``-c`` program that imports
``topodata.cli``, wraps its ``main`` to stamp ``time.monotonic()`` when
the command returns, and then ends as ``python -m topodata.cli`` does,
through ``cli.entry``.  With the helper's monotonic times at spawn and
at reap, each invocation splits into three phases:

- ``start_import_s``: spawn to the end of ``import topodata.cli``, the
  interpreter's start (``site`` included) plus the package's import;
- ``command_s``: the command, ``main`` from parse to return;
- ``exit_s``: ``main``'s return to reap, what runs after the command,
  the interpreter's finalization included.

The max RSS ``os.wait4`` reports for each invocation is taken with its
phases, and each case holds its median (``max_rss_mb``) per tree and mode.

Every case runs in two modes, each from its own copy of ``src/`` with no
``__pycache__``: ``uncached`` sets ``PYTHONDONTWRITEBYTECODE=1``, so every
process compiles the package, as the benchmark's children do;
``cached`` does not, so a warm-up run writes the bytecode the timed runs
read.  One warm-up per case, mode and tree is not timed.  Every round
runs each case in both modes, and the mode that goes first changes from
round to round, so that a drift in the machine's speed falls on both
modes alike and does not read as an effect of the mode.

With ``--against``, the ``src/`` of another checkout (say a ``git
archive`` of an earlier commit) runs too, alternating with this one and
changing which goes first in every pair.  Each case then also holds the
other tree's medians, the paired median saving per phase (other minus
this, so positive when this tree is faster) and the number of pairs
this tree won per phase, and the same for the max RSS
(``saving_rss_mb``, ``this_smaller_rss_pairs``).  The probe prints one
JSON document and exits 1 when an invocation failed its check.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
PHASES = ("start_import_s", "command_s", "exit_s", "total_s")
FIGURES = (*PHASES, "max_rss_mb")
MODES = {"uncached": {"PYTHONDONTWRITEBYTECODE": "1"}, "cached": {}}

# argv: -c <stamp file> <topo arguments>; the stamps are written once the command
# has returned, so that the write is timed as part of the exit
DRIVER = """\
import sys, time
from topodata import cli
imported = time.monotonic()
stamps = sys.argv.pop(1)
command = cli.main

def main(argv=None):
    try:
        return command(argv)
    finally:
        done = time.monotonic()
        with open(stamps, "w") as f:
            f.write(f"{imported!r} {done!r}")

cli.main = main
cli.entry()
"""


def bench_run():
    """``bench/run.py``, imported by path; it imports ``workloads`` by its bare name."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(BENCH))


# reads one JSON request per line, [argv, env, stdout path, stderr path], runs the
# child and writes one JSON line [monotonic spawn, monotonic reap, exit code, max RSS MB]
HELPER = """\
import json, os, sys, time
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
for line in sys.stdin:
    argv, env, out_path, err_path = json.loads(line)
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    spawned = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    print(json.dumps([spawned, time.monotonic(), os.waitstatus_to_exitcode(status),
                      usage.ru_maxrss / 1024]), flush=True)
"""


class Spawner:
    """Runs children one at a time through the ``HELPER`` process."""

    def __init__(self):
        self._process = subprocess.Popen([sys.executable, "-S", "-c", HELPER],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, argv: list[str], env: dict, out_path: Path, err_path: Path) -> list:
        """Monotonic spawn and reap times, exit code and max RSS in MB of one child."""
        request = [argv, env, str(out_path), str(err_path)]
        self._process.stdin.write(json.dumps(request) + "\n")
        self._process.stdin.flush()
        return json.loads(self._process.stdout.readline())

    def close(self) -> None:
        self._process.stdin.close()
        self._process.wait()
        self._process.stdout.close()


class Invoker:
    """The invocations of one case from one tree's copy of ``src/`` in one mode."""

    def __init__(self, src: Path, mode_env: dict, runner, case, case_dir: Path, work: Path,
                 spawner: Spawner):
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(mode_env, PYTHONPATH=str(src))
        self.runner, self.case, self.case_dir, self.work = runner, case, case_dir, work
        self.spawner = spawner

    def invoke(self) -> dict:
        """One checked invocation's phases in seconds and max RSS, or its failure."""
        case, work = self.case, self.work
        shutil.rmtree(self.case_dir / "out", ignore_errors=True)
        stamps = work / "stamps"
        stamps.unlink(missing_ok=True)
        argv = [sys.executable, "-c", DRIVER, str(stamps), case.argv[0],
                str(self.case_dir / case.argv[1])]
        spawned, reaped, code, rss = self.spawner.spawn(argv, self.env, work / "stdout",
                                                        work / "stderr")
        out, err = (work.joinpath(stream).read_text(encoding="utf-8", errors="replace")
                    for stream in ("stdout", "stderr"))
        failure = self.runner.check(case, self.case_dir, code, out, err)
        if failure is None and not stamps.is_file():
            failure = "the command did not return"
        if failure:
            return {"failure": failure}
        imported, done = map(float, stamps.read_text(encoding="utf-8").split())
        return {"start_import_s": imported - spawned, "command_s": done - imported,
                "exit_s": reaped - done, "total_s": reaped - spawned, "max_rss_mb": rss}


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Per tree the median of each phase and of the max RSS; with two trees,
    the paired savings and wins."""
    result = {}
    for side, samples in runs.items():
        timed = [s for s in samples if "failure" not in s]
        result[side] = {"runs": len(timed),
                        "failed": [s["failure"] for s in samples if "failure" in s]}
        if timed:
            result[side].update({f: statistics.median(s[f] for s in timed) for f in FIGURES})
    if "against" in runs:
        pairs = [(a, b) for a, b in zip(runs["this"], runs["against"])
                 if "failure" not in a and "failure" not in b]
        if pairs:
            result["saving_s"] = {p: statistics.median(b[p] - a[p] for a, b in pairs)
                                  for p in PHASES}
            result["this_faster_pairs"] = {p: sum(a[p] < b[p] for a, b in pairs)
                                           for p in PHASES}
            rss = [(a["max_rss_mb"], b["max_rss_mb"]) for a, b in pairs]
            result["saving_rss_mb"] = statistics.median(b - a for a, b in rss)
            result["this_smaller_rss_pairs"] = sum(a < b for a, b in rss)
    return result


def probe(runner, workload_names: list[str], seed: int, runs: int, trees: dict[str, Path],
          work: Path) -> dict:
    cases = {}
    for name in workload_names:
        cases[name] = runner.workloads.WORKLOADS[name](seed)
        runner.materialize(cases[name], work / "cases" / name)
    spawner = Spawner()
    try:
        return run_rounds(cases, trees, runs, work, runner, spawner)
    finally:
        spawner.close()


def run_rounds(cases: dict, trees: dict[str, Path], runs: int, work: Path, runner,
               spawner: Spawner) -> dict:
    """Every case in every mode and tree, a warm-up and then ``runs`` rounds, summarized."""
    invokers = {}
    for mode, mode_env in MODES.items():
        for side, tree in trees.items():
            src = work / mode / side / "src"
            shutil.copytree(tree / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            for name, case in cases.items():
                invokers[mode, side, name] = Invoker(src, mode_env, runner, case,
                                                     work / "cases" / name, work, spawner)
    for invoker in invokers.values():
        invoker.invoke()  # warm-up: the file cache, and the bytecode when it is written
    samples = {key: [] for key in invokers}
    for i in range(runs):
        modes, order = (list(MODES), list(trees)) if i % 2 == 0 else (
            list(reversed(MODES)), list(reversed(trees)))
        for mode in modes:
            for name in cases:
                for side in order:
                    samples[mode, side, name].append(invokers[mode, side, name].invoke())
    return {mode: {name: summarize({side: samples[mode, side, name] for side in trees})
                   for name in cases}
            for mode in MODES}


def main(argv=None) -> int:
    runner = bench_run()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated cases")
    parser.add_argument("--runs", type=int, default=21, help="timed runs per case, mode and tree")
    parser.add_argument("--workload", default="all",
                        choices=[*runner.workloads.WORKLOADS, "all"])
    parser.add_argument("--against", type=Path,
                        help="root of another checkout to run in alternation with this one")
    args = parser.parse_args(argv)
    names = list(runner.workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    trees = {"this": ROOT, **({"against": args.against.resolve()} if args.against else {})}
    with tempfile.TemporaryDirectory(prefix="spawn_probe_") as work:
        results = probe(runner, names, args.seed, args.runs, trees, Path(work))
    print(json.dumps({
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}; one invocation at a time",
        "seed": args.seed,
        "runs": args.runs,
        "trees": {side: str(tree) for side, tree in trees.items()},
        "results": results,
    }, indent=1))
    failed = any(entry[side]["failed"] for mode in results.values()
                 for entry in mode.values() for side in trees)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
