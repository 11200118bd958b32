#!/usr/bin/env python3
"""Benchmark of the ``topo`` command line on generated files.

    python3 bench/run.py --workload overlay --seed 1 --seconds 40 --trace 0

A closed-loop load generator with one client: it generates the workload's
files from the seed, then runs ``python -m topodata.cli`` on them one
invocation at a time, each started only after the previous one exited.
Every invocation is checked against the reference computed by
``workloads.py``: exit code, stdout lines, SHA-256 of each emitted file,
and no traceback.

``--trace 0`` measures the end-to-end metrics in child processes, and
times the fixed task ``calibrate.py`` before and after every invocation
and every set-up: the bounded times are taken relative to it, which
cancels most of the drift in the speed of a shared machine.
``--trace 1`` instead replays the workload in this process, in turn
plain, with the span wrappers of ``tracing.py`` and with all its
wrappers, and reports the per-layer metrics.  ``--workload all`` runs every workload, interleaved,
and prints all their metrics.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give the same figures for people.

Metric names and units come from ``BENCHMARK.json`` at the repository
root, which also fixes the bounds.  Work files go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CALIBRATION = Path(__file__).with_name("calibrate.py")

SETUPS = 13           # setup_s is the median of this many set-ups
# setup_s is given in seconds at the speed at which calibrate.py takes
# this long, about its time on the machine the benchmark was built on
REFERENCE_CALIBRATION_S = 0.15
MIN_SAMPLES = 11      # the tail percentile needs ten samples beyond it
RUN_LIMIT_S = 160     # no invocation starts later than this into a run
INVOCATION_LIMIT_S = 60
IMPORT_PROBES = 7     # interpreter start plus import, for cli.import_s


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    failure: str | None
    reference: float = 0.0  # mean wall time of the calibrations around it


# -- process harness --------------------------------------------------------------

class Launcher:
    """Runs children through ``launcher.py``, one at a time.

    Every child is spawned by that small helper process rather than by
    this one, so that the max RSS reported for a child is its own.
    """

    def __init__(self, env: dict):
        self._process = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def run(self, argv: list[str], out_path: Path, err_path: Path, timeout: float):
        """Wall s spawn to exit, exit code, child CPU s and max RSS MB."""
        request = [argv, str(out_path), str(err_path), timeout]
        self._process.stdin.write(json.dumps(request) + "\n")
        self._process.stdin.flush()
        return json.loads(self._process.stdout.readline())

    def close(self) -> None:
        """End the helper; if it is still waiting for a child, it kills it."""
        self._process.stdin.close()
        try:
            self._process.wait(2)
        except subprocess.TimeoutExpired:
            self._process.terminate()
            self._process.wait()
        self._process.stdout.close()


def calibrate(launcher: Launcher) -> float:
    """Wall time of one run of ``calibrate.py``, the fixed reference task."""
    wall, code, _, _ = launcher.run([sys.executable, str(CALIBRATION)],
                                    WORK / "calibrate.out", WORK / "calibrate.err",
                                    INVOCATION_LIMIT_S)
    if code != 0:
        raise SystemExit(f"calibration task failed with exit code {code}")
    return wall


def materialize(case: workloads.Case, case_dir: Path) -> None:
    shutil.rmtree(case_dir, ignore_errors=True)
    case_dir.mkdir(parents=True)
    for rel, data in case.files.items():
        (case_dir / rel).write_bytes(data)


def check(case: workloads.Case, case_dir: Path, code: int, out: str, err: str) -> str | None:
    """None when the output matches the reference, else the first difference."""
    if "Traceback" in err:
        return "traceback: " + err.strip().splitlines()[-1]
    if code != case.exit_code:
        return f"exit code {code}, expected {case.exit_code}"
    lines = out.splitlines()
    if lines != case.stdout:
        diff = next((i for i, (a, b) in enumerate(zip(lines, case.stdout)) if a != b),
                    min(len(lines), len(case.stdout)))
        return f"stdout line {diff + 1} differs"
    for rel, digest in case.emitted.items():
        path = case_dir / rel
        if not path.is_file():
            return f"{rel} not written"
        if hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            return f"{rel} differs from the reference"
    return None


class Runner:
    """One workload's generated case and its child invocations."""

    def __init__(self, name: str, seed: int, deadline: float, launcher: Launcher):
        self.name = name
        self.launcher = launcher
        self.seed = seed
        self.deadline = deadline
        self.dir = WORK / name
        self.case_dir = self.dir / "case"
        self.case: workloads.Case | None = None
        self.setups: list[tuple[float, float]] = []  # (seconds, calibration seconds)
        self.warmups: list[Sample] = []
        self.samples: list[Sample] = []

    def setup(self, before: float) -> float:
        """Generate the inputs and make the discarded warm-up invocation.

        ``before`` is the time of the calibration task run just before;
        runs it again after, and returns that time.
        """
        start = time.perf_counter()
        self.case = workloads.WORKLOADS[self.name](self.seed)
        materialize(self.case, self.case_dir)
        self.warmups.append(self.invoke())
        seconds = time.perf_counter() - start
        after = calibrate(self.launcher)
        self.setups.append((seconds, (before + after) / 2))
        return after

    def invoke(self) -> Sample:
        case = self.case
        shutil.rmtree(self.case_dir / "out", ignore_errors=True)
        out_path, err_path = self.dir / "stdout.txt", self.dir / "stderr.txt"
        argv = [sys.executable, "-m", "topodata.cli", case.argv[0],
                str(self.case_dir / case.argv[1])]
        timeout = max(1.0, min(INVOCATION_LIMIT_S, self.deadline - time.perf_counter()))
        wall, code, cpu, rss_mb = self.launcher.run(argv, out_path, err_path, timeout)
        failure = check(case, self.case_dir,
                        code, out_path.read_text(encoding="utf-8", errors="replace"),
                        err_path.read_text(encoding="utf-8", errors="replace"))
        return Sample(wall, cpu, rss_mb, failure)

    def attempts(self) -> list[Sample]:
        return self.warmups + self.samples


def end_to_end(runner: Runner) -> tuple[dict, list[str]]:
    """The end-to-end metrics of one workload, and lines describing them."""
    walls = [s.wall for s in runner.samples]
    rel = [s.wall / s.reference for s in runner.samples]
    count = len(walls)
    # the highest order statistic with at least ten samples above it
    tail_rank = max(1, count - 10)
    attempts = runner.attempts()
    failed = sum(1 for s in attempts if s.failure)
    case = runner.case
    metrics = {
        "wall_rel": statistics.median(rel),
        "wall_rel_tail": sorted(rel)[tail_rank - 1],
        "peak_rss_mb": statistics.median(s.rss_mb for s in runner.samples),
        "setup_s": statistics.median(seconds / reference * REFERENCE_CALIBRATION_S
                                     for seconds, reference in runner.setups),
    }
    wall = statistics.median(walls)
    info = {
        "wall_s": wall,
        "wall_s_tail": sorted(walls)[tail_rank - 1],
        "elems_per_s": (case.input_elements + case.output_elements) / wall,
        "cpu_s": statistics.median(s.cpu for s in runner.samples),
        "error_rate": failed / len(attempts),
    }
    units = {"wall_rel": "ratio", "wall_rel_tail": "ratio", "peak_rss_mb": "MB",
             "setup_s": "s", "wall_s": "s", "wall_s_tail": "s",
             "elems_per_s": "1/s", "cpu_s": "s", "error_rate": "ratio"}
    notes = {
        "wall_rel": f"median of {count} invocations of wall / calibration",
        "wall_rel_tail": f"p{100 * tail_rank / count:.0f}, rank {tail_rank} of {count}",
        "peak_rss_mb": "median of the children's max RSS",
        "setup_s": f"median of {len(runner.setups)} set-ups (generate + warm-up), "
                   f"/ calibration * {REFERENCE_CALIBRATION_S} s",
        "wall_s": f"median of {count} invocations, spawn to exit",
        "wall_s_tail": f"p{100 * tail_rank / count:.0f}, rank {tail_rank} of {count}",
        "elems_per_s": f"({case.input_elements} in + {case.output_elements} out "
                       "elements) / wall_s",
        "cpu_s": "median child CPU time, user + system",
        "error_rate": f"{failed} failed of {len(attempts)} attempted",
    }
    lines = [f"{runner.name:13} {name:14} {value:12.6g} {units[name]:6} {notes[name]}"
             for name, value in {**metrics, **info}.items()]
    lines += [f"{runner.name:13} failure: {s.failure}" for s in attempts if s.failure][:1]
    return metrics, lines


def run_end_to_end(names: list[str], seed: int, seconds: float, launcher: Launcher) -> dict:
    """Set up, measure with workloads interleaved, set up again.

    Each workload is set up SETUPS times, spread evenly from before the
    first to after the last measured invocation, so that the median of
    the set-up times samples the whole run rather than one moment of it.
    The calibration task runs before and after every measured invocation
    and every set-up.
    """
    deadline = time.perf_counter() + RUN_LIMIT_S * len(names)
    runners = [Runner(name, seed, deadline, launcher) for name in names]
    before = calibrate(launcher)
    for runner in runners:
        before = runner.setup(before)
    window = seconds * len(names)
    begin = time.perf_counter()
    setups_due = [begin + window * i / (SETUPS - 1) for i in range(1, SETUPS - 1)]
    order = list(runners)
    while time.perf_counter() < deadline:
        now = time.perf_counter()
        if now >= begin + window and all(len(r.samples) >= MIN_SAMPLES for r in runners):
            break
        if setups_due and now >= setups_due[0]:
            setups_due.pop(0)
            for runner in runners:
                before = runner.setup(before)
        for runner in order:
            sample = runner.invoke()
            after = calibrate(launcher)
            sample.reference = (before + after) / 2
            runner.samples.append(sample)
            before = after
        order.reverse()  # alternate which workload goes first
    for runner in runners:
        while len(runner.setups) < SETUPS and time.perf_counter() < deadline:
            before = runner.setup(before)

    metrics, report = {}, {}
    for runner in runners:
        metrics[runner.name], lines = end_to_end(runner)
        print("\n".join(lines))
        report[runner.name] = {
            "inputs": runner.case.describe_inputs(),
            "setups": [{"seconds": seconds, "reference": reference}
                       for seconds, reference in runner.setups],
            "warmups": [vars(s) for s in runner.warmups],
            "samples": [vars(s) for s in runner.samples],
        }
    attempts = [s for r in runners for s in r.attempts()]
    return {"metrics": metrics, "attempted": len(attempts),
            "failed": sum(1 for s in attempts if s.failure), "report": report}


# -- traced replay --------------------------------------------------------------------

def layer_metrics(spans, full) -> dict:
    """Per-layer metrics of one round of replays.

    ``full`` has every wrapper installed, ``spans`` all but those of the
    hot layers.  The hot layers' times and all counts come from ``full``;
    the other times from ``spans``, where the per-call cost of the hot
    wrappers does not inflate their callers (the hot calls' own time is
    then part of the caller's self time).
    """
    own = spans.self_seconds
    counts = full.counts
    pair_tests = counts["algebra.theta_join.pair_tests"]
    covers = counts["algebra.theta_join.cover_pairs"]
    return {
        "script.parse_s": own("script.parse"),
        "script.run_self_s": own("script.run"),
        "io.parse_s": own("io.parse"),
        "io.parse_mb": counts["io.parse_bytes"] / 1e6,
        "io.serialize_s": own("io.serialize"),
        "io.serialize_mb": counts["io.serialize_bytes"] / 1e6,
        "space.construct_s": own("space.construct"),
        "space.construct_elems": counts["space.construct_elems"],
        "space.reach_s": full.self_seconds("space.reach"),
        "space.reach_calls": full.stats["space.reach"][0],
        "space.dimension_s": full.self_seconds("space.dimension"),
        "space.reduce_s": own("space.reduce"),
        "algebra.theta_join_s": own("algebra.theta_join"),
        "algebra.theta_join.pair_tests": pair_tests,
        "algebra.theta_join.useful_ratio": covers / pair_tests if pair_tests else 0.0,
        "algebra.select_s": own("algebra.select"),
        "algebra.product_s": own("algebra.product"),
        "algebra.intersect_s": own("algebra.intersect"),
        "maps.spacemap_s": own("maps.spacemap"),
        "maps.continuity_s": own("maps.continuity"),
        "maps.continuity_pairs": counts["maps.continuity_pairs"],
        "constraints.validate_self_s": own("constraints.validate"),
    }


def run_traced(name: str, seed: int, seconds: float, launcher: Launcher) -> dict:
    """Replay the workload in this process: in rounds of a plain replay,
    one with the span wrappers only and one with every wrapper."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    case = workloads.WORKLOADS[name](seed)
    case_dir = WORK / name / "case"
    materialize(case, case_dir)

    probe = [sys.executable, "-c", "import topodata.cli"]
    imports = [launcher.run(probe, WORK / name / "stdout.txt", WORK / name / "stderr.txt",
                            INVOCATION_LIMIT_S) for _ in range(IMPORT_PROBES)]
    import_failures = sum(1 for _, code, _, _ in imports if code != 0)

    sys.path.insert(0, str(SRC))
    from topodata import cli
    from tracing import Tracer

    argv = [case.argv[0], str(case_dir / case.argv[1])]

    def replay(tracer=None) -> Sample:
        shutil.rmtree(case_dir / "out", ignore_errors=True)
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                with tracer or contextlib.nullcontext():
                    code = cli.main(argv)
            except Exception as exc:  # a crash is a failed replay, not a benchmark error
                code, failure = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if code is not None:
            failure = check(case, case_dir, code, out.getvalue(), err.getvalue())
        return Sample(wall, 0.0, 0.0, failure)

    warmup = replay()
    kinds = ("plain", "spans", "full")
    walls = {kind: [] for kind in kinds}
    rounds, failures = [], []
    stop = time.perf_counter() + seconds
    while time.perf_counter() < deadline and (
            time.perf_counter() < stop or len(rounds) < 3):
        tracers = {"plain": None, "spans": Tracer(hot=False), "full": Tracer()}
        order = kinds if len(rounds) % 2 == 0 else kinds[::-1]  # alternate the order
        for kind in order:
            sample = replay(tracers[kind])
            walls[kind].append(sample.wall)
            if sample.failure:
                failures.append(sample.failure)
        rounds.append(tracers)

    per_round = [layer_metrics(r["spans"], r["full"]) for r in rounds]
    metrics = {"cli.import_s": statistics.median(wall for wall, *_ in imports)}
    metrics.update({key: statistics.median_low(m[key] for m in per_round)
                    for key in per_round[0]})
    plain_s = statistics.median(walls["plain"])
    metrics["bench.tracing_overhead_s"] = statistics.median(walls["full"]) - plain_s
    units = declared_metrics(trace=True)
    for key, value in metrics.items():
        print(f"{name:13} {key:32} {value:12.6g} {units[key]}")

    trace_path = WORK / f"trace-{name}-seed{seed}.json"
    trace = {"workload": name, "seed": seed, "metrics": metrics,
             "replays_s": walls,
             "last_spans_replay": rounds[-1]["spans"].report(),
             "last_full_replay": rounds[-1]["full"].report()}
    trace_path.write_text(json.dumps(trace, indent=1) + "\n", encoding="utf-8")
    print(f"{name:13} span wrappers only cost "
          f"{statistics.median(walls['spans']) - plain_s:.6g} s a replay")
    print(f"{name:13} trace written to {trace_path.relative_to(ROOT)}")

    if warmup.failure:
        failures.insert(0, warmup.failure)
    if failures:
        print(f"{name:13} failure: {failures[0]}")
    attempted = 1 + len(kinds) * len(rounds) + len(imports)
    return {"metrics": {name: metrics}, "attempted": attempted,
            "failed": len(failures) + import_failures,
            "report": {name: {"inputs": case.describe_inputs(), "trace": str(trace_path)}}}


# -- entry point ------------------------------------------------------------------------

def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # on SIGTERM, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "topodata" / "cli.py").is_file():
        print(f"error: no topodata sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        (WORK / name).mkdir(parents=True, exist_ok=True)

    launcher = Launcher(dict(os.environ, PYTHONPATH=str(SRC)))
    try:
        if args.trace:
            results = [run_traced(name, args.seed, args.seconds, launcher) for name in names]
        else:
            results = [run_end_to_end(names, args.seed, args.seconds, launcher)]
    finally:
        launcher.close()

    metrics, report = {}, {}
    for result in results:
        for name, values in result["metrics"].items():
            if values.keys() != units.keys():
                raise SystemExit(f"metrics of {name} differ from BENCHMARK.json: "
                                 f"{sorted(values.keys() ^ units.keys())}")
            for key, value in values.items():
                shown = key if len(names) == 1 else f"{name}.{key}"
                metrics[shown] = {"value": value, "unit": units[key]}
        report.update(result["report"])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"result-{stamp}.json").write_text(
        json.dumps({"args": vars(args), "metrics": metrics, "report": report}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
