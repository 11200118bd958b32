#!/usr/bin/env python3
"""Run the benchmark in alternating pairs of two commits; judge regressions and a claimed gain.

    python3 tools/bench_pairs.py --parent 5d81580 --change HEAD \\
        --seeds 51-60 --claim lod_validate.wall_rel --slug shared_ids

``--claim`` is given only when the change claims a gain.

Each side runs from its own clean tree, exported with ``git archive``
into ``--workdir`` (a new temporary directory by default).  Pair i runs
``python3 bench/run.py --workload all --seed S`` once on each side with
the i-th seed; the parent goes first in even pairs and the change in odd
ones, at the run length ``bench/run.py`` sets.  Traced rounds follow the
pairs: round i runs ``--trace 1`` once on each side with the i-th seed,
alternating which side goes first in the same way.  One traced run can
swing a layer by 2x, so there are ``TRACE_ROUNDS`` of them, and the file
holds each per-layer metric's median and quartiles per side and the
rounds the change was better in.  To measure uncommitted work, stage it
and pass the commit that ``git stash create`` prints as ``--change``.

The result is written to ``BENCH_<slug>.json`` at the repository root
after every pair, so an interrupted session keeps what it measured.  It
holds every pair's final JSON line per side, a summary per end-to-end
metric (median and quartiles per side, the pairs the change won, the
parent's interquartile range), each side's failed invocations and
``src/`` line count, and a no-regression verdict per metric: the
change's median may be worse than the parent's by at most the metric's
``BENCHMARK.json`` bound, relative to the parent's median.  With
``--claim`` it also holds the verdict of the gain rule: a gain counts
when the change is better in at least nine tenths of the pairs and the
two medians differ by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACE_ROUNDS = 5  # traced runs per side after the pairs, for the per-layer metrics
TRACE_SECONDS = 8
RULE = ("no regression while each end-to-end median of the change is worse than the "
        "parent's by at most the metric's bound, relative to the parent's median; a gain "
        "counts when the change is better in at least 9 of 10 pairs and the medians differ "
        "by more than the parent's interquartile range")


def directions(benchmark: dict, kind: str = "end_to_end") -> dict[str, str]:
    """Metric name -> "lower" or "higher", for the end-to-end or the per-layer metrics."""
    return {m["name"]: m["better"] for m in benchmark[kind]}


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:  # after the first pair
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict[str, dict]:
    """Per metric ("<workload>.<metric>"), each side's quartiles and who won each pair."""
    summary = {}
    for key, first in pairs[0]["parent"]["metrics"].items():
        direction = better.get(key.split(".", 1)[-1])
        if direction is None:
            continue
        parent = [p["parent"]["metrics"][key]["value"] for p in pairs]
        change = [p["change"]["metrics"][key]["value"] for p in pairs]
        sign = 1 if direction == "lower" else -1
        p, c = quartiles(parent), quartiles(change)
        summary[key] = {
            "unit": first["unit"], "better": direction, "parent": p, "change": c,
            "change_better_pairs": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
            "pairs": len(pairs),
            "median_change_rel": ((c["median"] - p["median"]) / p["median"]
                                  if p["median"] else None),  # a layer may read 0
            "parent_iqr": p["q3"] - p["q1"],
        }
    return summary


def verdict(entry: dict) -> bool:
    """The rule, for one summarized metric."""
    sign = 1 if entry["better"] == "lower" else -1
    gain = sign * (entry["parent"]["median"] - entry["change"]["median"])
    return 10 * entry["change_better_pairs"] >= 9 * entry["pairs"] and gain > entry["parent_iqr"]


def no_regression(summary: dict[str, dict], bound: dict[str, float]) -> dict[str, dict]:
    """Per summarized metric, how much worse the change's median is than the parent's,
    relative to the parent's, and whether that stays within the metric's bound."""
    judged = {}
    for key, entry in summary.items():
        limit = bound[key.split(".", 1)[-1]]
        sign = 1 if entry["better"] == "lower" else -1
        worse = sign * entry["median_change_rel"]
        judged[key] = {"bound": limit, "worse_rel": worse, "holds": worse <= limit}
    return judged


def failures(pairs: list[dict], side: str) -> dict[str, int]:
    """The invocations one side attempted and failed, over all pairs."""
    runs = [p[side] for p in pairs]
    return {"attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs)}


def src_lines(tree: Path) -> int:
    """The lines of the Python files under ``src/``, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in sorted(tree.glob("src/**/*.py")))


def export(rev: str, target: Path) -> str:
    """A clean tree of ``rev`` in ``target``; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    target.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return commit


def bench(tree: Path, *args: str) -> dict:
    """The final JSON line of one ``bench/run.py`` run in ``tree``."""
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "all", *args],
                          cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench/run.py {' '.join(args)} in {tree} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def alternate(i: int) -> list[str]:
    """The sides in the order they run in pair or traced round ``i``."""
    return ["parent", "change"] if i % 2 == 0 else ["change", "parent"]


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit of the parent side")
    parser.add_argument("--change", required=True, help="commit of the change side")
    parser.add_argument("--seeds", required=True, type=seed_range,
                        help="one seed per pair, as FIRST-LAST")
    parser.add_argument("--claim", default=None,
                        help="the metric a gain is claimed on, e.g. lod_validate.wall_rel; "
                             "leave out when the change claims no gain")
    parser.add_argument("--slug", required=True, help="the result goes to BENCH_<slug>.json")
    parser.add_argument("--what", default="", help="one sentence on what the change does")
    parser.add_argument("--workdir", type=Path, default=None)
    args = parser.parse_args(argv)

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    trees = {side: workdir / side for side in ("parent", "change")}
    commits = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = directions(benchmark)
    bound = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    out = ROOT / f"BENCH_{args.slug}.json"
    result = {
        "what": args.what,
        "claim": args.claim,
        "parent": commits["parent"],
        "change": commits["change"],
        "command": "python3 bench/run.py --workload all --seed N",
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}; one run at a time",
        "protocol": f"{len(args.seeds)} alternating pairs on seeds {args.seeds[0]}-"
                    f"{args.seeds[-1]}, parent first in even pairs (0-based); each side "
                    "ran from its own tree exported with git archive",
        "rule": RULE,
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "pairs": [],
    }
    for i, s in enumerate(args.seeds):
        order = alternate(i)
        pair = {"seed": s, "order": order}
        for side in order:
            pair[side] = bench(trees[side], "--seed", str(s))
            shown = (f"{pair[side]['metrics'][args.claim]['value']:.4f}" if args.claim
                     else f"{pair[side]['failed']} failed of {pair[side]['attempted']}")
            print(f"seed {s} {side}: {shown}", flush=True)
        result["pairs"].append(pair)
        result["summary"] = summarize(result["pairs"], better)
        result["failures"] = {side: failures(result["pairs"], side) for side in trees}
        result["no_regression"] = no_regression(result["summary"], bound)
        if args.claim:
            claimed = result["summary"][args.claim]
            result["verdict"] = {"metric": args.claim, "pairs": len(result["pairs"]),
                                 "change_better_pairs": claimed["change_better_pairs"],
                                 "gain_counts": verdict(claimed)}
        out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    trace_seeds = [args.seeds[i % len(args.seeds)] for i in range(TRACE_ROUNDS)]
    result["trace"] = trace = {
        "command": f"python3 bench/run.py --workload all --trace 1 --seconds {TRACE_SECONDS} "
                   f"--seed S, S = {', '.join(map(str, trace_seeds))}, one round per seed; "
                   "the parent goes first in even rounds (0-based)",
        "rounds": []}
    layer_better = directions(benchmark, "per_layer")
    for i, s in enumerate(trace_seeds):
        order = alternate(i)
        traced = {"seed": s, "order": order}
        for side in order:
            traced[side] = bench(trees[side], "--trace", "1", "--seconds", str(TRACE_SECONDS),
                                 "--seed", str(s))
        print(f"traced round {i + 1} of {TRACE_ROUNDS} done", flush=True)
        trace["rounds"].append(traced)
        trace["summary"] = summarize(trace["rounds"], layer_better)
        trace["failures"] = {side: failures(trace["rounds"], side) for side in trees}
        out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"src_lines": result["src_lines"], "failures": result["failures"],
                      "traced_failures": trace["failures"],
                      "regressed": sorted(k for k, v in result["no_regression"].items()
                                          if not v["holds"]),
                      "verdict": result.get("verdict")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
