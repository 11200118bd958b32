#!/usr/bin/env python3
"""Time reductions, product, emit, loading, continuity and closure in process
on chains, a grid and a star.

    python3 tools/scale_probe.py > probe.json
    python3 tools/scale_probe.py --chains 320,1500,3000 --grid 60 --star 20000
    python3 tools/scale_probe.py --chains '' --against ../parent-checkout

For every input the probe runs ``transitive_reduce``,
``select_subspace`` of every other element, ``pullback_intersection``
of two such spaces, and the selection and the intersection of only
three ids of the input (``select_three``, ``intersect_three``), whose
cost should follow the three ids, not the input.  The grid is also
extruded: ``product`` with a chain of 4 segments, the way a solid is
swept, ``serialize`` (``serialize_space``) of that product, and
``emit`` of it: ``io.write_document`` to a file in a temporary
directory.  ``emit_map`` writes the product's left projection onto the
grid the same way.  The grid is loaded as well,
in its own row: ``parse_space`` of its JSON
document, whose text the probe keeps, ``load_space`` of that document
written to a file in the temporary directory, whose text only the load
holds, ``parse_map`` of its 2x coarsening onto the grid of half its
side, and ``is_continuous`` of that map.  A star, one hub bounded by
each of n leaves, is checked in a row of its own: ``is_continuous`` of
its identity map, whose every pair is a pair of the codomain, so the
cost of the direct test shows at a high out-degree, and in another:
``emit_star`` writes the star with ``io.write_document``, so the memory
of a source whose pairs span more than one block shows.  Two more rows per
chain length n test reachability on deep inputs: ``continuity_chain``
is ``is_continuous`` of the map x_i -> y_2i from a chain of n elements
into one of 2n, whose every pair is sent to a reachable pair that is not
a pair of the codomain, and ``closure_chain`` is the ``closure`` of
every other id of the deep chain.  Two rows size the cycle paths:
``cycle_grid`` is ``Space(...)`` of the grid plus one pair that closes a
cycle, timed up to its ``CyclicIncidenceError``, whose message names a
closed walk found in the strongly connected components, and
``collapse_chain`` is the ``quotient`` of the deep chain with its first
and last ids in one class, under ``on_cycle="collapse"``, which folds
the chain into one cycle.  Two rows size the grid's joins and
quotients: ``theta_grid`` is the ``theta_join`` of the grid with a copy
of itself shifted by half a cell, one doubled unit, along both axes, on
every pair of cells whose closures meet (the shape of the bench's
``overlay``, at the probe's size), and ``quotient_grid`` is the
``quotient`` of the grid by the classes of its 2x ``coarsening``, which
folds into no cycle.  It prints one JSON document with each operation's
least and median process CPU time and its tracemalloc peak.

The inputs are the bench's generators, read from ``bench/workloads.py``,
which describes each; none is described or defined here twice.  The grid
is ``grid("g", n)``, each deep chain ``_deep_chain(n, rng)`` with the
probe's own ``random.Random(f"scale_probe:{seed}:{n}")``, the coarsening
steps are ``coarsen1`` and the overlap is ``_overlap_1d`` along each axis.

Every run gets inputs built anew with ``Space(...)``, outside the timer,
so that no cache of an earlier run is read.  The times are the least
and the median process CPU time (``time.process_time``) over
``--repeat`` runs; a run that takes more than a second is not repeated.
The peak is taken in one further run, with ``tracemalloc`` started
after the inputs were built, so it counts what the operation allocates.
With ``--against`` it is taken in two further runs per tree, once with
this tree going first and once with the other going first, and the
lower counts, so that a cost paid by whichever tree runs first (a
cache the process fills once) is charged to neither.
When one run of an operation takes more than ``--limit`` seconds, in
either tree, the larger chains are skipped for that operation in rows of
that kind, and the result says so.

With ``--against``, the ``topodata`` package of another checkout (say
a ``git archive`` of an earlier commit) is imported too, under another
name, and the runs of every operation alternate between the two trees
in this one process, so that both see the same load.  Each result then
also holds the other tree's figures and the number of runs in which
this tree was the faster.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import random
import statistics
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import topodata  # noqa: E402  (the tree that holds this script)

# the bench's generators, read by path; its dataclass looks its module up in sys.modules
_spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SEGMENTS = 4  # the chain the grid is extruded along


def deep_chain(n: int, seed: str) -> tuple[list[str], list[tuple[str, str]]]:
    """The ids and pairs of the bench's deep chain of n elements, seeded by ``seed`` and n."""
    rng = random.Random(f"scale_probe:{seed}:{n}")
    return [f"k{i}" for i in range(n)], workloads._deep_chain(n, rng)


def grid(n: int) -> tuple[list[str], list[tuple[str, str]]]:
    """The ids and pairs of the bench's n x n cubical grid, ids prefixed ``g``."""
    ids, pairs = workloads.grid("g", n)
    return list(ids.values()), pairs


def segments(n: int) -> tuple[list[str], list[tuple[str, str]]]:
    """The ids and pairs of a chain of n segments, each bounded by its two ends."""
    ids = [f"s{c}" for c in range(2 * n + 1)]
    return ids, [(ids[c], ids[c + d]) for c in range(1, 2 * n, 2) for d in (-1, 1)]


def plain_chain(n: int, name: str) -> tuple[list[str], list[tuple[str, str]]]:
    """The ids and pairs of a chain of n elements, each bounded by the next."""
    ids = [f"{name}{i}" for i in range(n)]
    return ids, list(zip(ids, ids[1:]))


def star(n: int) -> tuple[list[str], list[tuple[str, str]]]:
    """The ids and pairs of a hub bounded by each of n leaves."""
    ids = ["h", *(f"l{i}" for i in range(n))]
    return ids, [("h", leaf) for leaf in ids[1:]]


def coarsening(n: int) -> list[list[str]]:
    """The pairs of the bench's 2x coarsening of the n x n grid onto the grid of
    side n // 2.

    For an odd n the cells past the last row or column of the smaller grid
    go to that row or column, which keeps the map continuous."""
    top = 2 * (n // 2)

    def down(c):
        return min(workloads.coarsen1(c), top)

    return [[f"g{cx}_{cy}", f"g{down(cx)}_{down(cy)}"]
            for cx in range(2 * n + 1) for cy in range(2 * n + 1)]


def overlap(n: int) -> list[tuple[str, str]]:
    """The pairs of cells of the n x n grid and of a copy shifted by one doubled
    unit along both axes whose closures meet, left id first: the product of
    the bench's per-axis ``overlay`` pairs."""
    axis = workloads._overlap_1d(n)
    return [(f"g{cx}_{cy}", f"g{dx}_{dy}") for cx, dx in axis for cy, dy in axis]


AGAINST = "topodata_against"


def load_against(root: Path):
    """The ``topodata`` package of the checkout at ``root``, under another name.

    The modules of an earlier call are dropped first, so that every call
    executes the package at its root anew, submodules included.  A package
    that registers its submodules to run when first used has each run
    before the return: one that had not run could not load once a later
    call replaced its ``sys.modules`` entry."""
    for name in [name for name in sys.modules if name.partition(".")[0] == AGAINST]:
        del sys.modules[name]
    package = root / "src" / "topodata"
    spec = importlib.util.spec_from_file_location(
        AGAINST, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    for name in [name for name in sys.modules if name.partition(".")[0] == AGAINST]:
        vars(sys.modules[name])  # reading an attribute runs a lazily registered module
    return module


def operations(lib, first, second):
    """Name -> (function of fresh inputs, builder of fresh inputs), with the
    ``Space``, ``select_subspace`` and ``pullback_intersection`` of ``lib``."""
    Space, select_subspace, pullback_intersection = (
        lib.Space, lib.select_subspace, lib.pullback_intersection)
    ids, pairs = first
    three = ids[len(ids) // 2:][:3]

    def one():
        return (Space("X", ids, pairs),)

    def two():
        return Space("X", ids, pairs), Space("Y", *second)

    def with_three():
        return Space("X", ids, pairs), Space("Y", three)

    return {
        "transitive_reduce": (lambda x: x.transitive_reduce(), one),
        "select_subspace": (lambda x: select_subspace(x, ids[::2]), one),
        "pullback_intersection": (pullback_intersection, two),
        "select_three": (lambda x: select_subspace(x, three), one),
        "intersect_three": (pullback_intersection, with_three),
    }


def extrusion(lib, first, target: Path):
    """``product`` of the input with a chain of ``SEGMENTS`` segments,
    ``serialize`` and ``emit`` of that product to ``target``, and
    ``emit_map`` of its left projection to ``target``, with the functions
    of ``lib``."""
    chain = segments(SEGMENTS)

    def factors():
        return lib.Space("G", *first), lib.Space("S", *chain)

    def extruded():
        return (lib.product(*factors())[0],)

    def projection():
        return (lib.product(*factors())[1],)

    io = importlib.import_module(f"{lib.__name__}.io")

    def emit(value):
        io.write_document(value, target)

    return {"product": (lib.product, factors), "serialize": (io.serialize_space, extruded),
            "emit": (emit, extruded), "emit_map": (emit, projection)}


def loading(lib, n: int, folder: Path):
    """``parse_space`` of the n x n grid's document, ``load_space`` of it from
    a file in ``folder``, ``parse_map`` of its ``coarsening``, and
    ``is_continuous`` of that map, with the functions of ``lib``."""
    io = importlib.import_module(f"{lib.__name__}.io")
    fine, half = grid(n), grid(n // 2)
    space_text = json.dumps({"name": "G", "elements": [{"id": e} for e in fine[0]],
                             "incidence": [list(pair) for pair in fine[1]]})
    space_path = folder / "grid.json"
    space_path.write_text(space_text, encoding="utf-8")
    map_text = json.dumps({"domain": "G", "codomain": "H", "pairs": coarsening(n)})

    def spaces():
        return ({"G": lib.Space("G", *fine), "H": lib.Space("H", *half)},)

    def coarse_map():
        return (io.parse_map(map_text, *spaces()),)

    return {"parse_space": (io.parse_space, lambda: (space_text,)),
            "load_space": (io.load_space, lambda: (space_path,)),
            "parse_map": (lambda named: io.parse_map(map_text, named), spaces),
            "is_continuous": (lib.is_continuous, coarse_map)}


def continuity(lib, first):
    """``is_continuous`` of the identity map of the space on ``first``, with
    the functions of ``lib``."""
    def identity():
        return (lib.identity_map(lib.Space("S", *first)),)

    return {"is_continuous": (lib.is_continuous, identity)}


def star_emit(lib, first, target: Path):
    """``emit`` of the space on ``first`` to ``target``, with the functions of ``lib``."""
    io = importlib.import_module(f"{lib.__name__}.io")
    return {"emit": (lambda space: io.write_document(space, target),
                     lambda: (lib.Space("S", *first),))}


def chain_map(lib, x, y):
    """``is_continuous`` of the map x_i -> y_2i from the chain on ``x`` into
    the chain on ``y``, twice as long, with the functions of ``lib``."""
    table = {f"x{i}": f"y{2 * i}" for i in range(len(x[0]))}

    def doubling():
        return (lib.SpaceMap(lib.Space("X", *x), lib.Space("Y", *y), table),)

    return {"is_continuous": (lib.is_continuous, doubling)}


def chain_closure(lib, first):
    """``closure`` of every other id of the space on ``first``, with the
    ``Space`` of ``lib``."""
    ids, pairs = first

    def one():
        return (lib.Space("X", ids, pairs),)

    return {"closure": (lambda x: x.closure(ids[::2]), one)}


def cyclic_space(lib, first):
    """``Space`` of the ids and pairs of ``first``, which hold a cycle, up to
    its ``CyclicIncidenceError``, with the ``Space`` of ``lib``."""
    def refused(ids, pairs):
        try:
            lib.Space("G", ids, pairs)
        except lib.CyclicIncidenceError:
            return
        raise AssertionError("the pairs hold no cycle")

    return {"Space": (refused, lambda: first)}


def chain_collapse(lib, first):
    """``quotient`` of the space on ``first`` with its first and last ids in
    one class, under ``on_cycle="collapse"``, with the functions of ``lib``."""
    ids, pairs = first
    ends = lib.Partition({ids[0]: "ends", ids[-1]: "ends"})

    def one():
        return (lib.Space("X", ids, pairs),)

    return {"quotient": (lambda x: lib.quotient(x, ends, on_cycle="collapse"), one)}


def grid_theta(lib, first, n: int):
    """``theta_join`` of the grid on ``first`` with a copy of itself on their
    ``overlap``, with the functions of ``lib``."""
    pairs = overlap(n)

    def inputs():
        return lib.Space("X", *first), lib.Space("Y", *first), lib.ThetaRelation(pairs)

    return {"theta_join": (lib.theta_join, inputs)}


def grid_quotient(lib, first, n: int):
    """``quotient`` of the grid on ``first`` by the classes of its ``coarsening``,
    with the functions of ``lib``."""
    classes = dict(coarsening(n))

    def inputs():
        return lib.Space("G", *first), lib.Partition(classes)

    return {"quotient": (lib.quotient, inputs)}


def measure(run, build, repeat: int, against=None) -> dict:
    """The least and the median process CPU time over the runs, and the
    tracemalloc peak of one more run.  ``against`` is the same operation
    of another tree as a ``(run, build)`` pair; the two then take turns,
    each going first in every other round, and each side's peak is the
    lower of two runs, one going first and one going second."""
    sides = [(run, build)] + ([against] if against else [])
    times: list[list[float]] = [[] for _ in sides]
    while len(times[0]) < repeat and all(not t or t[-1] <= 1.0 for t in times):
        turns = list(enumerate(sides))
        if len(times[0]) % 2:
            turns.reverse()
        for i, (run_i, build_i) in turns:
            inputs = build_i()
            start = time.process_time()
            run_i(*inputs)
            times[i].append(time.process_time() - start)
    peaks: list[list[int]] = [[] for _ in sides]
    order = list(range(len(sides)))
    for turn in [order, order[::-1]] if against else [order]:
        for i in turn:
            run_i, build_i = sides[i]
            inputs = build_i()
            tracemalloc.start()
            run_i(*inputs)
            peaks[i].append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    figures = [{"cpu_s": min(seconds), "median_s": statistics.median(seconds),
                "runs": len(seconds), "peak_mb": min(peak) / 2 ** 20}
               for seconds, peak in zip(times, peaks)]
    result = figures[0]
    if against:
        result["against"] = figures[1]
        result["faster_runs"] = sum(ours < theirs for ours, theirs in zip(*times))
    return result


def probe(chains: list[int], grid_n: int, star_n: int, repeat: int, limit: float,
          folder: Path, against=None) -> dict:
    """The rows of every input; ``emit`` and the load write their files to ``folder``."""
    chains = sorted(chains)
    target = folder / "emitted.json"
    g, square = grid(grid_n), f"{grid_n}x{grid_n}"
    # (kind, size, input, its operations in a library given the input); a row's
    # label is "kind_size", and its kind groups the over-limit skips
    rows = [("chain", n, deep_chain(n, "C"), partial(operations, second=deep_chain(n, "D")))
            for n in chains]
    if grid_n:
        rows += [("grid", square, g, lambda lib, first: {**operations(lib, first, first),
                                                        **extrusion(lib, first, target)}),
                 ("load", square, g, lambda lib, _: loading(lib, grid_n, folder))]
    if star_n:
        rows += [("continuity_star", star_n, star(star_n), continuity),
                 ("emit_star", star_n, star(star_n), partial(star_emit, target=target))]
    rows += [("continuity_chain", n, plain_chain(n, "x"),
              partial(chain_map, y=plain_chain(2 * n, "y"))) for n in chains]
    rows += [("closure_chain", n, deep_chain(n, "C"), chain_closure) for n in chains]
    if grid_n:  # a vertex bounded by a square that it bounds
        rows.append(("cycle_grid", square, (g[0], g[1] + [("g0_0", "g1_1")]), cyclic_space))
    rows += [("collapse_chain", n, deep_chain(n, "C"), chain_collapse) for n in chains]
    if grid_n:
        rows += [("theta_grid", square, g, partial(grid_theta, n=grid_n)),
                 ("quotient_grid", square, g, partial(grid_quotient, n=grid_n))]
    results = {}
    too_slow: dict[tuple[str, str], str] = {}  # (row kind, operation) -> why
    for kind, size, first, timed in rows:
        label = f"{kind}_{size}"
        row = {"elements": len(first[0]), "pairs": len(first[1])}
        theirs = timed(against, first) if against else {}
        for name, (run, build) in timed(topodata, first).items():
            if (kind, name) in too_slow:
                row[name] = {"skipped": too_slow[kind, name]}
                continue
            row[name] = measure(run, build, repeat, theirs.get(name))
            slowest = max(row[name]["cpu_s"], row[name].get("against", {}).get("cpu_s", 0))
            if slowest > limit:
                too_slow[kind, name] = f"{label} took {slowest:.1f} s, over the {limit:g} s limit"
        results[label] = row
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--chains", default="320,1500,3000",
                        help="comma-separated chain lengths")
    parser.add_argument("--grid", type=int, default=60, help="grid side; 0 for no grid")
    parser.add_argument("--star", type=int, default=20000,
                        help="leaves of the star whose identity map is checked and which "
                             "is written; 0 for no star")
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per operation")
    parser.add_argument("--limit", type=float, default=60.0,
                        help="seconds after which larger chains are skipped")
    parser.add_argument("--against", type=Path,
                        help="root of another checkout to time in alternation with this one")
    args = parser.parse_args(argv)
    chains = [int(n) for n in args.chains.split(",") if n]
    with tempfile.TemporaryDirectory() as scratch:
        results = probe(chains, args.grid, args.star, args.repeat, args.limit,
                        Path(scratch),
                        load_against(args.against) if args.against else None)
    result = {
        "machine": f"{platform.system()} {platform.machine()}, "
                   f"Python {platform.python_version()}",
        "repeat": args.repeat,
        "limit_s": args.limit,
        "against": str(args.against) if args.against else None,
        "results": results,
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
