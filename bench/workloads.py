"""Seeded inputs and independent reference outputs for the benchmark.

Standard library only, and no import of ``topodata``: the input bytes
depend on the seed alone, so every commit is measured on the same files,
and the expected outputs are computed from the generator's own geometry,
never by running the program under test.

Every generated file lists its elements and pairs in a seeded random
order, so the canonical (sorted) output the program must produce is a
real check rather than an echo of the input.

Geometry conventions.  A cubical grid of n x n unit squares is stored by
cell centres in doubled coordinates: centre (cx, cy) with 0 <= cx, cy <=
2n, where an even coordinate is a vertex position and an odd one the
middle of an edge along that axis.  So (even, even) is a vertex, one odd
coordinate an edge and two a square.  Incidence reads "a is bounded by
b", as in the library: a square by its four edges, an edge by its two
vertices.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

SEP = "×"  # the library's default product separator

# Sizes, fixed per workload; the seed only shuffles and plants.  Chosen so
# one invocation takes about half a second on a 2-core machine, which
# leaves enough samples per run for a tail percentile.
OVERLAY_N = 8           # two 8x8 grids, (4n-1)^2 = 961 theta pairs
LOD_N = 48              # fine 48x48 grid, coarsened to 24x24 and 12x12
CAD_GRID_N = 14         # product of a 14x14 grid ...
CAD_SEGMENTS = 4        # ... with a chain of 4 segments
CAD_CHAIN = 320         # deep chain for reduce, select and intersect
CAD_MAX_SKIP = 16       # longest skip edge of the deep chain


@dataclass
class Case:
    """One workload instance: input files, command, expected result."""

    workload: str
    seed: int
    argv: list[str]                  # topo arguments, paths relative to the case dir
    files: dict[str, bytes]          # input files by relative path
    exit_code: int
    stdout: list[str]
    emitted: dict[str, str]          # relative path -> SHA-256 of the canonical file
    input_elements: int
    output_elements: int
    inventory: dict[str, dict] = field(default_factory=dict)

    def describe_inputs(self) -> dict:
        """Per-file counts, size and digest, plus the totals."""
        files = {}
        for path, data in sorted(self.files.items()):
            entry = dict(self.inventory.get(path, {}))
            entry["mb"] = len(data) / 1e6
            entry["sha256"] = hashlib.sha256(data).hexdigest()
            files[path] = entry
        return {"workload": self.workload, "seed": self.seed,
                "input_elements": self.input_elements,
                "output_elements": self.output_elements,
                "input_mb": sum(len(d) for d in self.files.values()) / 1e6,
                "files": files}


# -- documents -------------------------------------------------------------------

def _shuffled(items, rng):
    items = list(items)
    rng.shuffle(items)
    return items


def _space_file(name, ids, pairs, rng) -> bytes:
    doc = {"name": name,
           "elements": [{"id": e} for e in _shuffled(ids, rng)],
           "incidence": [list(p) for p in _shuffled(pairs, rng)]}
    return json.dumps(doc, ensure_ascii=False).encode("utf-8")


def _map_file(domain, codomain, table, rng) -> bytes:
    doc = {"domain": domain, "codomain": codomain,
           "pairs": [list(p) for p in _shuffled(table.items(), rng)]}
    return json.dumps(doc, ensure_ascii=False).encode("utf-8")


def _canonical(doc) -> bytes:
    # the library's canonical form: fixed key order, two-space indent, newline
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _canonical_space_digest(name, ids, pairs) -> str:
    doc = {"name": name,
           "elements": [{"id": e} for e in sorted(ids)],
           "incidence": [list(p) for p in sorted(pairs)]}
    return hashlib.sha256(_canonical(doc)).hexdigest()


def _canonical_map_digest(domain, codomain, table) -> str:
    doc = {"domain": domain, "codomain": codomain,
           "pairs": [list(p) for p in sorted(table.items())]}
    return hashlib.sha256(_canonical(doc)).hexdigest()


# -- cubical grids ---------------------------------------------------------------

def faces1(c: int) -> tuple[int, ...]:
    """Closed faces of a 1-D cell given by its doubled-coordinate centre."""
    return (c - 1, c, c + 1) if c % 2 else (c,)


def grid(prefix: str, n: int):
    """Ids by centre, and the incidence pairs, of an n x n cubical grid."""
    ids = {(cx, cy): f"{prefix}{cx}_{cy}"
           for cx in range(2 * n + 1) for cy in range(2 * n + 1)}
    pairs = []
    for (cx, cy), cell in ids.items():
        if cx % 2:
            pairs += [(cell, ids[cx - 1, cy]), (cell, ids[cx + 1, cy])]
        if cy % 2:
            pairs += [(cell, ids[cx, cy - 1]), (cell, ids[cx, cy + 1])]
    return ids, pairs


# -- overlay -----------------------------------------------------------------------

def _overlap_1d(n: int) -> list[tuple[int, int]]:
    """Per-axis pairs (left cell, right cell) whose closed intervals meet.

    The right grid is shifted by half a cell, one doubled unit.
    """
    def interval(c, shift):
        return (c - 1 + shift, c + 1 + shift) if c % 2 else (c + shift, c + shift)

    kept = []
    for c in range(2 * n + 1):
        lo_l, hi_l = interval(c, 0)
        for d in range(2 * n + 1):
            lo_r, hi_r = interval(d, 1)
            if max(lo_l, lo_r) <= min(hi_l, hi_r):
                kept.append((c, d))
    return kept


def _order_1d(kept):
    """Down sets, covers and heights of the 1-D kept pairs.

    (c2, d2) lies below (c, d) when c2 is a face of c and d2 a face of d,
    the product order restricted to the kept pairs.
    """
    kept_set = set(kept)
    down = {p: {(c2, d2) for c2 in faces1(p[0]) for d2 in faces1(p[1])
                if (c2, d2) in kept_set} for p in kept}
    covers = {}
    for p in kept:
        strict = down[p] - {p}
        covers[p] = {q for q in strict
                     if not any(q in down[s] for s in strict if s != q)}
    height = {}
    for p in sorted(kept, key=lambda p: len(down[p])):
        height[p] = 1 + max((height[q] for q in covers[p]), default=-1)
    return down, covers, height


def overlay(seed: int, n: int = OVERLAY_N) -> Case:
    """theta_join of two offset grids on every pair of overlapping cells.

    Both the theta relation and the face order factor by axis, so the
    join is the product of two copies of the 1-D order on kept pairs: a
    join element covers another exactly when one axis component covers
    and the other is equal.
    """
    rng = random.Random(f"overlay:{seed}")
    x_ids, x_pairs = grid("x", n)
    y_ids, y_pairs = grid("y", n)
    kept1 = _overlap_1d(n)
    down1, covers1, height1 = _order_1d(kept1)

    def left(p1, p2):
        return x_ids[p1[0], p2[0]]

    def right(p1, p2):
        return y_ids[p1[1], p2[1]]

    def jid(p1, p2):
        return f"{left(p1, p2)}{SEP}{right(p1, p2)}"

    theta = [(left(p1, p2), right(p1, p2)) for p1 in kept1 for p2 in kept1]
    join_ids = [jid(p1, p2) for p1 in kept1 for p2 in kept1]
    join_pairs = [(jid(p1, p2), jid(q1, p2)) for p1 in kept1 for p2 in kept1
                  for q1 in covers1[p1]]
    join_pairs += [(jid(p1, p2), jid(p1, q2)) for p1 in kept1 for p2 in kept1
                   for q2 in covers1[p2]]
    pleft = {jid(p1, p2): left(p1, p2) for p1 in kept1 for p2 in kept1}

    probes = [(rng.choice(kept1), rng.choice(kept1)) for _ in range(3)]
    closed = {jid(q1, q2) for p1, p2 in probes for q1 in down1[p1] for q2 in down1[p2]}
    probe_ids = ",".join(jid(p1, p2) for p1, p2 in probes)

    join_name = f"X{SEP}Y"
    script = "\n".join([
        "# overlay: theta join of two offset grids on their overlapping cells",
        'load X "x.json"',
        'load Y "y.json"',
        'load T "theta.json"',
        "let J = theta_join(X, Y, T)",
        "check continuous J.pleft",
        "check continuous J.pright",
        "dim J",
        f"closure J {probe_ids}",
        'emit J "out/join.json"',
        'emit J.pleft "out/join_left.json"',
    ]) + "\n"
    theta_doc = {"left": "X", "right": "Y",
                 "pairs": [list(p) for p in _shuffled(theta, rng)]}
    files = {
        "x.json": _space_file("X", x_ids.values(), x_pairs, rng),
        "y.json": _space_file("Y", y_ids.values(), y_pairs, rng),
        "theta.json": json.dumps(theta_doc, ensure_ascii=False).encode("utf-8"),
        "overlay.topo": script.encode("utf-8"),
    }
    return Case(
        workload="overlay", seed=seed, argv=["run", "overlay.topo"], files=files,
        exit_code=0,
        stdout=["check continuous J.pleft: PASS",
                "check continuous J.pright: PASS",
                f"dim J = {2 * max(height1.values())}",
                f"closure J {probe_ids} = {','.join(sorted(closed))}",
                "emit J -> out/join.json",
                "emit J.pleft -> out/join_left.json"],
        emitted={"out/join.json": _canonical_space_digest(join_name, join_ids, join_pairs),
                 "out/join_left.json": _canonical_map_digest(join_name, "X", pleft)},
        input_elements=len(x_ids) + len(y_ids),
        output_elements=len(join_ids),
        inventory={"x.json": {"elements": len(x_ids), "pairs": len(x_pairs)},
                   "y.json": {"elements": len(y_ids), "pairs": len(y_pairs)},
                   "theta.json": {"pairs": len(theta)}},
    )


# -- level of detail ---------------------------------------------------------------

def coarsen1(c: int) -> int:
    """Centre of the smallest 2x-coarser 1-D cell containing fine cell c."""
    if c % 2 == 0:
        return c // 2
    i = (c - 1) // 2
    return i if i % 2 else i + 1


def lod_validate(seed: int, n: int = LOD_N) -> Case:
    """Three-level LOD manifest with one planted continuity defect."""
    if n % 4:
        raise ValueError("LOD grid size must be a multiple of 4")
    rng = random.Random(f"lod_validate:{seed}")
    f_ids, f_pairs = grid("f", n)
    m_ids, m_pairs = grid("m", n // 2)
    c_ids, c_pairs = grid("c", n // 4)

    def down2(cell):
        return (coarsen1(cell[0]), coarsen1(cell[1]))

    fm = {f_ids[p]: m_ids[down2(p)] for p in f_ids}
    mc = {m_ids[p]: c_ids[down2(p)] for p in m_ids}
    fc = {f_ids[p]: c_ids[down2(down2(p))] for p in f_ids}
    # legacy references: every fine cell points at the coarse square it
    # lies in, which breaks continuity along square borders; plain mode
    # checks referential integrity only
    half = n // 2

    def square1(c):
        return 2 * min(c // 4, half - 1) + 1

    legacy = {f_ids[p]: m_ids[square1(p[0]), square1(p[1])] for p in f_ids}

    # planted defect: one fine square sent to a coarse vertex, which none
    # of its edges can follow.  The square is one of the last few in id
    # order, so the continuity check, which stops at the first violating
    # pair in sorted order, scans nearly every pair whatever the seed.
    squares = sorted((p for p in f_ids if p[0] % 2 and p[1] % 2), key=f_ids.get)
    bad_cell = rng.choice(squares[-8:])
    bad_target = (2 * rng.randrange(half + 1), 2 * rng.randrange(half + 1))
    planted = dict(fm)
    planted[f_ids[bad_cell]] = m_ids[bad_target]
    m_centre = {v: k for k, v in m_ids.items()}

    def is_face(cell, of):
        return cell[0] in faces1(of[0]) and cell[1] in faces1(of[1])

    witness = next((a, b) for a, b in sorted(f_pairs)
                   if not is_face(m_centre[planted[b]], m_centre[planted[a]]))
    wa, wb = witness

    constraints = [("lod_fm", "fm", "continuous"), ("lod_mc", "mc", "continuous"),
                   ("lod_fc", "fc", "continuous"), ("legacy", "legacy", "plain"),
                   ("planted", "planted", "continuous")]
    manifest = {"spaces": ["fine.json", "mid.json", "coarse.json"],
                "maps": ["fm.json", "mc.json", "fc.json", "legacy.json", "planted.json"],
                "constraints": [{"name": name, "map": m, "mode": mode}
                                for name, m, mode in constraints]}
    files = {
        "fine.json": _space_file("F", f_ids.values(), f_pairs, rng),
        "mid.json": _space_file("M", m_ids.values(), m_pairs, rng),
        "coarse.json": _space_file("C", c_ids.values(), c_pairs, rng),
        "fm.json": _map_file("F", "M", fm, rng),
        "mc.json": _map_file("M", "C", mc, rng),
        "fc.json": _map_file("F", "C", fc, rng),
        "legacy.json": _map_file("F", "M", legacy, rng),
        "planted.json": _map_file("F", "M", planted, rng),
        "manifest.json": json.dumps(manifest).encode("utf-8"),
    }
    stdout = [f"PASS {name} ({mode})" for name, _, mode in constraints[:-1]]
    stdout.append(f"FAIL planted (continuous): witness ({wa},{wb}) -> "
                  f"({planted[wa]},{planted[wb]})")
    inventory = {"fine.json": {"elements": len(f_ids), "pairs": len(f_pairs)},
                 "mid.json": {"elements": len(m_ids), "pairs": len(m_pairs)},
                 "coarse.json": {"elements": len(c_ids), "pairs": len(c_pairs)}}
    for stem, table in (("fm", fm), ("mc", mc), ("fc", fc),
                        ("legacy", legacy), ("planted", planted)):
        inventory[f"{stem}.json"] = {"pairs": len(table)}
    return Case(
        workload="lod_validate", seed=seed, argv=["validate", "manifest.json"],
        files=files, exit_code=1, stdout=stdout, emitted={},
        input_elements=len(f_ids) + len(m_ids) + len(c_ids), output_elements=0,
        inventory=inventory,
    )


# -- CAD extrusion -----------------------------------------------------------------

def _deep_chain(length: int, rng) -> list[tuple[str, str]]:
    """Chain k0 > k1 > ... plus one seeded skip edge per element."""
    pairs = [(f"k{i}", f"k{i + 1}") for i in range(length - 1)]
    for i in range(length):
        j = i + rng.randint(2, CAD_MAX_SKIP)
        if j < length:
            pairs.append((f"k{i}", f"k{j}"))
    return pairs


def cad_extrude(seed: int, n: int = CAD_GRID_N, segments: int = CAD_SEGMENTS,
                length: int = CAD_CHAIN) -> Case:
    """Extrude a grid along a segment chain, and reduce a deep chain.

    Every skip edge of the deep chains is implied by the chain edges, so
    the reduction, the selection of every other element and the
    intersection of two such chains are all plain chains.
    """
    if length % 2:
        raise ValueError("deep chain length must be even")
    rng = random.Random(f"cad_extrude:{seed}")
    g_ids, g_pairs = grid("g", n)
    s_ids = [f"s{c}" for c in range(2 * segments + 1)]
    s_pairs = [(f"s{c}", f"s{c + d}") for c in range(1, 2 * segments, 2) for d in (-1, 1)]
    k_ids = [f"k{i}" for i in range(length)]
    c_pairs = _deep_chain(length, rng)
    d_pairs = _deep_chain(length, rng)

    g_list = list(g_ids.values())
    p_ids = [f"{t}{SEP}{u}" for t in g_list for u in s_ids]
    p_pairs = [(f"{t}{SEP}{a}", f"{t}{SEP}{b}") for t in g_list for a, b in s_pairs]
    p_pairs += [(f"{c}{SEP}{u}", f"{d}{SEP}{u}") for c, d in g_pairs for u in s_ids]
    chain = [(f"k{i}", f"k{i + 1}") for i in range(length - 1)]
    every_other = k_ids[::2]
    every_other_chain = list(zip(every_other, every_other[1:]))

    script = "\n".join([
        "# cad_extrude: extrusion by product, and reductions of a deep chain",
        'load G "grid.json"',
        'load S "seg.json"',
        'load C "chain.json"',
        'load D "chain2.json"',
        "let P = product(G, S)",
        "check continuous P.pleft",
        "check continuous P.pright",
        "dim P",
        "let R = reduce(C)",
        f"let K = select(C, {', '.join(every_other)})",
        "let I = intersect(C, D)",
        "dim R",
        "dim K",
        "dim I",
        'emit R "out/reduced.json"',
        'emit K "out/selected.json"',
        'emit I "out/intersect.json"',
        'emit P "out/product.json"',
    ]) + "\n"
    files = {
        "grid.json": _space_file("G", g_list, g_pairs, rng),
        "seg.json": _space_file("S", s_ids, s_pairs, rng),
        "chain.json": _space_file("C", k_ids, c_pairs, rng),
        "chain2.json": _space_file("D", k_ids, d_pairs, rng),
        "cad.topo": script.encode("utf-8"),
    }
    return Case(
        workload="cad_extrude", seed=seed, argv=["run", "cad.topo"], files=files,
        exit_code=0,
        stdout=["check continuous P.pleft: PASS",
                "check continuous P.pright: PASS",
                "dim P = 3",
                f"dim R = {length - 1}",
                f"dim K = {len(every_other) - 1}",
                f"dim I = {length - 1}",
                "emit R -> out/reduced.json",
                "emit K -> out/selected.json",
                "emit I -> out/intersect.json",
                "emit P -> out/product.json"],
        emitted={"out/reduced.json": _canonical_space_digest("C", k_ids, chain),
                 "out/selected.json": _canonical_space_digest("C", every_other,
                                                              every_other_chain),
                 "out/intersect.json": _canonical_space_digest("C∩D", k_ids, chain),
                 "out/product.json": _canonical_space_digest(f"G{SEP}S", p_ids, p_pairs)},
        input_elements=len(g_ids) + len(s_ids) + 2 * length,
        output_elements=len(p_ids) + 2 * length + len(every_other),
        inventory={"grid.json": {"elements": len(g_ids), "pairs": len(g_pairs)},
                   "seg.json": {"elements": len(s_ids), "pairs": len(s_pairs)},
                   "chain.json": {"elements": length, "pairs": len(c_pairs)},
                   "chain2.json": {"elements": length, "pairs": len(d_pairs)}},
    )


WORKLOADS = {"overlay": overlay, "lod_validate": lod_validate, "cad_extrude": cad_extrude}
