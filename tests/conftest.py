"""Shared fixtures, random generators, and independent brute-force helpers.

The brute helpers below recompute closure, star, and dimension straight
from their definitions (via the enumerated open-set family, or by walking
every chain), so the fast reachability-based methods are always checked
against something that does not share their code path.  The fixpoint
closure ``strict_below`` and the naive theta join live here too, once,
for every test module that compares against them.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from topodata import (Space, SpaceMap, ThetaRelation, compose, enumerate_topology, pair_id,
                      product, select_subspace)

DATA_DIR = Path(__file__).parent / "data"

# Two overlapping planar patches, named elements only: faces A, B on the
# left (B bounded by edges a, e, f, g, A sharing a), face C on the right
# with adjacent edges b, c meeting in vertex x.
X_NAMED = ("X",
           ["A", "B", "a", "e", "f", "g"],
           [("A", "a"), ("B", "a"), ("B", "e"), ("B", "f"), ("B", "g")])
Y_NAMED = ("Y",
           ["C", "b", "c", "x"],
           [("C", "c"), ("C", "b"), ("c", "x"), ("b", "x")])

# The same patches with the corner vertices of the named edges modelled,
# so the labelled edges are one-dimensional as drawn.
X_FIGURE = ("X",
            ["A", "B", "a", "e", "f", "g", "p", "q", "r", "s"],
            [("A", "a"), ("B", "a"), ("B", "e"), ("B", "f"), ("B", "g"),
             ("a", "p"), ("a", "q"), ("e", "q"), ("e", "r"),
             ("f", "r"), ("f", "s"), ("g", "s"), ("g", "p")])
Y_FIGURE = ("Y",
            ["C", "b", "c", "x", "y1", "y2"],
            [("C", "c"), ("C", "b"), ("c", "x"), ("b", "x"),
             ("b", "y1"), ("c", "y2")])

# All intersecting pairs of the two patches, one pair per overlap.
THETA_PAIRS = [
    ("A", "C"), ("B", "C"), ("a", "C"), ("e", "C"), ("f", "C"), ("g", "C"),
    ("B", "b"), ("e", "b"), ("f", "b"), ("g", "b"),
    ("A", "c"), ("B", "c"), ("a", "c"),
    ("B", "x"),
]


@pytest.fixture
def space_x() -> Space:
    return Space(*X_NAMED)


@pytest.fixture
def space_y() -> Space:
    return Space(*Y_NAMED)


@pytest.fixture
def overlay_x() -> Space:
    return Space(*X_FIGURE)


@pytest.fixture
def overlay_y() -> Space:
    return Space(*Y_FIGURE)


@pytest.fixture
def theta() -> ThetaRelation:
    return ThetaRelation(THETA_PAIRS, left_name="X", right_name="Y")


@pytest.fixture
def segment() -> Space:
    return Space("seg", ["e", "v1", "v2"], [("e", "v1"), ("e", "v2")])


# -- random instance generation ------------------------------------------------

def random_space(rng: random.Random, max_elements: int = 8, name: str = "R",
                 edge_chance: float | None = None, min_elements: int = 0) -> Space:
    """A random DAG space; pairs always point from lower to higher index."""
    n = rng.randint(min_elements, max_elements)
    ids = [f"{name}{i}" for i in range(n)]
    p = rng.uniform(0.1, 0.5) if edge_chance is None else edge_chance
    pairs = [(ids[i], ids[j])
             for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Space(name, ids, pairs)


def random_total_map(rng: random.Random, domain: Space, codomain: Space) -> SpaceMap:
    targets = sorted(codomain.elements)
    return SpaceMap(domain, codomain, {e: rng.choice(targets)
                                       for e in sorted(domain.elements)})


def random_layered_space(rng: random.Random, size: int, name: str = "L") -> Space:
    """A sparse DAG arranged in a few levels; keeps reachability cones small."""
    ids = [f"{name}{i}" for i in range(size)]
    levels = max(1, rng.randint(2, 4))
    level_of = {e: rng.randrange(levels) for e in ids}
    by_level: dict[int, list[str]] = {}
    for e in ids:
        by_level.setdefault(level_of[e], []).append(e)
    pairs = []
    for e in ids:
        nxt = by_level.get(level_of[e] + 1, [])
        if nxt:
            for target in rng.sample(nxt, k=min(len(nxt), rng.randint(0, 2))):
                pairs.append((e, target))
    return Space(name, ids, pairs)


# -- brute-force reference computations ------------------------------------------

def brute_closure(space: Space, subset) -> frozenset:
    """Intersection of all closed supersets, from the enumerated topology."""
    subset = frozenset(subset)
    result = frozenset(space.elements)
    for open_set in enumerate_topology(space):
        closed = space.elements - open_set
        if subset <= closed:
            result &= closed
    return result


def brute_star(space: Space, subset) -> frozenset:
    """Intersection of all open supersets, from the enumerated topology."""
    subset = frozenset(subset)
    result = frozenset(space.elements)
    for open_set in enumerate_topology(space):
        if subset <= open_set:
            result &= open_set
    return result


def brute_dimension(space: Space, element: str) -> int:
    """Longest chain by walking every descending path."""
    successors: dict[str, list[str]] = {e: [] for e in space.elements}
    for a, b in space.incidence:
        successors[a].append(b)

    def walk(node: str) -> int:
        return max((1 + walk(nxt) for nxt in successors[node]), default=0)

    return walk(element)


def strict_below(elements, pairs) -> dict[str, set[str]]:
    """Transitive closure of the pairs by iteration to a fixpoint."""
    below = {e: set() for e in elements}
    for a, b in pairs:
        below[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in below:
            grown = set().union(below[a], *(below[b] for b in below[a]))
            if grown != below[a]:
                below[a] = grown
                changed = True
    return below


def naive_preorder(space: Space) -> set:
    """The reflexive-transitive closure of incidence, from the fixpoint closure."""
    below = strict_below(space.elements, space.incidence)
    return {(a, b) for a in below for b in below[a] | {a}}


def naive_theta_join(x, y, theta):
    """The theta join by definition: theta's pairs selected out of the full product."""
    prod, pleft, pright = product(x, y)
    kept = {pair_id(a, b) for a, b in theta.pairs}
    sub, inclusion = select_subspace(prod, kept)
    return sub, compose(pleft, inclusion), compose(pright, inclusion)
