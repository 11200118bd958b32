"""Shared fixtures and random generators.

The brute-force reference definitions that the tests compare against
live in ``naive.py``, once each.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from topodata import Space, SpaceMap, ThetaRelation

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
