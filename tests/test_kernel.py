"""The graph kernel of ``space``: Kahn order, reachability, covers, and cycle reports.

Each fast routine is compared with the naive definition it replaces, on
a few hundred seeded random graphs small enough for the brute force.
Operator results, which skip the input checks, are compared with the
same data built through the validating constructor.
"""

from __future__ import annotations

import random

import pytest

from topodata import (CyclicIncidenceError, Partition, Space, ThetaRelation, paste_union,
                      product, pullback_intersection, quotient, select_subspace, theta_join)
from topodata.space import covers

from naive import brute_covers, brute_dimension, strict_below

TRIALS = 300


def random_dag(rng: random.Random, name: str = "D") -> Space:
    """A random DAG on up to 12 elements whose edge direction is
    unrelated to the sorted order of the ids."""
    n = rng.randint(0, 12)
    ids = rng.sample([f"e{i}" for i in range(12)], n)
    p = rng.uniform(0.05, 0.6)
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Space(name, ids, pairs)


def assert_reach_and_order(space: Space) -> None:
    """Down sets, up sets and the Kahn order against the naive closure."""
    below = strict_below(space.elements, space.incidence)
    for e in space.elements:
        assert space.down_set(e) == below[e] | {e}
        assert space.up_set(e) == {a for a in space.elements if e in below[a]} | {e}
    position = {e: i for i, e in enumerate(space._order)}
    assert len(space._order) == len(position) == len(space.elements)
    assert position.keys() == space.elements
    assert all(position[b] < position[a] for a, b in space.incidence)


def test_kernel_matches_naive_definitions():
    rng = random.Random(2024)
    for _ in range(TRIALS):
        space = random_dag(rng)
        assert_reach_and_order(space)
        below = strict_below(space.elements, space.incidence)
        expected = brute_covers(below)
        assert covers({e: frozenset(bs) for e, bs in below.items()}) == expected
        assert covers({e: frozenset(bs | {e}) for e, bs in below.items()}) == expected
        assert space.transitive_reduce().incidence == expected
        for e in space.elements:
            assert space.dimension(e) == brute_dimension(space, e)


def test_cycle_message_names_a_closed_walk_of_input_pairs():
    rng = random.Random(2025)
    cyclic = 0
    for _ in range(TRIALS):
        n = rng.randint(2, 12)
        ids = [f"e{i}" for i in range(n)]
        p = rng.uniform(0.05, 0.3)
        pairs = [(a, b) for a in ids for b in ids if a != b and rng.random() < p]
        if not any(a in below for a, below in strict_below(ids, pairs).items()):
            Space("G", ids, pairs)
            continue
        cyclic += 1
        with pytest.raises(CyclicIncidenceError) as err:
            Space("G", ids, pairs)
        message = str(err.value)
        walk = message.split("has a cycle: ", 1)[1].split(" -> ")
        assert len(walk) >= 3 and walk[0] == walk[-1]
        assert set(zip(walk, walk[1:])) <= set(pairs)
        rng.shuffle(pairs)
        with pytest.raises(CyclicIncidenceError) as again:
            Space("G", reversed(ids), pairs)
        assert str(again.value) == message
    assert cyclic > TRIALS // 4


def with_attributes(rng: random.Random, space: Space) -> Space:
    attributes = {e: {"k": str(rng.randrange(3)), "side": space.name}
                  for e in space.elements if rng.random() < 0.5}
    return Space(space.name, space.elements, space.incidence, attributes)


def trusted_results(rng: random.Random, x: Space, y: Space):
    """The results of every operator that builds them without the input checks."""
    yield x.transitive_reduce()
    yield select_subspace(x, rng.sample(sorted(x.elements), rng.randint(0, len(x))))[0]
    yield select_subspace(x, lambda attrs: attrs.get("k") == "1")[0]
    yield pullback_intersection(x, y)[0]
    yield product(x, y)[0]
    theta = ThetaRelation((a, b) for a in sorted(x.elements) for b in sorted(y.elements)
                          if rng.random() < 0.3)
    yield theta_join(x, y, theta)[0]
    classes = {e: rng.choice(["c0", "c1", "c2", e]) for e in x.elements}
    yield quotient(x, Partition(classes, x.name), on_cycle="collapse")[0]
    try:  # the two relations may order shared ids both ways
        glued = paste_union(x, y)[0]
    except CyclicIncidenceError:
        return
    yield glued


def test_trusted_results_equal_validated_rebuilds():
    rng = random.Random(2026)
    glued = 0
    for trial in range(TRIALS // 2):
        x = with_attributes(rng, random_dag(rng))
        y = with_attributes(rng, random_dag(rng, "E"))
        for result in trusted_results(rng, x, y):
            rebuilt = Space(result.name, result.elements, result.incidence, result.attributes)
            assert result == rebuilt, trial
            assert type(result.elements) is type(result.incidence) is frozenset
            assert_reach_and_order(result)
            glued += result.name == "D∪E"
    assert glued > TRIALS // 8
