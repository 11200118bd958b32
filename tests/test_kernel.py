"""The graph kernel of ``space``: successor tuples, Kahn order, reachability, covers,
and cycle reports.

Each fast routine is compared with the naive definition it replaces, on
a few hundred seeded random graphs small enough for the brute force, and
the reductions also on seeded deep chains.  Operator results, which skip
the input checks, are compared with the same data built through the
validating constructors, and the relation every space holds, as one
tuple of successors per element, with the pairs it was given or the
naive operator's pairs.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from topodata import (CyclicIncidenceError, Partition, QuotientCycleError, Space, SpaceMap,
                      ThetaRelation, compose, identity_map, paste_union, product,
                      pullback_intersection, quotient, select_subspace, theta_join)
from topodata.space import covers, down_bits, post_order, strongly_connected_components

from naive import (brute_covers, brute_dimension, naive_intersect, naive_product, naive_quotient,
                   naive_reduce, naive_select, naive_theta_join, naive_union, strict_below)

TRIALS = 300
SRC = Path(__file__).resolve().parents[1] / "src"


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
    assert_successor_tuples(space._succ, space.elements)
    assert pairs_of(space._succ) == space.incidence


def pairs_of(succ) -> set[tuple[str, str]]:
    """The pairs of a successor map."""
    return {(a, b) for a, below in succ.items() for b in below}


def assert_successor_tuples(succ, elements) -> None:
    """One tuple per element, which lists no successor twice and not the element itself."""
    assert succ.keys() == elements
    for a, below in succ.items():
        assert type(below) is tuple and len(set(below)) == len(below) and a not in below, a


def linear_extension(rng: random.Random, below: dict[str, set[str]]) -> list[str]:
    """A random order of the elements that puts each one after everything below it."""
    order: list[str] = []
    left = sorted(below)
    while left:
        ready = [e for e in left if below[e] <= set(order)]
        order.append(rng.choice(ready))
        left.remove(order[-1])
    return order


def bitsets(order: list[str], below: dict[str, set[str]], keep) -> dict[int, int]:
    """The down sets, each element included, of the kept elements, in the form
    ``covers`` reads: keyed by position, bit i standing for position p - i."""
    position = {e: p for p, e in enumerate(order)}
    return {p: sum(1 << (p - position[b]) for b in below[e] | {e})
            for p, e in enumerate(order) if e in keep}


def test_kernel_matches_naive_definitions():
    rng = random.Random(2024)
    for _ in range(TRIALS):
        space = random_dag(rng)
        assert_reach_and_order(space)
        below = strict_below(space.elements, space.incidence)
        expected = brute_covers(below)
        assert space.transitive_reduce().incidence == expected
        for e in space.elements:
            assert space.dimension(e) == brute_dimension(space, e)


def test_covers_matches_brute_force_on_every_shape():
    """Whole orders (reduce), masked orders (select) and the meet of two
    orders on shared ids (intersect), each on a random linear extension."""
    rng = random.Random(2027)
    for _ in range(TRIALS):
        x, y = random_dag(rng), random_dag(rng, "E")
        below_x = strict_below(x.elements, x.incidence)
        order = linear_extension(rng, below_x)
        assert_covers(covers(order, bitsets(order, below_x, x.elements)), below_x)

        kept = {e for e in x.elements if rng.random() < 0.5}
        masked = {e: below_x[e] & kept for e in kept}
        assert_covers(covers(order, bitsets(order, masked, kept)), masked)
        assert select_subspace(x, kept)[0].incidence == brute_covers(masked)

        common = x.elements & y.elements
        below_y = strict_below(y.elements, y.incidence)
        meet = {e: below_x[e] & below_y[e] for e in common}
        assert_covers(covers(order, bitsets(order, meet, common)), meet)
        assert pullback_intersection(x, y)[0].incidence == brute_covers(meet)


def assert_covers(succ, below) -> None:
    """``covers`` lists, for every element, each of its covers once."""
    assert succ.keys() == below.keys()
    assert all(len(set(found)) == len(found) for found in succ.values())
    assert pairs_of(succ) == brute_covers(below)


def test_post_order_and_down_bits_stay_below_the_roots():
    """The post-order numbers exactly the down-closure of the roots, each
    element after its successors, and the bitsets it feeds are the down
    sets among the numbered roots."""
    rng = random.Random(2029)
    for _ in range(TRIALS):
        space = random_dag(rng)
        below = strict_below(space.elements, space.incidence)
        roots = {e for e in space.elements if rng.random() < 0.3}
        order = post_order(space._succ, roots)
        closure = set(roots).union(*(below[e] for e in roots))
        assert len(order) == len(closure) and set(order) == closure
        position = {e: p for p, e in enumerate(order)}
        assert all(position[b] < position[a] for a in order for b in space._succ[a])

        numbered = [e for e in order if e in roots]
        down = down_bits(order, space._succ, {e: (p, 1) for p, e in enumerate(numbered)})
        for e in order:
            top, bits = down[e]
            expected = {p for p, r in enumerate(numbered) if r == e or r in below[e]}
            assert {top - i for i in range(bits.bit_length()) if bits >> i & 1} == expected
            assert top == max(expected, default=0)


def deep_chain(rng: random.Random, n: int, name: str = "C") -> Space:
    """k0 > k1 > ... > k(n-1), plus one skip pair of length 2-16 from each element."""
    ids = [f"k{i}" for i in range(n)]
    pairs = list(zip(ids, ids[1:]))
    for i in range(n):
        j = i + rng.randint(2, 16)
        if j < n:
            pairs.append((ids[i], ids[j]))
    return Space(name, ids, pairs)


def test_reductions_of_deep_chains_match_naive_operators():
    rng = random.Random(2028)
    for _ in range(12):
        n = rng.randint(1, 80)
        x, y = deep_chain(rng, n), deep_chain(rng, n, "D")
        assert x.transitive_reduce() == naive_reduce(x)
        kept = [e for e in sorted(x.elements) if rng.random() < 0.5]
        assert select_subspace(x, kept) == naive_select(x, kept)
        assert pullback_intersection(x, y) == naive_intersect(x, y)
    for _ in range(6):  # the naive join builds the whole product
        x, y = deep_chain(rng, rng.randint(1, 14)), deep_chain(rng, rng.randint(1, 14), "D")
        theta = ThetaRelation((a, b) for a in sorted(x.elements) for b in sorted(y.elements)
                              if rng.random() < 0.4)
        assert theta_join(x, y, theta) == naive_theta_join(x, y, theta)


def test_products_match_the_naive_product():
    """Random factors, and the empty, one-element and pairless factors, each
    way round; the row table hands the result its order."""
    empty, point = Space("nil", []), Space("pt", ["p"])
    discrete = Space("dis", ["b", "a", "c"])
    segment = Space("seg", ["e", "v1", "v2"], [("e", "v1"), ("e", "v2")])
    factors = [empty, point, discrete, segment]
    rng = random.Random(2030)
    cases = [(x, y) for x in factors for y in factors]
    cases += [(random_dag(rng), random_dag(rng, "E")) for _ in range(60)]
    for x, y in cases:
        got = product(x, y)
        assert got == naive_product(x, y), (x, y)
        assert_reach_and_order(got[0])


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


def random_digraph(rng: random.Random) -> dict[str, list[str]]:
    """The successor lists of a random digraph on up to 12 nodes: a few
    rings through random nodes, and random chords."""
    n = rng.randint(1, 12)
    ids = rng.sample([f"v{i}" for i in range(12)], n)
    pairs = set()
    for _ in range(rng.randint(0, 3)):
        ring = rng.sample(ids, rng.randint(1, n))
        pairs.update(zip(ring, ring[1:] + ring[:1]))
    p = rng.uniform(0, 0.3)
    pairs.update((a, b) for a in ids for b in ids if rng.random() < p)
    succ: dict[str, list[str]] = {a: [] for a in ids}
    for a, b in sorted(pairs):
        if a != b:
            succ[a].append(b)
    for below in succ.values():
        rng.shuffle(below)
    return succ


def assert_components(succ, expected: set[frozenset[str]]) -> None:
    """Every node lies in exactly one component, and the components are the expected ones."""
    found = strongly_connected_components(succ)
    assert sorted(node for component in found for node in component) == sorted(succ)
    assert {frozenset(component) for component in found} == expected


def test_components_are_the_classes_of_mutual_reachability():
    rng = random.Random(2030)
    sizes = set()
    for _ in range(TRIALS):
        succ = random_digraph(rng)
        below = strict_below(succ, pairs_of(succ))
        expected = {frozenset(b for b in succ if b == a or (b in below[a] and a in below[b]))
                    for a in succ}
        sizes.update(map(len, expected))
        assert_components(succ, expected)
    assert max(sizes) >= 10 and 1 in sizes


def test_components_of_a_long_ring_with_chords_and_a_tail():
    # deeper than the recursion limit: the searches keep their own stacks
    n = 2000
    ring = [f"r{i}" for i in range(n)]
    tail = [f"t{i}" for i in range(n)]
    succ = {a: [b] for a, b in zip(ring, ring[1:] + ring[:1])}
    for i in range(0, n, 7):
        succ[ring[i]].append(ring[(i + 31) % n])
    succ.update((a, [b]) for a, b in zip(tail, tail[1:]))
    succ[tail[-1]] = []
    succ[ring[n // 2]].append(tail[0])
    assert_components(succ, {frozenset(ring)} | {frozenset([t]) for t in tail})


COLLAPSE_CASES = """
import random
from topodata import Partition, Space, TopologyError, quotient
rng = random.Random(2031)
for _ in range(200):
    n = rng.randint(2, 10)
    ids = rng.sample([f"e{i}" for i in range(10)], n)
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    rng.shuffle(pairs)
    names = ["a", "b", "c", "d", "scc:a", "scc:b", "scc:c"]
    labels = {e: rng.choice(names) for e in ids if rng.random() < 0.8}
    try:
        space = Space("S", ids, pairs)
        result, projection = quotient(space, Partition(labels), on_cycle="collapse")
        print(sorted(result.elements), sorted(result.incidence),
              sorted(projection.mapping.items()))
    except TopologyError as err:
        print(type(err).__name__, err)
"""


def test_collapse_is_independent_of_the_hash_seed():
    runs = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", COLLAPSE_CASES], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        runs.add(done.stdout)
    out, = runs
    lines = out.splitlines()
    assert len(lines) == 200
    assert any("would name the merged class" in line for line in lines)
    assert any("'scc:" in line and not line.startswith("QuotientCycleError") for line in lines)


COLLIDING = dict(zip([f"e{i}" for i in range(10)],
                     ["a", "a", "b", "b", "c", "c", "d", "d", "scc:a", "scc:c"]))


def colliding_pairs(rng: random.Random) -> list[tuple[str, str]]:
    """Pairs on the ids of ``COLLIDING`` whose image folds a and b, and c and d,
    into cycles, plus random chords, all forward in a random order of the ids."""
    while True:
        order = rng.sample(sorted(COLLIDING), len(COLLIDING))
        pairs = []
        for group in ("ab", "cd"):
            ends = [e for e in order if COLLIDING[e] in group]
            for first, middle, last in (ends[:3], ends[1:]):  # one class, the other, the first
                if COLLIDING[first] == COLLIDING[last] != COLLIDING[middle]:
                    pairs += [(first, middle), (middle, last)]
                    break
        if len(pairs) == 4:
            chords = [(order[i], order[j]) for i in range(10) for j in range(i + 1, 10)
                      if rng.random() < 0.15]
            return list(dict.fromkeys(pairs + chords))


def test_collapse_collision_names_the_least_clash_for_every_pair_order():
    rng = random.Random(2028)
    clashes = 0
    for _ in range(TRIALS):
        pairs = colliding_pairs(rng)
        image = {(COLLIDING[a], COLLIDING[b]) for a, b in pairs if COLLIDING[a] != COLLIDING[b]}
        classes = set(COLLIDING.values())
        below = strict_below(classes, image)
        groups = {frozenset({c} | {d for d in below[c] if c in below[d]}) for c in classes}
        merged = {"scc:" + min(g) for g in groups if len(g) > 1}
        clash = sorted(merged & {c for g in groups if len(g) == 1 for c in g})
        outcomes = set()
        for _ in range(12):
            ids = rng.sample(sorted(COLLIDING), len(COLLIDING))
            space = Space("S", ids, rng.sample(pairs, len(pairs)))
            try:
                result, _ = quotient(space, Partition(COLLIDING), on_cycle="collapse")
                outcomes.add(tuple(sorted(result.incidence)))
            except QuotientCycleError as err:
                outcomes.add(str(err))
        outcome, = outcomes
        if clash:
            clashes += 1
            assert f"the merged class {clash[0]!r}," in outcome
        else:
            assert isinstance(outcome, tuple)
    assert clashes > TRIALS // 10


def with_attributes(rng: random.Random, space: Space) -> Space:
    attributes = {e: {"k": str(rng.randrange(3)), "side": space.name}
                  for e in space.elements if rng.random() < 0.5}
    return Space(space.name, space.elements, space.incidence, attributes)


def trusted_results(rng: random.Random, x: Space, y: Space):
    """The results of every operator that builds them without the input checks,
    each as the result space and its linking maps."""
    yield (x.transitive_reduce(),)
    sub, inclusion = select_subspace(x, rng.sample(sorted(x.elements), rng.randint(0, len(x))))
    yield sub, inclusion
    yield select_subspace(x, [e for e, kv in x.attributes.items() if kv.get("k") == "1"])
    yield pullback_intersection(x, y)
    yield product(x, y)
    theta = ThetaRelation((a, b) for a in sorted(x.elements) for b in sorted(y.elements)
                          if rng.random() < 0.3)
    yield theta_join(x, y, theta)
    classes = {e: rng.choice(["c0", "c1", "c2", e]) for e in x.elements}
    quotiented, projection = quotient(x, Partition(classes, x.name), on_cycle="collapse")
    yield quotiented, projection
    yield x, identity_map(x), compose(projection, inclusion)
    try:  # the two relations may order shared ids both ways
        glued = paste_union(x, y)
    except CyclicIncidenceError:
        return
    yield glued


def test_trusted_results_equal_validated_rebuilds():
    rng = random.Random(2026)
    glued = 0
    for trial in range(TRIALS // 2):
        x = with_attributes(rng, random_dag(rng))
        y = with_attributes(rng, random_dag(rng, "E"))
        for result, *maps in trusted_results(rng, x, y):
            rebuilt = Space(result.name, result.elements, result.incidence, result.attributes)
            assert result == rebuilt, trial
            assert type(result.elements) is type(result.incidence) is frozenset
            assert_reach_and_order(result)
            for linking in maps:
                assert SpaceMap(linking.domain, linking.codomain, linking.mapping) == linking
            glued += result.name == "D∪E"
    assert glued > TRIALS // 8


def with_repeats(rng: random.Random, pairs: list) -> list:
    """The pairs and about half of them again, shuffled, each as a list or a tuple."""
    given = [rng.choice((list, tuple))(pair) for pair in pairs + rng.sample(pairs, len(pairs) // 2)]
    rng.shuffle(given)
    return given


def test_constructed_spaces_hold_each_given_pair_once():
    """``Space(...)`` keeps one tuple per element, in the order each pair was
    first given; ``_trusted`` freezes the lists it is given."""
    rng = random.Random(2031)
    repeated = 0
    for _ in range(TRIALS):
        space = random_dag(rng)
        pairs = sorted(space.incidence)
        given = with_repeats(rng, pairs)
        repeated += len(given) > len(pairs)
        built = Space("D", space.elements, given)
        assert_successor_tuples(built._succ, space.elements)
        assert built.incidence == frozenset(pairs) == space.incidence
        for a, below in built._succ.items():
            assert list(below) == list(dict.fromkeys(b for c, b in map(tuple, given) if c == a))
        assert built == space and hash(built) == hash(space)
        assert repr(built) == f"Space('D', {len(space)} elements, {len(pairs)} pairs)"

        lists = {e: [b for c, b in pairs if c == e] for e in space.elements}
        trusted = Space._trusted("D", space.elements, lists, {})
        assert_successor_tuples(trusted._succ, space.elements)
        assert trusted == space
    assert repeated > TRIALS // 2


def operators_and_naive(rng: random.Random, x: Space, y: Space):
    """The result space of every operator, each with the naive operator's."""
    yield x.transitive_reduce(), naive_reduce(x)
    kept = rng.sample(sorted(x.elements), rng.randint(0, len(x)))
    yield select_subspace(x, kept)[0], naive_select(x, kept)[0]
    yield pullback_intersection(x, y)[0], naive_intersect(x, y)[0]
    yield product(x, y)[0], naive_product(x, y)[0]
    theta = ThetaRelation((a, b) for a in sorted(x.elements) for b in sorted(y.elements)
                          if rng.random() < 0.3)
    yield theta_join(x, y, theta)[0], naive_theta_join(x, y, theta)[0]
    label = {e: rng.choice(["c0", "c1", "c2", e]) for e in sorted(x.elements)}
    yield (quotient(x, Partition(label, x.name), on_cycle="collapse")[0],
           naive_quotient(x, label, on_cycle="collapse")[0])
    try:  # the two relations may order shared ids both ways
        glued = paste_union(x, y)[0]
    except CyclicIncidenceError:
        return
    yield glued, naive_union(x, y)[0]


def test_operator_results_hold_the_naive_pairs_once():
    rng = random.Random(2032)
    results = 0
    for _ in range(TRIALS // 3):
        x = random_dag(rng)
        # y shares ids and pairs with x, so the union gets pairs from both sides
        y = Space("E", x.elements, [pair for pair in x.incidence if rng.random() < 0.7])
        for y in (y, random_dag(rng, "E")):
            for got, expected in operators_and_naive(rng, x, y):
                assert_successor_tuples(got._succ, got.elements)
                assert got.elements == expected.elements
                assert got.incidence == expected.incidence
                results += 1
    assert results > TRIALS * 4


def test_reduce_returns_the_space_exactly_when_it_is_reduced():
    rng = random.Random(2033)
    outcomes = set()
    for trial in range(TRIALS):
        space = random_dag(rng)
        if trial % 3 == 0:
            space = naive_reduce(space)
        unchanged = brute_covers(strict_below(space.elements, space.incidence)) == space.incidence
        assert (space.transitive_reduce() is space) == unchanged
        outcomes.add(unchanged)
    assert outcomes == {True, False}
