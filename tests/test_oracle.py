"""Brute-force oracles: enumeration, axioms, open-preimage continuity."""

from __future__ import annotations

import random

import pytest

from topodata import (
    SizeBoundError,
    Space,
    SpaceMap,
    enumerate_topology,
    identity_map,
    is_continuous,
    oracle,
    oracle_find_homeomorphism,
    oracle_is_continuous,
)

from conftest import random_space, random_total_map
from naive import axiom_violations, naive_preorder


class TestEnumerateTopology:
    def test_segment_family(self, segment):
        family = list(enumerate_topology(segment))
        assert len(family) == 5
        assert set(family) == {frozenset(), frozenset({"e"}),
                               frozenset({"e", "v1"}), frozenset({"e", "v2"}),
                               frozenset({"e", "v1", "v2"})}

    def test_one_point(self):
        family = enumerate_topology(Space("pt", ["p"], []))
        assert set(family) == {frozenset(), frozenset({"p"})}

    def test_discrete_two_points(self):
        family = enumerate_topology(Space("d", ["p", "q"], []))
        assert len(family) == 4

    def test_empty_space(self):
        family = enumerate_topology(Space("none", [], []))
        assert list(family) == [frozenset()]

    def test_guard(self):
        big = Space("big", [f"n{i}" for i in range(13)], [])
        with pytest.raises(SizeBoundError):
            enumerate_topology(big)
        assert len(enumerate_topology(big, 13)) == 2 ** 13

    def test_canonical_order(self, segment):
        first = [sorted(u) for u in enumerate_topology(segment)]
        second = [sorted(u) for u in enumerate_topology(segment)]
        assert first == second

    def test_more_pairs_never_more_open_sets(self):
        rng = random.Random(51)
        for _ in range(25):
            space = random_space(rng, max_elements=7, name="S", min_elements=2)
            strict = sorted(p for p in naive_preorder(space) if p[0] != p[1])
            smaller = Space("sub", space.elements,
                            [p for p in strict if rng.random() < 0.5])
            assert len(enumerate_topology(space)) <= len(enumerate_topology(smaller))


class TestOracleContinuity:
    def test_identity(self, space_y):
        assert oracle_is_continuous(identity_map(space_y))

    def test_segment_swap(self, segment):
        swap = SpaceMap(segment, segment, {"e": "v1", "v1": "e", "v2": "v2"})
        assert not oracle_is_continuous(swap)

    def test_guard_covers_both_sides(self, segment):
        big = Space("big", [f"n{i}" for i in range(13)], [])
        collapse = SpaceMap(big, segment, {e: "v1" for e in big.elements})
        with pytest.raises(SizeBoundError):
            oracle_is_continuous(collapse)
        assert oracle_is_continuous(collapse, 13)

    def test_agreement_with_fast_path(self):
        rng = random.Random(52)
        for _ in range(80):
            x = random_space(rng, max_elements=6, name="X", min_elements=1)
            y = random_space(rng, max_elements=6, name="Y", min_elements=1)
            f = random_total_map(rng, x, y)
            assert oracle_is_continuous(f) == bool(is_continuous(f))

    def test_overlay_projections(self, space_x, space_y, theta):
        from topodata import theta_join
        _, pleft, pright = theta_join(space_x, space_y, theta)
        guard = 14
        assert oracle_is_continuous(pleft, guard)
        assert oracle_is_continuous(pright, guard)


class TestAxiomCheck:
    """The enumerated family is a topology: the axioms hold on it."""

    def test_named_patches(self, space_x, space_y):
        for space in (space_x, space_y):
            violations = axiom_violations(space, enumerate_topology(space))
            assert not violations, violations

    def test_family_size_bounds(self):
        assert len(enumerate_topology(Space("none", [], []))) == 1
        rng = random.Random(53)
        for _ in range(10):
            space = random_space(rng, max_elements=6, min_elements=1)
            assert len(enumerate_topology(space)) >= 2

    def test_random_spaces_always_pass(self):
        rng = random.Random(54)
        for _ in range(30):
            space = random_space(rng, max_elements=8)
            violations = axiom_violations(space, enumerate_topology(space))
            assert not violations, violations


class TestExhaustiveHomeomorphismSearch:
    def test_relabelled_copy_found(self, segment):
        renamed = Space("seg2", ["E", "V1", "V2"], [("E", "V1"), ("E", "V2")])
        found = oracle_find_homeomorphism(segment, renamed)
        assert found is not None
        assert found("e") == "E"

    def test_different_topologies_rejected(self, segment):
        discrete = Space("d", ["a", "b", "c"], [])
        assert oracle_find_homeomorphism(segment, discrete) is None

    def test_family_sizes_differ_before_any_bijection(self, monkeypatch):
        def no_permutations(items):
            raise AssertionError("bijections walked although the families differ in size")

        monkeypatch.setattr(oracle, "permutations", no_permutations)
        ids = [f"n{i}" for i in range(8)]
        discrete = Space("discrete", ids, [])
        chain = Space("chain", ids, list(zip(ids, ids[1:])))
        assert oracle_find_homeomorphism(discrete, chain) is None

    def test_guard(self):
        big = Space("big", [f"n{i}" for i in range(9)], [])
        with pytest.raises(SizeBoundError):
            oracle_find_homeomorphism(big, big)
