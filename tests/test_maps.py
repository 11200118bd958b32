"""Maps between spaces: continuity, composition, homeomorphism search."""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter

import pytest

from topodata import (
    DomainMismatchError,
    MapTotalityError,
    SizeBoundError,
    Space,
    SpaceMap,
    UnknownElementError,
    compose,
    enumerate_topology,
    find_homeomorphism,
    identity_map,
    is_continuous,
    is_homeomorphism,
    oracle_find_homeomorphism,
    oracle_is_continuous,
    select_subspace,
)
from topodata import maps

from conftest import random_space, random_total_map
from naive import naive_preorder


def swap_map(segment: Space) -> SpaceMap:
    return SpaceMap(segment, segment, {"e": "v1", "v1": "e", "v2": "v2"})


class TestSpaceMap:
    def test_missing_entry(self, segment):
        with pytest.raises(MapTotalityError):
            SpaceMap(segment, segment, {"e": "e"})

    def test_extra_key(self, segment):
        table = {"e": "e", "v1": "v1", "v2": "v2", "zz": "e"}
        with pytest.raises(UnknownElementError):
            SpaceMap(segment, segment, table)

    def test_value_outside_codomain(self, segment):
        with pytest.raises(UnknownElementError):
            SpaceMap(segment, segment, {"e": "e", "v1": "v1", "v2": "zz"})

    @pytest.mark.parametrize("value", [["a"], {"e"}, 5, None], ids=["list", "set", "int", "None"])
    def test_value_that_is_not_an_id(self, segment, value):
        with pytest.raises(UnknownElementError, match="outside the codomain"):
            SpaceMap(segment, segment, {"e": "e", "v1": "v1", "v2": value})

    def test_key_that_is_not_an_id(self, segment):
        with pytest.raises(UnknownElementError, match=r"unknown keys \[5, 'zz'\]"):
            SpaceMap(segment, segment, {"e": "e", "v1": "v1", "v2": "v2", 5: "e", "zz": "e"})

    def test_call_and_pairs(self, segment):
        ident = identity_map(segment)
        assert ident("e") == "e"
        assert ident.pairs() == [("e", "e"), ("v1", "v1"), ("v2", "v2")]
        with pytest.raises(UnknownElementError):
            ident("zz")


class TestIdentity:
    def test_entry_counts(self, space_x, space_y):
        assert len(identity_map(space_x).mapping) == 6
        assert len(identity_map(space_y).mapping) == 4

    def test_empty_space(self):
        empty = Space("empty", [], [])
        assert identity_map(empty).mapping == {}

    def test_always_continuous(self, space_x, space_y, segment):
        for space in (space_x, space_y, segment):
            assert is_continuous(identity_map(space))


class TestCompose:
    def test_identity_absorbs(self, space_y):
        ident = identity_map(space_y)
        assert compose(ident, ident) == ident

    def test_constant_after_anything(self, segment, space_y):
        to_y = SpaceMap(segment, space_y, {"e": "C", "v1": "b", "v2": "x"})
        constant = SpaceMap(space_y, space_y, {e: "x" for e in space_y.elements})
        composite = compose(constant, to_y)
        assert set(composite.mapping.values()) == {"x"}

    def test_domain_mismatch(self, segment, space_y):
        with pytest.raises(DomainMismatchError):
            compose(identity_map(segment), identity_map(space_y))

    def test_preserves_continuity(self):
        # chains of two and three maps: continuous links, continuous composites
        rng = random.Random(21)
        for links in (2, 3):
            found = 0
            while found < 30:
                spaces = [random_space(rng, max_elements=5, name=f"S{i}", min_elements=1)
                          for i in range(links + 1)]
                maps = [random_total_map(rng, a, b) for a, b in zip(spaces, spaces[1:])]
                if all(is_continuous(m) for m in maps):
                    running = maps[0]
                    for m in maps[1:]:
                        running = compose(m, running)
                        assert is_continuous(running)
                    found += 1


class TestIsContinuous:
    def test_segment_swap_fails_with_witness(self, segment):
        verdict = is_continuous(swap_map(segment))
        assert not verdict
        assert verdict.witness == ("e", "v1")
        assert verdict.image == ("v1", "e")
        assert not oracle_is_continuous(swap_map(segment))

    def test_constant_to_point(self, segment):
        point = Space("pt", ["P"], [])
        constant = SpaceMap(segment, point, {e: "P" for e in segment.elements})
        assert is_continuous(constant)

    def test_agrees_with_open_preimage_oracle(self):
        rng = random.Random(22)
        for _ in range(60):
            x = random_space(rng, max_elements=6, name="X", min_elements=1)
            y = random_space(rng, max_elements=6, name="Y", min_elements=1)
            f = random_total_map(rng, x, y)
            assert bool(is_continuous(f)) == oracle_is_continuous(f)

    def test_witness_is_first_violation_in_sorted_order(self):
        rng = random.Random(33)
        verdicts = Counter()
        for _ in range(300):
            x = random_space(rng, max_elements=8, name="X", min_elements=1)
            y = random_space(rng, max_elements=8, name="Y", min_elements=1)
            f = random_total_map(rng, x, y)
            preorder = naive_preorder(y)
            witness = next(((a, b) for a, b in sorted(x.incidence)
                            if (f(a), f(b)) not in preorder), None)
            verdict = is_continuous(f)
            assert verdict.ok == (witness is None)
            assert verdict.witness == witness
            if witness is not None:
                assert verdict.image == (f(witness[0]), f(witness[1]))
            verdicts[verdict.ok] += 1
        assert verdicts[True] >= 50 and verdicts[False] >= 50

    def test_each_accept_route_agrees_with_naive_preorder(self, monkeypatch):
        # A pair whose images are equal or directly incident is accepted
        # without a reachability test; only the images of the other pairs
        # are numbered, in one call, and there is no call when there are none.
        # Reduced codomains and maps that mostly keep the index order (the
        # pairs of random_space go from lower to higher index) make
        # reachable but not incident images common.
        numbered = []
        kept_down_sets = maps._kept_down_sets
        monkeypatch.setattr(maps, "_kept_down_sets",
                            lambda kept, *spaces: numbered.append(kept)
                            or kept_down_sets(kept, *spaces))
        rng = random.Random(34)
        routes = Counter()
        verdicts = Counter()
        for _ in range(300):
            x = random_space(rng, max_elements=8, name="X", min_elements=1)
            y = random_space(rng, max_elements=8, name="Y", min_elements=1).transitive_reduce()
            f = SpaceMap(x, y, {f"X{i}": f"Y{i * len(y) // len(x)}" if rng.random() < 0.7
                                else rng.choice(sorted(y.elements)) for i in range(len(x))})
            preorder = naive_preorder(y)
            needs_test = set()
            for a, b in x.incidence:
                image = (f(a), f(b))
                if image[0] == image[1]:
                    routes["equal"] += 1
                elif image in y.incidence:
                    routes["direct"] += 1
                else:
                    routes["reachable" if image in preorder else "violation"] += 1
                    needs_test.update(image)
            witness = next(((a, b) for a, b in sorted(x.incidence)
                            if (f(a), f(b)) not in preorder), None)
            numbered.clear()
            verdict = is_continuous(f)
            assert verdict.ok == (witness is None)
            assert verdict.witness == witness
            if witness is not None:
                assert verdict.image == (f(witness[0]), f(witness[1]))
            assert numbered == ([needs_test] if needs_test else [])
            verdicts[verdict.ok] += 1
        assert min(routes["equal"], routes["direct"], routes["reachable"]) >= 50, routes
        assert verdicts[True] >= 50 and verdicts[False] >= 50

    def test_agrees_with_naive_preorder_on_deep_chains(self):
        # Maps into chains with skip pairs, up to 300 deep: most image pairs
        # are reachable without being incident, and the positions and shifts
        # of the bitset test span many words.
        rng = random.Random(38)
        verdicts = Counter()
        for _ in range(40):
            y = deep_chain(rng, rng.randint(2, 300), "Y")
            x = deep_chain(rng, rng.randint(1, 40), "X")
            names = sorted(y.elements, key=lambda e: int(e[1:]))
            start = rng.randrange(len(names))
            back = rng.choice([0, -1])  # a step back up breaks continuity
            table = {}
            for i in range(len(x)):
                start = max(0, min(len(names) - 1, start + rng.randint(back, 12)))
                table[f"X{i}"] = names[start]
            f = SpaceMap(x, y, table)
            preorder = naive_preorder(y)
            violations = [(a, b) for a, b in x.incidence if (f(a), f(b)) not in preorder]
            verdict = is_continuous(f)
            assert verdict.ok == (not violations)
            assert verdict.witness == min(violations, default=None)
            if violations:
                assert verdict.image == (f(verdict.witness[0]), f(verdict.witness[1]))
            verdicts[verdict.ok] += 1
        assert verdicts[True] >= 10 and verdicts[False] >= 10

    def test_a_chain_map_is_checked_in_little_memory(self):
        # x_i -> y_2i sends every pair to a reachable pair that is not
        # incident; a set kept per image would hold about n^2 ids
        n = 1000
        x = Space("X", [f"x{i}" for i in range(n)], [(f"x{i}", f"x{i + 1}") for i in range(n - 1)])
        y = Space("Y", [f"y{i}" for i in range(2 * n)],
                  [(f"y{i}", f"y{i + 1}") for i in range(2 * n - 1)])
        f = SpaceMap(x, y, {f"x{i}": f"y{2 * i}" for i in range(n)})
        tracemalloc.start()
        try:
            verdict = is_continuous(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict
        assert peak < 5 * 2 ** 20

    def test_images_equal_to_ids_but_other_objects(self):
        # A table given as a mapping keeps its value objects, and compose
        # passes them on, also through an operator's map.  Such images equal
        # the codomain's ids without being them, so the check must tell
        # equal, direct and reachable images apart by value, not identity.
        # Reduced codomains and maps that mostly keep the index order make
        # reachable but not incident images common, as in the test above.
        rng = random.Random(36)

        def copied_map(x, y):
            names = sorted(y.elements)
            table = {}
            for i in range(len(x)):
                target = (f"{y.name}{i * len(y) // len(x)}" if rng.random() < 0.7
                          else rng.choice(names))
                table[f"{x.name}{i}"] = target[:1] + target[1:]  # equal, another object
            return SpaceMap(x, y, table)

        routes = Counter()
        verdicts = Counter()
        for _ in range(150):
            x, y, z = (random_space(rng, max_elements=8, name=name, min_elements=1)
                       for name in ("X", "Y", "Z"))
            y, z = y.transitive_reduce(), z.transitive_reduce()
            copied, later = copied_map(x, y), copied_map(y, z)
            _, inclusion = select_subspace(x, sorted(x.elements)[::2])
            for f in (copied, compose(later, copied), compose(copied, inclusion)):
                held = {e: e for e in f.codomain.elements}
                assert all(held[v] is not v for v in f.mapping.values())
                preorder = naive_preorder(f.codomain)
                for a, b in f.domain.incidence:
                    image = (f(a), f(b))
                    routes["equal" if image[0] == image[1] else
                           "direct" if image in f.codomain.incidence else
                           "reachable" if image in preorder else "violation"] += 1
                witness = next(((a, b) for a, b in sorted(f.domain.incidence)
                                if (f(a), f(b)) not in preorder), None)
                verdict = is_continuous(f)
                assert verdict.ok == (witness is None)
                assert verdict.witness == witness
                verdicts[verdict.ok] += 1
        assert min(routes.values()) >= 50, routes
        assert verdicts[True] >= 50 and verdicts[False] >= 50

    def test_stars_agree_with_the_oracle_and_name_the_least_violation(self):
        # Spaces with one element of high out- or in-degree next to random
        # ones: the direct test reads a set of each image's successors, and
        # its verdicts and witnesses must not depend on the degree.
        rng = random.Random(37)
        verdicts = Counter()
        for _ in range(200):
            x, y = (rng.choice([star, random_space])(rng, max_elements=rng.randint(1, 6),
                                                     name=name, min_elements=1)
                    for name in ("X", "Y"))
            f = random_total_map(rng, x, y)
            preorder = naive_preorder(y)
            violations = [(a, b) for a, b in x.incidence if (f(a), f(b)) not in preorder]
            verdict = is_continuous(f)
            assert verdict.ok == oracle_is_continuous(f) == (not violations)
            assert verdict.witness == min(violations, default=None)
            verdicts[verdict.ok] += 1
        assert verdicts[True] >= 40 and verdicts[False] >= 40

    def test_star_under_its_identity(self):
        hub = Space("S", ["h", *(f"l{i}" for i in range(2000))],
                    [("h", f"l{i}") for i in range(2000)])
        assert is_continuous(identity_map(hub))
        lifted = SpaceMap(hub, hub, dict(identity_map(hub).mapping, h="l7"))
        verdict = is_continuous(lifted)
        assert verdict.witness == ("h", "l0") and verdict.image == ("l7", "l0")


def deep_chain(rng: random.Random, n: int, name: str) -> Space:
    """A chain of n elements, each bounded by the next, with a skip pair
    of length 2-16 from some of them."""
    ids = [f"{name}{i}" for i in range(n)]
    pairs = list(zip(ids, ids[1:]))
    pairs += [(ids[i], ids[i + d]) for i in range(n) if rng.random() < 0.5
              for d in [rng.randint(2, 16)] if i + d < n]
    return Space(name, ids, pairs)


def star(rng: random.Random, max_elements: int, name: str, min_elements: int) -> Space:
    """A hub bounded by most of up to 11 leaves, plus a few pairs between the
    leaves; every pair turned round in half the stars, so that the leaves
    are bounded by the hub."""
    ids = [f"{name}{i}" for i in range(rng.randint(max(min_elements, 2), 12))]
    hub, leaves = ids[0], ids[1:]
    pairs = [(hub, leaf) for leaf in leaves if rng.random() < 0.8]
    pairs += [(a, b) for i, a in enumerate(leaves) for b in leaves[i + 1:]
              if rng.random() < 0.05]
    if rng.random() < 0.5:
        pairs = [(b, a) for a, b in pairs]
    return Space(name, ids, pairs)


class TestIsHomeomorphism:
    def test_identity_pair(self, space_x):
        ident = identity_map(space_x)
        assert is_homeomorphism(ident, ident)

    def test_segment_vertex_swap(self, segment):
        flip = SpaceMap(segment, segment, {"e": "e", "v1": "v2", "v2": "v1"})
        assert is_homeomorphism(flip, flip)

    def test_constant_is_not(self, space_y):
        constant = SpaceMap(space_y, space_y, {e: "x" for e in space_y.elements})
        assert not is_homeomorphism(constant, identity_map(space_y))

    def test_mismatched_spaces(self, segment, space_y):
        with pytest.raises(DomainMismatchError):
            is_homeomorphism(identity_map(segment), identity_map(space_y))

    def test_continuous_bijection_need_not_be_homeomorphism(self):
        # identity from the finer relation (none) to the coarser one
        discrete = Space("fine", ["p", "q"], [])
        linked = Space("coarse", ["p", "q"], [("p", "q")])
        forward = SpaceMap(discrete, linked, {"p": "p", "q": "q"})
        backward = SpaceMap(linked, discrete, {"p": "p", "q": "q"})
        assert is_continuous(forward)
        assert not is_continuous(backward)
        assert not is_homeomorphism(forward, backward)


class TestFindHomeomorphism:
    def test_cardinality_mismatch(self, space_x, space_y):
        assert find_homeomorphism(space_x, space_y) is None

    def test_renamed_segment(self, segment):
        renamed = Space("seg2", ["E", "V1", "V2"], [("E", "V1"), ("E", "V2")])
        found = find_homeomorphism(segment, renamed)
        assert found is not None
        assert found("e") == "E"

    def test_automorphism_with_swapped_edges(self, space_y):
        twin = Space("Y", ["C", "b", "c", "x"],
                     [("C", "b"), ("C", "c"), ("b", "x"), ("c", "x")])
        found = find_homeomorphism(space_y, twin)
        assert found is not None
        inverse = SpaceMap(twin, space_y, {v: k for k, v in found.mapping.items()})
        assert is_homeomorphism(found, inverse)

    def test_backtracks_out_of_a_dead_end(self):
        # signatures pair x's e0, e1, e2 with y's e0, e2, e4; the first
        # choices in order (e0->e0, e1->e2, e2->e4) agree pairwise but leave
        # no image for e3, so the search has to undo them
        ids = [f"e{i}" for i in range(5)]
        x = Space("X", ids, [("e0", "e3"), ("e2", "e3"), ("e1", "e4")])
        y = Space("Y", ids, [("e0", "e3"), ("e2", "e1"), ("e4", "e1")])
        found = find_homeomorphism(x, y)
        assert found is not None and found == oracle_find_homeomorphism(x, y)
        inverse = SpaceMap(y, x, {v: k for k, v in found.mapping.items()})
        assert is_homeomorphism(found, inverse)

    @pytest.mark.parametrize("x_pairs, y_pairs", [
        ([("e0", "e4"), ("e1", "e5"), ("e2", "e3"), ("e2", "e4")],
         [("e0", "e1"), ("e0", "e4"), ("e2", "e5"), ("e3", "e5")]),
        ([("e0", "e3"), ("e0", "e5"), ("e1", "e6"), ("e2", "e3"), ("e5", "e6")],
         [("e0", "e4"), ("e1", "e4"), ("e2", "e3"), ("e2", "e4"), ("e3", "e5")]),
    ], ids=["open-set-counts-differ", "open-set-counts-agree"])
    def test_equal_signatures_without_a_homeomorphism(self, x_pairs, y_pairs):
        # the signature multisets agree, so only the search can say no; in the
        # second row the open-set counts agree too, so the oracle tries every bijection
        ids = [f"e{i}" for i in range(7)]
        x, y = Space("X", ids, x_pairs), Space("Y", ids, y_pairs)
        assert find_homeomorphism(x, y) is None
        assert oracle_find_homeomorphism(x, y) is None

    def test_size_bound(self):
        big = Space("big", [f"n{i}" for i in range(11)], [])
        with pytest.raises(SizeBoundError):
            find_homeomorphism(big, big)

    def test_symmetry_and_oracle_agreement(self):
        rng = random.Random(33)
        for trial in range(40):
            x = random_space(rng, max_elements=5, name="A", min_elements=0)
            if trial % 2:
                mapping = {e: f"B{i}" for i, e in enumerate(sorted(x.elements))}
                y = Space("B", mapping.values(),
                          [(mapping[a], mapping[b]) for a, b in x.incidence])
            else:
                y = random_space(rng, max_elements=5, name="B")
            forward = find_homeomorphism(x, y)
            backward = find_homeomorphism(y, x)
            exhaustive = oracle_find_homeomorphism(x, y)
            assert (forward is None) == (backward is None) == (exhaustive is None)
            if forward is not None:
                inverse = SpaceMap(y, x, {v: k for k, v in forward.mapping.items()})
                assert is_homeomorphism(forward, inverse)

    def test_homeomorphic_spaces_share_invariants(self):
        rng = random.Random(34)
        for _ in range(20):
            x = random_space(rng, max_elements=6, name="A", min_elements=1)
            mapping = {e: f"B{i}" for i, e in enumerate(sorted(x.elements))}
            y = Space("B", mapping.values(),
                      [(mapping[a], mapping[b]) for a, b in x.incidence])
            assert find_homeomorphism(x, y) is not None
            dims_x = Counter(x.dimension(e) for e in x.elements)
            dims_y = Counter(y.dimension(e) for e in y.elements)
            assert dims_x == dims_y
            assert len(enumerate_topology(x)) == len(enumerate_topology(y))
