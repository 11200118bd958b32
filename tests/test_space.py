"""Core space construction and the fundamental topological queries."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from topodata import (
    CyclicIncidenceError,
    DanglingIncidenceError,
    DuplicateElementError,
    InvalidAttributeError,
    InvalidElementIdError,
    Partition,
    SelfLoopError,
    Space,
    SpaceMap,
    ThetaRelation,
    TopologyError,
    UnknownElementError,
    UnresolvedReferenceError,
    enumerate_topology,
    select_subspace,
)
from topodata.space import check_element_id

from conftest import random_space
from naive import brute_closure, brute_dimension, brute_star, naive_preorder


# A chain of 12 elements, the most enumerate_topology takes, with skip
# pairs, and three ids of it: one more input of the closure and star tests.
CHAIN_IDS = [f"k{i}" for i in range(12)]
DEEP_CHAIN = Space("K", CHAIN_IDS, list(zip(CHAIN_IDS, CHAIN_IDS[1:]))
                   + [("k0", "k3"), ("k2", "k9"), ("k4", "k6"), ("k7", "k11")])
CHAIN_SUBSET = frozenset({"k3", "k5", "k10"})


@st.composite
def small_spaces(draw, max_size=6):
    n = draw(st.integers(min_value=0, max_value=max_size))
    ids = [f"n{i}" for i in range(n)]
    pairs = []
    if n >= 2:
        candidates = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
        pairs = sorted(draw(st.sets(st.sampled_from(candidates))))
    return Space("S", ids, pairs)


@st.composite
def space_and_subsets(draw, max_size=6, subsets=1):
    space = draw(small_spaces(max_size))
    out = [space]
    for _ in range(subsets):
        if space.elements:
            out.append(frozenset(draw(st.sets(st.sampled_from(sorted(space.elements))))))
        else:
            out.append(frozenset())
    return tuple(out)


class TestConstruction:
    def test_minimal_segment(self, segment):
        assert segment.elements == {"e", "v1", "v2"}
        assert segment.incidence == {("e", "v1"), ("e", "v2")}

    def test_named_patch(self, space_x):
        assert len(space_x) == 6
        assert ("B", "g") in space_x.incidence

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Space("p", ["p"], [("p", "p")])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateElementError):
            Space("d", ["a", "b", "a"], [])

    def test_dangling_rejected(self):
        with pytest.raises(DanglingIncidenceError):
            Space("d", ["a", "b"], [("a", "z")])

    def test_cycle_rejected(self):
        with pytest.raises(CyclicIncidenceError):
            Space("c", ["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_bad_tokens_rejected(self):
        # among them the less common whitespace: separators \x1c-\x1f,
        # no-break, line separator and ideographic spaces
        for bad in ("", "a b", "a,b", None, 7,
                    *(f"a{ch}b" for ch in "\x1c\x1d\x1e\x1f\xa0\u2028\u3000")):
            with pytest.raises(InvalidElementIdError):
                Space("t", [bad], [])

    def test_non_whitespace_controls_accepted(self):
        for token in ("a\x00b", "a\x1bb", "a\u200bb", "\ud800", 'q"\\'):
            assert check_element_id(token) == token

    def test_attributes_for_unknown_element(self):
        with pytest.raises(UnknownElementError):
            Space("t", ["a"], [], {"b": {"k": "v"}})

    def test_incidence_stored_as_given(self):
        space = Space("s", ["s", "f", "v"], [("s", "f"), ("f", "v"), ("s", "v")])
        assert space.incidence == {("s", "f"), ("f", "v"), ("s", "v")}

    def test_value_semantics(self, space_x):
        twin = Space(*[space_x.name, space_x.elements, space_x.incidence])
        assert twin == space_x
        assert hash(twin) == hash(space_x)
        assert twin != Space("X2", space_x.elements, space_x.incidence)

    def test_equal_values_hash_equal(self):
        # the same content given in different orders
        x = Space("s", ["a", "b", "c"], [("a", "b"), ("b", "c")],
                  {"a": {"k": "1", "m": "2"}, "b": {"k": "3"}})
        y = Space("s", ["c", "b", "a"], [("b", "c"), ("a", "b")],
                  {"b": {"k": "3"}, "a": {"m": "2", "k": "1"}})
        assert x == y and hash(x) == hash(y)
        f = SpaceMap(x, x, {"a": "a", "b": "b", "c": "c"})
        g = SpaceMap(y, y, {"c": "c", "b": "b", "a": "a"})
        assert f == g and hash(f) == hash(g)

    def test_hash_does_not_read_the_incidence(self, space_x, monkeypatch):
        def unread(space):
            raise AssertionError("incidence built")

        expected = hash(space_x)
        monkeypatch.setattr(Space, "incidence", property(unread))
        assert hash(space_x) == expected
        assert hash(Space(space_x.name, space_x.elements)) == expected

    @pytest.mark.parametrize("entry", [("a",), None, "ab", {"a": 1, "b": 2}, {"a", "b"},
                                       (["a"], "b"), ("m", ["a"])])
    def test_malformed_incidence_entry(self, entry):
        with pytest.raises(InvalidElementIdError, match="not a pair"):
            Space("s", ["a", "b"], [entry])
        with pytest.raises(InvalidElementIdError, match="not a pair"):
            ThetaRelation([entry])

    @pytest.mark.parametrize("labelled", [[("m", "a")], [("m", ["a"])], [["m", ["a", "b"]]],
                                          "ab", 5, None, [("a", "x"), ("a", "y")]],
                             ids=["pair", "pair-of-list", "list-of-list", "string", "5", "None",
                                  "key-listed-twice"])
    def test_partition_classes_are_a_mapping_only(self, labelled):
        # no pair can list a class: (label, member list) is not a pair of ids,
        # and the second id of (label, id) is not a collection of members;
        # the element -> label table of Partition itself is a mapping only too
        with pytest.raises(InvalidElementIdError,
                           match=r"partition classes must be a mapping, got "):
            Partition.from_classes(labelled)
        with pytest.raises(InvalidElementIdError,
                           match=r"partition classes must be a mapping, got "):
            Partition(labelled)

    @pytest.mark.parametrize("build, message", [
        (lambda: Space("s", None), "must be a collection"),
        (lambda: Space("s", 5), "must be a collection"),
        (lambda: Space("s", [], 5), "must be a collection"),
        (lambda: Space("s", [], None), "must be a collection"),
        (lambda: Space("s", "ab"), "must be a collection"),
        (lambda: SpaceMap(Space("s", ["a"]), Space("s", ["a"]), 5), "must be a collection"),
        # the one collection Partition takes is a mapping
        (lambda: Partition(5), "partition classes must be a mapping, got 5"),
        (lambda: select_subspace(Space("s", ["a"]), lambda attrs: True),
         "not a collection of element ids of 's'")],
        ids=["elements-None", "elements-5", "incidence-5", "incidence-None",
             "elements-string", "map-table-5", "partition-classes-5", "select-callable"])
    def test_arguments_that_are_not_collections(self, build, message):
        with pytest.raises(InvalidElementIdError, match=message):
            build()

    class Unprintable:
        def __str__(self):
            raise RuntimeError("no text")

    @pytest.mark.parametrize("name", [None, b"x", Unprintable()],
                             ids=["None", "bytes", "str-raises"])
    def test_name_that_is_not_a_string(self, name):
        # the name is not turned into text: 'None', "b'x'", or the __str__ error
        with pytest.raises(UnresolvedReferenceError, match="space name must be a string, got "):
            Space(name, ["a"])

    @pytest.mark.parametrize("name", ["a\nb", "a\r", "\x1c", "a\x85", "\u2028b"])
    def test_name_of_more_than_one_line(self, name):
        # a report prints the name on a line of its own
        with pytest.raises(UnresolvedReferenceError, match="space name must be one line, got "):
            Space(name, ["a"])

    @pytest.mark.parametrize("build", [
        lambda: SpaceMap(Space("s", ["a", "b", "c"]), Space("s", ["a", "b", "c"]),
                         [("a", "a"), ("b", "b"), ("c", "c"), ("a", "c")])], ids=["map-pairs"])
    def test_key_listed_twice_in_pairs(self, build):
        # a mapping cannot repeat a key; pairs that do would silently keep the last
        with pytest.raises(InvalidElementIdError, match=r"list source ids more than once: \['"):
            build()

    @pytest.mark.parametrize("attributes", [
        pytest.param({"a": {"k": 1}}, id="attrs0"),
        pytest.param({"a": 5}, id="5"),
        pytest.param({"a": [("k", "v")]}, id="list-of-items"),
        pytest.param(5, id="argument-5"),
        pytest.param([("a", {})], id="argument-list-of-items"),
    ])
    def test_bad_attributes(self, attributes):
        with pytest.raises(InvalidAttributeError):
            Space("s", ["a"], [], attributes)

    @pytest.mark.parametrize("query", ["closure", "star", "is_open", "select"])
    @pytest.mark.parametrize("ids", [[["a"]], [{"a"}], 5, ["zz", 5], "e"],
                             ids=["list-id", "set-id", "not-iterable", "mixed-unknown", "string"])
    def test_ids_that_are_not_elements(self, segment, query, ids):
        run = ((lambda keep: select_subspace(segment, keep)) if query == "select"
               else getattr(segment, query))
        with pytest.raises(TopologyError):
            run(ids)

    @pytest.mark.parametrize("query", ["down_set", "up_set", "dimension", "in_preorder",
                                       "in_preorder_second", "in_preorder_both"])
    @pytest.mark.parametrize("element", [["e"], {"e"}, {"e": "v1"}, "zz", 5, None, b"e"],
                             ids=["list", "set", "dict", "unknown", "int", "none", "bytes"])
    def test_unhashable_id(self, segment, query, element):
        if isinstance(element, str):
            error, message = UnknownElementError, f"{element!r} is not an element of 'seg'"
        else:
            error, message = InvalidElementIdError, f"element ids are strings, got {element!r}"
        with pytest.raises(error) as raised:
            if query == "in_preorder":
                segment.in_preorder(element, "e")
            elif query == "in_preorder_second":
                segment.in_preorder("e", element)
            elif query == "in_preorder_both":  # the first bad id is reported
                segment.in_preorder(element, "yy")
            else:
                getattr(segment, query)(element)
        assert str(raised.value) == message


class TestIsOpen:
    def test_full_set_open(self, space_y):
        assert space_y.is_open({"x", "b", "c", "C"})

    def test_boundary_without_face_not_open(self, space_x):
        assert not space_x.is_open({"B", "a", "e", "f", "g"})

    def test_empty_set_open(self, space_x, space_y, segment):
        for space in (space_x, space_y, segment):
            assert space.is_open(frozenset())

    def test_unknown_element(self, segment):
        with pytest.raises(UnknownElementError):
            segment.is_open({"nope"})

    def test_agrees_with_enumeration(self):
        rng = random.Random(11)
        for _ in range(20):
            space = random_space(rng, max_elements=6)
            family = set(enumerate_topology(space))
            elements = sorted(space.elements)
            for mask in range(1 << len(elements)):
                subset = frozenset(e for i, e in enumerate(elements) if (mask >> i) & 1)
                assert space.is_open(subset) == (subset in family)


class TestPreorder:
    def test_segment_closure(self, segment):
        assert naive_preorder(segment) == {("e", "e"), ("v1", "v1"), ("v2", "v2"),
                                           ("e", "v1"), ("e", "v2")}

    def test_transitive_pair_present(self, space_y):
        assert ("C", "x") in naive_preorder(space_y)

    def test_no_extra_pairs(self, space_x):
        reflexive = {(e, e) for e in space_x.elements}
        assert naive_preorder(space_x) == reflexive | space_x.incidence

    @given(small_spaces())
    def test_partial_order(self, space):
        order = naive_preorder(space)
        assert order == {(a, b) for a in space.elements for b in space.elements
                         if space.in_preorder(a, b)}
        for e in space.elements:
            assert (e, e) in order
        for a, b in order:
            for c, d in order:
                if b == c:
                    assert (a, d) in order
                if (b, a) in order:
                    assert a == b


class TestClosure:
    def test_face_closure(self, space_x):
        assert space_x.closure({"B"}) == {"B", "a", "e", "f", "g"}
        assert space_x.closure({"B"}) == brute_closure(space_x, {"B"})

    def test_vertex_is_closed(self, space_y):
        assert space_y.closure({"x"}) == {"x"}

    def test_face_reaches_vertex(self, space_y):
        assert space_y.closure({"C"}) == {"C", "b", "c", "x"}
        assert space_y.closure({"C"}) == brute_closure(space_y, {"C"})

    @given(space_and_subsets(subsets=2))
    def test_closure_laws(self, drawn):
        space, a, b = drawn
        closed_a = space.closure(a)
        assert a <= closed_a
        assert space.closure(closed_a) == closed_a
        assert space.closure(a | b) == closed_a | space.closure(b)

    @given(space_and_subsets())
    @example((DEEP_CHAIN, CHAIN_SUBSET))
    def test_matches_brute_force(self, drawn):
        space, subset = drawn
        assert space.closure(subset) == brute_closure(space, subset)


class TestStar:
    def test_vertex_star(self, space_y):
        assert space_y.star({"x"}) == {"x", "b", "c", "C"}

    def test_maximal_element(self, space_x):
        assert space_x.star({"A"}) == {"A"}

    def test_edge_star(self, space_y):
        assert space_y.star({"b"}) == {"b", "C"}
        assert space_y.star({"b"}) == brute_star(space_y, {"b"})

    @given(space_and_subsets())
    @example((DEEP_CHAIN, CHAIN_SUBSET))
    def test_star_is_minimal_open_superset(self, drawn):
        space, subset = drawn
        star = space.star(subset)
        assert space.is_open(star)
        assert star == brute_star(space, subset)


class TestDimension:
    def test_face_dimension(self, space_y):
        assert space_y.dimension("C") == 2

    def test_sink_dimension(self, space_y):
        assert space_y.dimension("x") == 0

    def test_one_step(self, space_x):
        assert space_x.dimension("B") == 1

    def test_unknown(self, space_x):
        with pytest.raises(UnknownElementError):
            space_x.dimension("zz")

    def test_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(25):
            space = random_space(rng, max_elements=7)
            for element in space.elements:
                assert space.dimension(element) == brute_dimension(space, element)

    @given(small_spaces())
    def test_zero_iff_empty_boundary(self, space):
        sources = {a for a, _ in space.incidence}
        for element in space.elements:
            assert (space.dimension(element) == 0) == (element not in sources)


class TestSpaceDimension:
    def test_patch(self, space_y):
        assert space_y.space_dimension() == 2

    def test_empty_space(self):
        assert Space("empty", [], []).space_dimension() == -1

    def test_segment(self, segment):
        assert segment.space_dimension() == 1


class TestTransitiveReduce:
    def test_removes_implied_pair(self):
        space = Space("s", ["s", "f", "v"], [("s", "f"), ("f", "v"), ("s", "v")])
        assert space.transitive_reduce().incidence == {("s", "f"), ("f", "v")}

    def test_already_reduced(self, space_x, space_y):
        assert space_x.transitive_reduce() == space_x
        assert space_y.transitive_reduce() == space_y

    def test_topology_preserved(self):
        rng = random.Random(9)
        for _ in range(20):
            space = random_space(rng, max_elements=7, edge_chance=0.5)
            reduced = space.transitive_reduce()
            assert naive_preorder(reduced) == naive_preorder(space)
            assert list(enumerate_topology(reduced)) == list(enumerate_topology(space))

    def test_minimality(self):
        rng = random.Random(10)
        for _ in range(10):
            space = random_space(rng, max_elements=6, edge_chance=0.4)
            reduced = space.transitive_reduce()
            for dropped in reduced.incidence:
                thinner = Space("t", reduced.elements,
                                reduced.incidence - {dropped})
                assert naive_preorder(thinner) != naive_preorder(space)


class TestConcurrentReaders:
    def test_shared_space_queries_are_consistent(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = random.Random(77)
        space = random_space(rng, max_elements=8, edge_chance=0.4, min_elements=8)
        expected = {e: (space.closure({e}), space.star({e}), space.dimension(e))
                    for e in sorted(space.elements)}

        fresh = Space(space.name, space.elements, space.incidence)

        def probe(element):
            return element, (fresh.closure({element}), fresh.star({element}),
                             fresh.dimension(element))

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = dict(pool.map(probe, list(fresh.elements) * 10))
        assert results == expected


class TestAlexandrovProperties:
    def test_family_closed_under_set_operations(self):
        rng = random.Random(3)
        for _ in range(15):
            space = random_space(rng, max_elements=6)
            family = set(enumerate_topology(space))
            assert frozenset() in family
            assert frozenset(space.elements) in family
            for u in family:
                for v in family:
                    assert u | v in family
                    assert u & v in family

    def test_bigger_relations_give_smaller_topologies(self):
        rng = random.Random(4)
        for _ in range(25):
            big = random_space(rng, max_elements=6, edge_chance=0.5, name="S")
            strict = sorted(p for p in naive_preorder(big) if p[0] != p[1])
            kept = [p for p in strict if rng.random() < 0.6]
            fine = Space("Rf", big.elements, kept)
            coarse_family = set(enumerate_topology(big))
            fine_family = set(enumerate_topology(fine))
            assert coarse_family <= fine_family
