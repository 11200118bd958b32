"""Query operators: subspace, quotient, pasting, pullback, product, joins."""

from __future__ import annotations

import random
import warnings

import pytest

from topodata import (
    CodomainMismatchError,
    CyclicIncidenceError,
    DuplicateElementError,
    NotContinuousError,
    Partition,
    QuotientCycleError,
    SeparatorCollisionError,
    Space,
    SpaceMap,
    ThetaRelation,
    TopologyError,
    UnknownElementError,
    UnresolvedReferenceError,
    compose,
    enumerate_topology,
    fibre_product,
    find_homeomorphism,
    identity_map,
    is_continuous,
    pair_id,
    paste_union,
    product,
    pullback_intersection,
    quotient,
    select_subspace,
    theta_join,
)
from topodata import algebra
from topodata.io import serialize_space

from conftest import random_layered_space, random_space
from naive import naive_preorder, naive_theta_join


def same_structure(a: Space, b: Space) -> bool:
    return a.elements == b.elements and a.incidence == b.incidence


class TestSelectSubspace:
    def test_transitive_pair_survives(self, space_y):
        sub, inclusion = select_subspace(space_y, {"C", "x"})
        assert sub.incidence == {("C", "x")}
        assert is_continuous(inclusion)

    def test_identity_selection(self, space_x):
        sub, _ = select_subspace(space_x, space_x.elements)
        assert sub == space_x

    def test_single_point(self, space_y):
        sub, _ = select_subspace(space_y, {"x"})
        assert sub.elements == {"x"}
        assert sub.incidence == frozenset()

    def test_unknown_element(self, space_y):
        with pytest.raises(UnknownElementError):
            select_subspace(space_y, {"zz"})

    def test_predicate_over_attributes(self):
        space = Space("walls", ["w1", "w2", "d"], [],
                      {"w1": {"kind": "wall"}, "w2": {"kind": "wall"},
                       "d": {"kind": "door"}})
        sub, _ = select_subspace(
            space, [e for e, kv in space.attributes.items() if kv.get("kind") == "wall"])
        assert sub.elements == {"w1", "w2"}

    def test_initial_topology(self):
        # a subset is open in the subspace iff it is keep & U for open U
        rng = random.Random(41)
        for _ in range(20):
            space = random_space(rng, max_elements=6, min_elements=1)
            keep = frozenset(e for e in space.elements if rng.random() < 0.6)
            sub, _ = select_subspace(space, keep)
            expected = {keep & u for u in enumerate_topology(space)}
            assert set(enumerate_topology(sub)) == expected


class TestQuotient:
    def test_merge_edge_with_vertex(self, space_y):
        partition = Partition.from_classes({"m": ["c", "x"]}, space_y.name)
        result, projection = quotient(space_y, partition)
        assert result.elements == {"C", "b", "m"}
        assert result.incidence == {("C", "m"), ("C", "b"), ("b", "m")}
        assert is_continuous(projection)

    def test_cycle_is_an_error_by_default(self, space_y):
        partition = Partition.from_classes({"k": ["C", "x"]}, space_y.name)
        with pytest.raises(QuotientCycleError):
            quotient(space_y, partition)

    def test_cycle_collapse_policy(self, space_y):
        partition = Partition.from_classes({"k": ["C", "x"]}, space_y.name)
        result, projection = quotient(space_y, partition, on_cycle="collapse")
        # k -> b -> k and k -> c -> k all fold into one class
        assert result.elements == {"scc:b"}
        assert result.incidence == frozenset()
        assert is_continuous(projection)

    def test_collapse_name_clash_is_an_error(self, space_y):
        # an isolated element already labelled scc:b must not be merged
        # into the collapsed group that would take the same name
        space = Space("Y", sorted(space_y.elements | {"z"}), space_y.incidence)
        partition = Partition.from_classes({"k": ["C", "x"], "scc:b": ["z"]}, space.name)
        with pytest.raises(QuotientCycleError, match="scc:b"):
            quotient(space, partition, on_cycle="collapse")

    def test_bad_labels_and_policy_are_topology_errors(self, space_y):
        for bad in ("", None):
            with pytest.raises(TopologyError):
                Partition({"C": bad})
        with pytest.raises(TopologyError):
            quotient(space_y, Partition.from_classes({}, space_y.name), on_cycle="merge")

    def test_singleton_partition_is_isomorphic_copy(self, space_x):
        partition = Partition.from_classes({}, space_x.name)
        result, projection = quotient(space_x, partition)
        assert same_structure(result, space_x)
        assert is_continuous(projection)

    def test_partition_for_other_space_rejected(self, space_y):
        renamed = Space("Z", space_y.elements, space_y.incidence)
        partition = Partition.from_classes({"m": ["c", "x"]}, space_y.name)
        with pytest.raises(UnresolvedReferenceError, match="declared for space 'Y', not 'Z'"):
            quotient(renamed, partition, on_cycle="bogus")
        result, _ = quotient(renamed, Partition(partition.classes))
        assert result.elements == {"C", "b", "m"}

    def test_unlisted_elements_are_singleton_classes(self, space_y):
        result, projection = quotient(space_y, Partition({"c": "m", "x": "m"}))
        assert result.elements == {"C", "b", "m"}
        assert {e: projection(e) for e in space_y.elements} == {
            "C": "C", "b": "b", "c": "m", "x": "m"}

    def test_partition_must_not_classify_strangers(self, space_y):
        table = {e: e for e in space_y.elements}
        table["zz"] = "m"  # an entry "zz" -> "zz" is implied, so it is dropped and classifies nothing
        with pytest.raises(UnknownElementError):
            quotient(space_y, Partition(table))

    def test_double_assignment_rejected(self, space_y):
        with pytest.raises(DuplicateElementError):
            Partition.from_classes({"m": ["c", "x"], "k": ["x"]}, space_y.name)

    def test_collapse_matches_mutual_reachability(self):
        rng = random.Random(48)
        for _ in range(30):
            space = random_space(rng, max_elements=7, name="S", min_elements=1)
            labels = {e: f"k{rng.randrange(4)}" for e in space.elements}
            result, projection = quotient(space, Partition(labels), on_cycle="collapse")

            induced = {(labels[a], labels[b]) for a, b in space.incidence
                       if labels[a] != labels[b]}
            classes = set(labels.values())
            reach = {c: {c} for c in classes}
            changed = True
            while changed:
                changed = False
                for a, b in induced:
                    new = reach[b] - reach[a]
                    if new:
                        reach[a] |= new
                        changed = True
            expected = {}
            for c in classes:
                component = {d for d in classes if d in reach[c] and c in reach[d]}
                target = min(component)
                expected[c] = target if len(component) == 1 else "scc:" + target
            assert all(projection(e) == expected[labels[e]] for e in space.elements)
            assert result.elements == set(expected.values())

    def test_final_topology(self):
        # a class set is open iff the union of its members is open below
        rng = random.Random(42)
        for _ in range(20):
            space = random_space(rng, max_elements=6, min_elements=1)
            elements = sorted(space.elements)
            labels = {e: f"k{rng.randrange(1 + len(elements) // 2)}" for e in elements}
            result, projection = quotient(space, Partition(labels), on_cycle="collapse")
            final = {e: projection(e) for e in elements}
            classes = sorted(result.elements)
            for mask in range(1 << len(classes)):
                chosen = {c for i, c in enumerate(classes) if (mask >> i) & 1}
                union = {e for e in elements if final[e] in chosen}
                assert result.is_open(chosen) == space.is_open(union)

    @pytest.mark.parametrize("on_cycle", ["error", "collapse"])
    def test_quotient_topology_by_definition(self, on_cycle):
        # V is open in the result iff its preimage under the projection is
        # open; with collapse that is the T0 quotient of the quotient topology
        rng = random.Random(43)
        checked = 0
        for _ in range(1500):
            space = random_space(rng, max_elements=7, name="S", min_elements=1)
            labels = {e: f"k{rng.randrange(3)}" for e in space.elements if rng.random() < 0.7}
            try:
                result, projection = quotient(space, Partition(labels), on_cycle=on_cycle)
            except QuotientCycleError:
                continue
            checked += 1
            opens = set(enumerate_topology(space))
            classes = sorted(result.elements)
            expected = set()
            for mask in range(1 << len(classes)):
                chosen = frozenset(c for i, c in enumerate(classes) if (mask >> i) & 1)
                if frozenset(e for e in space.elements if projection(e) in chosen) in opens:
                    expected.add(chosen)
            assert set(enumerate_topology(result)) == expected
        assert checked > 1000


class TestPasteUnion:
    def test_glue_two_segments(self):
        left = Space("l", ["e1", "v1", "v2"], [("e1", "v1"), ("e1", "v2")])
        right = Space("r", ["e2", "v2", "v3"], [("e2", "v2"), ("e2", "v3")])
        glued, inl, inr = paste_union(left, right)
        assert glued.elements == {"e1", "e2", "v1", "v2", "v3"}
        assert glued.incidence == {("e1", "v1"), ("e1", "v2"),
                                   ("e2", "v2"), ("e2", "v3")}
        assert is_continuous(inl) and is_continuous(inr)

    def test_idempotent(self, space_x):
        glued, _, _ = paste_union(space_x, space_x)
        assert same_structure(glued, space_x)

    def test_forced_cycle(self):
        one = Space("one", ["a", "b"], [("a", "b")])
        other = Space("other", ["a", "b"], [("b", "a")])
        with pytest.raises(CyclicIncidenceError):
            paste_union(one, other)

    def test_attributes_merged_right_side_wins(self):
        left = Space("l", ["e", "v1", "v2"], [("e", "v1"), ("e", "v2")],
                     {"e": {"k": "left", "only": "l"}, "v1": {"k": "left"}})
        right = Space("r", ["e", "v2", "w"], [("e", "v2"), ("w", "v2")],
                      {"e": {"k": "right"}, "w": {"k": "right"}})
        glued, _, _ = paste_union(left, right)
        assert glued.attributes == {"e": {"k": "right", "only": "l"}, "v1": {"k": "left"},
                                    "w": {"k": "right"}}
        assert left.attributes["e"] == {"k": "left", "only": "l"}
        assert glued == Space(glued.name, glued.elements, glued.incidence, glued.attributes)

    def test_redundant_pair_reduced(self):
        chain = Space("c", ["s", "f", "v"], [("s", "f"), ("f", "v")])
        shortcut = Space("s", ["s", "v"], [("s", "v")])
        glued, _, _ = paste_union(chain, shortcut)
        assert glued.incidence == {("s", "f"), ("f", "v")}


class TestPullbackIntersection:
    def test_single_shared_point(self):
        left = Space("l", ["e1", "v1", "v2"], [("e1", "v1"), ("e1", "v2")])
        right = Space("r", ["e2", "v2", "v3"], [("e2", "v2"), ("e2", "v3")])
        meet, inl, inr = pullback_intersection(left, right)
        assert meet.elements == {"v2"}
        assert meet.incidence == frozenset()
        assert is_continuous(inl) and is_continuous(inr)

    def test_idempotent(self, space_x):
        meet, _, _ = pullback_intersection(space_x, space_x)
        assert same_structure(meet, space_x.transitive_reduce())

    def test_disjoint(self, space_x, space_y):
        meet, _, _ = pullback_intersection(space_x, space_y)
        assert len(meet) == 0

    def test_preorder_is_intersection(self):
        rng = random.Random(43)
        for _ in range(20):
            base = [f"n{i}" for i in range(rng.randint(1, 6))]
            x = Space("x", base + ["xonly"],
                      [(a, b) for i, a in enumerate(base) for b in base[i + 1:]
                       if rng.random() < 0.4])
            y = Space("y", base,
                      [(a, b) for i, a in enumerate(base) for b in base[i + 1:]
                       if rng.random() < 0.4])
            meet, _, _ = pullback_intersection(x, y)
            common = x.elements & y.elements
            expected = {(a, b) for a, b in naive_preorder(x)
                        if a in common and b in common} & naive_preorder(y)
            assert naive_preorder(meet) == expected


class TestProduct:
    @pytest.mark.parametrize("operator", [product, lambda x, y: theta_join(
        x, y, ThetaRelation((a, b) for a in x.elements for b in y.elements if a < "c"))],
        ids=["product", "theta_join"])
    def test_incidence_and_projections_hold_the_element_objects(self, space_x, space_y,
                                                                operator):
        # each pair id is rendered once; every use of it is that one string
        result, left, right = operator(space_x, space_y)
        held = {e: e for e in result.elements}
        assert result.incidence
        assert all(held[a] is a and held[b] is b for a, b in result.incidence)
        for projection in (left, right):
            assert projection.mapping.keys() == result.elements
            assert all(held[key] is key for key in projection.mapping)

    def test_lift_of_one_right_pair(self, space_x, space_y):
        prod, _, _ = product(space_x, space_y)
        lift = {(a, b) for a, b in prod.incidence
                if a.endswith("×C") and b.endswith("×c")}
        assert lift == {(pair_id(t, "C"), pair_id(t, "c"))
                        for t in space_x.elements}
        assert len(lift) == 6

    def test_pair_dimension_adds(self, space_x, space_y):
        prod, _, _ = product(space_x, space_y)
        assert prod.dimension(pair_id("B", "b")) == 2

    def test_unit_law(self, space_y):
        point = Space("pt", ["P"], [])
        prod, left, _ = product(space_y, point)
        assert find_homeomorphism(space_y, prod) is not None
        assert is_continuous(left)

    def test_projections_continuous(self, space_x, space_y):
        _, left, right = product(space_x, space_y)
        assert is_continuous(left) and is_continuous(right)

    def test_preorder_is_componentwise(self):
        rng = random.Random(44)
        for _ in range(10):
            x = random_space(rng, max_elements=4, name="X", min_elements=1)
            y = random_space(rng, max_elements=4, name="Y", min_elements=1)
            prod, _, _ = product(x, y)
            assert len(prod) == len(x) * len(y)
            for a in x.elements:
                for b in y.elements:
                    for c in x.elements:
                        for d in y.elements:
                            lifted = prod.in_preorder(pair_id(a, b), pair_id(c, d))
                            assert lifted == (x.in_preorder(a, c) and y.in_preorder(b, d))

    def test_dimension_additivity(self):
        rng = random.Random(45)
        for _ in range(15):
            x = random_space(rng, max_elements=5, name="X")
            y = random_space(rng, max_elements=5, name="Y")
            prod, _, _ = product(x, y)
            for a in x.elements:
                for b in y.elements:
                    assert prod.dimension(pair_id(a, b)) == x.dimension(a) + y.dimension(b)

    def test_separator_collision(self, space_y):
        clashing = Space("bad", ["a×b"], [])
        with pytest.raises(SeparatorCollisionError):
            product(clashing, space_y)

    def test_size_warning(self, monkeypatch):
        x = Space("x", [f"a{i}" for i in range(3)], [])
        y = Space("y", [f"b{i}" for i in range(3)], [])
        monkeypatch.setattr(algebra, "PRODUCT_WARN_LIMIT", 5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            product(x, y)
        assert any("advisory limit" in str(w.message) for w in caught)

    def test_empty_factor(self, space_y):
        empty = Space("none", [], [])
        prod, _, _ = product(empty, space_y)
        assert len(prod) == 0


class TestThetaJoin:
    def test_overlay_join_size(self, space_x, space_y, theta):
        join, _, _ = theta_join(space_x, space_y, theta)
        assert len(join) == 14

    def test_edge_with_a_hole(self, space_x, space_y, theta):
        join, _, _ = theta_join(space_x, space_y, theta)
        bb = pair_id("B", "b")
        assert join.closure({bb}) - {bb} == {pair_id("B", "x"), pair_id("e", "b"),
                                             pair_id("f", "b"), pair_id("g", "b")}

    def test_vertex_in_join_was_edge_pair(self, space_x, space_y, theta):
        join, _, _ = theta_join(space_x, space_y, theta)
        assert join.dimension(pair_id("e", "b")) == 0

    def test_unknown_theta_ids(self, space_x, space_y):
        with pytest.raises(UnknownElementError):
            theta_join(space_x, space_y, ThetaRelation([("zz", "C")]))

    def test_theta_side_names_must_match(self, space_x, space_y):
        pairs = [("A", "C")]
        theta_join(space_x, space_y, ThetaRelation(pairs))
        for left, right in (("Z", "Y"), ("X", "Z")):
            with pytest.raises(UnresolvedReferenceError, match="declared for 'Z'"):
                theta_join(space_x, space_y, ThetaRelation(pairs, left, right))

    def test_projection_composition_is_restriction(self, space_x, space_y, theta):
        join, pleft, _ = theta_join(space_x, space_y, theta)
        prod, prod_left, _ = product(space_x, space_y)
        inclusion = SpaceMap(join, prod, {e: e for e in join.elements})
        assert is_continuous(inclusion)
        assert compose(prod_left, inclusion) == pleft

    def test_full_theta_equals_product_reduced(self, space_x, space_y):
        every = ThetaRelation([(a, b) for a in space_x.elements
                               for b in space_y.elements])
        join, _, _ = theta_join(space_x, space_y, every)
        prod, _, _ = product(space_x, space_y)
        assert join == prod.transitive_reduce()

    def test_matches_naive_definition(self, space_x, space_y, theta):
        fast = theta_join(space_x, space_y, theta)
        slow = naive_theta_join(space_x, space_y, theta)
        assert fast == slow

    def test_matches_naive_on_random_instances(self):
        rng = random.Random(46)
        for _ in range(25):
            x = random_space(rng, max_elements=6, name="X", min_elements=1)
            y = random_space(rng, max_elements=6, name="Y", min_elements=1)
            pairs = {(rng.choice(sorted(x.elements)), rng.choice(sorted(y.elements)))
                     for _ in range(rng.randint(0, 8))}
            theta = ThetaRelation(pairs)
            assert theta_join(x, y, theta) == naive_theta_join(x, y, theta)


def join_all(x, y):
    """theta_join on every pair, which renders the same ids as the product."""
    theta = ThetaRelation((a, b) for a in x.elements for b in y.elements)
    return theta_join(x, y, theta)


def fibre_all(x, y):
    """fibre_product over a one-point index, which renders the same ids as the product."""
    point = Space("pt", ["p"])
    return fibre_product(SpaceMap(x, point, {e: "p" for e in x.elements}),
                         SpaceMap(y, point, {e: "p" for e in y.elements}))


@pytest.mark.parametrize("operator", [product, join_all, fibre_all],
                         ids=["product", "theta_join", "fibre_product"])
class TestSeparator:
    def test_separator_inside_an_id(self, operator):
        with pytest.raises(SeparatorCollisionError, match="already contain"):
            operator(Space("X", ["a×b", "c"]), Space("Y", ["d"]))

    def test_two_pairs_rendering_one_id(self, operator):
        # with a separator that could sit inside an id, xa+aa+y and x+aa+ay
        # would both be xaaay; no id contains ×, so every pair keeps its own id
        x = Space("X", ["xa", "x"])
        y = Space("Y", ["y", "ay"])
        assert len(operator(x, y)[0]) == 4


def random_join_input(rng, name):
    """A random layered or random DAG of 1 to 25 elements."""
    if rng.random() < 0.5:
        return random_layered_space(rng, rng.randint(1, 25), name=name)
    return random_space(rng, max_elements=25, name=name, min_elements=1)


def scan_fibre_product(u, p):
    """The fibre product with theta found by testing every domain pair."""
    theta = ThetaRelation(
        ((a, b) for a in u.domain.elements for b in p.domain.elements if u(a) == p(b)),
        left_name=u.domain.name, right_name=p.domain.name)
    return theta_join(u.domain, p.domain, theta)


def random_continuous_map(rng, domain, index):
    """A random continuous map into a discrete or a chain index space.

    Into a discrete space each connected component goes to one point;
    into the chain i0 < i1 < ... (each i(k+1) bounded by i(k)) an element
    goes no lower than anything on its boundary.
    """
    points = sorted(sorted(index.elements), key=index.dimension)
    ordered = sorted(sorted(domain.elements), key=domain.dimension)
    if not index.incidence:
        root = {e: e for e in domain.elements}

        def find(e):
            while root[e] != e:
                e = root[e]
            return e
        for a, b in domain.incidence:
            root[find(a)] = find(b)
        spot: dict[str, str] = {}
        for e in ordered:
            if find(e) not in spot:
                spot[find(e)] = rng.choice(points)
        return SpaceMap(domain, index, {e: spot[find(e)] for e in domain.elements})
    level: dict[str, int] = {}
    for e in ordered:
        floor = max((level[b] for b in domain.down_set(e) - {e}), default=0)
        level[e] = min(floor + rng.randint(0, 1), len(points) - 1)
    return SpaceMap(domain, index, {e: points[k] for e, k in level.items()})


def same_join(fast, slow) -> bool:
    return (fast == slow and serialize_space(fast[0]) == serialize_space(slow[0]))


class TestDenseThetaDifferential:
    """Dense theta makes left ids repeat, so the partner index is exercised."""

    def test_theta_join_matches_selection_from_product(self):
        rng = random.Random(4004)
        for trial in range(60):
            x = random_join_input(rng, "X")
            y = random_join_input(rng, "Y")
            density = 0.0 if trial % 10 == 0 else rng.uniform(0.1, 1.0)
            theta = ThetaRelation((a, b) for a in sorted(x.elements)
                                  for b in sorted(y.elements) if rng.random() < density)
            assert same_join(theta_join(x, y, theta), naive_theta_join(x, y, theta)), trial

    def test_fibre_product_matches_pair_scan(self):
        rng = random.Random(4005)
        for trial in range(60):
            size = rng.randint(1, 5)
            points = [f"i{k}" for k in range(size)]
            chain = [(points[k + 1], points[k]) for k in range(size - 1)]
            index = Space("I", points, chain if trial % 2 else [])
            u = random_continuous_map(rng, random_join_input(rng, "X"), index)
            p = random_continuous_map(rng, random_join_input(rng, "Y"), index)
            assert is_continuous(u) and is_continuous(p)
            assert same_join(fibre_product(u, p), scan_fibre_product(u, p)), trial


class TestFibreProduct:
    def test_macro_placement(self, segment):
        locations = Space("loc", ["p1", "p2"], [])
        index = Space("idx", ["m"], [])
        use = SpaceMap(locations, index, {"p1": "m", "p2": "m"})
        naming = SpaceMap(segment, index, {e: "m" for e in segment.elements})
        placed, left, right = fibre_product(use, naming)
        assert len(placed) == 6
        assert placed.incidence == {
            (pair_id("p1", "e"), pair_id("p1", "v1")),
            (pair_id("p1", "e"), pair_id("p1", "v2")),
            (pair_id("p2", "e"), pair_id("p2", "v1")),
            (pair_id("p2", "e"), pair_id("p2", "v2")),
        }
        assert is_continuous(left) and is_continuous(right)

    def test_pullback_of_identity_is_diagonal(self, space_y):
        ident = identity_map(space_y)
        diag, _, _ = fibre_product(ident, ident)
        assert len(diag) == 4
        assert find_homeomorphism(space_y, diag) is not None

    def test_disjoint_labels_empty(self, segment):
        index = Space("idx", ["m", "n"], [])
        locations = Space("loc", ["p1"], [])
        use = SpaceMap(locations, index, {"p1": "m"})
        naming = SpaceMap(segment, index, {e: "n" for e in segment.elements})
        empty, _, _ = fibre_product(use, naming)
        assert len(empty) == 0

    def test_one_point_index_gives_full_product(self, space_x, space_y):
        index = Space("pt", ["i"], [])
        u = SpaceMap(space_x, index, {e: "i" for e in space_x.elements})
        p = SpaceMap(space_y, index, {e: "i" for e in space_y.elements})
        fibre, _, _ = fibre_product(u, p)
        prod, _, _ = product(space_x, space_y)
        assert fibre == prod.transitive_reduce()

    def test_rejects_discontinuous_input(self, segment):
        swap = SpaceMap(segment, segment, {"e": "v1", "v1": "e", "v2": "v2"})
        with pytest.raises(NotContinuousError) as err:
            fibre_product(swap, identity_map(segment))
        assert err.value.witness == ("e", "v1")

    def test_rejects_codomain_mismatch(self, segment, space_y):
        with pytest.raises(CodomainMismatchError):
            fibre_product(identity_map(segment), identity_map(space_y))


@pytest.mark.parametrize("build", [
    lambda name: ThetaRelation([], left_name=name),
    lambda name: ThetaRelation([], right_name=name),
    lambda name: Partition({}, name)], ids=["theta-left", "theta-right", "partition"])
@pytest.mark.parametrize("name", [5, ["X"], b"X"], ids=["int", "list", "bytes"])
def test_declared_space_name_must_be_a_string(build, name):
    with pytest.raises(UnresolvedReferenceError, match="must be a space name or None"):
        build(name)


class TestEmittedMapsAreContinuous:
    def test_on_random_instances(self):
        rng = random.Random(47)
        for _ in range(15):
            x = random_space(rng, max_elements=5, name="X", min_elements=1)
            y = random_space(rng, max_elements=5, name="Y", min_elements=1)
            emitted = []
            sub, inc = select_subspace(
                x, [e for e in sorted(x.elements) if rng.random() < 0.7])
            emitted.append(inc)
            labels = {e: f"k{rng.randrange(3)}" for e in x.elements}
            _, projection = quotient(x, Partition(labels), on_cycle="collapse")
            emitted.append(projection)
            _, inl, inr = paste_union(x, y)
            emitted += [inl, inr]
            _, jnl, jnr = pullback_intersection(x, y)
            emitted += [jnl, jnr]
            _, pl, pr = product(x, y)
            emitted += [pl, pr]
            pairs = {(rng.choice(sorted(x.elements)), rng.choice(sorted(y.elements)))
                     for _ in range(4)}
            _, tl, tr = theta_join(x, y, ThetaRelation(pairs))
            emitted += [tl, tr]
            for space_map in emitted:
                assert is_continuous(space_map)


def subsets(points) -> list[frozenset]:
    """Every subset of the points."""
    points = sorted(points)
    return [frozenset(p for i, p in enumerate(points) if (mask >> i) & 1)
            for mask in range(1 << len(points))]


def generated_topology(points, family) -> set[frozenset]:
    """The open sets of the topology on the points that the family generates.

    On a finite set the least open set holding a point p is the meet of
    the members that hold p, so a set is open exactly when it holds that
    meet for each of its points.
    """
    points = frozenset(points)
    least = {p: points.intersection(*(s for s in family if p in s)) for p in points}
    return {w for w in subsets(points) if all(least[p] <= w for p in w)}


def pair_topology(result, left, right) -> set[frozenset]:
    """The open sets of a result whose elements are pairs, each open set as the
    pairs its elements project to; every element must be a different pair."""
    pair = {e: (left(e), right(e)) for e in result.elements}
    assert len(set(pair.values())) == len(pair)
    return {frozenset(map(pair.get, w)) for w in enumerate_topology(result)}


def product_topology(x: Space, y: Space) -> set[frozenset]:
    """The open sets of x × y, generated by the sets U × V of open U and V."""
    points = {(a, b) for a in x.elements for b in y.elements}
    return generated_topology(points, [frozenset((a, b) for a in u for b in v)
                                       for u in enumerate_topology(x)
                                       for v in enumerate_topology(y)])


def factors(rng):
    """Two random spaces of at most 7 elements whose product has at most 12."""
    x = random_space(rng, max_elements=7, name="X", min_elements=1)
    y = random_space(rng, max_elements=min(7, 12 // len(x)), name="Y", min_elements=1)
    return x, y


def sharing(rng, name):
    """A random space of at most 7 elements on ids drawn from nine shared ones."""
    ids = rng.sample([f"s{i}" for i in range(9)], rng.randint(1, 7))
    p = rng.uniform(0.1, 0.5)
    return Space(name, ids, [(ids[i], ids[j]) for i in range(len(ids))
                             for j in range(i + 1, len(ids)) if rng.random() < p])


class TestTopologyByDefinition:
    """Each operator's result carries the topology that defines the operator,
    built only from the open sets of the inputs."""

    def test_pullback_intersection(self):
        rng = random.Random(51)
        for _ in range(150):
            x, y = sharing(rng, "X"), sharing(rng, "Y")
            shared = x.elements & y.elements
            expected = generated_topology(
                shared, [u & shared for u in enumerate_topology(x)]
                + [v & shared for v in enumerate_topology(y)])
            result, _, _ = pullback_intersection(x, y)
            assert result.elements == shared
            assert set(enumerate_topology(result)) == expected

    def test_paste_union(self):
        rng = random.Random(52)
        checked = 0
        for _ in range(150):
            x, y = sharing(rng, "X"), sharing(rng, "Y")
            try:
                result, _, _ = paste_union(x, y)
            except CyclicIncidenceError:
                continue
            checked += 1
            open_x, open_y = set(enumerate_topology(x)), set(enumerate_topology(y))
            expected = {w for w in subsets(x.elements | y.elements)
                        if w & x.elements in open_x and w & y.elements in open_y}
            assert set(enumerate_topology(result)) == expected
        assert checked > 100

    def test_product(self):
        rng = random.Random(53)
        for _ in range(60):
            x, y = factors(rng)
            assert pair_topology(*product(x, y)) == product_topology(x, y)

    def test_theta_join(self):
        rng = random.Random(54)
        for _ in range(60):
            x, y = factors(rng)
            density = rng.uniform(0.2, 1.0)
            kept = frozenset((a, b) for a in sorted(x.elements) for b in sorted(y.elements)
                             if rng.random() < density)
            expected = {w & kept for w in product_topology(x, y)}
            assert pair_topology(*theta_join(x, y, ThetaRelation(kept))) == expected

    def test_fibre_product(self):
        rng = random.Random(55)
        for trial in range(60):
            x, y = factors(rng)
            points = [f"i{k}" for k in range(rng.randint(1, 3))]
            index = Space("I", points, list(zip(points[1:], points)) if trial % 2 else [])
            u = random_continuous_map(rng, x, index)
            p = random_continuous_map(rng, y, index)
            kept = frozenset((a, b) for a in x.elements for b in y.elements if u(a) == p(b))
            expected = {w & kept for w in product_topology(x, y)}
            assert pair_topology(*fibre_product(u, p)) == expected


class TestSuccessorsAreTuples:
    """Every space keeps each element's successors as a tuple, whether
    ``Space(...)`` checked it or an operator built it unchecked."""

    def test_repeated_pairs(self):
        space = Space("R", ["a", "b", "c"],
                      [("a", "b"), ["a", "b"], ("b", "c"), ("a", "b"), ["b", "c"]])
        assert space._succ == {"a": ("b",), "b": ("c",), "c": ()}
        assert all(type(s) is tuple for s in space._succ.values())

    def test_operator_results(self, space_x, space_y, theta):
        left = Space("l", ["e1", "v1", "v2"], [("e1", "v1"), ("e1", "v2")])
        right = Space("r", ["e1", "e2", "v2", "v3"], [("e1", "v2"), ("e2", "v2"), ("e2", "v3")])
        chain = Space("c", ["s", "f", "v"], [("s", "f"), ("f", "v"), ("s", "v")])
        reducible = Space("p", ["s", "f", "v"], [("s", "f"), ("f", "v")])
        shortcut = Space("q", ["s", "v"], [("s", "v")])
        merge = Partition.from_classes({"m": ["c", "x"]}, "Y")
        cycle = Partition.from_classes({"k": ["C", "x"]}, "Y")
        point = Space("pt", ["p"])
        u = SpaceMap(space_x, point, {e: "p" for e in space_x.elements})
        p = SpaceMap(space_y, point, {e: "p" for e in space_y.elements})
        results = {
            "select_subspace": select_subspace(space_x, {"B", "a", "e"})[0],
            "quotient": quotient(space_y, merge)[0],
            "quotient, collapse": quotient(space_y, cycle, on_cycle="collapse")[0],
            "paste_union": paste_union(left, right)[0],
            "paste_union, reduced": paste_union(reducible, shortcut)[0],
            "pullback_intersection": pullback_intersection(left, right)[0],
            "product": product(space_x, space_y)[0],
            "theta_join": theta_join(space_x, space_y, theta)[0],
            "fibre_product": fibre_product(u, p)[0],
            "transitive_reduce": chain.transitive_reduce(),
        }
        assert results["transitive_reduce"] is not chain
        for operator, space in results.items():
            assert space._succ.keys() == space.elements, operator
            assert all(type(s) is tuple for s in space._succ.values()), operator
