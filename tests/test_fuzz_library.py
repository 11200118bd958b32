"""Fuzzing of the library constructors and queries: each one answers or raises a TopologyError.

The data arguments of ``Space``, ``SpaceMap``, ``Partition``,
``Partition.from_classes`` and ``ThetaRelation``, and the id arguments
of the query methods, are arbitrary Python values: scalars, element ids
of a small space, strings with whitespace or the pair-id separator, and
lists, tuples, sets and dicts of those.  Any other exception, a
``TypeError`` or ``AttributeError`` from inside the library included, is
a defect.  The space arguments themselves are real spaces.
"""

from __future__ import annotations

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from topodata import (
    Dataset,
    Partition,
    Space,
    SpaceMap,
    ThetaRelation,
    TopologyError,
    identity_map,
)

FUZZ = settings(max_examples=100, deadline=None, database=None)

SEGMENT = Space("seg", ["e", "v1", "v2"], [("e", "v1"), ("e", "v2")])
IDS = ["e", "v1", "v2", "zz", "", "a b", "a,b", "e×v1", "seg"]
IDENTITY = identity_map(SEGMENT)
DATASET = Dataset()
DATASET.add_space(SEGMENT)
DATASET.add_map("seg", IDENTITY)

hashables = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                      st.sampled_from(IDS), st.text(max_size=4), st.binary(max_size=3))
values = st.recursive(
    hashables,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.frozensets(hashables, max_size=4),
        st.dictionaries(hashables, inner, max_size=4)),
    max_leaves=12)


def builds_or_refuses(build) -> None:
    try:
        build()
    except TopologyError:
        pass


@seed(20131008)
@FUZZ
@given(name=values, elements=values, incidence=values, attributes=values)
def test_space(name, elements, incidence, attributes):
    builds_or_refuses(lambda: Space(name, elements, incidence, attributes))


@seed(20131008)
@FUZZ
@given(table=values)
def test_space_map(table):
    builds_or_refuses(lambda: SpaceMap(SEGMENT, SEGMENT, table))


@seed(20131008)
@FUZZ
@given(classes=values, space_name=values)
def test_partition(classes, space_name):
    builds_or_refuses(lambda: Partition(classes, space_name))


@seed(20131008)
@FUZZ
@given(labelled=values, space_name=values)
def test_partition_from_classes(labelled, space_name):
    builds_or_refuses(lambda: Partition.from_classes(labelled, space_name))


@seed(20131008)
@FUZZ
@given(pairs=values, left_name=values, right_name=values)
def test_theta_relation(pairs, left_name, right_name):
    builds_or_refuses(lambda: ThetaRelation(pairs, left_name, right_name))


# Queries that take one id answer only for an id of the space (or a map
# name of the dataset); anything else must raise, never answer False.
ID_QUERIES = {
    "down_set": (SEGMENT.down_set, SEGMENT.elements),
    "up_set": (SEGMENT.up_set, SEGMENT.elements),
    "dimension": (SEGMENT.dimension, SEGMENT.elements),
    "in_preorder_first": (lambda v: SEGMENT.in_preorder(v, "e"), SEGMENT.elements),
    "in_preorder_second": (lambda v: SEGMENT.in_preorder("e", v), SEGMENT.elements),
    "SpaceMap.__call__": (IDENTITY, SEGMENT.elements),
    "Dataset.resolve_map": (DATASET.resolve_map, DATASET.maps.keys()),
}


@seed(20131008)
@FUZZ
@given(value=values)
def test_queries(value):
    for subset_query in (SEGMENT.closure, SEGMENT.star, SEGMENT.is_open):
        builds_or_refuses(lambda: subset_query(value))
    for name, (query, known) in ID_QUERIES.items():
        try:
            query(value)
        except TopologyError:
            continue
        assert isinstance(value, str) and value in known, (name, value)
