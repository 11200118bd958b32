"""The small protocol of the record types: membership, length, equality with
other types, repr, the continuous verdict's description, and equality that
matches the serialized form."""

from __future__ import annotations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from topodata import (ContinuityResult, Dataset, ForeignKeyConstraint, ParseError, Partition,
                      Space, SpaceMap, ThetaRelation, identity_map)
from topodata.io import (load_theta, parse_map, parse_partition, parse_space, parse_theta,
                         serialize_map, serialize_partition, serialize_space, serialize_theta)

SEGMENT = Space("seg", ["e", "v1", "v2"], [("e", "v1"), ("e", "v2")])


class EqualToAll:
    """Equal to anything, so a comparison that defers to it answers True."""

    def __eq__(self, other):
        return True


RECORDS = {
    "space": SEGMENT,
    "map": identity_map(SEGMENT),
    "partition": Partition({"v1": "v", "v2": "v"}, "seg"),
    "theta": ThetaRelation([("e", "v1"), ("v2", "v1")], "seg", "seg"),
}


def test_membership_and_length():
    assert "v1" in SEGMENT and "zz" not in SEGMENT
    assert len(SEGMENT) == 3
    assert len(RECORDS["theta"]) == 2


@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS.keys())
def test_equality_with_another_type_defers_to_it(record):
    # NotImplemented hands the comparison to the other operand
    assert record == EqualToAll()
    assert record != 5 and not record == "seg"


def test_reprs():
    dataset = Dataset()
    dataset.add_space(SEGMENT)
    dataset.add_map("id", RECORDS["map"])
    dataset.constraints.append(ForeignKeyConstraint("c", "id", "continuous"))
    assert [repr(r) for r in (*RECORDS.values(), dataset)] == [
        "Space('seg', 3 elements, 2 pairs)",
        "SpaceMap('seg' -> 'seg', 3 entries)",
        "Partition(2 elements, 1 classes)",
        "ThetaRelation(2 pairs)",
        "Dataset(1 spaces, 1 maps, 1 constraints)"]


def test_continuous_verdict_describes_itself():
    assert ContinuityResult(True).describe() == "continuous"
    failed = ContinuityResult(False, ("e", "v1"), ("v1", "e"))
    assert failed.describe() == "witness (e,v1) -> (v1,e)"


def test_load_theta(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(serialize_theta(RECORDS["theta"]), encoding="utf-8")
    loaded = load_theta(path)
    assert (loaded, loaded.left_name, loaded.right_name) == (RECORDS["theta"], "seg", "seg")
    path.write_text('{"left": "seg"}', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_theta(path)
    assert str(err.value) == f"{path}: missing field 'right'"


# -- equal records behave the same ------------------------------------------------------
# A record read back from its file is equal to it, and two theta relations
# or partitions are equal exactly when their files are: a declared name
# counts, and a partition entry e -> e, which only restates the default,
# does not.

NAMES = st.sampled_from(["s", "t"])
IDS = ["a", "b", "c"]
ID = st.sampled_from(IDS)


@st.composite
def spaces(draw, name=NAMES, min_size=0):
    ids = draw(st.lists(ID, unique=True, min_size=min_size))
    forward = [(x, y) for i, x in enumerate(ids) for y in ids[i + 1:]]
    incidence = draw(st.lists(st.sampled_from(forward), unique=True)) if forward else []
    attributes = {e: {"k": draw(st.sampled_from(["u", "v"]))} for e in ids if draw(st.booleans())}
    return Space(draw(name), ids, incidence, attributes)


@st.composite
def maps(draw):
    domain = draw(spaces(st.just("s")))
    codomain = domain if draw(st.booleans()) else draw(spaces(st.just("t"), min_size=1))
    targets = st.sampled_from(sorted(codomain.elements))
    return SpaceMap(domain, codomain, {e: draw(targets) for e in sorted(domain.elements)})


thetas = st.builds(ThetaRelation, st.lists(st.tuples(ID, ID)), NAMES, NAMES)
partitions = st.builds(Partition, st.dictionaries(ID, st.sampled_from(IDS + ["m"])), NAMES)

ROUND_TRIPS = {
    "space": (spaces(), lambda x: parse_space(serialize_space(x))),
    "map": (maps(), lambda f: parse_map(serialize_map(f), {f.domain.name: f.domain,
                                                           f.codomain.name: f.codomain})),
    "theta": (thetas, lambda x: parse_theta(serialize_theta(x))),
    "partition": (partitions, lambda x: parse_partition(serialize_partition(x))),
}
WRITERS = {"theta": (thetas, serialize_theta), "partition": (partitions, serialize_partition)}
PROPERTY = settings(max_examples=200, deadline=None, database=None)


@pytest.mark.parametrize("kind", sorted(ROUND_TRIPS))
@seed(20131008)
@PROPERTY
@given(data=st.data())
def test_a_record_read_back_from_its_file_is_equal(kind, data):
    records, round_trip = ROUND_TRIPS[kind]
    record = data.draw(records)
    assert round_trip(record) == record


@pytest.mark.parametrize("kind", sorted(WRITERS))
@seed(20131008)
@PROPERTY
@given(data=st.data())
def test_records_are_equal_exactly_when_their_files_are(kind, data):
    records, write = WRITERS[kind]
    x, y = data.draw(records), data.draw(records)
    assert (x == y) == (write(x) == write(y))
