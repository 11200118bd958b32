"""The small protocol of the record types: membership, length, equality with
other types, repr, and the continuous verdict's description."""

from __future__ import annotations

import pytest

from topodata import (ContinuityResult, Dataset, ForeignKeyConstraint, ParseError, Partition,
                      Space, ThetaRelation, identity_map)
from topodata.io import load_theta, serialize_theta

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
    dataset = Dataset({"seg": SEGMENT}, {"id": RECORDS["map"]},
                      [ForeignKeyConstraint("c", "id", "continuous")])
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
