"""Foreign key constraints over a dataset, plain and continuous modes."""

from __future__ import annotations

import pytest

from topodata import (
    Dataset,
    DomainMismatchError,
    ForeignKeyConstraint,
    InvalidOptionError,
    Partition,
    Space,
    SpaceMap,
    UnresolvedReferenceError,
    quotient,
    validate,
    validate_chain,
)


@pytest.fixture
def lod_dataset(segment):
    point = Space("pt", ["P"], [])
    constant = SpaceMap(segment, point, {e: "P" for e in segment.elements})
    swap = SpaceMap(segment, segment, {"e": "v1", "v1": "e", "v2": "v2"})
    dataset = Dataset()
    dataset.add_space(segment)
    dataset.add_space(point)
    dataset.add_map("part_of", constant)
    dataset.add_map("swap", swap)
    return dataset


class TestValidate:
    def test_constant_reference_is_continuous(self, lod_dataset):
        lod_dataset.constraints.append(
            ForeignKeyConstraint("lod_reference", "part_of", "continuous"))
        report = validate(lod_dataset)
        assert report.ok
        assert report.checks[0].line() == "PASS lod_reference (continuous)"

    def test_broken_reference_reports_witness(self, lod_dataset):
        lod_dataset.constraints.append(
            ForeignKeyConstraint("bad_reference", "swap", "continuous"))
        report = validate(lod_dataset)
        assert not report.ok
        check = report.checks[0]
        assert check.witness == ("e", "v1")
        assert check.image == ("v1", "e")
        # the witness is re-checkable on its own
        swap = lod_dataset.maps["swap"]
        a, b = check.witness
        assert not swap.codomain.in_preorder(swap(a), swap(b))

    def test_plain_mode_only_checks_integrity(self, lod_dataset):
        lod_dataset.constraints.append(
            ForeignKeyConstraint("staged_reference", "swap", "plain"))
        assert validate(lod_dataset).ok

    def test_missing_map(self, lod_dataset):
        lod_dataset.constraints.append(
            ForeignKeyConstraint("ghost", "nope", "continuous"))
        with pytest.raises(UnresolvedReferenceError):
            validate(lod_dataset)

    def test_map_space_must_be_catalogued(self, segment):
        point = Space("pt", ["P"], [])
        dataset = Dataset()
        dataset.add_space(segment)
        dataset.add_map("out", SpaceMap(segment, point,
                                        {e: "P" for e in segment.elements}))
        dataset.constraints.append(ForeignKeyConstraint("c", "out"))
        with pytest.raises(UnresolvedReferenceError):
            validate(dataset)

    def test_order_matches_declaration(self, lod_dataset):
        lod_dataset.constraints += [
            ForeignKeyConstraint("one", "part_of"),
            ForeignKeyConstraint("two", "swap", "plain"),
        ]
        report = validate(lod_dataset)
        assert [c.name for c in report.checks] == ["one", "two"]

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            ForeignKeyConstraint("c", "m", "sometimes")

    def test_invalid_mode_is_option_error(self):
        with pytest.raises(InvalidOptionError, match="sometimes"):
            ForeignKeyConstraint("c", "m", "sometimes")


class TestValidateChain:
    def test_single_link(self, lod_dataset):
        report = validate_chain(lod_dataset, ["part_of"])
        assert report.ok
        assert [s.space_name for s in report.stages] == ["seg", "pt"]

    def test_two_quotient_steps(self, space_y):
        first, proj1 = quotient(space_y, Partition.from_classes({"m": ["c", "x"]}, space_y.name))
        second, proj2 = quotient(first, Partition.from_classes({"k": ["b", "m"]}, first.name))
        dataset = Dataset(spaces={s.name: s for s in (space_y, first, second)},
                          maps={"step1": proj1, "step2": proj2})
        report = validate_chain(dataset, ["step1", "step2"])
        assert report.ok
        assert len(report.stages) == 3
        assert report.stages[0].dimensions == ((0, 1), (1, 2), (2, 1))
        assert report.lines() == ["stage Y: 0:1 1:2 2:1", "stage Y/~: 0:1 1:1 2:1",
                                  "stage Y/~/~: 0:1 1:1",
                                  "PASS link[0] step1 (continuous)",
                                  "PASS link[1] step2 (continuous)"]

    def test_broken_link_identified(self, lod_dataset):
        point = lod_dataset.spaces["pt"]
        segment = lod_dataset.spaces["seg"]
        lod_dataset.add_map("up", SpaceMap(point, segment, {"P": "e"}))
        report = validate_chain(lod_dataset, ["swap", "part_of"])
        assert not report.ok
        failing = [c for c in report.checks if not c.ok]
        assert failing and failing[0].name.startswith("link[0]")

    def test_composability_required(self, lod_dataset):
        with pytest.raises(DomainMismatchError):
            validate_chain(lod_dataset, ["part_of", "part_of"])

    def test_foreign_map_refused_as_validate_refuses_it(self):
        s, t = Space("s", ["a"]), Space("t", ["b"])
        dataset = Dataset({"s": s}, {"m": SpaceMap(s, t, {"a": "b"})})
        dataset.constraints.append(ForeignKeyConstraint("c", "m"))
        message = "map 'm' uses space 't' which is not in the dataset"
        with pytest.raises(UnresolvedReferenceError, match=message):
            validate(dataset)
        with pytest.raises(UnresolvedReferenceError, match=message):
            validate_chain(dataset, ["m"])

    def test_one_check_per_link(self, lod_dataset):
        report = validate_chain(lod_dataset, ["swap", "swap"])
        names = [c.name for c in report.checks]
        assert names == ["link[0] swap", "link[1] swap"]
