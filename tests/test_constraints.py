"""Foreign key constraints over a dataset, plain and continuous modes."""

from __future__ import annotations

import random
from functools import reduce

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
    compose,
    oracle_is_continuous,
    quotient,
    validate,
)

from conftest import random_space, random_total_map


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

    @pytest.mark.parametrize("name, message", [
        (5, "constraint name must be a string, got 5"),
        ("c\nPASS", "constraint name must be one line, got 'c\\\\nPASS'")])
    def test_name_is_one_line_of_text(self, name, message):
        with pytest.raises(UnresolvedReferenceError, match=message):
            ForeignKeyConstraint(name, "m")


class TestValidateChain:
    def test_single_link(self, lod_dataset):
        lod_dataset.chains.append(("lod", ("part_of",)))
        report = validate(lod_dataset)
        assert report.ok
        assert [s.space_name for s in report.stages] == ["seg", "pt"]
        assert report.lines() == ["stage seg: 0:2 1:1", "stage pt: 0:1",
                                  "PASS lod link[0] part_of (continuous)"]

    def test_two_quotient_steps(self, space_y):
        first, proj1 = quotient(space_y, Partition.from_classes({"m": ["c", "x"]}, space_y.name))
        second, proj2 = quotient(first, Partition.from_classes({"k": ["b", "m"]}, first.name))
        dataset = Dataset()
        for s in (space_y, first, second):
            dataset.add_space(s)
        dataset.add_map("step1", proj1)
        dataset.add_map("step2", proj2)
        dataset.chains.append(("coarsen", ("step1", "step2")))
        report = validate(dataset)
        assert report.ok
        assert len(report.stages) == 3
        assert report.stages[0].dimensions == ((0, 1), (1, 2), (2, 1))
        assert report.lines() == ["stage Y: 0:1 1:2 2:1", "stage Y/~: 0:1 1:1 2:1",
                                  "stage Y/~/~: 0:1 1:1",
                                  "PASS coarsen link[0] step1 (continuous)",
                                  "PASS coarsen link[1] step2 (continuous)"]

    def test_broken_link_identified(self, lod_dataset):
        lod_dataset.chains.append(("walk", ("swap", "part_of")))
        report = validate(lod_dataset)
        assert not report.ok
        failing = [c for c in report.checks if not c.ok]
        assert [c.name for c in failing] == ["walk link[0] swap"]
        assert failing[0].line() == "FAIL walk link[0] swap (continuous): witness (e,v1) -> (v1,e)"
        swap = lod_dataset.maps["swap"]
        a, b = failing[0].witness
        assert not swap.codomain.in_preorder(swap(a), swap(b))

    def test_composability_required(self, lod_dataset):
        lod_dataset.chains.append(("twice", ("part_of", "part_of")))
        with pytest.raises(DomainMismatchError,
                           match="chain 'twice' breaks between 'pt' and 'seg'"):
            validate(lod_dataset)

    def test_foreign_map_refused_as_validate_refuses_it(self):
        s, t = Space("s", ["a"]), Space("t", ["b"])
        message = "map 'm' uses space 't' which is not in the dataset"
        for declare in (lambda d: d.constraints.append(ForeignKeyConstraint("c", "m")),
                        lambda d: d.chains.append(("chain", ("m",)))):
            dataset = Dataset()
            dataset.add_space(s)
            dataset.add_map("m", SpaceMap(s, t, {"a": "b"}))
            declare(dataset)
            with pytest.raises(UnresolvedReferenceError, match=message):
                validate(dataset)

    def test_one_check_per_link(self, lod_dataset):
        lod_dataset.constraints.append(ForeignKeyConstraint("ref", "part_of"))
        lod_dataset.chains.append(("loop", ("swap", "swap")))
        report = validate(lod_dataset)
        names = [c.name for c in report.checks]
        assert names == ["ref", "loop link[0] swap", "loop link[1] swap"]

    def test_random_chains_agree_with_the_oracle(self):
        rng = random.Random(25)
        composed = 0
        for _ in range(300):
            length = rng.randint(2, 3)
            spaces = [random_space(rng, max_elements=6, name=f"S{i}", min_elements=1)
                      for i in range(length + 1)]
            maps = [random_total_map(rng, x, y) for x, y in zip(spaces, spaces[1:])]
            dataset = Dataset()
            for s in spaces:
                dataset.add_space(s)
            for i, f in enumerate(maps):
                dataset.add_map(f"f{i}", f)
            dataset.chains.append(("c", tuple(dataset.maps)))
            report = validate(dataset)
            assert [stage.space_name for stage in report.stages] == [s.name for s in spaces]
            for i, (check, f) in enumerate(zip(report.checks, maps, strict=True)):
                assert check.name == f"c link[{i}] f{i}"
                assert check.ok == oracle_is_continuous(f)
                if not check.ok:
                    a, b = check.witness
                    assert f.domain.in_preorder(a, b)
                    assert check.image == (f(a), f(b))
                    assert not f.codomain.in_preorder(f(a), f(b))
            if report.ok:
                composed += 1
                assert oracle_is_continuous(reduce(lambda g, f: compose(f, g), maps))
        assert composed >= 50
