"""The load path of spaces and maps: error precedence, a seeded
differential test against a reference checker, a walk that runs only to
name a fault, shared id objects, a document released before its space is
built, and output that does not depend on the hash seed.

A loaded space holds one object per element id, and every incidence
endpoint and every map key and value is that object, so dict and set
lookups on ids hit the identity fast path.  None of that may change which
error an input with several faults reports.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
import weakref
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from topodata import (
    CyclicIncidenceError,
    DanglingIncidenceError,
    DuplicateElementError,
    InvalidAttributeError,
    InvalidElementIdError,
    MapTotalityError,
    ParseError,
    Partition,
    SelfLoopError,
    Space,
    SpaceMap,
    UnknownElementError,
    select_subspace,
    validate,
)
from topodata import io
from topodata.cli import main
from topodata.io import (load_dataset, parse_map, parse_space, serialize_map,
                         serialize_partition, serialize_space)
from topodata.space import _walk_checked, check_pairs

from naive import naive_product, naive_quotient, naive_select

ROOT = Path(__file__).resolve().parents[1]
LOD_MANIFEST = ROOT / "demo" / "lod" / "manifest.json"
DEMO_OVERLAY = ROOT / "demo" / "overlay"

SEGMENT = Space("seg", ["e", "v1", "v2"], [("e", "v1"), ("e", "v2")])
POINT = Space("pt", ["p"], [])


def outcome(build):
    """(error type name, message), or ("ok", value)."""
    try:
        return "ok", build()
    except Exception as err:  # the type and message are what is compared
        return type(err).__name__, str(err)


# -- error precedence ------------------------------------------------------------
# Inputs with several faults, and the one error each reports.

SPACE_PRECEDENCE = {
    "malformed entry after a dangling pair": (
        (["a", "b"], [("a", "zz"), ("a",)]),
        InvalidElementIdError, "incidence of 's': entry ('a',) is not a pair of string ids"),
    "non-string endpoint after a self pair": (
        (["a", "b"], [("a", "a"), ["b", 5]]),
        InvalidElementIdError, "incidence of 's': entry ['b', 5] is not a pair of string ids"),
    "self pair on an unknown id": (
        (["a", "b"], [("z", "z")]),
        SelfLoopError, "self pair ('z', 'z') in 's'"),
    "both endpoints dangling": (
        (["a", "b"], [("x", "y")]),
        DanglingIncidenceError, "incidence pair ('x', 'y') in 's' references unknown element 'x'"),
    "second endpoint dangling": (
        (["a", "b"], [("a", "y")]),
        DanglingIncidenceError, "incidence pair ('a', 'y') in 's' references unknown element 'y'"),
    "dangling second endpoint before a dangling first one": (
        (["a", "b"], [("a", "y"), ("x", "b")]),
        DanglingIncidenceError, "incidence pair ('a', 'y') in 's' references unknown element 'y'"),
    "duplicate ids and a dangling pair": (
        (["a", "a", "b"], [("a", "zz")]),
        DuplicateElementError, "duplicate element ids in 's': ['a']"),
    "duplicate ids and a malformed entry": (
        (["b", "a", "b", "a"], [("a",)]),
        DuplicateElementError, "duplicate element ids in 's': ['a', 'b']"),
    "bad id after a duplicate id": (
        (["a", "a", "b c"], [("a",)]),
        InvalidElementIdError, "element id contains whitespace or a comma: 'b c'"),
    "attributes of an unknown element and a dangling pair": (
        (["a", "b"], [("a", "zz")], {"q": {}}),
        DanglingIncidenceError, "incidence pair ('a', 'zz') in 's' references unknown element 'zz'"),
    "attributes that are not a mapping and a self pair": (
        (["a", "b"], [("a", "b"), ("a", "a")], 5),
        SelfLoopError, "self pair ('a', 'a') in 's'"),
    "bad attribute value and a malformed entry": (
        (["a", "b"], ["ab"], {"a": {"k": 1}}),
        InvalidElementIdError, "incidence of 's': entry 'ab' is not a pair of string ids"),
    "repeated pair and then a self pair": (
        (["a", "b"], [("a", "b"), ["a", "b"], ("b", "b")]),
        SelfLoopError, "self pair ('b', 'b') in 's'"),
    "repeated pair and then a dangling pair": (
        (["a", "b"], [["a", "b"], ("a", "b"), ("b", "zz")]),
        DanglingIncidenceError, "incidence pair ('b', 'zz') in 's' references unknown element 'zz'"),
}


@pytest.mark.parametrize("case", sorted(SPACE_PRECEDENCE))
def test_space_error_precedence(case):
    args, kind, message = SPACE_PRECEDENCE[case]
    assert outcome(lambda: Space("s", *args)) == (kind.__name__, message)
    # a one-shot iterator of the same entries reports the same fault
    args = (args[0], iter(args[1]), *args[2:])
    assert outcome(lambda: Space("s", *args)) == (kind.__name__, message)



def test_repeated_pairs_are_held_once():
    # a pair given again, in any form, is merged into its first place
    once = Space("s", ["a", "b", "c"], [("a", "c"), ("a", "b")])
    for given in ([("a", "c"), ["a", "c"], ("a", "b")], [("a", "c"), ("a", "b"), ("a", "c")],
                  [["a", "c"], ("a", "b"), ["a", "b"], ("a", "c")]):
        twice = Space("s", ["a", "b", "c"], given)
        assert twice._succ == {"a": ("c", "b"), "b": (), "c": ()}
        assert twice.incidence == frozenset({("a", "c"), ("a", "b")})
        assert twice == once and hash(twice) == hash(once)
        assert repr(twice) == "Space('s', 3 elements, 2 pairs)"
        assert serialize_space(twice) == serialize_space(once)
        assert twice.transitive_reduce() is twice
    # the file form is read the same way
    text = json.dumps({"name": "s", "elements": [{"id": "a"}, {"id": "b"}],
                       "incidence": [["a", "b"], ["a", "b"]]})
    assert parse_space(text)._succ == {"a": ("b",), "b": ()}

MAP_PRECEDENCE = {
    "malformed entry after an unknown key": (
        [["zz", "e"], ["e"]],
        ParseError, "m.json: map pairs: entry ['e'] is not a pair of string ids"),
    "non-string value after a repeated source": (
        [["e", "e"], ["e", "v1"], ["v2", 5]],
        ParseError, "m.json: map pairs: entry ['v2', 5] is not a pair of string ids"),
    "repeated source and a value outside the codomain": (
        [["e", "zz"], ["e", "e"], ["v1", "v1"], ["v2", "v2"]],
        ParseError, "m.json: map pairs list source ids more than once: ['e']"),
    "missing key and an extra key": (
        [["e", "e"], ["v1", "v1"], ["zz", "v2"]],
        MapTotalityError, "map 'seg' -> 'seg' misses ['v2']"),
    "extra key and a value outside the codomain": (
        [["e", "e"], ["v1", "q"], ["v2", "v2"], ["zz", "q"]],
        UnknownElementError, "map 'seg' -> 'seg' maps unknown keys ['zz']"),
    "values outside the codomain": (
        [["e", "e"], ["v1", "y"], ["v2", "x"]],
        UnknownElementError, "map 'seg' -> 'seg' has values outside the codomain: ['x', 'y']"),
}


@pytest.mark.parametrize("case", sorted(MAP_PRECEDENCE))
def test_map_error_precedence(case):
    pairs, kind, message = MAP_PRECEDENCE[case]
    text = json.dumps({"domain": "seg", "codomain": "seg", "pairs": pairs})
    assert outcome(lambda: parse_map(text, {"seg": SEGMENT}, source="m.json")) == (
        kind.__name__, message)
    # the same pairs given to the library: the file's error, raised as an id error
    if kind is ParseError:
        kind, message = InvalidElementIdError, message.removeprefix("m.json: ")
    assert outcome(lambda: SpaceMap(SEGMENT, SEGMENT, pairs)) == (kind.__name__, message)


# -- differential test against a reference checker ---------------------------------
# The reference checks in the library's order: element ids, duplicates,
# then every entry's shape, then each pair in input order (self pair,
# first endpoint, second endpoint), then attributes.  For maps: entry
# shapes, repeated sources, missing keys, extra keys, outside values.

def reference_space(name, ids, incidence, attributes):
    for e in ids:
        if not isinstance(e, str) or not e:
            raise InvalidElementIdError(f"element id must be a non-empty string, got {e!r}")
        if any(c.isspace() or c == "," for c in e):
            raise InvalidElementIdError(f"element id contains whitespace or a comma: {e!r}")
    dupes = sorted(e for e, n in Counter(ids).items() if n > 1)
    if dupes:
        raise DuplicateElementError(f"duplicate element ids in {name!r}: {dupes}")
    for entry in incidence:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                and all(isinstance(x, str) for x in entry)):
            raise InvalidElementIdError(
                f"incidence of {name!r}: entry {entry!r} is not a pair of string ids")
    for a, b in incidence:
        if a == b:
            raise SelfLoopError(f"self pair ({a!r}, {a!r}) in {name!r}")
        for endpoint in (a, b):
            if endpoint not in ids:
                raise DanglingIncidenceError(
                    f"incidence pair ({a!r}, {b!r}) in {name!r} "
                    f"references unknown element {endpoint!r}")
    for el, kv in attributes.items():
        if el not in ids:
            raise UnknownElementError(f"attributes given for unknown element {el!r} in {name!r}")
        for k, v in kv.items():
            if not isinstance(v, str):
                raise InvalidAttributeError(
                    f"attribute keys and values must be strings: {k!r}={v!r}")
    pairs = frozenset(map(tuple, incidence))
    below = {e: {b for a, b in pairs if a == e} for e in ids}
    for _ in ids:  # the transitive closure, by repeated relaxation
        below = {e: set().union(down, *(below[b] for b in down)) for e, down in below.items()}
    if any(e in down for e, down in below.items()):
        raise CyclicIncidenceError(None)  # its message, a closed walk, is tested in test_kernel
    return frozenset(ids), pairs


def reference_table(domain, codomain, table):
    what = f"map {domain.name!r} -> {codomain.name!r}"
    missing = sorted(set(domain.elements) - set(table))
    if missing:
        raise MapTotalityError(f"{what} misses {missing}")
    extra = sorted(set(table) - set(domain.elements))
    if extra:
        raise UnknownElementError(f"{what} maps unknown keys {extra}")
    bad = sorted((v for v in table.values() if v not in codomain.elements), key=str)
    if bad:
        raise UnknownElementError(f"{what} has values outside the codomain: {bad}")
    return table


def reference_pairs(domain, codomain, pairs):
    for entry in pairs:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                and all(isinstance(x, str) for x in entry)):
            raise InvalidElementIdError(f"map pairs: entry {entry!r} is not a pair of string ids")
    repeated = sorted(a for a, n in Counter(a for a, _ in pairs).items() if n > 1)
    if repeated:
        raise InvalidElementIdError(f"map pairs list source ids more than once: {repeated}")
    return reference_table(domain, codomain, dict(pairs))


def reference_map_pairs(domain, codomain, pairs, source):
    """The pairs of a map file: the library's id error is the file's parse error."""
    try:
        return reference_pairs(domain, codomain, pairs)
    except InvalidElementIdError as err:
        raise ParseError(str(err), source=source) from err


POOL = ["a", "b", "c", "d", "e"]
ODD_IDS = ["", "a b", "a,b", 5, None]
endpoint = st.sampled_from(POOL + ["zz"])
entries = st.one_of(
    st.tuples(endpoint, endpoint),
    st.tuples(endpoint, endpoint).map(list),
    st.sampled_from([("a",), ("a", "b", "c"), "ab", None, ["b", ["c"]], ("a", 5), [5, "zz"]]))


@st.composite
def space_inputs(draw):
    ids = draw(st.lists(st.sampled_from(POOL), unique=True, max_size=5))
    planted = draw(st.sampled_from([None, "odd", "duplicate"] + [None] * 7))
    if planted == "odd":
        ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from(ODD_IDS)))
    elif planted == "duplicate" and ids:
        ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from(ids)))
    # mostly acyclic pairs in list order, with planted faults among them
    forward = [(x, y) for i, x in enumerate(ids) for y in ids[i + 1:] if x != y]
    incidence = draw(st.lists(st.sampled_from(forward), max_size=6)) if forward else []
    for _ in range(draw(st.integers(0, 2))):
        incidence.insert(draw(st.integers(0, len(incidence))), draw(entries))
    attributes = {}
    if draw(st.booleans()):
        key = draw(st.sampled_from(POOL + ["zz"]))
        attributes[key] = {"k": draw(st.sampled_from(["v", 1]))}
    return ids, incidence, attributes


@st.composite
def map_pairs(draw):
    keys = list(SEGMENT.elements)
    pairs = [[k, draw(st.sampled_from(sorted(SEGMENT.elements)))]
             for k in draw(st.permutations(keys))]
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["drop", "repeat", "extra", "value", "shape"]))
        formed = [entry for entry in pairs if isinstance(entry, list) and len(entry) == 2]
        if fault == "drop" and formed:
            pairs.remove(draw(st.sampled_from(formed)))
        elif fault == "repeat" and formed:
            pairs.append([draw(st.sampled_from(formed))[0], "e"])
        elif fault == "extra":
            pairs.append(["zz", draw(st.sampled_from(["e", "q"]))])
        elif fault == "value" and formed:
            draw(st.sampled_from(formed))[1] = draw(st.sampled_from(["q", "p"]))
        elif fault == "shape":
            pairs.insert(draw(st.integers(0, len(pairs))),
                         draw(st.sampled_from([["e"], ["e", 5], "ev", None])))
    return pairs


DIFFERENTIAL = settings(max_examples=300, deadline=None, database=None)


def same(got, expected) -> None:
    assert got[0] == expected[0], (got, expected)
    if got[0] not in ("ok", "CyclicIncidenceError"):
        assert got[1] == expected[1]


@seed(20131008)
@DIFFERENTIAL
@given(space_inputs())
def test_space_constructor_matches_reference(drawn):
    ids, incidence, attributes = drawn
    expected = outcome(lambda: reference_space("s", ids, incidence, attributes))
    got = outcome(lambda: Space("s", ids, incidence, attributes))
    same(got, expected)
    if got[0] == "ok":
        assert (got[1].elements, got[1].incidence) == expected[1]


@seed(20131008)
@DIFFERENTIAL
@given(space_inputs())
def test_parse_space_matches_reference(drawn):
    ids, incidence, attributes = drawn
    doc = {"name": "s",
           "elements": [{"id": e, **({"attrs": attributes[e]} if e in attributes else {})}
                        for e in ids],
           "incidence": incidence}
    # attributes of an element the list lacks cannot be written in a file
    attributes = {e: kv for e, kv in attributes.items() if e in ids}
    text = json.dumps(doc)
    plain = json.loads(text)  # tuples are lists in the file

    def reference():
        try:
            return reference_space("s", [e["id"] for e in plain["elements"]],
                                   plain["incidence"], attributes)
        except (InvalidElementIdError, InvalidAttributeError) as err:
            raise ParseError(str(err), source="s.json") from err

    if not all(isinstance(e, str) for e in ids):
        return  # a non-string id is io's own shape error, outside the constructor
    expected = outcome(reference)
    got = outcome(lambda: parse_space(text, source="s.json"))
    same(got, expected)
    if got[0] == "ok":
        assert (got[1].elements, got[1].incidence) == expected[1]


@seed(20131008)
@DIFFERENTIAL
@given(map_pairs(), st.sampled_from(["seg", "pt"]))
def test_parse_map_matches_reference(pairs, codomain_name):
    spaces = {"seg": SEGMENT, "pt": POINT}
    if codomain_name == "pt":  # the same faults, into a one-point codomain
        pairs = [[entry[0], "p" if entry[1] in SEGMENT.elements else entry[1]]
                 if isinstance(entry, list) and len(entry) == 2 else entry for entry in pairs]
    text = json.dumps({"domain": "seg", "codomain": codomain_name, "pairs": pairs})
    codomain = spaces[codomain_name]
    expected = outcome(lambda: reference_map_pairs(SEGMENT, codomain, pairs, "m.json"))
    got = outcome(lambda: parse_map(text, spaces, source="m.json"))
    same(got, expected)
    if got[0] == "ok":
        assert got[1].mapping == expected[1]
        assert (got[1].domain, got[1].codomain) == (SEGMENT, codomain)


@seed(20131008)
@DIFFERENTIAL
@given(map_pairs())
def test_space_map_matches_reference(pairs):
    table = {entry[0]: entry[1] for entry in pairs if isinstance(entry, list) and len(entry) == 2}
    expected = outcome(lambda: reference_table(SEGMENT, SEGMENT, dict(table)))
    got = outcome(lambda: SpaceMap(SEGMENT, SEGMENT, table))
    same(got, expected)
    if got[0] == "ok":
        assert got[1].mapping == expected[1]
    # the pairs themselves, repeats and malformed entries included, onto the space and
    # onto an operator-built copy, which gets its id table only when a map asks for it
    copy = select_subspace(SEGMENT, SEGMENT.elements)[0]
    for space in (SEGMENT, copy):
        expected = outcome(lambda: reference_map_pairs(space, space, pairs, None))
        if expected[0] == "ParseError":  # the library raises the file's error as an id error
            expected = ("InvalidElementIdError", expected[1])
        got = outcome(lambda: SpaceMap(space, space, pairs))
        same(got, expected)
        if got[0] == "ok":
            assert got[1].mapping == expected[1]
            assert_shared_map(got[1])


# -- inputs in every form; the map-pair walk runs only for a fault ------------------
# ``SpaceMap`` reads map pairs in C loops (``_held_table``) and walks the
# entries only to name the fault of pairs those loops refused.  The inputs
# below come in every form the library accepts:
# lists, tuples and one-shot iterators of 2-lists, 2-tuples and their
# subclasses, whose ids may be str subclasses, with a non-str planted that
# hashes and compares equal to an id.

class Row(list):
    pass


class Couple(tuple):
    pass


class Name(str):
    pass


class Lookalike:
    """Not a str, but equal to one and with its hash: still not an id."""

    def __init__(self, text):
        self.text = text

    def __eq__(self, other):
        return other == self.text

    def __hash__(self):
        return hash(self.text)

    def __repr__(self):
        return f"Lookalike({self.text!r})"


@contextmanager
def counted_walks():
    """A list that gets an entry each time the map-pair walk is entered inside the block."""
    entered = []
    maps = sys.modules["topodata.maps"]
    walk = maps._refuse_pairs

    def counted(*args):
        entered.append(args)
        return walk(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maps, "_refuse_pairs", counted)
        yield entered


@st.composite
def dressed(draw, entries):
    """The entries in a drawn container, each 2-list in a drawn form, with drawn id forms.

    Returns the entries for the library and a list of the same objects for the
    reference, which reads them more than once."""
    def component(x):
        if not isinstance(x, str):
            return x
        return draw(st.sampled_from([x] * 16 + [Name(x)] * 3 + [Lookalike(x)]))

    forms = []
    for entry in entries:
        if isinstance(entry, (list, tuple)) and len(entry) == 2:
            form = draw(st.sampled_from([list, tuple, Row, Couple]))
            entry = form(map(component, entry))
        forms.append(entry)
    container = draw(st.sampled_from(["list", "tuple", "iterator"]))
    given = {"list": list, "tuple": tuple, "iterator": iter}[container](forms)
    return given, forms


@seed(20131009)
@DIFFERENTIAL
@given(st.data())
def test_space_matches_reference_in_every_form(data):
    ids, incidence, attributes = data.draw(space_inputs())
    given_pairs, pairs = data.draw(dressed(incidence))
    expected = outcome(lambda: reference_space("s", ids, pairs, attributes))
    got = outcome(lambda: Space("s", ids, given_pairs, attributes))
    same(got, expected)
    if got[0] == "ok":
        assert (got[1].elements, got[1].incidence) == expected[1]
        assert_shared_space(got[1])


# ``Space(...)`` tests each entry inline, and hands the first entry that test
# refuses, with the rest, to the checked walk (``check_pairs`` and
# ``_walk_checked``).  Both must give what the checked walk gives over every
# entry from the first.  The refused entries include 2-strings, dicts and
# sets of two held ids, which unpack into a pair of ids.
WALK_IDS = ["a", "b", "c", "d", "e"]
WALK_FAULTS = [("a", "zz"), ["zz", "b"], ("zz", "zz"), ("b", "b"), ["c", "c"],
               "ab", "ba", {"a": 1, "b": 2}, frozenset({"c", "d"}), ("a",), ("a", "b", "c"),
               None, 5, ["b", 5], (5, "a"), [["a"], "b"], ("a", Lookalike("b")),
               (Name("a"), "b"), Couple(("a", "c")), Row(["b", "d"])]


def checked_walk(entries) -> dict[str, tuple[str, ...]]:
    """The successors of the ids of ``WALK_IDS`` from the checked walk over
    ``entries`` from the first, each pair held once."""
    held = {e: e for e in WALK_IDS}
    succ = {e: [] for e in WALK_IDS}
    _walk_checked("s", held, succ, check_pairs(entries, "incidence of 's'"))
    return {a: tuple(dict.fromkeys(below)) for a, below in succ.items()}


def test_inline_walk_matches_the_checked_walk():
    rng = random.Random(20131010)
    forward = [(x, y) for i, x in enumerate(WALK_IDS) for y in WALK_IDS[i + 1:]]
    outcomes = Counter()
    for trial in range(3000):
        entries = [rng.choice([tuple, list])(rng.choice(forward))
                   for _ in range(rng.randint(0, 8))]
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            entries.insert(rng.randint(0, len(entries)), rng.choice(WALK_FAULTS))
        given_pairs = rng.choice([list, tuple, iter])(entries)
        expected = outcome(lambda: checked_walk(entries))
        got = outcome(lambda: Space("s", WALK_IDS, given_pairs)._succ)
        assert got == expected, (trial, entries)
        outcomes[expected[0]] += 1
    assert {"ok", "InvalidElementIdError", "SelfLoopError",
            "DanglingIncidenceError"} <= outcomes.keys()


@seed(20131009)
@DIFFERENTIAL
@given(st.data())
def test_space_map_walks_only_for_a_fault(data):
    given_pairs, pairs = data.draw(dressed(data.draw(map_pairs())))
    expected = outcome(lambda: reference_pairs(SEGMENT, SEGMENT, pairs))
    with counted_walks() as entered:
        got = outcome(lambda: SpaceMap(SEGMENT, SEGMENT, given_pairs))
    same(got, expected)
    assert len(entered) == (expected[0] != "ok"), expected
    if got[0] == "ok":
        assert got[1].mapping == expected[1]
        assert_shared_map(got[1])
        # the same table as a mapping, with the lookalike never in it
        assert SpaceMap(SEGMENT, SEGMENT, dict(pairs)).mapping == expected[1]


MAPPING_CASES = {
    "valid": ({"e": "e", "v1": "v1", "v2": "v2"}, "ok", None),
    # equal to an id, but not a str: refused as pairs refuse it
    "lookalike key": ({"e": "e", "v1": "v1", Lookalike("v2"): "v2"}, InvalidElementIdError,
                      "has keys that are not string ids: [Lookalike('v2')]"),
    "lookalike value": ({"e": "e", "v1": "v1", "v2": Lookalike("v2")}, UnknownElementError,
                        "has values outside the codomain: [Lookalike('v2')]"),
    "unknown value": ({"e": "e", "v1": "v1", "v2": "zz"}, UnknownElementError,
                      "has values outside the codomain: ['zz']"),
    "unknown key": ({"e": "e", "v1": "v1", "v2": "v2", "zz": "e"}, UnknownElementError,
                    "maps unknown keys ['zz']"),
    "missing key": ({"e": "e", "v1": "v1"}, MapTotalityError, "misses ['v2']"),
}


@pytest.mark.parametrize("case", sorted(MAPPING_CASES))
def test_space_map_from_a_mapping(case):
    table, kind, message = MAPPING_CASES[case]
    got = outcome(lambda: SpaceMap(SEGMENT, SEGMENT, table))
    if kind == "ok":
        assert got[0] == "ok" and got[1].mapping == table
    else:
        assert got == (kind.__name__, f"map 'seg' -> 'seg' {message}")


def lod_case(tmp_path: Path, seed: int, n: int) -> Path:
    """The benchmark's level-of-detail files for a seed at grid size n, written out."""
    workloads = sys.modules.get("bench_workloads")
    if workloads is None:  # its dataclass needs the module registered
        spec = importlib.util.spec_from_file_location("bench_workloads",
                                                      ROOT / "bench" / "workloads.py")
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    case = workloads.lod_validate(seed, n)
    for name, data in case.files.items():
        (tmp_path / name).write_bytes(data)
    return tmp_path / "manifest.json"


@pytest.mark.parametrize("case", ["demo", "bench 7", "bench 8"])
def test_loading_valid_files_never_walks(case, tmp_path, monkeypatch):
    if case == "demo":
        manifest = LOD_MANIFEST
    else:
        manifest = lod_case(tmp_path, int(case.split()[1]), 8)
    read = []
    check_pairs = sys.modules["topodata.maps"].check_pairs
    monkeypatch.setattr(sys.modules["topodata.maps"], "check_pairs",
                        lambda *args: read.append(args) or check_pairs(*args))
    with counted_walks() as entered:
        dataset = load_dataset(manifest)
        verdicts = [check.ok for check in validate(dataset).checks]
    assert entered == [] and read == []
    assert len(dataset.spaces) == (2 if case == "demo" else 3)
    assert verdicts.count(False) == (0 if case == "demo" else 1)


# -- shared id objects --------------------------------------------------------------

def held(space: Space) -> dict[str, str]:
    """Each element id of the space, keyed by its value, as the object the space holds."""
    return {e: e for e in space.elements}


def assert_shared_space(space: Space) -> None:
    own = held(space)
    for a, b in space.incidence:
        assert own[a] is a and own[b] is b, (space.name, a, b)


def assert_shared_map(space_map: SpaceMap) -> None:
    keys, values = held(space_map.domain), held(space_map.codomain)
    for a, b in space_map.mapping.items():
        assert keys[a] is a and values[b] is b, (a, b)


def test_loaded_ids_are_the_element_objects():
    dataset = load_dataset(LOD_MANIFEST)
    assert dataset.spaces and dataset.maps
    for space in dataset.spaces.values():
        assert_shared_space(space)
    for space_map in dataset.maps.values():
        assert_shared_map(space_map)


def test_map_parsed_onto_an_operator_result_shares_its_ids():
    sub, _ = select_subspace(SEGMENT, ["e", "v1"])  # built unchecked, with no id table yet
    text = json.dumps({"domain": "seg", "codomain": "pt", "pairs": [["e", "p"], ["v1", "p"]]})
    space_map = parse_map(text, {"seg": sub, "pt": POINT})
    assert_shared_map(space_map)
    assert space_map == SpaceMap(sub, POINT, {"e": "p", "v1": "p"})
    # pairs given to the library directly, with a copy of an id, share them too
    copy = "".join(["v", "1"])
    assert held(sub)["v1"] is not copy
    direct = SpaceMap(sub, POINT, [("e", "p"), (copy, "p")])
    assert_shared_map(direct)
    assert direct == space_map


def test_constructor_shares_ids_given_as_copies():
    ids = ["face", "edge"]
    space = Space("s", ids, [("".join(["fa", "ce"]), "".join(["ed", "ge"]))])
    assert_shared_space(space)
    assert space == Space("s", ids, [("face", "edge")])


def test_a_space_equals_itself_without_comparing_contents():
    class Uncomparable:
        def __eq__(self, other):
            raise AssertionError("contents compared")

    space = Space("s", ["a"])
    space.elements = Uncomparable()
    assert space == space and not space != space



# -- what loading releases ------------------------------------------------------------

class Listed(list):
    """A list that a weakref can follow."""


def test_a_space_document_is_released_before_the_space_is_built(monkeypatch):
    entries = [{"id": "e", "attrs": {"k": "v"}}, {"id": "v1"}, {"id": "v2"}]
    pairs = [["e", "v1"], ["e", "v2"], ["e", "v1"]]
    doc = {"name": "seg", "elements": Listed(entries), "incidence": Listed(pairs)}
    refs = [weakref.ref(doc["elements"]), weakref.ref(doc["incidence"])]
    alive = []
    build = Space._build

    def recording(self, *args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return build(self, *args, **kwargs)

    monkeypatch.setattr(Space, "_build", recording)
    space = io._space_of(doc, "<space>")
    monkeypatch.undo()
    # the entries went before the walk, the pairs with the end of the walk
    assert alive == [[False, False]]
    assert space == Space("seg", ["e", "v1", "v2"], pairs, {"e": {"k": "v"}})


# -- the same output under every hash seed --------------------------------------------

CYCLIC_SPACE = {"name": "ring", "elements": [{"id": i} for i in "abcdef"],
                "incidence": [["b", "c"], ["a", "b"], ["e", "f"], ["c", "a"], ["f", "d"],
                              ["d", "e"], ["a", "d"]]}

# a small cad_extrude: a square extruded along two segments, and two 8-deep chains
# with skip edges reduced, thinned and intersected; elements listed out of order
CAD_FILES = {
    "grid.json": {"name": "G", "elements": [{"id": i} for i in
                                            ("v3", "e2", "F", "v1", "e4", "v2", "e1", "e3", "v4")],
                  "incidence": [["F", "e3"], ["F", "e1"], ["e1", "v1"], ["e1", "v2"],
                                ["F", "e2"], ["e2", "v2"], ["e2", "v3"], ["e3", "v3"],
                                ["e3", "v4"], ["F", "e4"], ["e4", "v4"], ["e4", "v1"]]},
    "seg.json": {"name": "S", "elements": [{"id": i} for i in ("s3", "s0", "s4", "s2", "s1")],
                 "incidence": [["s3", "s4"], ["s1", "s0"], ["s3", "s2"], ["s1", "s2"]]},
    "chain.json": {"name": "C", "elements": [{"id": f"k{i}"} for i in (5, 2, 7, 0, 3, 6, 1, 4)],
                   "incidence": [[f"k{i}", f"k{i + 1}"] for i in (6, 2, 0, 4, 1, 5, 3)]
                   + [["k0", "k3"], ["k4", "k7"], ["k2", "k6"]]},
    "chain2.json": {"name": "D", "elements": [{"id": f"k{i}"} for i in (3, 7, 1, 5, 0, 4, 6, 2)],
                    "incidence": [[f"k{i}", f"k{i + 1}"] for i in (3, 0, 5, 2, 6, 1, 4)]
                    + [["k1", "k5"], ["k3", "k6"]]},
}
CAD_EMITTED = ["P", "P.pleft", "P.pright", "R", "K", "K.inc", "I", "I.inl", "I.inr"]
CAD_SCRIPT = ('load G "grid.json"\nload S "seg.json"\nload C "chain.json"\n'
              'load D "chain2.json"\nlet P = product(G, S)\ncheck continuous P.pleft\n'
              "check continuous P.pright\ndim P\nlet R = reduce(C)\n"
              "let K = select(C, k0, k2, k4, k6)\nlet I = intersect(C, D)\ndim R\ndim K\ndim I\n"
              + "".join(f'emit {name} "out/{name}.json"\n' for name in CAD_EMITTED))

# quotients of derived spaces of the overlay demo: a subspace, which keeps its
# source's name, and a product; each partition lists some ids of the space
DERIVED_QUOTIENTS = {
    "select": ('load X "x.json"\nlet S = select(X, a, p, q)\n',
               {"space": "X", "classes": [{"label": "m", "members": ["a", "p"]}]}),
    "product": ('load X "x.json"\nload Y "y.json"\nlet S = product(X, Y)\n',
                {"space": "X×Y",
                 "classes": [{"label": "m", "members": ["a×b", "p×b", "a×x"]}]}),
}
QUOTIENT_OF_S = ('let Q = quotient(S, P)\nemit Q "out/Q.json"\nemit Q.proj "out/Q.proj.json"\n'
                 'emit P "out/P.json"\n')


def test_output_is_independent_of_the_hash_seed(tmp_path, capsys):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(CYCLIC_SPACE), encoding="utf-8")
    # the demo dataset with its broken map checked for continuity, so a witness is chosen
    strict = tmp_path / "strict.json"
    manifest = json.loads(LOD_MANIFEST.read_text(encoding="utf-8"))
    manifest["spaces"] = [str(LOD_MANIFEST.parent / rel) for rel in manifest["spaces"]]
    manifest["maps"] = [str(LOD_MANIFEST.parent / rel) for rel in manifest["maps"]]
    manifest["constraints"][1]["mode"] = "continuous"
    strict.write_text(json.dumps(manifest), encoding="utf-8")
    # a map file with two faults: a repeated source and a value outside the codomain
    faulty = tmp_path / "faulty"
    faulty.mkdir()
    (faulty / "seg.json").write_text(json.dumps(
        {"name": "seg", "elements": [{"id": e} for e in ("e", "v1", "v2")],
         "incidence": [["e", "v1"], ["e", "v2"]]}), encoding="utf-8")
    (faulty / "m.json").write_text(json.dumps(
        {"domain": "seg", "codomain": "seg",
         "pairs": [["e", "zz"], ["e", "e"], ["v1", "v1"], ["v2", "v2"]]}), encoding="utf-8")
    (faulty / "manifest.json").write_text(json.dumps(
        {"spaces": ["seg.json"], "maps": ["m.json"],
         "constraints": [{"name": "c", "map": "m"}]}), encoding="utf-8")
    overlay = tmp_path / "overlay"
    shutil.copytree(DEMO_OVERLAY, overlay, ignore=shutil.ignore_patterns("out"))
    # a theta with two unknown left ids, and a partition with two labels that are not ids
    (overlay / "unknown.json").write_text(json.dumps(
        {"left": "X", "right": "Y", "pairs": [["zz", "C"], ["qq", "C"], ["A", "C"]]}),
        encoding="utf-8")
    (overlay / "unknown.topo").write_text(
        'load X "x.json"\nload Y "y.json"\nload T "unknown.json"\nlet J = theta_join(X, Y, T)\n',
        encoding="utf-8")
    (overlay / "spaced.json").write_text(json.dumps(
        {"space": "Y", "classes": [{"label": "c d", "members": ["b"]},
                                   {"label": "a b", "members": ["c", "x"]}]}), encoding="utf-8")
    (overlay / "spaced.topo").write_text(
        'load Y "y.json"\nload P "spaced.json"\nlet Q = quotient(Y, P)\n', encoding="utf-8")
    # the cad script emits into the same out/ folder, which is read after every command
    for name, doc in CAD_FILES.items():
        (overlay / name).write_text(json.dumps(doc), encoding="utf-8")
    (overlay / "cad.topo").write_text(CAD_SCRIPT, encoding="utf-8")
    for op, (head, doc) in DERIVED_QUOTIENTS.items():
        (overlay / f"{op}_part.json").write_text(json.dumps(doc), encoding="utf-8")
        (overlay / f"{op}_quotient.topo").write_text(
            f'{head}load P "{op}_part.json"\n{QUOTIENT_OF_S}', encoding="utf-8")
    commands = {"validate": ["validate", str(LOD_MANIFEST)],
                "validate strict": ["validate", str(strict)],
                "validate two faults": ["validate", str(faulty / "manifest.json")],
                "run overlay": ["run", str(overlay / "overlay.topo")],
                "run unknown theta ids": ["run", str(overlay / "unknown.topo")],
                "run spaced labels": ["run", str(overlay / "spaced.topo")],
                "run cad": ["run", str(overlay / "cad.topo")],
                "run quotient of select": ["run", str(overlay / "select_quotient.topo")],
                "run quotient of product": ["run", str(overlay / "product_quotient.topo")],
                "dim": ["dim", str(ring)]}

    def take_emitted():
        """The files a run emitted, removed so that the next run writes them anew."""
        emitted = tuple((p.name, p.read_bytes()) for p in sorted(overlay.glob("out/*")))
        shutil.rmtree(overlay / "out", ignore_errors=True)
        return emitted

    seen = {name: set() for name in commands}
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
        for name, command in commands.items():
            done = subprocess.run([sys.executable, "-m", "topodata.cli", *command],
                                  env=env, capture_output=True, text=True, timeout=60)
            seen[name].add((done.returncode, done.stdout, done.stderr, take_emitted()))
    assert {name: len(runs) for name, runs in seen.items()} == dict.fromkeys(commands, 1)
    # the process entry adds and drops nothing: every spawned run equals main() in process
    for name, command in commands.items():
        code = main(command)
        out, err = capsys.readouterr()
        assert seen[name] == {(code, out, err, take_emitted())}, name
    (code, out, err, _), = seen["validate"]
    assert (code, err) == (0, "")
    assert out.splitlines() == ["PASS lod_reference (continuous)", "PASS legacy_reference (plain)"]
    (code, out, err, _), = seen["validate strict"]
    assert (code, err) == (1, "") and "FAIL legacy_reference (continuous): witness" in out
    (code, out, err, _), = seen["validate two faults"]
    assert (code, out) == (2, "")
    assert err == f"error: {faulty / 'm.json'}: map pairs list source ids more than once: ['e']\n"
    (code, out, err, emitted), = seen["run overlay"]
    assert (code, err) == (0, "") and out
    assert emitted == tuple((p.name, p.read_bytes()) for p in sorted(DEMO_OVERLAY.glob("out/*")))
    (code, out, err, _), = seen["run unknown theta ids"]
    assert (code, out, err) == (2, "", "error: line 4: theta left id 'qq' is not in 'X'\n")
    (code, out, err, _), = seen["run spaced labels"]
    assert (code, out) == (2, "")
    assert err == "error: line 3: element id contains whitespace or a comma: 'a b'\n"
    (code, out, err, emitted), = seen["run cad"]
    assert (code, err) == (0, "")
    assert out.splitlines()[:7] == ["check continuous P.pleft: PASS",
                                    "check continuous P.pright: PASS", "dim P = 3",
                                    "dim R = 7", "dim K = 3", "dim I = 7",
                                    "emit P -> out/P.json"]
    assert [name for name, _ in emitted] == sorted(f"{name}.json" for name in CAD_EMITTED)
    (code, out, err, _), = seen["dim"]
    assert code == 2 and out == "" and "has a cycle" in err
    x, y = (parse_space((DEMO_OVERLAY / f).read_text(encoding="utf-8"))
            for f in ("x.json", "y.json"))
    derived = {"select": naive_select(x, ["a", "p", "q"])[0], "product": naive_product(x, y)[0]}
    for op, (_, doc) in DERIVED_QUOTIENTS.items():
        (code, out, err, emitted), = seen[f"run quotient of {op}"]
        assert (code, err) == (0, "")
        listed = {m: c["label"] for c in doc["classes"] for m in c["members"]}
        space = derived[op]
        result, projection = naive_quotient(space, {e: listed.get(e, e) for e in space.elements})
        expected = (("P.json", serialize_partition(Partition(listed, doc["space"]))),
                    ("Q.json", serialize_space(result)), ("Q.proj.json", serialize_map(projection)))
        assert emitted == tuple((name, text.encode()) for name, text in expected)
