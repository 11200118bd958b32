"""File formats: round trips, canonical form, parse diagnostics."""

from __future__ import annotations

import json
import random
import re
import tracemalloc

import pytest

from topodata import (
    DanglingIncidenceError,
    ParseError,
    Partition,
    Space,
    SpaceMap,
    ThetaRelation,
    UnresolvedReferenceError,
    quotient,
)
import topodata.io
from topodata.io import (
    detect_kind,
    load_dataset,
    parse_document,
    parse_map,
    parse_partition,
    parse_space,
    parse_theta,
    read_text,
    serialize_map,
    serialize_partition,
    serialize_space,
    serialize_theta,
    write_document,
)

from test_kernel import random_dag, trusted_results, with_attributes
from test_tools import load_tool


class TestSpaceFiles:
    def test_round_trip(self, space_x):
        assert parse_space(serialize_space(space_x)) == space_x

    def test_round_trip_with_attributes(self):
        space = Space("s", ["a", "b"], [("a", "b")],
                      {"a": {"kind": "edge", "w": "2"}})
        assert parse_space(serialize_space(space)) == space

    def test_canonical_idempotent(self, space_y):
        once = serialize_space(space_y)
        assert serialize_space(parse_space(once)) == once

    def test_canonical_sorting(self):
        a = Space("s", ["b", "a"], [("b", "a")])
        b = Space("s", ["a", "b"], [("b", "a")])
        assert serialize_space(a) == serialize_space(b)

    def test_empty_space(self):
        empty = Space("none", [], [])
        assert parse_space(serialize_space(empty)) == empty

    def test_dangling_pair_detected(self):
        doc = {"name": "s", "elements": [{"id": "a"}], "incidence": [["a", "zz"]]}
        with pytest.raises(DanglingIncidenceError):
            parse_space(json.dumps(doc))

    def test_missing_field(self):
        with pytest.raises(ParseError):
            parse_space('{"name": "s", "elements": []}')

    def test_bad_json_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_space('{"name": "s",\n  "elements": [}', source="broken.json")
        assert err.value.source == "broken.json"
        assert err.value.line == 2

    def test_bad_pair_shape(self):
        doc = {"name": "s", "elements": [{"id": "a"}], "incidence": [["a"]]}
        with pytest.raises(ParseError):
            parse_space(json.dumps(doc))

    def test_null_attrs_mean_none(self):
        doc = {"name": "s", "elements": [{"id": "a", "attrs": None}], "incidence": []}
        assert parse_space(json.dumps(doc)) == Space("s", ["a"], [])


class TestMapFiles:
    def test_round_trip(self, segment):
        flip = SpaceMap(segment, segment, {"e": "e", "v1": "v2", "v2": "v1"})
        spaces = {"seg": segment}
        assert parse_map(serialize_map(flip), spaces) == flip

    def test_unknown_space(self, segment):
        text = json.dumps({"domain": "seg", "codomain": "other", "pairs": []})
        with pytest.raises(UnresolvedReferenceError):
            parse_map(text, {"seg": segment})

    def test_repeated_source_rejected(self, segment):
        pairs = [["e", "e"], ["v1", "v1"], ["v2", "v2"], ["v2", "e"], ["v1", "e"]]
        text = json.dumps({"domain": "seg", "codomain": "seg", "pairs": pairs})
        with pytest.raises(ParseError, match=r"\['v1', 'v2'\]") as err:
            parse_map(text, {"seg": segment}, source="twice.json")
        assert err.value.source == "twice.json"


class TestThetaFiles:
    def test_round_trip(self, theta):
        parsed = parse_theta(serialize_theta(theta))
        assert parsed == theta
        assert parsed.left_name == "X" and parsed.right_name == "Y"

    def test_nameless_theta_cannot_serialize(self):
        with pytest.raises(UnresolvedReferenceError, match="names no space"):
            serialize_theta(ThetaRelation([("a", "b")]))


class TestPartitionFiles:
    def test_nameless_partition_cannot_serialize(self):
        with pytest.raises(UnresolvedReferenceError, match="names no space"):
            serialize_partition(Partition({"a": "a"}))

    def test_round_trip_with_singletons(self, space_y):
        partition = Partition.from_classes({"m": ["c", "x"]}, space_y.name)
        text = serialize_partition(partition)
        parsed = parse_partition(text)
        assert parsed.space_name == "Y"
        assert parsed == partition
        # unlisted elements fall back to singleton classes
        _, projection = quotient(space_y, parsed)
        assert projection("C") == "C"

    def test_duplicate_label_rejected(self):
        doc = {"space": "Y", "classes": [
            {"label": "m", "members": ["c"]},
            {"label": "m", "members": ["x"]},
        ]}
        with pytest.raises(ParseError):
            parse_partition(json.dumps(doc))


# -- the canonical writer against json.dumps ------------------------------------------

# quotes, backslashes, control characters, whitespace, non-ASCII text, an
# astral character and lone surrogates
ALPHABET = ['"', "\\", "/", "\x00", "\x07", "\b", "\t", "\n", "\x1f", "\x7f", " ", ",",
            "a", "Z", "0", "é", "×", "∩", "\u2028", "\u3000", "😀", "\ud800", "\udfff"]
ID_ALPHABET = [ch for ch in ALPHABET if ch != "," and not ch.isspace()]
NAME_ALPHABET = [ch for ch in ALPHABET if ch.splitlines() == [ch]]  # a space name is one line


def text(rng, alphabet=ALPHABET, min_size=0):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(min_size, 6)))


def dumped(doc) -> str:
    """The canonical form as the json module writes it."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def space_doc(space):
    elements = []
    for element in sorted(space.elements):
        entry: dict = {"id": element}
        attrs = space.attributes.get(element)
        if attrs:
            entry["attrs"] = dict(sorted(attrs.items()))
        elements.append(entry)
    return {"name": space.name, "elements": elements,
            "incidence": [list(pair) for pair in sorted(space.incidence)]}


def partition_doc(space_name, partition):
    by_label: dict[str, list[str]] = {}
    for element, label in partition.classes.items():
        by_label.setdefault(label, []).append(element)
    classes = [{"label": label, "members": sorted(by_label[label])} for label in sorted(by_label)
               if sorted(by_label[label]) != [label]]
    return {"space": space_name, "classes": classes}


def random_documents(rng):
    """One random space, map, theta relation and partition; any may be empty."""
    ids = sorted({text(rng, ID_ALPHABET, 1) for _ in range(rng.randint(0, 12))})
    rng.shuffle(ids)
    pairs = [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))
             if rng.random() < 0.3]
    attributes = {e: {text(rng): text(rng) for _ in range(rng.randint(1, 3))}
                  for e in ids if rng.random() < 0.4}
    space = Space(text(rng, NAME_ALPHABET), ids, pairs, attributes)
    space_map = SpaceMap(space, space, {e: rng.choice(ids) for e in ids})
    theta = ThetaRelation([(text(rng), text(rng)) for _ in range(rng.randint(0, 8))],
                          left_name=text(rng), right_name=text(rng))
    labels = [text(rng, min_size=1) for _ in range(3)]
    labelled: dict[str, list[str]] = {}
    for e in ids:
        if rng.random() < 0.6:
            labelled.setdefault(rng.choice(labels), []).append(e)
    # a partition may declare any space name, not only its space's
    partition = Partition.from_classes(labelled, text(rng))
    return space, space_map, theta, partition


def canonical(value) -> str:
    """The canonical text of a record, as json.dumps writes it."""
    if isinstance(value, Space):
        return dumped(space_doc(value))
    if isinstance(value, SpaceMap):
        return dumped({"domain": value.domain.name, "codomain": value.codomain.name,
                       "pairs": [list(pair) for pair in value.pairs()]})
    if isinstance(value, ThetaRelation):
        return dumped({"left": value.left_name, "right": value.right_name,
                       "pairs": [list(pair) for pair in sorted(value.pairs)]})
    return dumped(partition_doc(value.space_name, value))


SERIALIZERS = {Space: serialize_space, SpaceMap: serialize_map,
               ThetaRelation: serialize_theta, Partition: serialize_partition}


class TestWriterMatchesJsonDumps:
    def test_seeded_documents(self):
        rng = random.Random(7007)
        for trial in range(300):
            for value in random_documents(rng):
                assert SERIALIZERS[type(value)](value) == canonical(value), trial

    def test_operator_results(self):
        """The space writer reads successor lists, which every operator builds
        for its result; each result, and each linking map, against json.dumps."""
        rng = random.Random(7008)
        for trial in range(150):
            x = with_attributes(rng, random_dag(rng))
            y = with_attributes(rng, random_dag(rng, "E"))
            for result, *maps in trusted_results(rng, x, y):
                assert serialize_space(result) == canonical(result), trial
                for linking in maps:
                    assert serialize_map(linking) == canonical(linking), trial

    def test_empty_lists(self):
        empty = Space("", [], [])
        assert serialize_space(empty) == dumped(space_doc(empty))
        assert serialize_map(SpaceMap(empty, empty, {})) == dumped(
            {"domain": "", "codomain": "", "pairs": []})
        assert serialize_theta(ThetaRelation([], "l", "r")) == dumped(
            {"left": "l", "right": "r", "pairs": []})
        assert serialize_partition(Partition({"a": "a"}, "s")) == dumped(
            {"space": "s", "classes": []})


BLOCK = topodata.io._BLOCK


def sized_documents(n: int, attributes: bool):
    """Records whose every top-level list has n items: the elements of one space,
    the pairs of another, and a map's pairs, a theta relation's pairs and a
    partition's classes; with attributes on every other element, if asked.
    Two more spaces put the block edges elsewhere: one whose three sources
    have n - 1, n and n + 1 successors, and one of n elements of which only
    the middle one has attributes, which breaks their run."""
    ids = [f"e{i}" for i in range(n)]
    attrs = {e: {"k": e, "w": "2"} for e in ids[::2]} if attributes else {}
    isolated = Space("I", ids, [], attrs)
    star = Space("S", ["hub", *ids], [("hub", e) for e in ids], attrs)
    leaves = [*ids, "f"]
    fans = Space("F", ["a", "b", "c", *leaves],
                 [(hub, e) for hub, k in zip("abc", (n - 1, n, n + 1)) for e in leaves[:k]], attrs)
    broken = Space("B", ids, [], {e: {"k": e} for e in ids[n // 2:][:1]})
    return (isolated, star, SpaceMap(isolated, isolated, {e: e for e in ids}),
            ThetaRelation([(e, f"r{e}") for e in ids], "I", "R"),
            Partition.from_classes({f"c{e}": [e] for e in ids}, "I"), fans, broken)


class TestBlocks:
    """The writers produce the items of a top-level list in blocks of about BLOCK."""

    @pytest.mark.parametrize("attributes", [False, True])
    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_every_list_size_around_a_block(self, n, attributes):
        for value in sized_documents(n, attributes):
            assert SERIALIZERS[type(value)](value) == canonical(value), type(value)

    @pytest.mark.parametrize("attributes", [False, True])
    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_every_block_holds_fewer_than_two_blocks_of_items(self, n, attributes):
        """A block ends once it holds BLOCK pairs or elements, and a source with
        more than BLOCK successors is split, so no block reaches twice that.
        A top-level list item opens a block or a line at an indent of four."""
        for value in sized_documents(n, attributes):
            for block in topodata.io._blocks(value):
                assert len(re.findall(r"^(?:    )?[\[{]", block, re.M)) < 2 * BLOCK, type(value)

    @pytest.mark.parametrize("n", [0, 1, BLOCK, 2 * BLOCK + 1])
    def test_written_bytes_are_the_serialized_text(self, tmp_path, n):
        for i, value in enumerate(sized_documents(n, True)):
            path = tmp_path / "out" / f"{i}.json"
            write_document(value, path)
            assert path.read_bytes() == SERIALIZERS[type(value)](value).encode("utf-8")

    def test_written_bytes_of_seeded_documents(self, tmp_path):
        rng = random.Random(7009)
        path = tmp_path / "doc.json"
        for trial in range(100):
            for value in random_documents(rng):
                try:
                    expected = SERIALIZERS[type(value)](value).encode("utf-8")
                except UnicodeEncodeError:  # a lone surrogate: no partial document
                    with pytest.raises(UnicodeEncodeError):
                        write_document(value, path)
                    assert not path.exists(), trial
                    continue
                write_document(value, path)
                assert path.read_bytes() == expected, trial

    @pytest.mark.parametrize("value", [ThetaRelation([("a", "b")], right_name="Y"),
                                       Partition({"a": "m"})],
                             ids=["theta", "partition"])
    def test_nameless_record_writes_nothing(self, tmp_path, value):
        folder = tmp_path / "new"
        with pytest.raises(UnresolvedReferenceError, match="names no space"):
            write_document(value, folder / "doc.json")
        assert not folder.exists()

    def test_a_value_of_no_document_kind_writes_nothing(self, tmp_path):
        folder = tmp_path / "new"
        with pytest.raises(TypeError, match="^cannot write dict$"):
            write_document({"name": "X", "elements": [], "incidence": []}, folder / "doc.json")
        assert not folder.exists()

    def test_emit_memory_follows_the_block(self, tmp_path):
        """Writing the extruded 14x14 grid peaks at under a tenth of what
        serializing it and encoding the text does, and writing its map onto
        the grid at under a quarter: the writer holds the sorted ids and one
        block, no table over the whole document.  A map's text is smaller
        than a space's, so one block is a larger share of it.  A partition
        of 5,000 classes writes at under three quarters: its writer holds
        the members grouped by label, but renders each class as its block
        takes it."""
        probe = load_tool("scale_probe")
        product, factors = probe.extrusion(topodata, probe.grid(14), tmp_path / "p.json")["product"]
        extruded, left, _ = product(*factors())

        def peak(run) -> int:
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        classes = Partition({f"e{i}": f"c{i % 5000}" for i in range(20_000)}, "S")
        for value, serialize, share in [(extruded, serialize_space, 10), (left, serialize_map, 4),
                                        (classes, serialize_partition, 4 / 3)]:
            whole = peak(lambda: serialize(value).encode("utf-8"))
            streamed = peak(lambda: write_document(value, tmp_path / "p.json"))
            assert streamed < whole / share, (value, streamed, whole)


class TestDetectKind:
    def test_each_kind(self, space_y, theta):
        assert detect_kind(serialize_space(space_y)) == "space"
        flip = SpaceMap(space_y, space_y, {e: e for e in space_y.elements})
        assert detect_kind(serialize_map(flip)) == "map"
        assert detect_kind(serialize_theta(theta)) == "theta"
        part = serialize_partition(Partition.from_classes({}, space_y.name))
        assert detect_kind(part) == "partition"

    def test_unclassifiable(self):
        with pytest.raises(ParseError):
            detect_kind('{"foo": 1}')
        with pytest.raises(ParseError, match="cannot classify"):
            parse_document('{"foo": 1}', {})
        with pytest.raises(ParseError, match="at top level"):
            parse_document('[]', {})

    def test_parse_document_reads_each_kind_from_one_parse(self, space_y, theta, monkeypatch):
        flip = SpaceMap(space_y, space_y, {e: e for e in space_y.elements})
        partition = Partition.from_classes({"c": sorted(space_y.elements)[:2]}, space_y.name)
        texts = [serialize_space(space_y), serialize_map(flip), serialize_theta(theta),
                 serialize_partition(partition)]
        parses = []
        load_json = topodata.io._load_json
        monkeypatch.setattr(topodata.io, "_load_json",
                            lambda text, source: parses.append(source) or load_json(text, source))
        values = [parse_document(text, {space_y.name: space_y}, source=f"doc{i}")
                  for i, text in enumerate(texts)]
        assert values == [space_y, flip, theta, partition]
        assert parses == ["doc0", "doc1", "doc2", "doc3"]


class TestManifest:
    def write_dataset(self, tmp_path):
        seg = Space("seg", ["e", "v1", "v2"], [("e", "v1"), ("e", "v2")])
        pt = Space("pt", ["P"], [])
        constant = SpaceMap(seg, pt, {e: "P" for e in seg.elements})
        (tmp_path / "seg.json").write_text(serialize_space(seg))
        (tmp_path / "pt.json").write_text(serialize_space(pt))
        (tmp_path / "part_of.json").write_text(serialize_map(constant))
        manifest = {
            "spaces": ["seg.json", "pt.json"],
            "maps": ["part_of.json"],
            "constraints": [{"name": "ref", "map": "part_of", "mode": "continuous"}],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        return path

    def test_load(self, tmp_path):
        dataset = load_dataset(self.write_dataset(tmp_path))
        assert set(dataset.spaces) == {"seg", "pt"}
        assert "part_of" in dataset.maps  # maps are catalogued by file stem
        assert dataset.constraints[0].name == "ref"

    def test_bad_mode(self, tmp_path):
        path = self.write_dataset(tmp_path)
        doc = json.loads(path.read_text())
        doc["constraints"][0]["mode"] = "later"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_map_before_space_fails(self, tmp_path):
        path = self.write_dataset(tmp_path)
        doc = json.loads(path.read_text())
        doc["spaces"] = ["seg.json"]
        path.write_text(json.dumps(doc))
        with pytest.raises(UnresolvedReferenceError):
            load_dataset(path)

    @pytest.mark.parametrize("field", ["maps", "constraints", "chains"])
    def test_non_list_field_named(self, tmp_path, field):
        path = self.write_dataset(tmp_path)
        doc = json.loads(path.read_text())
        doc[field] = "part_of.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"field '{field}' must be list, got str"):
            load_dataset(path)


class TestParseDiagnostics:
    @pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5000],
                             ids=["deep-nesting", "long-integer"])
    def test_unparsable_json_is_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_space(text)

    def test_source_without_line_is_spaced(self):
        with pytest.raises(ParseError) as err:
            parse_space('{"elements": [], "incidence": []}', source="noel.json")
        assert str(err.value) == "noel.json: missing field 'name'"

    def test_undecodable_file_is_parse_error(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"name": "\xff"}')
        with pytest.raises(ParseError) as err:
            read_text(path)
        assert err.value.source == str(path)
