"""File formats for spaces, maps, theta relations, partitions, manifests.

All documents are JSON.  Serializers emit a canonical form: fixed key
order, element ids and pairs sorted, two-space indentation, trailing
newline.  Parsing a serialized value returns an equal value, and
serializing is idempotent on its own output.

The writers produce that layout directly, with the C string escaper
of the ``json`` module; the bytes are those of
``json.dumps(doc, indent=2, ensure_ascii=False) + "\n"``, which for an
indented document runs the pure-Python encoder instead.  They produce
text blocks: the header, then the items of each top-level list, about
``_BLOCK`` pairs or elements to a block.  ``serialize_*`` joins them,
and ``write_document`` (a script's ``emit``) streams them to the file.
A space is written from its sorted ids, each with its successors
sorted, and a map from its sorted sources; an id is escaped where it
is written, so an emit holds the sorted ids and one block, no id table.
Each source's pairs are rendered by one join, as is each run of
elements without attributes, so the space writer does no Python work
per pair or per plain element.

``parse_document`` reads a document of any kind from one JSON parse,
choosing the kind by its fields as ``detect_kind`` does.

Loading releases a document as it reads it.  ``parse_space`` and
``parse_map`` drop their text once it is parsed; on CPython 3.11 and
later, where the text ``load_space`` and ``load_map`` pass is held by
the call alone, it is freed then.  ``_space_of`` consumes its document:
it drops the element entries before it reads a pair, and hands the
pairs to ``Space`` as an iterator, which frees them when the walk over
them ends.  The peak of a load is then the JSON parse of its largest
file.
"""

from __future__ import annotations

import json
from functools import singledispatch
from itertools import groupby, islice
from json.encoder import encode_basestring as _string  # the escaper of ensure_ascii=False
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from . import constraints
from .errors import (InvalidAttributeError, InvalidElementIdError, InvalidOptionError,
                     ParseError, UnresolvedReferenceError, shown_source)
from .maps import Partition, SpaceMap, ThetaRelation
from .space import Space, check_name


def _load_json(text: str, source: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, source=source, line=err.lineno) from err
    except (ValueError, RecursionError) as err:  # an over-long integer, deep nesting
        raise ParseError(str(err), source=source) from err


def _require(doc, key, kind, source):
    if not isinstance(doc, dict):
        raise ParseError(f"expected an object, got {type(doc).__name__}", source=source)
    if key not in doc:
        raise ParseError(f"missing field {key!r}", source=source)
    value = doc[key]
    if not isinstance(value, kind):
        raise ParseError(f"field {key!r} must be {kind.__name__}, "
                         f"got {type(value).__name__}", source=source)
    return value


def _layout(items: list[str], indent: str, brackets: str = "[]") -> str:
    """Rendered items, one or more, as a JSON array (or object) starting at ``indent``."""
    inner = f"\n{indent}  "
    return f"{brackets[0]}{inner}{f',{inner}'.join(items)}\n{indent}{brackets[1]}"


def _object(fields: list[tuple[str, str]], indent: str) -> str:
    return _layout([f"{_string(key)}: {value}" for key, value in fields], indent, "{}")


_BLOCK = 512  # pairs, elements or other list items per block; one write per item was slower
_ITEM_SEP = ",\n    "  # between two items of a top-level list


def _document(fields: list[tuple[str, str | Iterable[str]]]) -> Iterator[str]:
    """The blocks of a top-level object.  A field's value is its rendered
    text, or the blocks of a list: rendered items joined by ``_ITEM_SEP``."""
    text, separator = "{", "\n  "
    for key, value in fields:
        text += f"{separator}{_string(key)}: "
        separator = ",\n  "
        if isinstance(value, str):
            text += value
            continue
        lead = f"{text}[\n    "  # what goes before the next block
        for block in value:
            yield lead
            yield block  # as it is, not copied behind its lead
            lead = _ITEM_SEP
        text = "\n  ]" if lead == _ITEM_SEP else text + "[]"
    yield text + "\n}\n"


def _joined(items: Iterable[str]) -> Iterator[str]:
    """Rendered items, ``_BLOCK`` to a block."""
    items = iter(items)
    while block := _ITEM_SEP.join(islice(items, _BLOCK)):
        yield block


# the two repeated shapes, as line templates: an element entry without
# attributes, and an id pair, each an item of a top-level field's list;
# joining ids with a separator renders a run of them in one call
_ELEMENT = '{\n      "id": %s\n    }'
_ELEMENT_SEP = '\n    }' + _ITEM_SEP + '{\n      "id": '
_PAIR_HEAD, _PAIR_TAIL = '[\n      %s,\n      ', '\n    ]'
_PAIR = _PAIR_HEAD + '%s' + _PAIR_TAIL


def _pairs(pairs) -> Iterator[str]:
    return _joined(_PAIR % (_string(a), _string(b)) for a, b in pairs)


def _declared(name: str | None, what: str) -> str:
    """A record's space name, rendered; a record that names no space cannot be written."""
    if name is None:
        raise UnresolvedReferenceError(f"{what} names no space to serialize")
    return _string(name)


def _build(source, constructor, *args, **kwargs):
    """Call a constructor; a malformed id, attribute, name or option is a
    ParseError of the file."""
    try:
        return constructor(*args, **kwargs)
    except (InvalidElementIdError, InvalidAttributeError, InvalidOptionError,
            UnresolvedReferenceError) as err:
        raise ParseError(str(err), source=source) from err


# -- spaces ------------------------------------------------------------------

def parse_space(text: str, source: str = "<space>") -> Space:
    doc = _load_json(text, source)
    del text  # a caller that passed a temporary frees it here
    return _space_of(doc, source)


def _space_of(doc, source: str) -> Space:
    """The space of a parsed document, which it consumes: it removes the
    element entries once it has read their ids and attributes, before
    any pair is read, and removes the pairs and hands them to ``Space``
    as an iterator, which frees them when the walk over them ends, before
    the repeats are merged and the order is built."""
    name = _require(doc, "name", str, source)
    raw_elements = _require(doc, "elements", list, source)
    ids = []
    attributes = {}
    for entry in raw_elements:
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise ParseError(f"elements entries must be objects with a string 'id', "
                             f"got {entry!r}", source=source)
        ids.append(entry["id"])
        attrs = entry.get("attrs")
        if attrs is not None:
            attributes[entry["id"]] = attrs
    del doc["elements"], raw_elements
    pairs = iter(_require(doc, "incidence", list, source))
    del doc["incidence"]
    return _build(source, Space, name, ids, pairs, attributes)


@singledispatch
def _blocks(value) -> Iterator[str]:
    raise TypeError(f"cannot write {type(value).__name__}")


def serialize_space(space: Space) -> str:
    return "".join(_space_blocks(space))


@_blocks.register
def _space_blocks(space: Space) -> Iterator[str]:
    ids = sorted(space.elements)
    return _document([("name", _string(space.name)),
                      ("elements", _elements(space, ids)),
                      ("incidence", _incidence(space, ids))])


def _elements(space: Space, ids: list[str]) -> Iterator[str]:
    """The element entries, ``_BLOCK`` to a block; each run of elements
    without attributes is rendered by one join."""
    for start in range(0, len(ids), _BLOCK):
        items = []
        for attrs, run in groupby(ids[start:start + _BLOCK], space.attributes.get):
            if attrs:
                values = [(key, _string(value)) for key, value in sorted(attrs.items())]
                items += [_object([("id", _string(element)), ("attrs", _object(values, "      "))],
                                  "    ") for element in run]
            else:
                items.append(_ELEMENT % _ELEMENT_SEP.join(map(_string, run)))
        yield _ITEM_SEP.join(items)


def _incidence(space: Space, ids: list[str]) -> Iterator[str]:
    """The pairs in sorted order: each id of ``ids`` with its successors sorted.
    Ids are distinct and each pair is held once, so no pair is sorted as a pair.
    A source's pairs, up to ``_BLOCK`` of them, are one join; a block ends
    once it holds ``_BLOCK`` pairs, so it holds fewer than twice that."""
    succ = space._succ
    items, size = [], 0
    for a in ids:
        below = succ[a]
        if below:
            head = _PAIR_HEAD % _string(a)
            joiner = _PAIR_TAIL + _ITEM_SEP + head
            below = sorted(below)
            while len(below) > _BLOCK:  # a hub: its first _BLOCK pairs end a block
                items.append(head + joiner.join(map(_string, below[:_BLOCK])) + _PAIR_TAIL)
                yield _ITEM_SEP.join(items)
                items, size = [], 0
                del below[:_BLOCK]  # in place: no second copy of a hub's successors
            items.append(head + joiner.join(map(_string, below)) + _PAIR_TAIL)
            size += len(below)
            if size >= _BLOCK:
                yield _ITEM_SEP.join(items)
                items, size = [], 0
    if items:
        yield _ITEM_SEP.join(items)


# -- maps --------------------------------------------------------------------

def parse_map(text: str, spaces: Mapping[str, Space], source: str = "<map>") -> SpaceMap:
    doc = _load_json(text, source)
    del text  # a caller that passed a temporary frees it here
    return _map_of(doc, spaces, source)


def _map_of(doc, spaces: Mapping[str, Space], source: str) -> SpaceMap:
    domain_name = _require(doc, "domain", str, source)
    codomain_name = _require(doc, "codomain", str, source)
    for name in (domain_name, codomain_name):
        if name not in spaces:
            raise UnresolvedReferenceError(f"{shown_source(source)}: unknown space {name!r}")
    domain, codomain = spaces[domain_name], spaces[codomain_name]
    entries = _require(doc, "pairs", list, source)
    return _build(source, SpaceMap, domain, codomain, entries)


def serialize_map(space_map: SpaceMap) -> str:
    return "".join(_map_blocks(space_map))


@_blocks.register
def _map_blocks(space_map: SpaceMap) -> Iterator[str]:
    table = space_map.mapping
    return _document([("domain", _string(space_map.domain.name)),
                      ("codomain", _string(space_map.codomain.name)),
                      ("pairs", _pairs((a, table[a]) for a in sorted(table)))])


# -- theta relations -----------------------------------------------------------

def parse_theta(text: str, source: str = "<theta>") -> ThetaRelation:
    return _theta_of(_load_json(text, source), source)


def _theta_of(doc, source: str) -> ThetaRelation:
    left = _require(doc, "left", str, source)
    right = _require(doc, "right", str, source)
    pairs = _require(doc, "pairs", list, source)
    return _build(source, ThetaRelation, pairs, left_name=left, right_name=right)


def serialize_theta(theta: ThetaRelation) -> str:
    return "".join(_theta_blocks(theta))


@_blocks.register
def _theta_blocks(theta: ThetaRelation) -> Iterator[str]:
    return _document([("left", _declared(theta.left_name, "theta left side")),
                      ("right", _declared(theta.right_name, "theta right side")),
                      ("pairs", _pairs(sorted(theta.pairs)))])


# -- partitions ----------------------------------------------------------------

def parse_partition(text: str, source: str = "<partition>") -> Partition:
    return _partition_of(_load_json(text, source), source)


def _partition_of(doc, source: str) -> Partition:
    space_name = _require(doc, "space", str, source)
    labelled = {}
    for entry in _require(doc, "classes", list, source):
        if not (isinstance(entry, dict) and isinstance(entry.get("label"), str)
                and isinstance(entry.get("members"), list)):
            raise ParseError(f"classes entries must have 'label' and 'members', "
                             f"got {entry!r}", source=source)
        if entry["label"] in labelled:
            raise ParseError(f"class label {entry['label']!r} listed twice", source=source)
        labelled[entry["label"]] = entry["members"]
    return _build(source, Partition.from_classes, labelled, space_name)


def serialize_partition(partition: Partition) -> str:
    return "".join(_partition_blocks(partition))


@_blocks.register
def _partition_blocks(partition: Partition) -> Iterator[str]:
    by_label: dict[str, list[str]] = {}
    for element, label in partition.classes.items():
        by_label.setdefault(label, []).append(element)
    return _document([("space", _declared(partition.space_name, "partition")),
                      ("classes", _joined(_classes(by_label)))])


def _classes(by_label: dict[str, list[str]]) -> Iterator[str]:
    """Each class rendered as its block takes it, in sorted label order."""
    for label in sorted(by_label):
        listed = _layout([_string(member) for member in sorted(by_label[label])], "      ")
        yield _object([("label", _string(label)), ("members", listed)], "    ")


# -- document detection ----------------------------------------------------------

def detect_kind(text: str, source: str = "<document>") -> str:
    """Classify a document as space, map, theta, or partition by its fields."""
    return _kind(_load_json(text, source), source)


def _kind(doc, source: str) -> str:
    if not isinstance(doc, dict):
        raise ParseError("expected an object at top level", source=source)
    keys = doc.keys()
    if {"elements", "incidence"} <= keys:
        return "space"
    if {"domain", "codomain", "pairs"} <= keys:
        return "map"
    if {"left", "right", "pairs"} <= keys:
        return "theta"
    if {"space", "classes"} <= keys:
        return "partition"
    raise ParseError(f"cannot classify document with fields {sorted(keys)}", source=source)


def parse_document(text: str, spaces: Mapping[str, Space], source: str = "<document>"):
    """The space, map, theta relation or partition a document holds, by its
    fields, from one parse; ``spaces`` are those a map may name."""
    doc = _load_json(text, source)
    kind = _kind(doc, source)
    if kind == "space":
        return _space_of(doc, source)
    if kind == "map":
        return _map_of(doc, spaces, source)
    if kind == "theta":
        return _theta_of(doc, source)
    return _partition_of(doc, source)


# -- path helpers -----------------------------------------------------------------

def read_text(path) -> str:
    """The text of a UTF-8 file; bytes that do not decode are a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except ValueError as err:  # undecodable bytes, or a NUL in the path
        raise ParseError(str(err), source=str(path)) from err


def write_document(value: Space | SpaceMap | ThetaRelation | Partition, path) -> None:
    """Write a space, map, theta relation or partition to ``path``: the bytes
    of its ``serialize_*`` text in UTF-8, written block by block.

    The value's checks run before the directory is made or the file
    opened, so a value that cannot be written leaves no file.  Lines end
    in LF on every platform.
    """
    blocks = _blocks(value)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with path.open("wb") as out:
            out.writelines(map(str.encode, blocks))
    except UnicodeEncodeError:  # a lone surrogate in a name or id: no partial document
        path.unlink()
        raise


def load_space(path) -> Space:
    return parse_space(read_text(path), source=str(path))


def load_map(path, spaces: Mapping[str, Space]) -> SpaceMap:
    return parse_map(read_text(path), spaces, source=str(path))


def load_theta(path) -> ThetaRelation:
    return parse_theta(read_text(path), source=str(path))


# -- dataset manifests ---------------------------------------------------------------

def load_dataset(manifest_path) -> constraints.Dataset:
    """Load a dataset manifest: space files, map files, constraints, chains.

    Paths are resolved relative to the manifest.  Spaces are catalogued
    under their own name field; maps, whose format carries no name, are
    catalogued under their file stem.
    """
    manifest_path = Path(manifest_path)
    source = str(manifest_path)
    doc = _load_json(read_text(manifest_path), source)
    base = manifest_path.parent

    dataset = constraints.Dataset()  # constraints runs here: a script never loads a manifest
    spaces = _require(doc, "spaces", list, source)
    for key in ("maps", "constraints", "chains"):
        if not isinstance(doc.get(key, []), list):
            raise ParseError(f"field {key!r} must be list, "
                             f"got {type(doc[key]).__name__}", source=source)
    for rel in spaces:
        if not isinstance(rel, str):
            raise ParseError(f"spaces entries must be paths, got {rel!r}", source=source)
        dataset.add_space(load_space(base / rel))
    for rel in doc.get("maps", []):
        if not isinstance(rel, str):
            raise ParseError(f"maps entries must be paths, got {rel!r}", source=source)
        map_path = base / rel
        name = _build(source, check_name, map_path.stem, "map name")
        dataset.add_map(name, load_map(map_path, dataset.spaces))
    for entry in doc.get("constraints", []):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("map"), str)):
            raise ParseError(f"constraints entries need 'name' and 'map', "
                             f"got {entry!r}", source=source)
        dataset.constraints.append(_build(source, constraints.ForeignKeyConstraint,
                                          entry["name"], entry["map"],
                                          entry.get("mode", "continuous")))
    for entry in doc.get("chains", []):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("maps"), list) and entry["maps"]
                and all(isinstance(name, str) for name in entry["maps"])):
            raise ParseError(f"chains entries need 'name' and a non-empty list of map "
                             f"names 'maps', got {entry!r}", source=source)
        dataset.chains.append((_build(source, check_name, entry["name"], "chain name"),
                               tuple(entry["maps"])))
    return dataset
