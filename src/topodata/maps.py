"""Total maps between spaces: continuity, composition, homeomorphism.

Continuity is the package's central consistency rule: a map f is
continuous exactly when the image of every incidence pair of its domain
lands in the preorder of its codomain.  ``is_continuous`` therefore needs
only the stored relation plus reachability in the codomain, no open-set
enumeration; it accepts a pair whose images are equal or directly
incident, and tests the rest on bitset down sets of their images.  The
brute-force open-preimage check lives in ``oracle`` and is used by the
tests to confirm agreement.

Map pairs are read by C loops of the interpreter over the ids the
spaces hold (``_held_table``); only pairs they refuse are walked entry
by entry, to name their fault.

The two other tables of ids that documents hold live here too: a
``Partition``, which ``algebra.quotient`` applies, and a
``ThetaRelation``, which ``algebra.theta_join`` reads.  So ``io`` reads
and writes every kind of document without loading the operators.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    DomainMismatchError,
    DuplicateElementError,
    InvalidElementIdError,
    MapTotalityError,
    UnknownElementError,
    UnresolvedReferenceError,
)
from .space import (Pair, Space, _iterate, _kept_down_sets, check_element_id, check_pairs,
                    check_size)


class ContinuityResult(NamedTuple):
    """Outcome of a continuity check, truthy iff the map is continuous.

    On failure ``witness`` is one violating domain pair (a, b) and
    ``image`` its image pair, which is not in the codomain preorder.
    """

    ok: bool
    witness: Pair | None = None
    image: Pair | None = None

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "continuous"
        a, b = self.witness
        fa, fb = self.image
        return f"witness ({a},{b}) -> ({fa},{fb})"


class SpaceMap:
    """A total function between the element sets of two spaces.

    The mapping is stored as an explicit table, never as code, so maps
    serialize, compare, and diff exactly.  It is given as a mapping, which
    is copied and checked, or as pairs that list each source once.  Pairs
    are read by C loops into a table keyed on the ids the spaces hold
    (``_held_table``), and only pairs those loops refuse are walked, to
    name their fault.  Either way a map is total, and every value is an
    element of the codomain.
    """

    def __init__(self, domain: Space, codomain: Space, mapping):
        if isinstance(mapping, Mapping):
            table = dict(mapping)
            _check_table(domain, codomain, table)
        else:
            entries = list(_iterate(mapping, "map pairs"))
            table = _held_table(domain, codomain, entries)
            if table is None:
                _refuse_pairs(domain, codomain, entries)
        self.domain = domain
        self.codomain = codomain
        self.mapping = table

    @classmethod
    def _trusted(cls, domain: Space, codomain: Space, table: dict[str, str]) -> "SpaceMap":
        """A map from a table that is valid by construction, unchecked.

        For operator results only: the table must map every element of
        the domain, and nothing else, to an element of the codomain.  The
        table is kept, not copied.
        """
        space_map = cls.__new__(cls)
        space_map.domain = domain
        space_map.codomain = codomain
        space_map.mapping = table
        return space_map

    def __call__(self, element: str) -> str:
        try:
            return self.mapping[element]
        except (KeyError, TypeError):  # TypeError: an unhashable element
            raise UnknownElementError(
                f"{element!r} is not an element of {self.domain.name!r}") from None

    def pairs(self) -> list[Pair]:
        """The table as a sorted list of (source, target) pairs."""
        return sorted(self.mapping.items())

    def __eq__(self, other):
        if not isinstance(other, SpaceMap):
            return NotImplemented
        return (self.domain == other.domain
                and self.codomain == other.codomain
                and self.mapping == other.mapping)

    def __hash__(self):
        return hash((self.domain, self.codomain, frozenset(self.mapping.items())))

    def __repr__(self):
        return f"SpaceMap({self.domain.name!r} -> {self.codomain.name!r}, {len(self.mapping)} entries)"


_first, _second = itemgetter(0), itemgetter(1)


def _held_table(domain: Space, codomain: Space, entries: list) -> dict[str, str] | None:
    """The map pairs as a table on the held ids, or None if they may have a fault.

    Each entry must pass the tests of ``check_pairs``, and each test is
    one pass of ``map`` over the list, so the interpreter runs it in C,
    with no Python frame per entry.  The keys and values are looked up in
    the held ids of the two spaces.  As many distinct held keys as the
    domain has elements make a total table with no unknown key, so no
    set difference is needed.
    """
    if not (len(entries) == len(domain.elements)
            and all(map(isinstance, entries, repeat((list, tuple))))
            and set(map(len, entries)) <= {2}
            and all(map(isinstance, map(_first, entries), repeat(str)))
            and all(map(isinstance, map(_second, entries), repeat(str)))):
        return None
    try:
        table = dict(zip(map(domain._held_ids().__getitem__, map(_first, entries)),
                         map(codomain._held_ids().__getitem__, map(_second, entries))))
    except KeyError:
        return None
    return table if len(table) == len(entries) else None


def _refuse_pairs(domain: Space, codomain: Space, entries: list) -> None:
    """Raise the error for map pairs that ``_held_table`` refused: a malformed
    entry, then a repeated source, then the faults of the table.

    Once the entries are well formed and no source repeats, a refused list
    has too few or too many entries, so a key is missing or unknown, or it
    has an id that is not held, an unknown key or a value outside the
    codomain; ``_check_table`` raises for each.
    """
    pairs = list(check_pairs(entries, "map pairs"))
    repeated = sorted(a for a, n in Counter(a for a, _ in pairs).items() if n > 1)
    if repeated:
        raise InvalidElementIdError(f"map pairs list source ids more than once: {repeated}")
    _check_table(domain, codomain, dict(pairs))


def _check_table(domain: Space, codomain: Space, table: dict) -> None:
    """Refuse a table with missing keys, then unknown keys, then keys that
    equal an id but are not strings, then values outside the codomain."""
    what = f"map {domain.name!r} -> {codomain.name!r}"
    missing = domain.elements - table.keys()
    if missing:
        raise MapTotalityError(f"{what} misses {sorted(missing)}")
    extra = table.keys() - domain.elements
    if extra:
        raise UnknownElementError(f"{what} maps unknown keys {sorted(extra, key=str)}")
    not_ids = [key for key in table if not isinstance(key, str)]
    if not_ids:
        raise InvalidElementIdError(f"{what} has keys that are not string ids: "
                                    f"{sorted(not_ids, key=repr)}")
    bad = [v for v in table.values() if not isinstance(v, str) or v not in codomain.elements]
    if bad:
        raise UnknownElementError(
            f"{what} has values outside the codomain: {sorted(bad, key=str)}")


def _space_name(name, what: str) -> str | None:
    """A declared space name: a string, or None when unknown."""
    if name is not None and not isinstance(name, str):
        raise UnresolvedReferenceError(f"{what} must be a space name or None, got {name!r}")
    return name


class Partition:
    """Labelling of element ids by class label; ``quotient`` applies it.

    Elements the partition does not list are singleton classes labelled
    by their own id, so an entry ``e -> e`` is dropped as implied.
    ``space_name`` records which space the partition classifies when
    known; equal partitions have equal tables and names.
    """

    def __init__(self, classes: Mapping[str, str], space_name: str | None = None):
        if not isinstance(classes, Mapping):
            raise InvalidElementIdError(f"partition classes must be a mapping, got {classes!r}")
        for element in classes:
            check_element_id(element)
        bad = sorted(e for e, label in classes.items() if not isinstance(label, str) or not label)
        if bad:
            raise InvalidElementIdError(f"empty or non-string class labels for {bad}")
        self.classes = {e: label for e, label in classes.items() if e != label}
        self.space_name = _space_name(space_name, "partition space name")

    @classmethod
    def from_classes(cls, labelled: Mapping[str, Iterable[str]],
                     space_name: str | None = None) -> "Partition":
        """Build a partition from a mapping of class labels to members."""
        if not isinstance(labelled, Mapping):
            raise InvalidElementIdError(f"partition classes must be a mapping, got {labelled!r}")
        table: dict[str, str] = {}
        for label, members in labelled.items():
            for member in _iterate(members, f"members of class {label!r}"):
                if check_element_id(member) in table:
                    raise DuplicateElementError(
                        f"{member!r} assigned to classes {table[member]!r} and {label!r}")
                table[member] = label
        return cls(table, space_name)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (self.classes, self.space_name) == (other.classes, other.space_name)

    def __repr__(self):
        return f"Partition({len(self.classes)} elements, {len(set(self.classes.values()))} classes)"


class ThetaRelation:
    """Explicit set of cross-space element pairs declared as intersecting.

    The geometric predicate that would decide intersection is outside
    this library; its result is stored as data.  ``left_name`` and
    ``right_name`` record which spaces the sides refer to when known;
    equal relations have equal pairs and names.
    """

    def __init__(self, pairs: Iterable[Pair], left_name: str | None = None,
                 right_name: str | None = None):
        self.pairs = frozenset(check_pairs(pairs, "theta relation"))
        self.left_name = _space_name(left_name, "theta left name")
        self.right_name = _space_name(right_name, "theta right name")

    def __eq__(self, other):
        if not isinstance(other, ThetaRelation):
            return NotImplemented
        return ((self.pairs, self.left_name, self.right_name)
                == (other.pairs, other.left_name, other.right_name))

    def __len__(self):
        return len(self.pairs)

    def __repr__(self):
        return f"ThetaRelation({len(self.pairs)} pairs)"


def identity_map(space: Space) -> SpaceMap:
    """The identity on a space; always continuous."""
    return SpaceMap._trusted(space, space, {e: e for e in space.elements})


def compose(g: SpaceMap, f: SpaceMap) -> SpaceMap:
    """The composite x -> g(f(x)); f is applied first."""
    if f.codomain != g.domain:
        raise DomainMismatchError(
            f"cannot compose: codomain {f.codomain.name!r} of the first map "
            f"differs from domain {g.domain.name!r} of the second")
    return SpaceMap._trusted(f.domain, g.codomain, {x: g(f(x)) for x in f.domain.elements})


def is_continuous(f: SpaceMap) -> ContinuityResult:
    """Check continuity; on failure return one violating pair as witness.

    f is continuous iff the image of every incidence pair of the domain
    lies in the preorder (reflexive-transitive closure) of the codomain.
    The witness is the least violating pair, so repeated checks of the
    same map report the same pair.  A loaded map's ids are the objects
    its spaces hold, so the lookups here match by identity first.  The
    direct test reads a set of the successors of each distinct image,
    made once in the call, so it costs the same for any out-degree.  The
    images of the other pairs are numbered once, each with its down set
    among them as an int (``_kept_down_sets``): fb is below fa when its
    position is not higher and its bit is set in fa's down set.
    """
    image = f.mapping
    succ = f.codomain._succ
    direct: dict[str, frozenset[str]] = {}
    far = []
    for a, below in f.domain._succ.items():
        if not below:
            continue
        fa = image[a]
        near = direct.get(fa)
        if near is None:
            near = direct[fa] = frozenset(succ[fa])
        for b in below:
            fb = image[b]
            if fb != fa and fb not in near:
                far.append((a, b))
    bad = []
    if far:
        order, down = _kept_down_sets(frozenset(image[e] for pair in far for e in pair),
                                      f.codomain)
        position = {e: p for p, e in enumerate(order)}
        for a, b in far:
            p, q = position[image[a]], position[image[b]]
            if q > p or not down[p] >> (p - q) & 1:
                bad.append((a, b))
    if not bad:
        return ContinuityResult(True)
    a, b = min(bad)
    return ContinuityResult(False, (a, b), (image[a], image[b]))


def is_homeomorphism(f: SpaceMap, g: SpaceMap) -> bool:
    """True iff f and g are mutually inverse continuous maps."""
    if f.domain != g.codomain or f.codomain != g.domain:
        raise DomainMismatchError(
            f"homeomorphism check needs maps {f.domain.name!r} <-> {f.codomain.name!r} "
            "in both directions")
    if not is_continuous(f) or not is_continuous(g):
        return False
    if any(g(f(x)) != x for x in f.domain.elements):
        return False
    return all(f(g(y)) == y for y in g.domain.elements)


def _signature(space: Space, element: str) -> tuple[int, int, int]:
    # invariant under homeomorphism: chain length plus preorder degrees
    return (space.dimension(element),
            len(space.down_set(element)),
            len(space.up_set(element)))


def find_homeomorphism(x: Space, y: Space, max_elements: int = 10) -> SpaceMap | None:
    """Search for a homeomorphism from x to y; None when there is none.

    Exact backtracking over bijections.  Candidate images are pruned by
    the (dimension, down-degree, up-degree) signature, which every
    homeomorphism preserves.  Deciding this is as hard as graph
    isomorphism, hence the hard size bound instead of a silent slowdown;
    raise the bound explicitly if you accept the cost.

    Deterministic: elements are tried in lexicographic order, so the same
    inputs always produce the same map.
    """
    check_size(max_elements, x, y)
    if len(x.elements) != len(y.elements):
        return None
    sig_x = {e: _signature(x, e) for e in x.elements}
    sig_y = {e: _signature(y, e) for e in y.elements}
    if Counter(sig_x.values()) != Counter(sig_y.values()):
        return None

    order = sorted(x.elements)
    candidates = {e: sorted(t for t in y.elements if sig_y[t] == sig_x[e]) for e in order}
    assigned: dict[str, str] = {}
    used: set[str] = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        a = order[i]
        for b in candidates[a]:
            if b in used:
                continue
            if all(x.in_preorder(a, u) == y.in_preorder(b, v)
                   and x.in_preorder(u, a) == y.in_preorder(v, b)
                   for u, v in assigned.items()):
                assigned[a] = b
                used.add(b)
                if extend(i + 1):
                    return True
                del assigned[a]
                used.remove(b)
        return False

    if extend(0):
        return SpaceMap._trusted(x, y, dict(assigned))
    return None
