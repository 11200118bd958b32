"""Finite topological spaces stored as incidence DAGs.

A space is a finite set of elements plus an acyclic binary relation on
them, the incidence relation.  A pair ``(a, b)`` reads "a is bounded by
b": b lies in the boundary of a, the way a face is bounded by its edges
and an edge by its vertices.  The relation generates a topology whose
open sets are exactly the subsets A with the property that whenever a
boundary element b of some a lies in A, a lies in A too.  Because the
point set is finite this topology is closed under arbitrary
intersections as well, so the whole space is equivalently described by
the reflexive-transitive closure of the incidence relation (its
specialisation preorder), which is what most queries here work on.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from itertools import chain

from .errors import (
    CyclicIncidenceError,
    DanglingIncidenceError,
    DuplicateElementError,
    InvalidAttributeError,
    InvalidElementIdError,
    SelfLoopError,
    SizeBoundError,
    UnknownElementError,
    UnresolvedReferenceError,
)

Pair = tuple[str, str]

# \s matches exactly the characters for which str.isspace() is true
_WHITESPACE_OR_COMMA = re.compile(r"[\s,]")


def check_element_id(token: object) -> str:
    """Validate an element id: non-empty string, no whitespace, no comma."""
    if not isinstance(token, str) or not token:
        raise InvalidElementIdError(f"element id must be a non-empty string, got {token!r}")
    if _WHITESPACE_OR_COMMA.search(token):
        raise InvalidElementIdError(f"element id contains whitespace or a comma: {token!r}")
    return token


def check_name(name: object, what: str) -> str:
    """Validate a name that a report prints: a string of one line."""
    if not isinstance(name, str):
        raise UnresolvedReferenceError(f"{what} must be a string, got {name!r}")
    if "".join(name.splitlines()) != name:
        raise UnresolvedReferenceError(f"{what} must be one line, got {name!r}")
    return name


def _iterate(collection: object, what: str):
    """An iterator over a collection given from outside; anything else is an id error.

    A plain string is refused too: iterating it would split one id into
    its characters.
    """
    if not isinstance(collection, str):
        try:
            return iter(collection)
        except TypeError:
            pass
    raise InvalidElementIdError(f"{what} must be a collection, got {collection!r}")


def check_pairs(entries: Iterable, what: str) -> Iterator[Pair]:
    """The entries as id pairs, lazily; the first not a 2-list or 2-tuple of strings raises."""
    for entry in _iterate(entries, what):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                and isinstance(entry[0], str) and isinstance(entry[1], str)):
            raise InvalidElementIdError(f"{what}: entry {entry!r} is not a pair of string ids")
        yield entry[0], entry[1]


ENUMERATION_LIMIT = 12  # default bound of the exhaustive oracles


def check_size(max_elements: int, *spaces: "Space") -> None:
    """Refuse an exhaustive run over any space with more than ``max_elements`` elements."""
    for s in spaces:
        if len(s.elements) > max_elements:
            raise SizeBoundError(f"space {s.name!r} has {len(s.elements)} elements, "
                                 f"guard allows {max_elements}")


def strongly_connected_components(succ: Mapping[str, Sequence[str]]) -> list[list[str]]:
    """The strongly connected components of a directed graph, as node lists.

    The graph is given by the successors of every node.  Kosaraju's
    algorithm (Sharir 1981): the last node of a depth-first finishing
    order lies in a component that no other component reaches, and the
    nodes that reach it, searched over the predecessors, are that
    component.  Taking the nodes in the reverse of the order, each node
    not yet placed starts the next component.  This holds for the
    finishing order of any depth-first forest, whatever its roots, so
    the first pass is a ``post_order`` from every node, which reads the
    same predecessor table.
    """
    nodes = sorted(succ)
    pred: dict[str, list[str]] = {node: [] for node in nodes}
    for a in nodes:
        for b in succ[a]:
            pred[b].append(a)
    order = post_order(succ, nodes, pred)
    components: list[list[str]] = []
    for node in reversed(order):
        if node not in pred:  # placed: its predecessors were taken out
            continue
        component, reached = [node], [pred.pop(node)]
        for below in reached:  # grows while it is read
            for a in below:
                if a in pred:
                    component.append(a)
                    reached.append(pred.pop(a))
        components.append(component)
    return components


def post_order(succ: Mapping[str, Sequence[str]], roots: Collection[str],
               above: Mapping[str, list[str]] | None = None) -> list[str]:
    """Every element below the roots, each after all of its successors.

    A depth-first post-order, searched from each root in turn.  Each
    search is followed by searches from the roots that bound an element
    it numbered, breadth first, before the next root: cells that share a
    face then get near positions, and their down sets make short bitsets.
    Only the roots' down-closure and their own successor lists are read.
    On a graph with cycles no order puts every element after its
    successors; this one is then the finishing order of a depth-first
    forest.  ``above`` maps elements to the roots that bound them, in
    the order of the roots; it is built here when not given.
    """
    if above is None:
        above = {}
        for root in roots:
            for child in succ[root]:
                if child in above:
                    above[child].append(root)
                else:
                    above[child] = [root]
    order: list[str] = []
    seen: set[str] = set()
    for source in roots:
        if source in seen:
            continue
        starts = [source]  # grows while it is read
        for start in starts:
            if start in seen:
                continue
            seen.add(start)
            stack = [(start, iter(succ[start]))]
            while stack:
                node, children = stack[-1]
                for child in children:
                    if child not in seen:
                        seen.add(child)
                        stack.append((child, iter(succ[child])))
                        break
                else:
                    stack.pop()
                    order.append(node)
                    if node in above:
                        starts += above[node]
    return order


def down_bits(order: Iterable[str], succ: Mapping[str, Iterable[str]],
              own: Mapping[str, tuple[int, int]]) -> dict[str, tuple[int, int]]:
    """The down set of every element of a DAG, as a ``(top, bits)`` bitset.

    ``order`` lists every element after all of its successors.  The down
    set of e is ``own[e]``, when given, united with the down sets of e's
    successors.  Bit i of ``bits`` stands for position ``top - i``, and
    ``top`` is the highest position in the set: a Python int allocates
    words up to its highest bit, so a set costs its span, not its
    highest position.  An empty set is ``(0, 0)``.
    """
    down: dict[str, tuple[int, int]] = {}
    for e in order:
        top, bits = own.get(e, (0, 0))
        for child in succ[e]:
            t, part = down[child]
            if not part:
                continue
            if not bits:
                top, bits = t, part
            elif t <= top:
                bits |= part << (top - t)
            else:
                top, bits = t, part | bits << (t - top)
        down[e] = (top, bits)
    return down


def covers(order: list[str], below: Mapping[int, int]) -> dict[str, list[str]]:
    """The covering pairs of a partial order given by bitset down sets, as
    the list of the elements each element covers, keyed by element.

    ``order[p]`` is the element at position p, and the positions must be
    a linear extension: an element lies at a higher position than
    everything strictly below it.  ``below[p]`` is the down set of the
    element at p, itself included, as an int whose bit i stands for
    position p - i (``down_bits`` builds them; see ``Space`` for their
    memory bound).
    (a, b) is a covering pair when b lies strictly below a and below no
    other element strictly below a (Aho, Garey & Ullman 1972).

    For each a the candidates are the elements strictly below it.  The
    candidate at the highest position, the lowest set bit, is below no
    other candidate, so it is a cover: it is kept, and its down set is
    cleared from the candidates, since nothing below a cover is another
    cover.  Repeating that until no candidate is left keeps exactly the
    covers of a, with a few int operations per cover (Goralčíková &
    Koubek 1979; Simon 1988).
    """
    succ = {}
    for a, candidates in below.items():
        succ[order[a]] = found = []
        candidates &= ~1
        while candidates:
            i = (candidates & -candidates).bit_length() - 1
            found.append(order[a - i])
            candidates &= ~(below[a - i] << i)
    return succ


def _kept_down_sets(kept: frozenset[str], first: Space,
                    *others: Space) -> tuple[list[str], dict[int, int]]:
    """The kept ids in a linear extension of their order in ``first``, and
    the meet over the given spaces of each kept id's down set among the
    kept ids, as the bitsets that ``covers`` reads.

    Each space is searched only below the kept ids, so the cost follows
    the kept ids and their down-closures, not the size of the spaces.
    """
    order = post_order(first._succ, kept)
    numbered = [e for e in order if e in kept]
    own = {e: (p, 1) for p, e in enumerate(numbered)}
    down = down_bits(order, first._succ, own)
    below = {p: down[e][1] for p, e in enumerate(numbered)}  # in first, p tops its own set
    for space in others:
        down = down_bits(post_order(space._succ, kept), space._succ, own)
        for p, e in enumerate(numbered):
            top, bits = down[e]
            below[p] &= bits >> (top - p)
    return numbered, below


class Space:
    """A finite topological space represented by an incidence DAG.

    Spaces are immutable value objects: equality covers the name, the
    element set, the incidence relation, and the attributes; hashing
    covers the name and the element set only, which equal spaces share.
    One derived table is memoised, never exposed, and safe to share
    across concurrent readers: the table of held ids.

    The incidence relation is held as successor tuples: each element
    maps to the tuple of the elements it is bounded by, in the order its
    pairs were given, a pair given more than once held once.  It is not
    closed or reduced implicitly; ``in_preorder`` tests the closure and
    ``transitive_reduce`` returns the canonical minimal relation.
    ``incidence``, the relation as a frozenset of pairs, is built on each
    read and not kept.

    The reductions (``transitive_reduce``, the operators that restrict a
    space to some of its elements) and ``maps.is_continuous`` number the
    elements below the ones they keep in a ``post_order`` and read every
    down set as an int (``down_bits``), built for the call and not kept.
    A down set costs its span in bits, from the highest position in it to
    the lowest: at most n/8 bytes for n numbered elements, so n^2/8 bytes
    at worst (1.1 MB for 3,000 elements), and a few words for a cell of a
    grid, whose faces get near positions.  The queries keep nothing either:
    ``closure`` and ``down_set`` are one ``post_order`` search from all
    their starts, and ``star`` and ``up_set`` one pass of the Kahn order.
    """

    def __init__(self, name, elements, incidence=(), attributes=None):
        check_name(name, "space name")
        ids = [check_element_id(e) for e in _iterate(elements, f"elements of {name!r}")]
        held = {e: e for e in ids}
        if len(held) < len(ids):
            dupes = sorted(e for e, n in Counter(ids).items() if n > 1)
            raise DuplicateElementError(f"duplicate element ids in {name!r}: {dupes}")
        elements = frozenset(held)

        # one loop puts each pair in its source's list.  A list or tuple of two
        # str ids passes the type test here, and ``check_pairs`` reads any other
        # entry, raising for a malformed one.  The first self or dangling pair
        # raises once the later entries are checked: a malformed one goes first.
        succ: dict[str, list[str]] = {e: [] for e in held}
        get = held.get
        what = f"incidence of {name!r}"
        entries = _iterate(incidence, what)
        for entry in entries:
            a = None
            if (type(entry) is list or type(entry) is tuple) and len(entry) == 2:
                a, b = entry
            if type(a) is not str or type(b) is not str:
                a, b = next(check_pairs((entry,), what))
            ha, hb = get(a), get(b)
            if ha is hb or ha is None or hb is None:
                for _ in check_pairs(entries, what):
                    pass
                if a == b:
                    raise SelfLoopError(f"self pair ({a!r}, {a!r}) in {name!r}")
                raise DanglingIncidenceError(f"incidence pair ({a!r}, {b!r}) in {name!r} "
                                             f"references unknown element "
                                             f"{a if a not in held else b!r}")
            succ[ha].append(hb)

        if attributes is not None and not isinstance(attributes, Mapping):
            raise InvalidAttributeError(f"attributes of {name!r} are not a mapping")
        cleaned: dict[str, dict[str, str]] = {}
        for el, kv in (attributes or {}).items():
            if el not in elements:
                raise UnknownElementError(
                    f"attributes given for unknown element {el!r} in {name!r}")
            if not isinstance(kv, Mapping):
                raise InvalidAttributeError(
                    f"attributes of {el!r} in {name!r} are not a mapping: {kv!r}")
            for k, v in kv.items():
                if not isinstance(k, str) or not isinstance(v, str):
                    raise InvalidAttributeError(
                        f"attribute keys and values must be strings: {k!r}={v!r}")
            if kv:
                cleaned[el] = dict(kv)

        # a pair given more than once is held once, at its first place, and
        # each list is replaced by the tuple the space keeps
        succ.update(zip(succ, map(tuple, map(dict.fromkeys, succ.values()))))
        self._build(name, elements, succ, cleaned, held)

    @classmethod
    def _trusted(cls, name: str, elements: frozenset[str], succ: dict[str, Iterable[str]],
                 attributes: dict[str, dict[str, str]],
                 order: list[str] | None = None) -> "Space":
        """A space from parts that are valid by construction, unchecked.

        For operator results only: the ids must be valid and distinct,
        ``succ`` must map every element to the elements it is bounded by,
        each listed once and none the element itself, and every attribute
        dict must be a non-empty str-to-str dict of an element.  The parts
        are kept, not copied: ``succ``'s values, which may be any iterables,
        are frozen to tuples in place here, as ``Space(...)``'s dedupe
        already does for its own.  ``order``, when the operator holds one,
        is a linear extension of the result: every element once, each after
        everything it is bounded by.  It is kept as given, unchecked.
        Without it the Kahn order is built, which checks acyclicity: an
        operator whose result can fold into a cycle passes none.
        """
        # the successor lists frozen in place, each freed as its tuple replaces it
        succ.update(zip(succ, map(tuple, succ.values())))
        space = cls.__new__(cls)
        space._build(name, elements, succ, attributes, order=order)
        return space

    def _build(self, name, elements, succ, attributes, held=None, order=None):
        self.name = name
        self.elements = elements
        self.attributes = attributes
        self._succ: dict[str, tuple[str, ...]] = succ
        if order is None:
            # the number of pairs ending at each element that has one, as a
            # plain dict: a Counter's subscripts are slower
            pending = dict(Counter(chain.from_iterable(succ.values())))
            # Kahn's sort from the sources down: an element is placed once
            # everything bounded by it is placed.  Reversed, the order lists
            # every element after its whole boundary.
            order = [e for e in elements if e not in pending]
            for a in order:
                for b in succ[a]:
                    pending[b] -= 1
                    if not pending[b]:
                        order.append(b)
            if len(order) < len(elements):
                raise CyclicIncidenceError(
                    f"incidence of {name!r} has a cycle: {' -> '.join(self._cycle())}")
            order.reverse()
        self._order = order

        # lazily filled cache; recomputation under a race is benign
        self._held: dict[str, str] | None = held

    def _held_ids(self) -> dict[str, str]:
        if self._held is None:  # each id keyed by itself: a lookup gives the held object
            self._held = {e: e for e in self.elements}
        return self._held

    def _cycle(self) -> list[str]:
        # A closed walk inside the cyclic component holding the least
        # element on any cycle: from that element, always step to the
        # least successor in the component until an element repeats.
        component = set(min((c for c in strongly_connected_components(self._succ)
                             if len(c) > 1), key=min))
        walk = [min(component)]
        position: dict[str, int] = {}
        while walk[-1] not in position:
            position[walk[-1]] = len(walk) - 1
            walk.append(min(b for b in self._succ[walk[-1]] if b in component))
        return walk[position[walk[-1]]:]

    @property
    def incidence(self) -> frozenset[Pair]:
        """The incidence pairs, built from the successor tuples on each read."""
        return frozenset((a, b) for a, below in self._succ.items() for b in below)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, Space):
            return NotImplemented
        return (self.name == other.name
                and self.elements == other.elements
                and self.incidence == other.incidence
                and self.attributes == other.attributes)

    def __hash__(self):
        # equal spaces have equal names and elements; the frozenset caches its hash
        return hash((self.name, self.elements))

    def __len__(self):
        return len(self.elements)

    def __contains__(self, element):
        return element in self.elements

    def __repr__(self):
        pairs = sum(map(len, self._succ.values()))
        return f"Space({self.name!r}, {len(self.elements)} elements, {pairs} pairs)"

    # -- fundamental queries -----------------------------------------------

    def _subset(self, subset: Iterable[str]) -> frozenset[str]:
        if isinstance(subset, str):  # iterating one id would split it into characters
            raise InvalidElementIdError(f"expected a collection of ids, got the string {subset!r}")
        try:
            sub = frozenset(subset)
        except TypeError:  # not iterable, or an unhashable id
            raise InvalidElementIdError(
                f"not a collection of element ids of {self.name!r}: {subset!r}") from None
        unknown = sub - self.elements
        if unknown:
            raise UnknownElementError(f"not elements of {self.name!r}: {sorted(unknown, key=str)}")
        return sub

    def is_open(self, subset: Iterable[str]) -> bool:
        """True iff for every pair (a, b) with b in the subset, a is in it too."""
        inside = self._subset(subset)
        return all(a in inside or inside.isdisjoint(below) for a, below in self._succ.items())

    def _element(self, element) -> str:
        """A query id that is an element; the type is tested first because
        an unhashable id cannot be looked up."""
        if not isinstance(element, str):
            raise InvalidElementIdError(f"element ids are strings, got {element!r}")
        if element not in self.elements:
            raise UnknownElementError(f"{element!r} is not an element of {self.name!r}")
        return element

    def _above(self, starts: Iterable[str]) -> frozenset[str]:
        """Everything that reaches the starts, themselves included: the order lists
        each element after its whole boundary, so each successor is settled first."""
        succ = self._succ
        above = set(starts)
        for a in self._order:
            if not above.isdisjoint(succ[a]):
                above.add(a)
        return frozenset(above)

    def down_set(self, element: str) -> frozenset[str]:
        """All elements reachable from ``element``, itself included.

        This is the closure of the singleton {element}.
        """
        return frozenset(post_order(self._succ, (self._element(element),)))

    def up_set(self, element: str) -> frozenset[str]:
        """All elements that reach ``element``, itself included.

        This is the star (minimal open superset) of the singleton {element}.
        """
        return self._above((self._element(element),))

    def in_preorder(self, a: str, b: str) -> bool:
        """True iff (a, b) lies in the reflexive-transitive closure of incidence."""
        below = self.down_set(a)
        return self._element(b) in below

    def closure(self, subset: Iterable[str]) -> frozenset[str]:
        """Smallest closed superset: everything reachable from the subset."""
        return frozenset(post_order(self._succ, self._subset(subset)))

    def star(self, subset: Iterable[str]) -> frozenset[str]:
        """Smallest open superset: everything that reaches the subset."""
        return self._above(self._subset(subset))

    def _depths(self) -> dict[str, int]:
        depth: dict[str, int] = {}
        of = depth.__getitem__
        for e in self._order:
            succ = self._succ[e]
            depth[e] = 1 + max(map(of, succ)) if succ else 0
        return depth

    def dimension(self, element: str) -> int:
        """Length of the longest strictly descending chain starting at ``element``.

        Sinks (elements with empty boundary) have dimension 0; an edge with
        vertices has dimension 1, and so on.
        """
        return self._depths()[self._element(element)]

    def space_dimension(self) -> int:
        """Maximal element dimension; -1 for the empty space."""
        return max(self._depths().values(), default=-1)

    def dimension_histogram(self) -> dict[int, int]:
        """Mapping dimension -> number of elements of that dimension."""
        return dict(sorted(Counter(self._depths().values()).items()))

    def transitive_reduce(self) -> "Space":
        """The same space with the unique minimal incidence relation.

        The reduction keeps exactly the covering pairs of the reachability
        order, so the generated topology is unchanged.
        """
        order, below = _kept_down_sets(self.elements, self)
        reduced = covers(order, below)
        # the covers are pairs of the relation, so equal counts make equal relations
        if sum(map(len, reduced.values())) == sum(map(len, self._succ.values())):
            return self
        return Space._trusted(self.name, self.elements, reduced, self.attributes, order)
