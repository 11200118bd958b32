"""Relational-style query operators over spaces.

Each operator returns the result space together with the maps linking it
to its inputs (inclusions into sources, or projections onto them), and
every emitted map is continuous by construction.  Selection restricts
the preorder, not the raw relation, so elements stay correctly related
even when the chain between them was dropped; results of the restricting
operators are returned transitively reduced, which makes serialized
output canonical.  Quotient and product instead keep the literally
induced relation (image pairs, respectively the tagged copies of the two
input relations), redundant pairs included.
"""

from __future__ import annotations

import warnings
from itertools import accumulate, repeat
from operator import add
from typing import Iterable

from .errors import (
    CodomainMismatchError,
    CyclicIncidenceError,
    InvalidOptionError,
    NotContinuousError,
    QuotientCycleError,
    SeparatorCollisionError,
    UnknownElementError,
    UnresolvedReferenceError,
)
from .maps import Partition, SpaceMap, ThetaRelation, is_continuous
from .space import (Space, _kept_down_sets, check_element_id, covers, down_bits,
                    post_order, strongly_connected_components)

SEPARATOR = "×"  # joins the two ids of a pair element; no input id may contain it
PRODUCT_WARN_LIMIT = 10 ** 6  # product sizes above this warn


def pair_id(left: str, right: str) -> str:
    """Render the id of a product element."""
    return f"{left}{SEPARATOR}{right}"


def select_subspace(space: Space, keep) -> tuple[Space, SpaceMap]:
    """Subspace on a subset of elements, with its inclusion map.

    ``keep`` is a collection of element ids.  The result relation is the
    transitive reduction of the preorder restricted to the kept elements,
    not the raw relation restricted: two kept elements related only
    through dropped ones stay related.
    """
    kept = space._subset(keep)
    order, below = _kept_down_sets(kept, space)
    attributes = {e: dict(space.attributes[e]) for e in kept if e in space.attributes}
    sub = Space._trusted(space.name, kept, covers(order, below), attributes, order)
    return sub, SpaceMap._trusted(sub, space, {e: e for e in kept})


def quotient(space: Space, partition: Partition,
             on_cycle: str = "error") -> tuple[Space, SpaceMap]:
    """Quotient space of a partition, with the projection map.

    Elements are the class labels; an element the partition does not
    list is a singleton class labelled by its own id, and listing an id
    outside ``space`` raises.  The relation is the set of image pairs of
    the source relation with equal-label pairs dropped.  A partition can
    fold the source order into a cycle, which no space may carry:
    with ``on_cycle="error"`` that raises, with ``"collapse"`` each cyclic
    group of classes is merged into a single class named ``scc:<least
    member label>`` and the quotient is rebuilt.  Collapsing raises when
    that name is already the label of another class.  A space name that
    the partition declares must be the name of ``space``.
    """
    if partition.space_name is not None and partition.space_name != space.name:
        raise UnresolvedReferenceError(
            f"partition is declared for space {partition.space_name!r}, not {space.name!r}")
    if on_cycle not in ("error", "collapse"):
        raise InvalidOptionError(f"on_cycle must be 'error' or 'collapse', got {on_cycle!r}")
    extra = partition.classes.keys() - space.elements
    if extra:
        raise UnknownElementError(
            f"partition classifies ids outside {space.name!r}: {sorted(extra)}")

    label = {e: partition.classes.get(e, e) for e in space.elements}

    def induced(labelling):
        """The classes, and the tuple of the other classes below each one."""
        below: dict[str, dict[str, None]] = {c: {} for c in labelling.values()}
        for a, successors in space._succ.items():
            targets = below[labelling[a]]
            for b in successors:
                targets[labelling[b]] = None
        return frozenset(below), {c: tuple(t for t in targets if t != c)
                                  for c, targets in below.items()}

    name = f"{space.name}/~"
    classes, succ = induced(label)
    for c in sorted(classes - space.elements):  # an id of the space is a valid id
        check_element_id(c)
    try:
        result = Space._trusted(name, classes, succ, {})
    except CyclicIncidenceError as err:
        if on_cycle == "error":
            raise QuotientCycleError(
                f"partition of {space.name!r} induces a cycle on its classes "
                f"({err})") from err
        merged: dict[str, str] = {}
        named: set[str] = set()
        for component in sorted(strongly_connected_components(succ), key=min):
            target = min(component)
            if len(component) > 1:
                target = "scc:" + target
            if target in named:
                raise QuotientCycleError(
                    f"collapsing a cycle of {space.name!r} would name the merged "
                    f"class {target!r}, which is already a class label")
            named.add(target)
            for member in component:
                merged[member] = target
        label = {e: merged[label[e]] for e in space.elements}
        classes, succ = induced(label)
        result = Space._trusted(name, classes, succ, {})
    return result, SpaceMap._trusted(space, result, label)


def paste_union(x: Space, y: Space) -> tuple[Space, SpaceMap, SpaceMap]:
    """Union of two spaces glued along equal element ids, with inclusions.

    Attributes of shared ids are merged, the right side winning on key
    conflicts.  Gluing can force a cycle between the two relations, which
    is an error.  For a disjoint sum, namespace the ids upstream.
    """
    elements = x.elements | y.elements
    attributes: dict[str, dict[str, str]] = {}
    for source in (x, y):
        for element, kv in source.attributes.items():
            attributes.setdefault(element, {}).update(kv)
    succ = dict(x._succ)
    for e, below in y._succ.items():
        succ[e] = tuple(dict.fromkeys(succ[e] + below)) if e in succ else below
    try:
        glued = Space._trusted(f"{x.name}∪{y.name}", elements, succ, attributes)
    except CyclicIncidenceError as err:
        raise CyclicIncidenceError(
            f"gluing {x.name!r} and {y.name!r} by shared ids creates a cycle "
            f"({err})") from err
    result = glued.transitive_reduce()
    include_x = SpaceMap._trusted(x, result, {e: e for e in x.elements})
    include_y = SpaceMap._trusted(y, result, {e: e for e in y.elements})
    return result, include_x, include_y


def pullback_intersection(x: Space, y: Space) -> tuple[Space, SpaceMap, SpaceMap]:
    """Intersection on shared element ids, with inclusions into both inputs.

    Two shared elements are related in the result exactly when they are
    related in the preorders of both inputs, so both inclusions are
    continuous and the result carries the coarsest relation with that
    property.  The common ids are numbered in a post-order of x, a
    linear extension of the result order, and only what lies below them
    in x and in y is searched.
    """
    common = x.elements & y.elements
    order, below = _kept_down_sets(common, x, y)
    attributes: dict[str, dict[str, str]] = {}
    for source in (x, y):
        for element, kv in source.attributes.items():
            if element in common:
                attributes.setdefault(element, {}).update(kv)
    result = Space._trusted(f"{x.name}∩{y.name}", common, covers(order, below), attributes,
                            order)
    include_x = SpaceMap._trusted(result, x, {e: e for e in common})
    include_y = SpaceMap._trusted(result, y, {e: e for e in common})
    return result, include_x, include_y


def _check_separator(*spaces: Space) -> None:
    """No id may contain the separator, so each pair id splits back one way only."""
    for space in spaces:
        clashing = sorted(e for e in space.elements if SEPARATOR in e)
        if clashing:
            raise SeparatorCollisionError(
                f"elements of {space.name!r} already contain the separator "
                f"{SEPARATOR!r}: {clashing}")


def _pair_space(x: Space, y: Space, order: list[str], onto_x: dict[str, str],
                onto_y: dict[str, str],
                succ: dict[str, Iterable[str]]) -> tuple[Space, SpaceMap, SpaceMap]:
    """The space on the pair ids of ``order``, a linear extension of the
    relation ``succ``, with its two projections, given as tables."""
    result = Space._trusted(pair_id(x.name, y.name), frozenset(order), succ, {}, order)
    return result, SpaceMap._trusted(result, x, onto_x), SpaceMap._trusted(result, y, onto_y)


def product(x: Space, y: Space) -> tuple[Space, SpaceMap, SpaceMap]:
    """Product space on all element pairs, with the two projections.

    The relation is the union of the two tagged copies of the input
    relations: for every left element x the pairs (x*a, x*b) with (a, b)
    related on the right, and for every right element y the pairs
    (c*y, d*y) with (c, d) related on the left.  Dimensions of pair
    elements are the sums of the component dimensions.  This is the
    topological generalisation of extrusion.

    The pair ids are made once, in one row per left element, both rows
    and columns in the inputs' linear extensions; read row by row, the
    table is a linear extension of the componentwise product order.
    """
    _check_separator(x, y)
    total = len(x.elements) * len(y.elements)
    if total > PRODUCT_WARN_LIMIT:
        warnings.warn(f"product has {total} elements, above the advisory "
                      f"limit {PRODUCT_WARN_LIMIT}", RuntimeWarning, stacklevel=2)
    columns = y._order
    rows = [[pair_id(t, u) for u in columns] for t in x._order]
    row_of = dict(zip(x._order, rows))
    at = {u: j for j, u in enumerate(columns)}
    # the positions in a row of every column's right successors, end to end,
    # and each column's slice of them
    right = [at[b] for u in columns for b in y._succ[u]]
    ends = list(accumulate(len(y._succ[u]) for u in columns))
    spans = list(map(slice, [0, *ends], ends))
    succ: dict[str, tuple[str, ...]] = {}
    for t, row in zip(x._order, rows):
        # each id's right successors in its row, then its left ones in its column
        within = tuple(map(row.__getitem__, right))
        lower = x._succ[t]
        across = zip(*map(row_of.__getitem__, lower)) if lower else repeat(())
        succ.update(zip(row, map(add, map(within.__getitem__, spans), across)))
    order = [rid for row in rows for rid in row]
    onto_x = dict(zip(order, [t for t in x._order for _ in columns]))
    onto_y = dict(zip(order, columns * len(rows)))
    return _pair_space(x, y, order, onto_x, onto_y, succ)


def theta_join(x: Space, y: Space, theta: ThetaRelation) -> tuple[Space, SpaceMap, SpaceMap]:
    """Join of two spaces on an explicit pair relation, with projections.

    Equal by construction to selecting theta's pairs out of the full
    product, but computed without materializing the product: the preorder
    of the product is componentwise, so reachability between kept pairs
    is decided directly on the inputs and only the kept pairs are ever
    touched.  The kept pairs are numbered by the sum of their components'
    positions in post-orders of the down sets of theta's left and right
    ids, a linear extension of the componentwise order that the result
    keeps as its order.  One pass over each of those down sets gives
    every element in it the bitset of the kept pairs whose left (right)
    component lies below it, and the down set of a kept pair (l, r) is
    the meet of those of l and r: the cost is one bitset operation over
    the kept pairs per element and incidence pair below theta's ids, not
    the square of the number of kept pairs.
    Side names that theta declares must be the names of x and y.
    """
    for declared, actual, side in ((theta.left_name, x.name, "left"),
                                   (theta.right_name, y.name, "right")):
        if declared is not None and declared != actual:
            raise UnresolvedReferenceError(
                f"theta {side} side is declared for {declared!r}, not {actual!r}")
    _check_separator(x, y)
    kept = sorted(theta.pairs)
    for a, b in kept:
        if a not in x.elements:
            raise UnknownElementError(f"theta left id {a!r} is not in {x.name!r}")
        if b not in y.elements:
            raise UnknownElementError(f"theta right id {b!r} is not in {y.name!r}")
    order_x = post_order(x._succ, dict.fromkeys(a for a, _ in kept))
    order_y = post_order(y._succ, dict.fromkeys(b for _, b in kept))
    at_x = {e: p for p, e in enumerate(order_x)}
    at_y = {e: p for p, e in enumerate(order_y)}
    kept.sort(key=lambda pair: at_x[pair[0]] + at_y[pair[1]])
    order = [pair_id(a, b) for a, b in kept]
    by_left: dict[str, list[int]] = {}
    by_right: dict[str, list[int]] = {}
    for i, (a, b) in enumerate(kept):
        by_left.setdefault(a, []).append(i)
        by_right.setdefault(b, []).append(i)
    left = down_bits(order_x, x._succ, {a: _bitset(numbers) for a, numbers in by_left.items()})
    right = down_bits(order_y, y._succ, {b: _bitset(numbers) for b, numbers in by_right.items()})
    below = {}
    for i, (a, b) in enumerate(kept):
        (top_a, bits_a), (top_b, bits_b) = left[a], right[b]
        below[i] = (bits_a >> (top_a - i)) & (bits_b >> (top_b - i))
    onto_x = {rid: a for rid, (a, _) in zip(order, kept)}
    onto_y = {rid: b for rid, (_, b) in zip(order, kept)}
    return _pair_space(x, y, order, onto_x, onto_y, covers(order, below))


def _bitset(numbers: list[int]) -> tuple[int, int]:
    """Increasing numbers as a ``(top, bits)`` bitset of ``down_bits``: number
    n is bit ``top - n``, the binary digit ``n - low`` counted from the first."""
    low, top = numbers[0], numbers[-1]
    digits = bytearray(b"0") * (top - low + 1)
    for n in numbers:
        digits[n - low] = 49  # ord("1")
    return top, int(digits, 2)


def fibre_product(u: SpaceMap, p: SpaceMap) -> tuple[Space, SpaceMap, SpaceMap]:
    """Join of two map domains on pairs where the maps agree, with projections.

    Both maps must be continuous into the same index space; the result is
    the subspace of the product of their domains on the pairs (a, b) with
    u(a) = p(b).  With a discrete index space this places each indexed
    piece of one side at every location of the other that names it, the
    detail-library pattern.
    """
    if u.codomain != p.codomain:
        raise CodomainMismatchError(
            f"fibre product needs a common index space, got {u.codomain.name!r} "
            f"and {p.codomain.name!r}")
    for tag, mapping in (("left", u), ("right", p)):
        verdict = is_continuous(mapping)
        if not verdict:
            raise NotContinuousError(
                f"{tag} map {mapping.domain.name!r} -> {mapping.codomain.name!r} "
                f"is not continuous: {verdict.describe()}",
                witness=verdict.witness, image=verdict.image)
    fibres: dict[str, list[str]] = {}
    for b in p.domain.elements:
        fibres.setdefault(p(b), []).append(b)
    theta = ThetaRelation(
        ((a, b) for a in u.domain.elements for b in fibres.get(u(a), ())),
        left_name=u.domain.name, right_name=p.domain.name)
    return theta_join(u.domain, p.domain, theta)
