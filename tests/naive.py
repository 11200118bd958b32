"""Naive reference definitions: the specialisation preorder and every query operator.

Each definition restates the README's operator table over the
specialisation preorder (``a <= b`` when a chain of incidence pairs leads
from a to b) and computes it by brute force: the preorder as a fixpoint
closure, its covers by testing every pair, closure and star from the
enumerated open sets, and the topology axioms that family must satisfy.
The results are built with the validating ``Space`` constructor.
Nothing here calls a library operator or a reachability method, so a
fast path cannot agree with its reference by sharing code with it.  The
definitions are meant for small inputs; the pipeline test keeps every
space to at most 12 elements, the limit of the oracles it checks the
linking maps with.
"""

from __future__ import annotations

from topodata import (CyclicIncidenceError, QuotientCycleError, Space, SpaceMap, ThetaRelation,
                      enumerate_topology)

SEPARATOR = "×"  # joins the two ids of a pair element, as the README states


# -- the preorder and the queries on it --------------------------------------------

def strict_below(elements, pairs) -> dict[str, set[str]]:
    """Transitive closure of the pairs by iteration to a fixpoint."""
    below = {e: set() for e in elements}
    for a, b in pairs:
        below[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in below:
            grown = set().union(below[a], *(below[b] for b in below[a]))
            if grown != below[a]:
                below[a] = grown
                changed = True
    return below


def naive_preorder(space: Space) -> set:
    """The reflexive-transitive closure of incidence, from the fixpoint closure."""
    below = strict_below(space.elements, space.incidence)
    return {(a, b) for a in below for b in below[a] | {a}}


def brute_covers(below: dict[str, set[str]]) -> set[tuple[str, str]]:
    """The pairs (a, b) with b strictly below a and nothing strictly between them."""
    return {(a, b) for a in below for b in below[a]
            if not any(b in below[c] for c in below[a])}


def brute_closure(space: Space, subset) -> frozenset:
    """Intersection of all closed supersets, from the enumerated topology."""
    subset = frozenset(subset)
    result = frozenset(space.elements)
    for open_set in enumerate_topology(space):
        closed = space.elements - open_set
        if subset <= closed:
            result &= closed
    return result


def brute_star(space: Space, subset) -> frozenset:
    """Intersection of all open supersets, from the enumerated topology."""
    subset = frozenset(subset)
    result = frozenset(space.elements)
    for open_set in enumerate_topology(space):
        if subset <= open_set:
            result &= open_set
    return result


def brute_dimension(space: Space, element: str) -> int:
    """Longest chain by walking every descending path."""
    successors: dict[str, list[str]] = {e: [] for e in space.elements}
    for a, b in space.incidence:
        successors[a].append(b)

    def walk(node: str) -> int:
        return max((1 + walk(nxt) for nxt in successors[node]), default=0)

    return walk(element)


def axiom_violations(space: Space, family) -> list[str]:
    """The topology axioms a family of element sets of the space breaks, one line each.

    The family must hold the empty set and the whole element set, and be
    closed under the union and the intersection of every pair.  For a
    finite family, pairwise closure plus the two identity members already
    certifies closure under arbitrary unions and intersections, by
    induction on the size of a sub-family.  Sets are compared as bitmasks
    over the sorted elements.
    """
    order = sorted(space.elements)
    index = {e: i for i, e in enumerate(order)}
    masks = [sum(1 << index[e] for e in member) for member in family]
    held = set(masks)

    def show(mask: int) -> str:
        return "{" + ",".join(e for e in order if (mask >> index[e]) & 1) + "}"

    violations = []
    if 0 not in held:
        violations.append("empty set is not open")
    if (1 << len(order)) - 1 not in held:
        violations.append("full element set is not open")
    for i, m in enumerate(masks):
        for n in masks[i + 1:]:
            if m | n not in held:
                violations.append(f"union {show(m)} | {show(n)} not open")
            if m & n not in held:
                violations.append(f"intersection {show(m)} & {show(n)} not open")
    return violations


# -- the operators -------------------------------------------------------------------

def _reduced(name: str, elements, below: dict[str, set[str]], attributes) -> Space:
    """The space on the elements whose incidence is the covers of ``below``."""
    if any(e in below[e] for e in below):
        raise CyclicIncidenceError(f"the preorder of {name!r} has a cycle")
    return Space(name, elements, brute_covers(below), attributes)


def _merged(elements, *spaces: Space) -> dict:
    """The attributes of the elements, later spaces winning on a shared key."""
    merged: dict[str, dict[str, str]] = {}
    for space in spaces:
        for element, kv in space.attributes.items():
            if element in elements:
                merged.setdefault(element, {}).update(kv)
    return merged


def _map(domain: Space, codomain: Space, image) -> SpaceMap:
    return SpaceMap(domain, codomain, {e: image(e) for e in domain.elements})


def naive_select(space: Space, keep) -> tuple[Space, SpaceMap]:
    """The kept elements, related as in the whole preorder, and the inclusion."""
    kept = set(keep)
    below = strict_below(space.elements, space.incidence)
    sub = _reduced(space.name, kept, {e: below[e] & kept for e in kept},
                   _merged(kept, space))
    return sub, _map(sub, space, lambda e: e)


def naive_intersect(x: Space, y: Space) -> tuple[Space, SpaceMap, SpaceMap]:
    """The shared ids, related where both preorders relate them, and both inclusions."""
    common = x.elements & y.elements
    below_x = strict_below(x.elements, x.incidence)
    below_y = strict_below(y.elements, y.incidence)
    result = _reduced(f"{x.name}∩{y.name}", common,
                      {e: below_x[e] & below_y[e] & common for e in common},
                      _merged(common, x, y))
    return result, _map(result, x, lambda e: e), _map(result, y, lambda e: e)


def naive_union(x: Space, y: Space) -> tuple[Space, SpaceMap, SpaceMap]:
    """All ids glued on equal ids, with the preorder both relations generate."""
    elements = x.elements | y.elements
    result = _reduced(f"{x.name}∪{y.name}", elements,
                      strict_below(elements, x.incidence | y.incidence),
                      _merged(elements, x, y))
    return result, _map(x, result, lambda e: e), _map(y, result, lambda e: e)


def naive_reduce(space: Space) -> Space:
    """The same elements and preorder on the fewest pairs: the covers."""
    return _reduced(space.name, space.elements,
                    strict_below(space.elements, space.incidence), space.attributes)


def naive_product(x: Space, y: Space) -> tuple[Space, SpaceMap, SpaceMap]:
    """Every id pair, with the tagged copies of both relations, and both projections."""
    ids = {f"{t}{SEPARATOR}{u}": (t, u) for t in x.elements for u in y.elements}
    incidence = [(f"{t}{SEPARATOR}{a}", f"{t}{SEPARATOR}{b}")
                 for t in x.elements for a, b in y.incidence]
    incidence += [(f"{c}{SEPARATOR}{u}", f"{d}{SEPARATOR}{u}")
                  for c, d in x.incidence for u in y.elements]
    result = Space(f"{x.name}{SEPARATOR}{y.name}", list(ids), incidence)
    return result, _map(result, x, lambda e: ids[e][0]), _map(result, y, lambda e: ids[e][1])


def naive_theta_join(x: Space, y: Space, theta: ThetaRelation):
    """Theta's pairs selected out of the full product, and the projections restricted."""
    prod, left, right = naive_product(x, y)
    sub, _ = naive_select(prod, {f"{a}{SEPARATOR}{b}" for a, b in theta.pairs})
    return sub, _map(sub, x, left), _map(sub, y, right)


def naive_fibre_product(u: SpaceMap, p: SpaceMap):
    """The theta join on the pairs of domain elements that the two maps send together."""
    theta = ThetaRelation([(a, b) for a in u.domain.elements for b in p.domain.elements
                           if u(a) == p(b)])
    return naive_theta_join(u.domain, p.domain, theta)


def naive_quotient(space: Space, label: dict, on_cycle: str = "error") -> tuple[Space, SpaceMap]:
    """The classes, with the image pairs of distinct classes, and the projection.

    ``label`` gives the class of every element.  Classes that the image
    pairs relate both ways form a cycle: with ``on_cycle="collapse"``
    each such group becomes one class named ``scc:<least label>``.
    """
    label = {e: label[e] for e in space.elements}  # raises for an element left out

    def image(labelling):
        return {(labelling[a], labelling[b]) for a, b in space.incidence
                if labelling[a] != labelling[b]}

    classes = set(label.values())
    below = strict_below(classes, image(label))
    if any(c in below[c] for c in classes):
        if on_cycle == "error":
            raise QuotientCycleError(f"the classes of {space.name!r} form a cycle")
        group = {c: sorted({c} | {d for d in below[c] if c in below[d]}) for c in classes}
        label = {e: group[c][0] if len(group[c]) == 1 else "scc:" + group[c][0]
                 for e, c in label.items()}
    result = Space(f"{space.name}/~", set(label.values()), image(label))
    return result, _map(space, result, label.get)
