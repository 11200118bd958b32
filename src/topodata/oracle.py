"""Brute-force reference implementations used to cross-check fast paths.

Everything here is deliberately naive and exponential: open sets are
found by testing every subset, continuity by checking every open
preimage, homeomorphism by trying every bijection.  These definitions
are the ground truth the optimized code is tested against, so clarity
beats speed; an element bound, ``max_elements``, keeps the cost explicit.
"""

from __future__ import annotations

from itertools import permutations

from .maps import SpaceMap
from .space import ENUMERATION_LIMIT, Space, check_size

SEARCH_LIMIT = 8


def enumerate_topology(space: Space,
                       max_elements: int = ENUMERATION_LIMIT) -> tuple[frozenset[str], ...]:
    """All open subsets, found by testing the openness condition on every subset.

    Subsets are emitted in ascending bitmask order over the sorted element
    list, so the family order is canonical.
    """
    check_size(max_elements, space)
    order = sorted(space.elements)
    index = {e: i for i, e in enumerate(order)}
    pairs = [(index[a], index[b]) for a, b in space.incidence]
    opens = []
    for mask in range(1 << len(order)):
        if all(not (mask >> b) & 1 or (mask >> a) & 1 for a, b in pairs):
            opens.append(frozenset(e for e in order if (mask >> index[e]) & 1))
    return tuple(opens)


def oracle_is_continuous(f: SpaceMap, max_elements: int = ENUMERATION_LIMIT) -> bool:
    """Continuity by the open-preimage definition.

    True iff the preimage of every open set of the codomain is open in
    the domain.  Independent of the preorder-based fast path.
    """
    check_size(max_elements, f.domain, f.codomain)
    for open_set in enumerate_topology(f.codomain, max_elements):
        preimage = frozenset(e for e in f.domain.elements if f(e) in open_set)
        if not f.domain.is_open(preimage):
            return False
    return True


def oracle_find_homeomorphism(x: Space, y: Space,
                              max_elements: int = SEARCH_LIMIT) -> SpaceMap | None:
    """Exhaustive homeomorphism search over all bijections, no pruning.

    A bijection f is accepted iff it maps the enumerated topology of x
    exactly onto the enumerated topology of y (for a bijection, image
    membership plus equal family sizes already forces equality).
    Bijections are tried in lexicographic order.
    """
    check_size(max_elements, x, y)
    if len(x.elements) != len(y.elements):
        return None
    family_x = enumerate_topology(x, max_elements)
    family_y = set(enumerate_topology(y, max_elements))
    if len(family_x) != len(family_y):
        return None
    sources = sorted(x.elements)
    for image in permutations(sorted(y.elements)):
        f = dict(zip(sources, image))
        if all(frozenset(f[e] for e in open_set) in family_y for open_set in family_x):
            return SpaceMap(x, y, f)
    return None
