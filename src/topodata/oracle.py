"""Brute-force reference implementations used to cross-check fast paths.

Everything here is deliberately naive and exponential: open sets are
found by testing every subset, continuity by checking every open
preimage, homeomorphism by trying every bijection.  These definitions
are the ground truth the optimized code is tested against, so clarity
beats speed; size guards keep the cost explicit.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import Iterator, NamedTuple

from .errors import SizeBoundError
from .maps import SpaceMap
from .space import Space


class SizeGuard(NamedTuple):
    """Upper bound on the number of elements an exhaustive run accepts."""

    max_elements: int = 12

    def admit(self, *spaces: Space) -> None:
        for s in spaces:
            if len(s.elements) > self.max_elements:
                raise SizeBoundError(
                    f"space {s.name!r} has {len(s.elements)} elements, "
                    f"guard allows {self.max_elements}")


ENUMERATION_GUARD = SizeGuard(12)
SEARCH_GUARD = SizeGuard(8)
SAMPLE_FAMILIES = 64  # larger sub-families checked directly by oracle_axiom_check
SAMPLE_SEED = 0


class OpenSetFamily:
    """The explicitly materialised family of open subsets of a space."""

    def __init__(self, sets):
        self.sets = tuple(sets)
        self._members = frozenset(self.sets)

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def __contains__(self, subset) -> bool:
        return frozenset(subset) in self._members

    def __repr__(self):
        return f"OpenSetFamily({len(self.sets)} open sets)"


def enumerate_topology(space: Space, guard: SizeGuard = ENUMERATION_GUARD) -> OpenSetFamily:
    """All open subsets, found by testing the openness condition on every subset.

    Subsets are emitted in ascending bitmask order over the sorted element
    list, so the family order is canonical.
    """
    guard.admit(space)
    order = sorted(space.elements)
    index = {e: i for i, e in enumerate(order)}
    pairs = [(index[a], index[b]) for a, b in space.incidence]
    opens = []
    for mask in range(1 << len(order)):
        if all(not (mask >> b) & 1 or (mask >> a) & 1 for a, b in pairs):
            opens.append(frozenset(e for e in order if (mask >> index[e]) & 1))
    return OpenSetFamily(opens)


def oracle_is_continuous(f: SpaceMap, guard: SizeGuard = ENUMERATION_GUARD) -> bool:
    """Continuity by the open-preimage definition.

    True iff the preimage of every open set of the codomain is open in
    the domain.  Independent of the preorder-based fast path.
    """
    guard.admit(f.domain, f.codomain)
    for open_set in enumerate_topology(f.codomain, guard):
        preimage = frozenset(e for e in f.domain.elements if f(e) in open_set)
        if not f.domain.is_open(preimage):
            return False
    return True


class AxiomReport(NamedTuple):
    """Result of checking the topology axioms on an enumerated family."""

    space_name: str
    open_set_count: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def oracle_axiom_check(space: Space, guard: SizeGuard = ENUMERATION_GUARD) -> AxiomReport:
    """Verify the topology axioms on the enumerated open-set family.

    Checks membership of the empty set and the full set, and closure
    under union and intersection of every pair.  For a finite family,
    pairwise closure plus the two identity members already certifies
    closure under arbitrary unions and intersections; a seeded sample of
    larger sub-families is checked as well, directly.
    """
    guard.admit(space)
    order = sorted(space.elements)
    index = {e: i for i, e in enumerate(order)}
    family = enumerate_topology(space, guard)
    masks = [sum(1 << index[e] for e in open_set) for open_set in family]
    mask_set = set(masks)
    full = (1 << len(order)) - 1

    def show(mask: int) -> str:
        return "{" + ",".join(e for e in order if (mask >> index[e]) & 1) + "}"

    violations = []
    if 0 not in mask_set:
        violations.append("empty set is not open")
    if full not in mask_set:
        violations.append("full element set is not open")
    for i, m in enumerate(masks):
        for n in masks[i + 1:]:
            if (m | n) not in mask_set:
                violations.append(f"union {show(m)} | {show(n)} not open")
            if (m & n) not in mask_set:
                violations.append(f"intersection {show(m)} & {show(n)} not open")
    rng = random.Random(SAMPLE_SEED)
    for _ in range(SAMPLE_FAMILIES if masks else 0):
        chosen = rng.sample(masks, rng.randint(1, len(masks)))
        union = 0
        meet = full
        for m in chosen:
            union |= m
            meet &= m
        if union not in mask_set:
            violations.append(f"union of a {len(chosen)}-member sub-family not open")
        if meet not in mask_set:
            violations.append(f"intersection of a {len(chosen)}-member sub-family not open")
    return AxiomReport(space.name, len(family), tuple(violations))


def oracle_find_homeomorphism(x: Space, y: Space,
                              guard: SizeGuard = SEARCH_GUARD) -> SpaceMap | None:
    """Exhaustive homeomorphism search over all bijections, no pruning.

    A bijection f is accepted iff it maps the enumerated topology of x
    exactly onto the enumerated topology of y (for a bijection, image
    membership plus equal family sizes already forces equality).
    Bijections are tried in lexicographic order.
    """
    guard.admit(x, y)
    if len(x.elements) != len(y.elements):
        return None
    family_x = enumerate_topology(x, guard)
    family_y = enumerate_topology(y, guard)
    sources = sorted(x.elements)
    for image in permutations(sorted(y.elements)):
        f = dict(zip(sources, image))
        if (len(family_x) == len(family_y)
                and all(frozenset(f[e] for e in open_set) in family_y
                        for open_set in family_x)):
            return SpaceMap(x, y, f)
    return None
