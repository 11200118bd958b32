"""Cross-space referential constraints checked as continuity constraints.

A foreign key between two stored spaces is a total map; declaring it
``continuous`` additionally requires the map to respect the topologies,
which is the natural consistency rule for level-of-detail references
(every fine element maps to a coarse counterpart compatibly with the
incidences).  ``plain`` mode checks referential integrity only, so a
dataset can stage its migration to checked references.

A chain links the levels of detail of a dataset by continuous maps,
finest first.  ``validate`` checks every link of every declared chain
as a continuous constraint, which makes every composite along the chain
continuous too, and profiles the element dimensions of each stage.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .errors import DomainMismatchError, InvalidOptionError, UnresolvedReferenceError
from .maps import SpaceMap, is_continuous
from .space import Pair, Space, check_name

MODES = ("continuous", "plain")


class ForeignKeyConstraint(namedtuple("ForeignKeyConstraint", "name map_name mode")):
    __slots__ = ()

    def __new__(cls, name: str, map_name: str, mode: str = "continuous"):
        check_name(name, "constraint name")
        if mode not in MODES:
            raise InvalidOptionError(f"constraint mode must be one of {MODES}, got {mode!r}")
        return super().__new__(cls, name, map_name, mode)


class Dataset:
    """Named catalog of spaces, maps, foreign key constraints and chains.

    A dataset starts empty; ``add_space`` and ``add_map`` fill it.  A
    chain is a ``(name, map names)`` pair: the maps in order, each one's
    codomain the next one's domain.
    """

    def __init__(self):
        self.spaces: dict[str, Space] = {}
        self.maps: dict[str, SpaceMap] = {}
        self.constraints: list[ForeignKeyConstraint] = []
        self.chains: list[tuple[str, tuple[str, ...]]] = []

    def add_space(self, space: Space) -> None:
        existing = self.spaces.get(space.name)
        if existing is not None and existing != space:
            raise UnresolvedReferenceError(
                f"space name {space.name!r} already bound to different content")
        self.spaces[space.name] = space

    def add_map(self, name: str, space_map: SpaceMap) -> None:
        existing = self.maps.get(name)
        if existing is not None and existing != space_map:
            raise UnresolvedReferenceError(
                f"map name {name!r} already bound to a different map")
        self.maps[name] = space_map

    def resolve_map(self, name: str) -> SpaceMap:
        """The map bound to ``name``; its domain and codomain must be spaces of the dataset."""
        try:
            space_map = self.maps[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnresolvedReferenceError(f"no map named {name!r} in the dataset") from None
        for space in (space_map.domain, space_map.codomain):
            if self.spaces.get(space.name) != space:
                raise UnresolvedReferenceError(
                    f"map {name!r} uses space {space.name!r} which is not in the dataset")
        return space_map

    def __repr__(self):
        return (f"Dataset({len(self.spaces)} spaces, {len(self.maps)} maps, "
                f"{len(self.constraints)} constraints)")


class CheckResult(NamedTuple):
    name: str
    mode: str
    ok: bool
    detail: str = ""
    witness: Pair | None = None
    image: Pair | None = None

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        suffix = f": {self.detail}" if self.detail else ""
        return f"{verdict} {self.name} ({self.mode}){suffix}"


class StageProfile(NamedTuple):
    space_name: str
    dimensions: tuple[tuple[int, int], ...]  # (dimension, element count)

    def line(self) -> str:
        profile = " ".join(f"{d}:{n}" for d, n in self.dimensions) or "empty"
        return f"stage {self.space_name}: {profile}"


class ValidationReport(NamedTuple):
    checks: tuple[CheckResult, ...]
    stages: tuple[StageProfile, ...] = ()

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def lines(self) -> list[str]:
        out = [stage.line() for stage in self.stages]
        out.extend(check.line() for check in self.checks)
        return out


def _check_constraint(name: str, mode: str, space_map: SpaceMap) -> CheckResult:
    if mode == "continuous":
        verdict = is_continuous(space_map)
        if not verdict:
            return CheckResult(name, mode, False, detail=verdict.describe(),
                               witness=verdict.witness, image=verdict.image)
    return CheckResult(name, mode, True)


def validate(dataset: Dataset) -> ValidationReport:
    """Check every constraint, then every link of every chain; the report
    is ordered as declared, and lists the stages of each chain, finest first.

    A failing continuous check always carries a witness pair (a, b)
    whose image pair is outside the codomain preorder, so the violation
    can be re-checked independently.  A chain whose links do not compose
    raises ``DomainMismatchError``.
    """
    checks = []
    for constraint in dataset.constraints:
        space_map = dataset.resolve_map(constraint.map_name)
        checks.append(_check_constraint(constraint.name, constraint.mode, space_map))
    stages = []
    for chain, names in dataset.chains:
        maps = [dataset.resolve_map(name) for name in names]
        for left, right in zip(maps, maps[1:]):
            if left.codomain != right.domain:
                raise DomainMismatchError(f"chain {chain!r} breaks between "
                                          f"{left.codomain.name!r} and {right.domain.name!r}")
        for space in [m.domain for m in maps[:1]] + [m.codomain for m in maps]:
            stages.append(StageProfile(space.name, tuple(space.dimension_histogram().items())))
        for i, (name, space_map) in enumerate(zip(names, maps)):
            checks.append(_check_constraint(f"{chain} link[{i}] {name}", "continuous", space_map))
    return ValidationReport(tuple(checks), tuple(stages))
