"""Finite topological spaces as incidence DAGs.

A space is a finite element set with an acyclic "bounded by" relation;
the relation generates the topology, and continuity of maps between
spaces is the central consistency rule.  On top of that sit the
relational-style query operators (subspace, quotient, pasting, pullback,
product, theta join, fibre product), foreign-key style constraint
validation, and brute-force oracles the fast paths are tested against.
"""

from .algebra import (
    SEPARATOR,
    Partition,
    ThetaRelation,
    fibre_product,
    pair_id,
    paste_union,
    product,
    pullback_intersection,
    quotient,
    select_subspace,
    theta_join,
)
from .constraints import (
    CheckResult,
    Dataset,
    ForeignKeyConstraint,
    StageProfile,
    ValidationReport,
    validate,
)
from .errors import (
    CodomainMismatchError,
    CyclicIncidenceError,
    DanglingIncidenceError,
    DomainMismatchError,
    DuplicateElementError,
    InvalidAttributeError,
    InvalidElementIdError,
    InvalidOptionError,
    MapTotalityError,
    NotContinuousError,
    ParseError,
    QuotientCycleError,
    ScriptError,
    ScriptNameError,
    SelfLoopError,
    SeparatorCollisionError,
    SizeBoundError,
    TopologyError,
    UnknownElementError,
    UnresolvedReferenceError,
)
from .maps import (
    ContinuityResult,
    SpaceMap,
    compose,
    find_homeomorphism,
    identity_map,
    is_continuous,
    is_homeomorphism,
)
from .oracle import (
    AxiomReport,
    enumerate_topology,
    oracle_axiom_check,
    oracle_find_homeomorphism,
    oracle_is_continuous,
)
from .script import ScriptResult, parse_script, run_script
from .space import Pair, Space

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "CodomainMismatchError",
    "ContinuityResult",
    "CyclicIncidenceError",
    "DanglingIncidenceError",
    "Dataset",
    "DomainMismatchError",
    "DuplicateElementError",
    "ForeignKeyConstraint",
    "InvalidAttributeError",
    "InvalidElementIdError",
    "InvalidOptionError",
    "MapTotalityError",
    "NotContinuousError",
    "AxiomReport",
    "Pair",
    "ParseError",
    "Partition",
    "QuotientCycleError",
    "ScriptError",
    "ScriptNameError",
    "ScriptResult",
    "SelfLoopError",
    "SEPARATOR",
    "SeparatorCollisionError",
    "SizeBoundError",
    "Space",
    "SpaceMap",
    "StageProfile",
    "ThetaRelation",
    "TopologyError",
    "UnknownElementError",
    "UnresolvedReferenceError",
    "ValidationReport",
    "compose",
    "enumerate_topology",
    "fibre_product",
    "find_homeomorphism",
    "identity_map",
    "is_continuous",
    "is_homeomorphism",
    "oracle_axiom_check",
    "oracle_find_homeomorphism",
    "oracle_is_continuous",
    "pair_id",
    "parse_script",
    "paste_union",
    "product",
    "pullback_intersection",
    "quotient",
    "run_script",
    "select_subspace",
    "theta_join",
    "validate",
]
