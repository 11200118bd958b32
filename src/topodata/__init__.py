"""Finite topological spaces as incidence DAGs.

A space is a finite element set with an acyclic "bounded by" relation;
the relation generates the topology, and continuity of maps between
spaces is the central consistency rule.  On top of that sit the
relational-style query operators (subspace, quotient, pasting, pullback,
product, theta join, fibre product), foreign-key style constraint
validation, and brute-force oracles the fast paths are tested against.
"""

import importlib.machinery
import importlib.util
import sys

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_PUBLIC = {
    "algebra": ("SEPARATOR", "fibre_product", "pair_id", "paste_union", "product",
                "pullback_intersection", "quotient", "select_subspace", "theta_join"),
    "constraints": ("CheckResult", "Dataset", "ForeignKeyConstraint", "StageProfile",
                    "ValidationReport", "validate"),
    "errors": ("CodomainMismatchError", "CyclicIncidenceError", "DanglingIncidenceError",
               "DomainMismatchError", "DuplicateElementError", "InvalidAttributeError",
               "InvalidElementIdError", "InvalidOptionError", "MapTotalityError",
               "NotContinuousError", "ParseError", "QuotientCycleError", "ScriptError",
               "ScriptNameError", "SelfLoopError", "SeparatorCollisionError", "SizeBoundError",
               "TopologyError", "UnknownElementError", "UnresolvedReferenceError"),
    "maps": ("ContinuityResult", "Partition", "SpaceMap", "ThetaRelation", "compose",
             "find_homeomorphism", "identity_map", "is_continuous", "is_homeomorphism"),
    "oracle": ("enumerate_topology", "oracle_find_homeomorphism", "oracle_is_continuous"),
    "script": ("ScriptResult", "parse_script", "run_script"),
    "space": ("Pair", "Space"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_MODULE_OF)


def _register(module: str):
    """The submodule, put in ``sys.modules`` now and run when an attribute
    of it is first read (``importlib.util.LazyLoader``)."""
    spec = importlib.machinery.PathFinder.find_spec(f"{__name__}.{module}", __path__)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


# Every submodule is registered, so a process runs only the modules it
# uses, and each is found in sys.modules and as an attribute of the
# package.  ``cli`` is not: ``python -m topodata.cli`` must find it unloaded.
algebra, constraints, errors, io, maps, oracle, script, space = map(_register, (
    "algebra", "constraints", "errors", "io", "maps", "oracle", "script", "space"))


def __getattr__(name: str):
    """A public name, read from its submodule on first use and then bound here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_MODULE_OF[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
