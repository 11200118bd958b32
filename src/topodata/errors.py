"""Exception types shared across the package."""


def shown_source(source: str) -> str:
    """A source as a one-line message names it: its ``repr`` if it holds a line break."""
    return source if "".join(source.splitlines()) == source else repr(source)


class TopologyError(Exception):
    """Base class for every error raised by this package."""


class InvalidElementIdError(TopologyError):
    """An element id is empty or contains whitespace or a comma."""


class DuplicateElementError(TopologyError):
    """The same element id appears more than once."""


class DanglingIncidenceError(TopologyError):
    """An incidence pair references an id outside the element set."""


class SelfLoopError(TopologyError):
    """An incidence pair relates an element to itself."""


class CyclicIncidenceError(TopologyError):
    """The incidence relation contains a directed cycle."""


class InvalidOptionError(TopologyError, ValueError):
    """An operation was given an option value it does not accept."""


class InvalidAttributeError(TopologyError):
    """Element attributes are not a mapping of strings to strings."""


class UnknownElementError(TopologyError):
    """An id was used that is not an element of the space at hand."""


class MapTotalityError(TopologyError):
    """A map does not cover every element of its domain."""


class DomainMismatchError(TopologyError):
    """Two maps do not line up for composition or comparison."""


class CodomainMismatchError(TopologyError):
    """Two maps were expected to share a codomain but do not."""


class NotContinuousError(TopologyError):
    """A map required to be continuous fails the check.

    ``witness`` is the offending domain pair (a, b), ``image`` its image pair.
    """

    def __init__(self, message, witness=None, image=None):
        super().__init__(message)
        self.witness = witness
        self.image = image


class QuotientCycleError(TopologyError):
    """A partition induced a cyclic relation on its class labels."""


class SeparatorCollisionError(TopologyError):
    """An input element id already contains the pair-id separator."""


class SizeBoundError(TopologyError):
    """A space exceeds the configured bound of an exhaustive computation."""


class UnresolvedReferenceError(TopologyError):
    """A name does not resolve to a known space or map."""


class ParseError(TopologyError):
    """A document could not be parsed; carries source and line when known,
    the source shown by its ``repr`` if it holds a line break."""

    def __init__(self, message, source=None, line=None):
        self.source = source
        self.line = line
        prefix = ""
        if source is not None:
            shown = shown_source(source)
            prefix = f"{shown}: " if line is None else f"{shown}:{line}: "
        super().__init__(prefix + message if prefix else message)


class ScriptNameError(TopologyError):
    """A script name was used before binding, or bound twice."""


class ScriptError(TopologyError):
    """A script statement failed; the message carries the statement line."""
