"""Shared exception vocabulary for the workbench."""


class ZfLabError(Exception):
    """Base class for all workbench errors."""


class CapExceeded(ZfLabError):
    """An enumeration would exceed its configured cap."""


class NotAPair(ZfLabError):
    """A set is not the encoding of an ordered pair."""


class ParseError(ZfLabError):
    """Malformed literal or formula text."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class UnboundVariable(ZfLabError):
    """A formula variable has no binding in the environment."""


class PairOutOfCarrier(ZfLabError):
    """A relation member does not decode to a pair over the carrier."""


class NoLeast(ZfLabError):
    """No unique least element exists where one is required."""


class NotUniquelySatisfied(ZfLabError):
    """A formula required to hold at exactly one element does not."""


class NotLiftShaped(ZfLabError):
    """A relation is not the tagged lift of a relation over a base set."""


class EmptyInterval(ZfLabError):
    """An interval literal or construction denotes the empty set."""


class SampleOutsideInterval(ZfLabError):
    """A sample point lies outside the interval under test."""


class EmptyFamily(ZfLabError):
    """A family of sets must have at least one member."""


class ConfigError(ZfLabError):
    """A run configuration holds a value that no command accepts."""


class CrossCheckFailed(ZfLabError):
    """Two independent routes to the same result disagree."""
