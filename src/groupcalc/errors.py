"""Exception types shared across the package, and the check of the
physical scales hbar and m0 that every entry point applies."""

import math


class GroupCalcError(Exception):
    """Base class for all groupcalc errors."""


class DomainError(GroupCalcError, ValueError):
    """An argument left the operational domain of a group class."""


class ConvergenceError(GroupCalcError, RuntimeError):
    """An iterative routine (root finding, eigensolver) did not converge."""


class ToleranceNotMet(GroupCalcError, RuntimeError):
    """Adaptive quadrature hit its depth limit before reaching tolerance."""


class ParseError(GroupCalcError, ValueError):
    """Expression could not be parsed.

    Attributes:
        offset: byte offset of the failure in the source text.
        expected: tuple of token descriptions that would have been accepted.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(message)
        self.offset = offset
        self.expected = tuple(expected)


def require_positive_scale(name: str, value: float) -> None:
    """Raise DomainError unless ``value`` is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")
