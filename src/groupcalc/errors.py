"""Exception types shared across the package, the validity checks every
entry point applies to its numbers, and the one table that maps an exception
to its exit code and stderr line for the CLI and the REPL."""

import errno
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


def require_finite(name: str, value: float) -> float:
    """``value``, or DomainError unless it is finite."""
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def require_positive(name: str, value: float) -> float:
    """``value``, or DomainError unless it is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")
    return value


def kinetic_coefficient(hbar: float, m0: float) -> float:
    """alpha = hbar^2 / (2 m0), or DomainError unless hbar, m0 and alpha are
    each finite and > 0 (hbar^2 can underflow to 0, and alpha overflow)."""
    require_positive("hbar", hbar)
    require_positive("m0", m0)
    return require_positive("hbar^2/(2 m0)", hbar * hbar / (2.0 * m0))


def overflow_text(exc: OverflowError) -> str:
    """The message of a float overflow.  Python's ``**`` raises it with an
    errno tuple, ``(34, 'Numerical result out of range')``; that one reads as
    libm's own overflow does, ``math range error``."""
    if exc.args and exc.args[0] == errno.ERANGE:
        return "math range error"
    return str(exc)


# (exception type, exit code, label); the first row whose type matches wins.
# An OverflowError is a float that left the double range (a libm range
# error, or ``**`` past 1e308) on an input too large for the class.
# A ValueError that is none of the typed errors comes from a library check
# (a malformed spec, an unknown name) and is reported here, once.
_EXIT_TABLE = (
    (ParseError, 2, "parse error"),
    (DomainError, 3, "domain error"),
    (OverflowError, 3, "domain error: overflow"),
    (ConvergenceError, 4, "convergence failure"),
    (ToleranceNotMet, 4, "convergence failure"),
    (OSError, 5, "i/o error"),
    (ValueError, 3, "error"),
)

#: the exception types :func:`exit_status` reports
REPORTED = tuple(row[0] for row in _EXIT_TABLE)


def exit_status(exc: BaseException) -> tuple[int, str]:
    """(exit code, ``label: message`` line) of an exception of a REPORTED type."""
    for kind, code, label in _EXIT_TABLE:
        if isinstance(exc, kind):
            if isinstance(exc, ParseError):
                label += f" at offset {exc.offset}"
            text = overflow_text(exc) if kind is OverflowError else exc
            return code, f"{label}: {text}"
