"""Generalized arithmetic induced by a group class.

The additive family conjugates ordinary addition through the generator,
``x (+) y = G(G^{-1}(x) + G^{-1}(y))``, and the multiplicative family
conjugates it through the deformed exponential/logarithm pair,
``x (*) y = exp_g(log_g x + log_g y)``.  For the identity class both reduce
bit-for-bit to ordinary arithmetic.  The multiplicative family never clamps:
where a closed form clamps its base ``[.]_+`` to zero, the argument of exp_g
leaves the domain of G^{-1} and the operation raises DomainError.

The coordinate maps return plain numbers: ``deform`` gives the deformed
coordinate x_g = G^{-1}(x) and ``dual_deform`` the dual coordinate G(x).
Which space a set of samples lives in is recorded once, by the ``space`` of
a :class:`groupcalc.spectral.Grid`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .groups import GroupClass, _pow, exp_g, log_g

_local = threading.local()


def _set_clamped():
    _local.clamped = True


def reset_clamp_flag() -> None:
    """Clear the per-thread cutoff flag."""
    _local.clamped = False


def clamp_occurred() -> bool:
    """True if any cutoff bracket clamped a negative base since the last reset.

    Lets callers distinguish a genuine zero from a value silently forced to
    zero by the ``[.]_+`` convention.  The flag is thread-local.
    """
    return getattr(_local, "clamped", False)


def cutoff_pow(base: float, exponent: float) -> float:
    """``[base]_+ ** exponent``: non-negative part before exponentiation.

    A negative base is clamped to 0 and recorded via the clamp flag.
    """
    if base < 0.0:
        _set_clamped()
        return 0.0
    return base**exponent


def cutoff_pow_array(base: np.ndarray, exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`cutoff_pow` at every element of base, as ``(values, clamped)``.

    ``clamped`` marks the elements whose scalar call clamps; the clamp flag is
    set if any element clamps.
    """
    clamped = base < 0.0
    values = np.zeros(base.shape)
    values[~clamped] = _pow(base[~clamped], exponent)
    if clamped.any():
        _set_clamped()
    return values, clamped


# ---------------------------------------------------------------------------
# additive family
# ---------------------------------------------------------------------------


def g_sum(cls: GroupClass, x: float, y: float) -> float:
    """Generalized sum G(G^{-1}(x) + G^{-1}(y))."""
    return cls.g(cls.g_inv(x) + cls.g_inv(y))


def g_sub(cls: GroupClass, x: float, y: float) -> float:
    """Generalized difference G(G^{-1}(x) - G^{-1}(y))."""
    return cls.g(cls.g_inv(x) - cls.g_inv(y))


def g_neg(cls: GroupClass, x: float) -> float:
    """Additive inverse G(-G^{-1}(x)); g_sum(x, g_neg(x)) = 0."""
    return cls.g(-cls.g_inv(x))


# ---------------------------------------------------------------------------
# multiplicative family
# ---------------------------------------------------------------------------


def _require_positive(x: float, op: str) -> None:
    if x <= 0.0:
        raise DomainError(f"{op} needs positive operands, got {x!r}")


def g_prod(cls: GroupClass, x: float, y: float) -> float:
    """Generalized product exp_g(log_g x + log_g y) for x, y > 0."""
    _require_positive(x, "g_prod")
    _require_positive(y, "g_prod")
    if cls.is_identity:
        return x * y
    return exp_g(cls, log_g(cls, x) + log_g(cls, y))


def g_div(cls: GroupClass, x: float, y: float) -> float:
    """Generalized quotient exp_g(log_g x - log_g y) for x, y > 0."""
    _require_positive(x, "g_div")
    _require_positive(y, "g_div")
    if cls.is_identity:
        return x / y
    return exp_g(cls, log_g(cls, x) - log_g(cls, y))


def g_recip(cls: GroupClass, x: float) -> float:
    """Multiplicative inverse exp_g(-log_g(x)); g_prod(x, g_recip(x)) = 1."""
    _require_positive(x, "g_recip")
    if cls.is_identity:
        return 1.0 / x
    return exp_g(cls, -log_g(cls, x))


def g_pow(cls: GroupClass, x: float, n: int) -> float:
    """Generalized integer power exp_g(n log_g x) for x > 0."""
    _require_positive(x, "g_pow")
    if n != int(n):
        raise DomainError(f"g_pow exponent must be an integer, got {n!r}")
    if cls.is_identity:
        return float(x) ** int(n)
    return exp_g(cls, n * log_g(cls, x))


# ---------------------------------------------------------------------------
# generalized integers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GInteger:
    """Image of an ordinary integer under the additive isomorphism.

    ``value = G(n G^{-1}(1))`` so that consecutive generalized integers differ
    by a generalized sum with 1.
    """

    n: int
    value: float
    group_class: GroupClass


def g_integer(cls: GroupClass, n: int) -> GInteger:
    if n != int(n):
        raise DomainError(f"g_integer needs an integer, got {n!r}")
    n = int(n)
    t = n * cls.g_inv(1.0)
    t_lo, t_hi = cls.t_range
    if not t_lo <= t <= t_hi:
        raise DomainError(
            f"integer {n} maps to generator argument {t!r} outside the "
            f"monotone range of class {cls.spec_string()}"
        )
    return GInteger(n, cls.g(t), cls)


# ---------------------------------------------------------------------------
# deformed coordinates
# ---------------------------------------------------------------------------


class _Coordinate(float):
    """A float that also answers ``.value`` with the same number, so code that
    reads ``deform(...).value`` keeps working."""

    @property
    def value(self) -> float:
        return float(self)


def deform(cls: GroupClass, x: float) -> float:
    """The deformed coordinate x_g = G^{-1}(x).

    Additive homomorphism: deform(g_sum(x, y)) = deform(x) + deform(y).
    """
    return _Coordinate(cls.g_inv(x))


def dual_deform(cls: GroupClass, x: float) -> float:
    """The dual coordinate G(x)."""
    return _Coordinate(cls.g(x))


def dual_g_sum(cls: GroupClass, x: float, y: float) -> float:
    """Sum operation carried by the dual coordinate: G^{-1}(G(x) + G(y)).

    Chosen so that dual_deform is an exact additive homomorphism:
    dual_deform(dual_g_sum(x, y)) = dual_deform(x) + dual_deform(y).
    """
    return cls.g_inv(cls.g(x) + cls.g(y))
