"""Closed-form q- and kappa-deformed arithmetic.

Direct transcriptions of the textbook q-algebra and kappa-algebra, used as
independent oracles for the generic operations in :mod:`groupcalc.algebra`
(generic Tsallis must equal the q-forms, generic Kaniadakis the kappa-forms).
They share only the libm rule of :mod:`groupcalc._libm` and its clamp flag
with the generic path.

Cutoff convention: a bracketed base ``[.]_+`` that goes negative is clamped
to zero and flagged (see :func:`groupcalc.algebra.clamp_occurred`).

The sum, difference, product and quotient are written once, over the
namespace ``_m``; their array twins (``q_sum_array``, ...,
``kappa_div_array``) run that formula over ``_Array``, so element i equals
the scalar form at (x[i], y[i]) bit for bit and an error is the scalar's for
the first element that raises it.  The product and quotient twins return
``(values, clamped)``, where ``clamped`` marks the elements whose scalar call
clamps a cutoff base.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._libm import _Array, _clamps, _Scalar
from .errors import DomainError

# -- q-algebra ---------------------------------------------------------------


def _gamma(q: float) -> float:
    if q == 1.0:
        raise DomainError("q = 1 is the undeformed limit; use the bg class")
    return 1.0 - q


def q_exp(q: float, x: float) -> float:
    """[1 + (1-q) x]_+ ** (1/(1-q))."""
    g = _gamma(q)
    return _Scalar.cutoff_pow(1.0 + g * x, 1.0 / g)


def q_log(q: float, x: float) -> float:
    """(x**(1-q) - 1)/(1-q) for x > 0."""
    if x <= 0.0:
        raise DomainError(f"q_log needs x > 0, got {x!r}")
    g = _gamma(q)
    return (x**g - 1.0) / g


def q_sum(q: float, x: float, y: float, _m=_Scalar) -> float:
    return x + y + _gamma(q) * x * y


def q_sub(q: float, x: float, y: float, _m=_Scalar) -> float:
    denom = 1.0 + _gamma(q) * y
    _m.reject(denom == 0.0, lambda y: DomainError(f"q_sub pole: y = {y!r} = -1/(1-q)"), y)
    return (x - y) / denom


def q_neg(q: float, x: float) -> float:
    denom = 1.0 + _gamma(q) * x
    _Scalar.reject(denom == 0.0, lambda x: DomainError(f"q_neg pole: x = {x!r} = -1/(1-q)"), x)
    return -x / denom


def q_prod(q: float, x: float, y: float, _m=_Scalar) -> float:
    g = _gamma(q)
    return _m.cutoff_pow(_m.pow(x, g) + _m.pow(y, g) - 1.0, 1.0 / g)


def q_div(q: float, x: float, y: float, _m=_Scalar) -> float:
    g = _gamma(q)
    return _m.cutoff_pow(_m.pow(x, g) - _m.pow(y, g) + 1.0, 1.0 / g)


def q_recip(q: float, x: float) -> float:
    g = _gamma(q)
    return _Scalar.cutoff_pow(2.0 - x**g, 1.0 / g)


def q_integer(q: float, n: int) -> float:
    """((2-q)**n - 1)/(1-q)."""
    g = _gamma(q)
    return ((2.0 - q) ** n - 1.0) / g


def q_pow(q: float, x: float, n: int) -> float:
    """[n x**(1-q) - (n-1)]_+ ** (1/(1-q))."""
    g = _gamma(q)
    return _Scalar.cutoff_pow(n * x**g - (n - 1.0), 1.0 / g)


# -- kappa-algebra -----------------------------------------------------------


def _check_kappa(kappa: float) -> float:
    if kappa == 0.0:
        raise DomainError("kappa = 0 is the undeformed limit; use the bg class")
    return kappa


def kappa_exp(kappa: float, x: float) -> float:
    """[kappa x + sqrt(kappa^2 x^2 + 1)]_+ ** (1/kappa)."""
    k = _check_kappa(kappa)
    return _Scalar.cutoff_pow(k * x + _Scalar.hypot1(k * x), 1.0 / k)


def kappa_log(kappa: float, x: float) -> float:
    """(x**kappa - x**(-kappa)) / (2 kappa) for x > 0."""
    k = _check_kappa(kappa)
    if x <= 0.0:
        raise DomainError(f"kappa_log needs x > 0, got {x!r}")
    return (x**k - x**-k) / (2.0 * k)


def kappa_sum(kappa: float, x: float, y: float, _m=_Scalar) -> float:
    k = _check_kappa(kappa)
    return x * _m.hypot1(k * y) + y * _m.hypot1(k * x)


def kappa_sub(kappa: float, x: float, y: float, _m=_Scalar) -> float:
    k = _check_kappa(kappa)
    return x * _m.hypot1(k * y) - y * _m.hypot1(k * x)


def kappa_neg(kappa: float, x: float) -> float:
    """Additive inverse; the kappa-sum is odd, so it is plain negation."""
    _check_kappa(kappa)
    return -x


def kappa_prod(kappa: float, x: float, y: float, _m=_Scalar) -> float:
    k = _check_kappa(kappa)
    _m.reject((x <= 0.0) | (y <= 0.0), lambda: DomainError("kappa_prod needs positive operands"))
    pow_ = _m.pow
    return _m.exp(_m.asinh((pow_(x, k) + pow_(y, k) - pow_(x, -k) - pow_(y, -k)) / 2.0) / k)


def kappa_div(kappa: float, x: float, y: float, _m=_Scalar) -> float:
    k = _check_kappa(kappa)
    _m.reject((x <= 0.0) | (y <= 0.0), lambda: DomainError("kappa_div needs positive operands"))
    pow_ = _m.pow
    return _m.exp(_m.asinh((pow_(x, k) - pow_(y, k) - pow_(x, -k) + pow_(y, -k)) / 2.0) / k)


def kappa_recip(kappa: float, x: float) -> float:
    _check_kappa(kappa)
    if x <= 0.0:
        raise DomainError("kappa_recip needs a positive operand")
    return 1.0 / x


def kappa_integer(kappa: float, n: int) -> float:
    """sinh(n arcsinh(kappa)) / kappa."""
    k = _check_kappa(kappa)
    return math.sinh(n * math.asinh(k)) / k


def kappa_pow(kappa: float, x: float, n: int) -> float:
    """[n sinh(kappa log x) + sqrt(n^2 sinh^2(kappa log x) + 1)]_+ ** (1/kappa)."""
    k = _check_kappa(kappa)
    if x <= 0.0:
        raise DomainError("kappa_pow needs a positive operand")
    s = n * math.sinh(k * math.log(x))
    root = math.sqrt(s * s + 1.0) if s * s < math.inf else math.hypot(1.0, s)
    return _Scalar.cutoff_pow(s + root, 1.0 / k)


# -- array twins -------------------------------------------------------------


def _with_clamps(f):
    """The array twin of the product or quotient f, as ``(values, clamped)``."""

    def twin(param: float, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _clamps.mask = np.zeros(x.shape, bool)  # the cutoff of f, if any, overwrites it
        return _Array.run(f, param, x, y), _clamps.mask

    return twin


q_sum_array, q_sub_array, kappa_sum_array, kappa_sub_array = (
    functools.partial(_Array.run, f) for f in (q_sum, q_sub, kappa_sum, kappa_sub)
)
q_prod_array, q_div_array, kappa_prod_array, kappa_div_array = (
    _with_clamps(f) for f in (q_prod, q_div, kappa_prod, kappa_div)
)
