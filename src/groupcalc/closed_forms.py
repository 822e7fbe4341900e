"""Closed-form q- and kappa-deformed arithmetic.

Direct transcriptions of the textbook q-algebra and kappa-algebra, used as
independent oracles for the generic operations in :mod:`groupcalc.algebra`
(generic Tsallis must equal the q-forms, generic Kaniadakis the kappa-forms).
They deliberately do not share code with the generic path.

Cutoff convention: a bracketed base ``[.]_+`` that goes negative is clamped
to zero and flagged (see :func:`groupcalc.algebra.clamp_occurred`).

The sum, difference, product and quotient have array twins (``q_sum_array``,
..., ``kappa_div_array``) whose element i equals the scalar form at
(x[i], y[i]) bit for bit, under the libm rule of :mod:`groupcalc.groups`.  The
product and quotient twins return ``(values, clamped)``, where ``clamped``
marks the elements whose scalar call clamps a cutoff base.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import cutoff_pow, cutoff_pow_array
from .errors import DomainError
from .groups import _map, _pow

# -- q-algebra ---------------------------------------------------------------


def _gamma(q: float) -> float:
    if q == 1.0:
        raise DomainError("q = 1 is the undeformed limit; use the bg class")
    return 1.0 - q


def q_exp(q: float, x: float) -> float:
    """[1 + (1-q) x]_+ ** (1/(1-q))."""
    g = _gamma(q)
    return cutoff_pow(1.0 + g * x, 1.0 / g)


def q_log(q: float, x: float) -> float:
    """(x**(1-q) - 1)/(1-q) for x > 0."""
    if x <= 0.0:
        raise DomainError(f"q_log needs x > 0, got {x!r}")
    g = _gamma(q)
    return (x**g - 1.0) / g


def q_sum(q: float, x: float, y: float) -> float:
    return x + y + _gamma(q) * x * y


def q_sub(q: float, x: float, y: float) -> float:
    g = _gamma(q)
    denom = 1.0 + g * y
    if denom == 0.0:
        raise DomainError(f"q_sub pole: y = {y!r} = -1/(1-q)")
    return (x - y) / denom


def q_neg(q: float, x: float) -> float:
    g = _gamma(q)
    denom = 1.0 + g * x
    if denom == 0.0:
        raise DomainError(f"q_neg pole: x = {x!r} = -1/(1-q)")
    return -x / denom


def q_prod(q: float, x: float, y: float) -> float:
    g = _gamma(q)
    return cutoff_pow(x**g + y**g - 1.0, 1.0 / g)


def q_div(q: float, x: float, y: float) -> float:
    g = _gamma(q)
    return cutoff_pow(x**g - y**g + 1.0, 1.0 / g)


def q_recip(q: float, x: float) -> float:
    g = _gamma(q)
    return cutoff_pow(2.0 - x**g, 1.0 / g)


def q_integer(q: float, n: int) -> float:
    """((2-q)**n - 1)/(1-q)."""
    g = _gamma(q)
    return ((2.0 - q) ** n - 1.0) / g


def q_pow(q: float, x: float, n: int) -> float:
    """[n x**(1-q) - (n-1)]_+ ** (1/(1-q))."""
    g = _gamma(q)
    return cutoff_pow(n * x**g - (n - 1.0), 1.0 / g)


# -- kappa-algebra -----------------------------------------------------------


def _check_kappa(kappa: float) -> float:
    if kappa == 0.0:
        raise DomainError("kappa = 0 is the undeformed limit; use the bg class")
    return kappa


def kappa_exp(kappa: float, x: float) -> float:
    """[kappa x + sqrt(kappa^2 x^2 + 1)]_+ ** (1/kappa)."""
    k = _check_kappa(kappa)
    return cutoff_pow(k * x + math.sqrt((k * x) ** 2 + 1.0), 1.0 / k)


def kappa_log(kappa: float, x: float) -> float:
    """(x**kappa - x**(-kappa)) / (2 kappa) for x > 0."""
    k = _check_kappa(kappa)
    if x <= 0.0:
        raise DomainError(f"kappa_log needs x > 0, got {x!r}")
    return (x**k - x**-k) / (2.0 * k)


def kappa_sum(kappa: float, x: float, y: float) -> float:
    k = _check_kappa(kappa)
    return x * math.sqrt(1.0 + (k * y) ** 2) + y * math.sqrt(1.0 + (k * x) ** 2)


def kappa_sub(kappa: float, x: float, y: float) -> float:
    k = _check_kappa(kappa)
    return x * math.sqrt(1.0 + (k * y) ** 2) - y * math.sqrt(1.0 + (k * x) ** 2)


def kappa_neg(kappa: float, x: float) -> float:
    """Additive inverse; the kappa-sum is odd, so it is plain negation."""
    _check_kappa(kappa)
    return -x


def kappa_prod(kappa: float, x: float, y: float) -> float:
    k = _check_kappa(kappa)
    if x <= 0.0 or y <= 0.0:
        raise DomainError("kappa_prod needs positive operands")
    half = (x**k + y**k - x**-k - y**-k) / 2.0
    return math.exp(math.asinh(half) / k)


def kappa_div(kappa: float, x: float, y: float) -> float:
    k = _check_kappa(kappa)
    if x <= 0.0 or y <= 0.0:
        raise DomainError("kappa_div needs positive operands")
    half = (x**k - y**k - x**-k + y**-k) / 2.0
    return math.exp(math.asinh(half) / k)


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
    return cutoff_pow(s + math.sqrt(s * s + 1.0), 1.0 / k)


# -- array twins -------------------------------------------------------------


def q_sum_array(q: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x + y + _gamma(q) * x * y


def q_sub_array(q: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    denom = 1.0 + _gamma(q) * y
    pole = denom == 0.0
    if pole.any():
        q_sub(q, 0.0, y[pole.argmax()].item())  # raises the scalar's DomainError
    return (x - y) / denom


def q_prod_array(q: float, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    g = _gamma(q)
    return cutoff_pow_array(_pow(x, g) + _pow(y, g) - 1.0, 1.0 / g)


def q_div_array(q: float, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    g = _gamma(q)
    return cutoff_pow_array(_pow(x, g) - _pow(y, g) + 1.0, 1.0 / g)


def kappa_sum_array(kappa: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    k = _check_kappa(kappa)
    return x * np.sqrt(1.0 + _pow(k * y, 2)) + y * np.sqrt(1.0 + _pow(k * x, 2))


def kappa_sub_array(kappa: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    k = _check_kappa(kappa)
    return x * np.sqrt(1.0 + _pow(k * y, 2)) - y * np.sqrt(1.0 + _pow(k * x, 2))


def _kappa_exp_of_half(k: float, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(asinh(half)/k) at every element, and the (empty) clamp mask."""
    return _map(math.exp, _map(math.asinh, half) / k), np.zeros(half.shape, bool)


def kappa_prod_array(kappa: float, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = _check_kappa(kappa)
    if ((x <= 0.0) | (y <= 0.0)).any():
        raise DomainError("kappa_prod needs positive operands")
    return _kappa_exp_of_half(k, (_pow(x, k) + _pow(y, k) - _pow(x, -k) - _pow(y, -k)) / 2.0)


def kappa_div_array(kappa: float, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = _check_kappa(kappa)
    if ((x <= 0.0) | (y <= 0.0)).any():
        raise DomainError("kappa_div needs positive operands")
    return _kappa_exp_of_half(k, (_pow(x, k) - _pow(y, k) - _pow(x, -k) + _pow(y, -k)) / 2.0)
