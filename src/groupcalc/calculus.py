"""Deformed differential and integral operators on sampled real functions.

The deformed derivative rescales the ordinary one by the local coordinate
stretch A(x) = G'(G^{-1}(x)); the dual operator divides by G'(x).  The
matching integrals carry the reciprocal weights, so the fundamental theorem
holds in both structures.

Quadrature backends: adaptive Simpson (default) and composite 16-point
Gauss-Legendre with panel doubling, both driven by an absolute tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._spline import CubicSpline
from .config import DEFAULT_TOLERANCES, QUAD_BACKENDS, Tolerances
from .errors import DomainError, ToleranceNotMet
from .groups import GroupClass


@dataclass(frozen=True)
class Func1D:
    """Evaluation rule with a declared domain interval."""

    rule: Callable[[float], float]
    lo: float = -math.inf
    hi: float = math.inf

    def __call__(self, x: float) -> float:
        return self.rule(x)

    def require_interior(self, x: float) -> None:
        if not self.lo < x < self.hi:
            raise DomainError(f"x = {x!r} outside function domain ({self.lo}, {self.hi})")


def as_func(f) -> Func1D:
    return f if isinstance(f, Func1D) else Func1D(f)


def func_from_samples(xs, ys) -> Func1D:
    """Not-a-knot cubic-spline rule through sample points (for CSV-loaded
    data), on the sample range.  The spline is the in-repo
    ``groupcalc._spline.CubicSpline``, equal bit for bit to scipy's
    ``CubicSpline`` without loading scipy's interpolation package; each
    call evaluates one point in Python floats."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 4:
        raise ValueError("need matching 1-d arrays with at least 4 samples")
    return Func1D(CubicSpline(xs, ys).at, float(xs[0]), float(xs[-1]))


# ---------------------------------------------------------------------------
# numerical differentiation
# ---------------------------------------------------------------------------


def _fd(f, x: float, step_scale: float, order: int) -> float:
    """Centered difference, 3-point (order=2) or 5-point (order=4) stencil."""
    h = step_scale * (1.0 + abs(x))
    if order >= 4:
        return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)
    return (f(x + h) - f(x - h)) / (2 * h)


def g_derivative(
    cls: GroupClass,
    f,
    x: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
    high_accuracy: bool = False,
) -> float:
    """Deformed derivative A(x) f'(x) with A(x) = G'(G^{-1}(x)).

    f' is a centered difference with step ``tol.fd_step_scale * (1 + |x|)``;
    ``high_accuracy`` switches from the 3-point to the 5-point stencil.
    """
    f = as_func(f)
    f.require_interior(x)
    a = cls.deformation_factor(x)
    return a * _fd(f, x, tol.fd_step_scale, 4 if high_accuracy else 2)


def dual_g_derivative(
    cls: GroupClass,
    f,
    x: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
    high_accuracy: bool = False,
) -> float:
    """Dual deformed derivative f'(x) / G'(x)."""
    f = as_func(f)
    f.require_interior(x)
    slope = cls.g_prime(x)
    if slope <= 0.0:
        raise DomainError(f"G' must stay positive, got {slope!r} at x = {x!r}")
    return _fd(f, x, tol.fd_step_scale, 4 if high_accuracy else 2) / slope


# ---------------------------------------------------------------------------
# quadrature backends
# ---------------------------------------------------------------------------


def _adaptive_simpson(f, a, b, abs_tol, max_depth):
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, m, fm, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = left + right - whole
        if abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        if depth >= max_depth:
            raise ToleranceNotMet(
                f"adaptive Simpson hit depth {max_depth} on [{a}, {b}]"
            )
        half = 0.5 * tol
        return recurse(a, fa, m, fm, lm, flm, left, half, depth + 1) + recurse(
            m, fm, b, fb, rm, frm, right, half, depth + 1
        )

    return recurse(a, fa, b, fb, 0.5 * (a + b), fm, whole, abs_tol, 0)


def _legval(x, c):
    """Legendre series sum(c[k] P_k(x)) by numpy's ``legval`` Clenshaw steps."""
    nd = len(c)
    c0, c1 = c[-2], c[-1]
    for ck in c[-3::-1]:
        nd -= 1
        c0, c1 = ck - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@functools.cache
def _gauss_legendre_16():
    """Nodes and weights of 16-point Gauss-Legendre quadrature on [-1, 1].

    The steps and roundings of ``np.polynomial.legendre.leggauss(16)``, so
    the values are its values bit for bit, without importing
    ``numpy.polynomial`` (a cost every start would pay for one backend).
    """
    n = 16
    p_n = [0.0] * n + [1.0]  # P_16 in the Legendre basis
    dp_n = [float(2 * k + 1) if k % 2 else 0.0 for k in range(n)]  # its derivative
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:-1] * scl[1:]  # the scaled companion matrix
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    df = _legval(x, dp_n)
    x -= _legval(x, p_n) / df
    fm = _legval(x, p_n[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss16_panels(f, a, b, panels):
    total = 0.0
    nodes, weights = _gauss_legendre_16()
    edges = np.linspace(a, b, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        total += half * sum(w * f(mid + half * t) for t, w in zip(nodes, weights))
    return total


def _gauss16(f, a, b, abs_tol, max_depth):
    prev = _gauss16_panels(f, a, b, 1)
    panels = 2
    for _ in range(max_depth):
        cur = _gauss16_panels(f, a, b, panels)
        if abs(cur - prev) <= abs_tol:
            return cur
        prev = cur
        panels *= 2
    raise ToleranceNotMet(f"Gauss-Legendre doubling exceeded {max_depth} rounds on [{a}, {b}]")


_QUADRATURE = dict(zip(QUAD_BACKENDS, (_adaptive_simpson, _gauss16)))


def integrate(f, a: float, b: float, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Plain definite integral with the configured backend."""
    if a == b:
        return 0.0
    return _QUADRATURE[tol.quad_backend](as_func(f), a, b, tol.quad_abs, tol.quad_max_depth)


# ---------------------------------------------------------------------------
# deformed integrals
# ---------------------------------------------------------------------------


def g_integral(
    cls: GroupClass,
    f,
    a: float,
    b: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
    method: str = "weight",
) -> float:
    """Deformed integral of f over [a, b].

    Two equivalent routes are implemented and cross-checked in the tests:

    * ``method="weight"``: integrate f(x) / A(x) dx directly;
    * ``method="substitution"``: change variables to u = G^{-1}(x) and
      integrate f(G(u)) du over [G^{-1}(a), G^{-1}(b)].
    """
    f = as_func(f)
    if method == "substitution":
        ua, ub = cls.g_inv(a), cls.g_inv(b)
        return integrate(lambda u: f(cls.g(u)), ua, ub, tol)
    if method != "weight":
        raise ValueError(f"unknown method {method!r}")
    cls.require_in_domain(a)
    cls.require_in_domain(b)
    return integrate(lambda x: f(x) / cls.deformation_factor(x), a, b, tol)


def dual_g_integral(
    cls: GroupClass,
    f,
    a: float,
    b: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
    method: str = "weight",
) -> float:
    """Dual deformed integral: f(x) G'(x) dx over [a, b]."""
    f = as_func(f)
    if method == "substitution":
        va, vb = cls.g(a), cls.g(b)
        return integrate(lambda v: f(cls.g_inv(v)), va, vb, tol)
    if method != "weight":
        raise ValueError(f"unknown method {method!r}")
    return integrate(lambda x: f(x) * cls.g_prime(x), a, b, tol)


class FundamentalTheoremResidual(NamedTuple):
    primal: float
    dual: float


def fundamental_theorem_residual(
    cls: GroupClass,
    f,
    a: float,
    b: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
    high_accuracy: bool = False,
) -> FundamentalTheoremResidual:
    """|integral of the deformed derivative minus f(b) - f(a)|, both structures.

    For smooth f both residuals should sit at the quadrature/differencing
    noise floor (<= 1e-8 for polynomials at default settings; the 5-point
    stencil pushes trigonometric test functions below 1e-10).
    """
    f = as_func(f)
    delta = f(b) - f(a)
    primal = g_integral(
        cls, lambda x: g_derivative(cls, f, x, tol, high_accuracy), a, b, tol
    )
    dual = dual_g_integral(
        cls, lambda x: dual_g_derivative(cls, f, x, tol, high_accuracy), a, b, tol
    )
    return FundamentalTheoremResidual(abs(primal - delta), abs(dual - delta))
