"""Deformed differential and integral operators on sampled real functions.

The deformed derivative rescales the ordinary one by the local coordinate
stretch A(x) = G'(G^{-1}(x)); the dual operator divides by G'(x).  The
matching integrals carry the reciprocal weights, so the fundamental theorem
holds in both structures.

Quadrature backends: adaptive Simpson (default) and composite 16-point
Gauss-Legendre with panel doubling, both driven by an absolute tolerance.
Both run over batch integrands, which map an array of nodes to an array of
values: Simpson keeps its pending intervals on a stack in the depth-first
order of the recursion and evaluates up to ``_SIMPSON_BATCH`` of them per
call, Gauss-16 a bounded chunk of panels per call.  Each adds the values up
as the per-point recursion and loop did, so every result, and every
``ToleranceNotMet`` text, is theirs bit for bit.  The deformed integrals take
A, G, G' and G^{-1} from the array forms of the class, one call per batch;
the public :func:`integrate` calls its f once per node.  Every integral
returns a Python float.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._libm import _Array, _Scalar
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

    def require_interior(self, x: float, _m=_Scalar) -> None:
        _m.reject(_m.not_((self.lo < x) & (x < self.hi)), lambda x: DomainError(
            f"x = {x!r} outside function domain ({self.lo}, {self.hi})"
        ), x)


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


def _fd(f, x, step_scale: float, order: int):
    """Centered difference, 3-point (order=2) or 5-point (order=4) stencil:
    at a float x of a per-point f, or at every node of an array x of a batch
    integrand f."""
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


def _require_rising(slope: float, x: float, _m=_Scalar) -> None:
    _m.reject(slope <= 0.0, lambda slope, x: DomainError(
        f"G' must stay positive, got {slope!r} at x = {x!r}"
    ), slope, x)


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
    _require_rising(slope, x)
    return _fd(f, x, tol.fd_step_scale, 4 if high_accuracy else 2) / slope


# ---------------------------------------------------------------------------
# quadrature backends
# ---------------------------------------------------------------------------
# Both backends integrate a batch integrand F, which maps a 1-d float64 array
# of nodes to the array of integrand values there.  They evaluate the nodes of
# many intervals or panels in one call of F and add the values up in the
# order of the per-point recursion and loop they replace, so every result and
# every ToleranceNotMet text equals theirs bit for bit; tests/test_calculus.py
# keeps those as oracles.

# Simpson intervals per call of F, taken from the top of the pending stack (2
# nodes each): enough to spread numpy's fixed cost per call over ~1000 nodes,
# few enough that an unreachable tolerance stops after about max_depth calls.
_SIMPSON_BATCH = 512
# Gauss-16 panels per call of F (16 nodes each), for the same reasons.
_GAUSS_BATCH = 64


# The columns of a pending Simpson interval: the recursion's arguments, then
# its node id.  _KIDS picks the rows of an interval's two halves from the 16
# columns of _halves.
_A, _M, _B, _FA, _FM, _FB, _WHOLE, _TOL, _DEPTH, _NODE = range(10)
_KIDS = np.array([[0, 6, 1, 3, 8, 4, 10, 12, 13, 14], [1, 7, 2, 4, 9, 5, 11, 12, 13, 15]])


def _adaptive_simpson(F, a, b, abs_tol, max_depth):
    """Adaptive Simpson over a stack of pending intervals kept in the
    depth-first order of the recursion; each call of F takes up to
    ``_SIMPSON_BATCH`` intervals from its top.

    An interval's value is the sum of its two halves' values, as the
    recursion returns it.  Where an interval misses the tolerance at
    ``max_depth``, the intervals after it in that order are dropped, and its
    ToleranceNotMet is raised once those before it are done: another stuck
    interval among them takes its place.
    """
    m = 0.5 * (a + b)
    fa, fm, fb = F(np.array([a, m, b])).tolist()
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    stack = np.array([[a, m, b, fa, fm, fb, whole, abs_tol, 0.0, 0.0]])
    top, count, failure = 1, 1, None
    values, splits = [], []  # per batch: (nodes, values as leaves), (nodes, first child ids)
    while top:
        rows = stack[max(top - _SIMPSON_BATCH, 0) : top][::-1]  # the next one first
        top -= len(rows)
        mids, f_mids, halves, both, err = _simpson_step(F, rows)
        values.append((rows[:, _NODE].astype(int), both + err / 15.0))
        split = (~(np.abs(err) <= 15.0 * rows[:, _TOL])).nonzero()[0]  # nan splits
        stuck = split[rows[split, _DEPTH] >= max_depth]
        if stuck.size:  # the recursion visits nothing after the first stuck interval
            n = stuck[0]
            failure = (
                f"adaptive Simpson hit depth {max_depth} on "
                f"[{rows[n, _A].item()}, {rows[n, _B].item()}]"
            )
            top, split = 0, split[split < n]
        if not split.size:
            continue
        kids = _halves(rows, mids, f_mids, halves, count)[split[:, None, None], _KIDS]
        splits.append((rows[split, _NODE].astype(int), kids[:, 0, _NODE].astype(int)))
        count += 2 * len(rows)
        if top + 2 * split.size > len(stack):
            stack = np.concatenate((stack[:top], np.empty((top + 2 * split.size, 10))))
        stack[top : top + 2 * split.size] = kids.reshape(-1, 10)[::-1]
        top += 2 * split.size
    if failure is not None:
        raise ToleranceNotMet(failure)
    value = np.empty(count)
    for node, leaf in values:
        value[node] = leaf
    for node, first in reversed(splits):  # a parent's halves come in later batches
        value[node] = value[first] + value[first + 1]
    return value[0].item()


def _simpson_step(F, rows):
    """One Simpson step on each interval of ``rows``, as the recursion takes
    it: the midpoints (lm, rm) of its halves, F there, the halves' values
    (left, right), their sum, and the error estimate left + right - whole."""
    mids = 0.5 * (rows[:, _A:_B] + rows[:, _M : _B + 1])
    f_mids = F(mids.ravel()).reshape(mids.shape)
    # ((m - a) / 6 (fa + 4 flm + fm), (b - m) / 6 (fm + 4 frm + fb))
    halves = (rows[:, _M : _B + 1] - rows[:, _A:_B]) / 6.0 * (
        rows[:, _FA:_FB] + 4.0 * f_mids + rows[:, _FM : _FB + 1]
    )
    both = halves[:, 0] + halves[:, 1]
    return mids, f_mids, halves, both, both - rows[:, _WHOLE]


def _halves(rows, mids, f_mids, halves, count):
    """Per interval the columns a, m, b, fa, fm, fb, lm, rm, flm, frm, left,
    right, its halves' tolerance and depth, and their node ids, numbered
    from ``count``."""
    ids = np.arange(count, count + 2 * len(rows), dtype=float).reshape(-1, 2)
    half_tol, deeper = 0.5 * rows[:, _TOL : _TOL + 1], rows[:, _DEPTH : _DEPTH + 1] + 1.0
    return np.concatenate((rows[:, :6], mids, f_mids, halves, half_tol, deeper, ids), axis=1)


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


def _gauss16_panels(F, a, b, panels):
    """The 16-point rule on ``panels`` equal panels of [a, b], the panel
    values added up in panel order."""
    nodes, weights = _gauss_legendre_16()
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for start in range(0, panels, _GAUSS_BATCH):
        stop = min(start + _GAUSS_BATCH, panels)
        lo, hi = edges[start:stop], edges[start + 1 : stop + 1]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fx = F((mid[:, None] + half[:, None] * nodes).ravel()).reshape(-1, nodes.size)
        # a panel's sum() from left to right; cumsum adds in that order, and
        # the one bit it skips, 0 + -0.0 = 0.0, is lost in the total anyway
        panel = np.cumsum(weights * fx, axis=1)[:, -1]
        for value in (half * panel).tolist():
            total += value
    return total


def _gauss16(F, a, b, abs_tol, max_depth):
    prev = _gauss16_panels(F, a, b, 1)
    panels = 2
    for _ in range(max_depth):
        cur = _gauss16_panels(F, a, b, panels)
        if abs(cur - prev) <= abs_tol:
            return cur
        prev = cur
        panels *= 2
    raise ToleranceNotMet(f"Gauss-Legendre doubling exceeded {max_depth} rounds on [{a}, {b}]")


_QUADRATURE = dict(zip(QUAD_BACKENDS, (_adaptive_simpson, _gauss16)))


def _integrate(F, a, b, tol: Tolerances) -> float:
    """Definite integral of the batch integrand F with the configured backend.
    An inf or nan on the way comes without a numpy warning, as it does in
    float arithmetic."""
    if a == b:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _QUADRATURE[tol.quad_backend](F, a, b, tol.quad_abs, tol.quad_max_depth)


def _each(f):
    """The batch integrand that calls the per-point rule f once per node."""
    return functools.partial(_Array.each, as_func(f).rule)


def integrate(f, a: float, b: float, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Plain definite integral with the configured backend.  f is called once
    per node, a batch of nodes at a time."""
    return _integrate(_each(f), a, b, tol)


# ---------------------------------------------------------------------------
# deformed integrals
# ---------------------------------------------------------------------------
# The integrands take A, G, G' and G^-1 from the array forms of the class, one
# call per batch of nodes; each element equals the scalar method's value, so
# the integrals equal the per-point ones bit for bit.


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
    F = _each(f)
    if method == "substitution":
        ua, ub = cls.g_inv(a), cls.g_inv(b)
        return _integrate(lambda u: F(cls.g_array(u)), ua, ub, tol)
    if method != "weight":
        raise ValueError(f"unknown method {method!r}")
    cls.require_in_domain(a)
    cls.require_in_domain(b)
    return _integrate(lambda x: F(x) / cls.deformation_factor_array(x), a, b, tol)


def dual_g_integral(
    cls: GroupClass,
    f,
    a: float,
    b: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
    method: str = "weight",
) -> float:
    """Dual deformed integral: f(x) G'(x) dx over [a, b]."""
    F = _each(f)
    if method == "substitution":
        va, vb = cls.g(a), cls.g(b)
        return _integrate(lambda v: F(cls.g_inv_array(v)), va, vb, tol)
    if method != "weight":
        raise ValueError(f"unknown method {method!r}")
    return _integrate(lambda x: F(x) * cls.g_prime_array(x), a, b, tol)


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

    The integrands are :func:`g_derivative` over A and
    :func:`dual_g_derivative` times G', at a whole batch of nodes, with A
    and G' computed once per node: (A f') / A and (f' / G') G'.
    """
    f = as_func(f)
    F = _each(f)
    delta = f(b) - f(a)
    order = 4 if high_accuracy else 2

    def primal(x):
        f.require_interior(x, _Array)
        weight = cls.deformation_factor_array(x)
        return weight * _fd(F, x, tol.fd_step_scale, order) / weight

    def dual(x):
        f.require_interior(x, _Array)
        slope = cls.g_prime_array(x)
        _require_rising(slope, x, _Array)
        return _fd(F, x, tol.fd_step_scale, order) / slope * slope

    cls.require_in_domain(a)  # as g_integral's weight route checks
    cls.require_in_domain(b)
    return FundamentalTheoremResidual(
        abs(_integrate(primal, a, b, tol) - delta), abs(_integrate(dual, a, b, tol) - delta)
    )
