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
call, Gauss-16 a bounded chunk of panels per call.  The first call takes the
nodes of the two steps that always run (Simpson's root and its halves'
midpoints, Gauss-16's rounds of 1 and 2 panels); if it raises, the two
steps' calls are made in turn.  Each backend adds the values up as the
per-point recursion and loop did, so every result, and every
``ToleranceNotMet`` text, is theirs bit for bit.  The deformed integrals take
A, G, G' and G^{-1} from the array forms of the class, one call per batch;
the public :func:`integrate` calls its f once per node, and, after an error
in the first call, up to 5 Simpson or 48 Gauss-16 nodes a second time.
Every integral returns a Python float.
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


def _in_one_call(F, nodes, k):
    """F at ``nodes[:k]`` and at ``nodes[k:]``, the next two calls of the
    recursion or loop, in one call of F.  Where that call raises, F is called
    on the two parts in turn, so the error is theirs: a batch integrand
    checks all its nodes stage by stage, and one call could meet an early
    stage's error at a node of the second part before a later stage's error
    at a node of the first."""
    try:
        values = F(nodes)
    except Exception:  # noqa: BLE001 - the calls in turn raise it again
        return F(nodes[:k]), F(nodes[k:])
    return values[:k], values[k:]


# The fields of a pending Simpson interval, a row of the stack: its ends and
# midpoint, each with its value of F, the recursion's other arguments, then
# its node id.
_A, _FA, _M, _FM, _B, _FB, _WHOLE, _TOL, _DEPTH, _NODE = range(10)
# Per field of an interval's left and right half, the field of the interval
# it starts from, as an index into the raveled rows of a batch: a and m, or m
# and b, with their values, the tolerance (halved later) and the depth (raised
# later).  The midpoints, their values, the wholes and the node ids are
# filled in later.
_GATHER = 10 * np.arange(_SIMPSON_BATCH)[:, None, None] + np.array([
    [_A, _FA, _A, _FA, _M, _FM, _WHOLE, _TOL, _DEPTH, _NODE],
    [_M, _FM, _M, _FM, _B, _FB, _WHOLE, _TOL, _DEPTH, _NODE],
])
# The node ids of the halves of a batch's split intervals, less the first one's.
_IDS = np.arange(2.0 * _SIMPSON_BATCH)


def _adaptive_simpson(F, a, b, abs_tol, max_depth):
    """Adaptive Simpson over a stack of pending intervals kept in the
    depth-first order of the recursion; each call of F takes up to
    ``_SIMPSON_BATCH`` intervals from its top.  The first call takes the
    five nodes the recursion always starts with: a, m, b and the midpoints of
    the two halves.

    An interval's value is the sum of its two halves' values, as the
    recursion returns it.  Where an interval misses the tolerance at
    ``max_depth``, the intervals after it in that order are dropped, and its
    ToleranceNotMet is raised once those before it are done: another stuck
    interval among them takes its place.
    """
    m = 0.5 * (a + b)
    ends, f_mids = _in_one_call(F, np.array([a, m, b, 0.5 * (a + m), 0.5 * (m + b)]), 3)
    fa, fm, fb = ends.tolist()
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    stack = np.empty((_SIMPSON_BATCH, 10))  # its top at stack[top], growing downwards
    top, count, batches, failure = _SIMPSON_BATCH - 1, 1, 0, None
    stack[top] = a, fa, m, fm, b, fb, whole, abs_tol, 0.0, 0.0
    leaves, splits = [], []  # per batch: (node ids, values as leaves), (node ids, first child id)
    while top < len(stack):
        rows = stack[top : top + _SIMPSON_BATCH]  # the next one first
        top += len(rows)
        # each interval's left and right half as pending intervals, (a, lm, m)
        # and (m, rm, b) around their midpoints lm, rm: two rows of halves
        kids = rows.ravel().take(_GATHER[: len(rows)])
        halves = kids.reshape(-1, 10)
        mids = 0.5 * (halves[:, _A] + halves[:, _B])
        if f_mids is None:
            f_mids = F(mids)
        halves[:, _M], halves[:, _FM] = mids, f_mids
        # (m - a) / 6 (fa + 4 flm + fm) and (b - m) / 6 (fm + 4 frm + fb)
        halves[:, _WHOLE] = values = (halves[:, _B] - halves[:, _A]) / 6.0 * (
            halves[:, _FA] + 4.0 * f_mids + halves[:, _FB]
        )
        both, f_mids = values[0::2] + values[1::2], None
        err = both - rows[:, _WHOLE]
        node = rows[:, _NODE].astype(int)
        leaves.append((node, both + err / 15.0))
        split = (~(abs(err) <= 15.0 * rows[:, _TOL])).nonzero()[0]  # nan splits
        batches += 1
        if batches > max_depth:  # before that, no interval is max_depth deep
            stuck = split[rows[split, _DEPTH] >= max_depth]
            if stuck.size:  # the recursion visits nothing after the first stuck interval
                n = stuck[0]
                failure = (
                    f"adaptive Simpson hit depth {max_depth} on "
                    f"[{rows[n, _A].item()}, {rows[n, _B].item()}]"
                )
                top, split = len(stack), split[split < n]
        if not split.size:
            continue
        splits.append((node[split], count))
        new = 2 * split.size
        if top < new:  # room below the top, as much as the stack holds
            room = len(stack) + new
            stack, top = np.concatenate((np.empty((room, 10)), stack)), top + room
        top -= new
        pushed = stack[top : top + new]
        pushed[:] = kids[split].reshape(-1, 10)
        tol, depth = pushed[:, _TOL], pushed[:, _DEPTH]  # columns: numpy is slow on short rows
        tol *= 0.5
        depth += 1.0
        pushed[:, _NODE] = _IDS[:new] + count
        count += new
    if failure is not None:
        raise ToleranceNotMet(failure)
    value = np.empty(count)
    for node, leaf in leaves:
        value[node] = leaf
    for node, first in reversed(splits):  # a parent's halves come in later batches
        last = first + 2 * node.size
        value[node] = value[first:last:2] + value[first + 1 : last : 2]
    return value[0].item()


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


def _panel_nodes(edges):
    """The nodes of the 16-point rule on the panels between successive
    ``edges``, panel by panel, and the panels' half-widths."""
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return (mid[:, None] + half[:, None] * _gauss_legendre_16()[0]).ravel(), half


def _panel_sum(fx, half, total=0.0):
    """``total`` plus the panels' values from F at their nodes, in panel order."""
    weights = _gauss_legendre_16()[1]
    # a panel's sum() from left to right; cumsum adds in that order, and
    # the one bit it skips, 0 + -0.0 = 0.0, is lost in the total anyway
    panel = np.cumsum(weights * fx.reshape(-1, weights.size), axis=1)[:, -1]
    for value in (half * panel).tolist():
        total += value
    return total


def _gauss16_panels(F, a, b, panels):
    """The 16-point rule on ``panels`` equal panels of [a, b], the panel
    values added up in panel order."""
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for start in range(0, panels, _GAUSS_BATCH):
        x, half = _panel_nodes(edges[start : start + _GAUSS_BATCH + 1])
        total = _panel_sum(F(x), half, total)
    return total


def _gauss16(F, a, b, abs_tol, max_depth):
    """Panel doubling from 1 panel; the nodes of the first two rounds, which
    always run, take one call of F."""
    (x1, half1), (x2, half2) = (_panel_nodes(np.linspace(a, b, n + 1)) for n in (1, 2))
    f1, f2 = _in_one_call(F, np.concatenate((x1, x2)), x1.size)
    prev, cur, panels = _panel_sum(f1, half1), _panel_sum(f2, half2), 2
    while not abs(cur - prev) <= abs_tol:  # nan: another round
        if panels == 2**max_depth:
            raise ToleranceNotMet(
                f"Gauss-Legendre doubling exceeded {max_depth} rounds on [{a}, {b}]"
            )
        prev, panels = cur, 2 * panels
        cur = _gauss16_panels(F, a, b, panels)
    return cur


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
