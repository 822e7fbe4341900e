"""Not-a-knot cubic spline, equal bit for bit to scipy's ``CubicSpline``.

:class:`CubicSpline` repeats, for 1-d data, the steps of scipy's
``CubicSpline(x, y)`` (scipy 1.17.1): its input checks and their messages,
the not-a-knot slope system (a parabola through the three points for
n = 3), solved by the same LAPACK calls made the same way, the Hermite
coefficients, and ``PPoly``'s interval search and evaluation order.  So the
two give the same bits without loading scipy's interpolation package and
its ~23 MB; the LAPACK calls go through :mod:`groupcalc._lapack`, which
imports ``scipy.linalg`` when first called.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

from . import _lapack


def _prepare_input(x, y):
    """(x, dx, y) as float arrays, or scipy's ValueError for bad data; unlike
    scipy, only real 1-d y is taken."""
    x, y = np.asarray(x), np.asarray(y)
    if np.iscomplexobj(x):
        raise ValueError("`x` must contain real values.")
    if np.iscomplexobj(y):
        raise ValueError("`y` must contain real values.")
    x, y = x.astype(np.float64), y.astype(np.float64)
    if x.ndim != 1:
        raise ValueError("`x` must be 1-dimensional.")
    if y.ndim != 1:
        raise ValueError("`y` must be 1-dimensional.")
    if x.shape[0] < 2:
        raise ValueError("`x` must contain at least 2 elements.")
    if x.shape[0] != y.shape[0]:
        raise ValueError("The length of `y` along `axis`=0 doesn't match the length of `x`")
    if not np.all(np.isfinite(x)):
        raise ValueError("`x` must contain only finite values.")
    if not np.all(np.isfinite(y)):
        raise ValueError("`y` must contain only finite values.")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("`x` must be strictly increasing sequence.")
    return x, dx, y


def _not_a_knot_slopes(x, dx, slope):
    """First derivatives at the knots; scipy's expressions, term for term."""
    n = len(x)
    if n == 3:
        a = np.zeros((3, 3))
        a[0, 0] = 1
        a[0, 1] = 1
        a[1, 0] = dx[1]
        a[1, 1] = 2 * (dx[0] + dx[1])
        a[1, 2] = dx[0]
        a[2, 1] = 1
        a[2, 2] = 1
        b = np.empty(3)
        b[0] = 2 * slope[0]
        b[1] = 3 * (dx[0] * slope[1] + dx[1] * slope[0])
        b[2] = 2 * slope[1]
        s = _lapack.solve(a, b.reshape(3, -1), overwrite_a=True, overwrite_b=True,
                          check_finite=False)
        return s.reshape(3)
    # Tridiagonal system in LAPACK band storage: upper, diagonal, lower rows.
    ab = np.zeros((3, n))
    b = np.empty(n)
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    if n == 2:
        # one piece: both end slopes are the chord's (scipy sets them as
        # first-derivative conditions and still solves the 2 x 2 system)
        ab[1, 0] = ab[1, -1] = 1
        b[0] = b[-1] = slope[0]
    else:
        ab[1, 0] = dx[1]
        ab[0, 1] = x[2] - x[0]
        d = x[2] - x[0]
        b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        ab[1, -1] = dx[-2]
        ab[-1, -2] = x[-1] - x[-3]
        d = x[-1] - x[-3]
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = _lapack.solve_banded((1, 1), ab, b.reshape(n, -1), overwrite_ab=True,
                             overwrite_b=True, check_finite=False)
    return s.reshape(n)


class CubicSpline:
    """Not-a-knot cubic interpolant of 1-d data (x, y).

    ``spline(q)`` evaluates an array of points and ``spline.at(q)`` one
    float; both equal scipy's ``CubicSpline(x, y)(q)`` bit for bit,
    extrapolating with the end pieces beyond the knots, and give NaN at NaN.
    """

    def __init__(self, x, y):
        x, dx, y = _prepare_input(x, y)
        slope = np.diff(y) / dx
        s = _not_a_knot_slopes(x, dx, slope)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        # piece i is c3 + c2 s + c1 s^2 + c0 s^3 with s = q - x[i]
        self.c = (t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])

    def __call__(self, q) -> np.ndarray:
        """Values at the points of the array ``q``."""
        q = np.asarray(q, dtype=np.float64)
        i = np.clip(np.searchsorted(self.x, q, "right") - 1, 0, len(self.x) - 2)
        s = q - self.x[i]
        c0, c1, c2, c3 = (c[i] for c in self.c)
        # PPoly's order: res = 0.0 + c3, then + c2*s, + c1*(s*s), + c0*((s*s)*s);
        # far or infinite points overflow or meet inf - inf silently, as in PPoly
        with np.errstate(over="ignore", invalid="ignore"):
            ss = s * s
            res = (0.0 + c3) + c2 * s
            res = res + c1 * ss
            res = res + c0 * (ss * s)
        return np.where(np.isnan(q), np.nan, res)

    def at(self, q: float) -> float:
        """Value at the one point ``q``, in Python floats: the same bits as
        ``self([q])[0]``, at a fraction of the cost of an array call."""
        q = float(q)
        if q != q:
            return math.nan
        knots, pieces = self._tables
        i = min(max(bisect.bisect_right(knots, q) - 1, 0), len(pieces) - 1)
        s = q - knots[i]
        c0, c1, c2, c3 = pieces[i]
        ss = s * s
        return (((0.0 + c3) + c2 * s) + c1 * ss) + c0 * (ss * s)

    @functools.cached_property
    def _tables(self):
        """The knots and the (c0, c1, c2, c3) of each piece as Python floats."""
        return self.x.tolist(), list(zip(*(c.tolist() for c in self.c)))
