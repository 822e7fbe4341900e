"""The array side of the libm rule of :mod:`groupcalc._libm`: ``_map``,
``_pow`` and the namespace ``_Array`` for 1-d float arrays.

This is the one module of the rule that imports numpy.  ``_libm`` imports it
at the first lookup of ``_libm._Array``, so a run that never builds an
array never loads numpy.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from ._libm import _clamps, _Scalar


def _map(f, x):
    """f at every element of the 1-d float array x, one scalar call each."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _pow(x, p):
    """x ** p elementwise, through Python's float ``pow`` as the scalar forms."""
    return np.fromiter(map(pow, x.tolist(), itertools.repeat(p)), float, x.size)


class _Array:
    exp, expm1, log, log1p, sin, cos, sinh, cosh, asinh = (
        functools.partial(_map, getattr(math, name))
        for name in ("exp", "expm1", "log", "log1p", "sin", "cos", "sinh", "cosh", "asinh")
    )
    sqrt, pow, not_, where, each = np.sqrt, _pow, np.logical_not, np.where, _map
    any, maximum = np.count_nonzero, np.maximum  # count_nonzero: ndarray.any at a third of its cost

    def full(t, c):
        return np.full(t.shape, c)

    def copy(t):
        return np.array(t, dtype=float)

    def hypot1(v):
        try:
            return np.sqrt(1.0 + _pow(v, 2))
        except OverflowError:
            return _map(_Scalar.hypot1, v)

    def cutoff_pow(base, exponent):
        clamped = _clamps.mask = base < 0.0
        if np.count_nonzero(clamped):
            _clamps.seen = True
        values = np.zeros(base.shape)
        values[~clamped] = _pow(base[~clamped], exponent)
        return values

    def reject(bad, error, *at):
        if np.count_nonzero(bad):
            i = bad.argmax()
            raise error(*(a[i].item() for a in at))

    def form(cls, name):
        return getattr(cls, name + "_array")

    def require_in_domain(cls, s):
        cls.require_in_domain(s, _m=_Array)

    def run(f, *args):
        """f(*args, _m=_Array).  An element past the float range becomes inf
        or nan without a RuntimeWarning, as the scalar arithmetic makes it."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return f(*args, _m=_Array)
