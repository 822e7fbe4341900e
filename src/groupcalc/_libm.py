"""The libm rule shared by the scalar and the array forms.

A formula is written once, over a namespace ``_m`` of elementary functions
and decisions: ``_Scalar`` for one float, ``_Array`` for a 1-d float array.
Element i of the array result equals the scalar result at element i bit for
bit, because ``_Array`` uses numpy only for correctly rounded operations
(+ - * /, ``sqrt``, ``full``, ``where``) and calls libm through ``math`` and
Python's ``pow`` once per element: numpy's own ``exp``, ``expm1``, ``sinh``,
``**``, ... differ from libm in the last ulp on a share of inputs, and its
``v**2`` is ``v*v``, which differs from ``pow(v, 2)`` on about one input in
a thousand.  An element whose libm call overflows raises its
``OverflowError``, as the scalar call does.  ``sqrt`` is taken only of
numbers >= 0 (or nan): below 0, ``math.sqrt`` raises where ``np.sqrt``
gives nan.  The namespaces are classes, used as they are: a scalar formula
looks a function up on a class about as fast as on the ``math`` module.

Each namespace also holds the decisions that used to force a formula into
two bodies.  ``reject(bad, error, *at)`` raises ``error(*at)`` where ``bad``
holds; an array raises it for its first such element, at that element of
each array in ``at``.  ``cutoff_pow`` is ``[base]_+ ** exponent``: a
negative base gives 0 and sets the per-thread clamp flag ``_clamps.seen``,
and an array leaves its clamped elements in ``_clamps.mask``.  ``hypot1(v)``
is sqrt(1 + pow(v, 2)), or hypot(1, v) where the pow overflows.  ``not_``
and ``where`` take a bool or a bool array, and ``form`` gives a group
class's method in the namespace's form (``g`` or ``g_array``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading

import numpy as np

_clamps = threading.local()


def _map(f, x):
    """f at every element of the 1-d float array x, one scalar call each."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _pow(x, p):
    """x ** p elementwise, through Python's float ``pow`` as the scalar forms."""
    return np.fromiter(map(pow, x.tolist(), itertools.repeat(p)), float, x.size)


class _Scalar:
    exp, expm1, log, log1p = math.exp, math.expm1, math.log, math.log1p
    sin, cos, sinh, cosh, asinh = math.sin, math.cos, math.sinh, math.cosh, math.asinh
    sqrt, pow, not_, form = math.sqrt, operator.pow, operator.not_, getattr

    def full(t, c):
        return c

    def copy(t):
        return t  # a float is immutable

    def where(c, a, b):
        return a if c else b

    def hypot1(v):
        try:
            return math.sqrt(1.0 + v**2)
        except OverflowError:
            return math.hypot(1.0, v)

    def cutoff_pow(base, exponent):
        """``[base]_+ ** exponent``: a negative base is clamped to 0 and
        recorded via the clamp flag."""
        if base < 0.0:
            _clamps.seen = True
            return 0.0
        return base**exponent

    def reject(bad, error, *at):
        if bad:
            raise error(*at)

    def require_in_domain(cls, s):
        cls.require_in_domain(s)


class _Array:
    exp, expm1, log, log1p, sin, cos, sinh, cosh, asinh = (
        functools.partial(_map, getattr(math, name))
        for name in ("exp", "expm1", "log", "log1p", "sin", "cos", "sinh", "cosh", "asinh")
    )
    sqrt, pow, not_, where, each = np.sqrt, _pow, np.logical_not, np.where, _map

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
        if clamped.any():
            _clamps.seen = True
        values = np.zeros(base.shape)
        values[~clamped] = _pow(base[~clamped], exponent)
        return values

    def reject(bad, error, *at):
        if bad.any():
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
