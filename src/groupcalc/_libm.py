"""The libm rule shared by the scalar and the array forms.

A built-in formula is written once, over a namespace ``_m`` of elementary
functions: ``_Scalar`` for one float, ``_Array`` for a 1-d float array.
Element i of the array result equals the scalar result at element i bit for
bit, because ``_Array`` uses numpy only for correctly rounded operations
(+ - * /, ``sqrt``, ``full``) and calls libm through ``math`` and Python's
``pow`` once per element: numpy's own ``exp``, ``expm1``, ``sinh``, ``**``,
... differ from libm in the last ulp on a share of inputs, and its ``v**2``
is ``v*v``, which differs from ``pow(v, 2)`` on about one input in a
thousand.  An element whose libm call overflows raises its
``OverflowError``, as the scalar call does.  ``sqrt`` is taken only of
numbers >= 0 (or nan): below 0, ``math.sqrt`` raises where ``np.sqrt``
gives nan.  The namespaces are classes, used as they are: a scalar formula
looks a function up on a class about as fast as on the ``math`` module.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np


def _map(f, x):
    """f at every element of the 1-d float array x, one scalar call each."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _pow(x, p):
    """x ** p elementwise, through Python's float ``pow`` as the scalar forms."""
    return np.fromiter(map(pow, x.tolist(), itertools.repeat(p)), float, x.size)


class _Scalar:
    exp, expm1, log1p = math.exp, math.expm1, math.log1p
    sinh, cosh, asinh = math.sinh, math.cosh, math.asinh
    sqrt, pow = math.sqrt, operator.pow

    def full(t, c):
        return c

    def copy(t):
        return t  # a float is immutable

    def require_in_domain(cls, s):
        cls.require_in_domain(s)


class _Array:
    # log, sin and cos serve array code that has no scalar twin
    exp, expm1, log, log1p, sin, cos, sinh, cosh, asinh = (
        functools.partial(_map, getattr(math, name))
        for name in ("exp", "expm1", "log", "log1p", "sin", "cos", "sinh", "cosh", "asinh")
    )
    sqrt, pow, each = np.sqrt, _pow, _map

    def full(t, c):
        return np.full(t.shape, c)

    def copy(t):
        return np.array(t, dtype=float)

    def require_in_domain(cls, s):
        cls.require_in_domain_array(s)

    def run(f, *args):
        """f(*args, _Array).  An element past the float range becomes inf or
        nan without a RuntimeWarning, as the scalar arithmetic makes it."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return f(*args, _Array)
