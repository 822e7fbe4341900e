"""The in-repo not-a-knot spline against ``scipy.interpolate.CubicSpline``,
used here as the oracle: the same bits at every query point, for the array
and the scalar call, and the same ``ValueError`` for bad data."""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline as Oracle

from groupcalc._spline import CubicSpline

_rng = np.random.default_rng(20261019)


def _knots(n, kind):
    if kind == "linspace":
        return np.linspace(-1.3, 2.7, n)
    return np.sort(_rng.uniform(-3.0, 5.0, n)) + np.arange(n) * 1e-9


def _queries(x):
    """Inside, at every knot, at both ends, beyond both ends, and NaN."""
    lo, hi = x[0], x[-1]
    width = hi - lo
    return np.concatenate([
        _rng.uniform(lo, hi, 3 * x.size),
        x,
        [lo, hi, np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)],
        _rng.uniform(lo - width, lo, 20),
        _rng.uniform(hi, hi + width, 20),
        [lo - 1e200, hi + 1e200, -math.inf, math.inf, -0.0, 0.0],
        [math.nan, -math.nan],
    ])


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("kind", ["linspace", "random"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 4001])
def test_equals_cubic_spline_bit_for_bit(n, kind):
    x = _knots(n, kind)
    for y in (np.sin(3 * x) + _rng.normal(0, 0.1, n), _rng.normal(0, 1e150, n)):
        want = Oracle(x, y)(q := _queries(x))
        spline = CubicSpline(x, y)
        np.testing.assert_array_equal(_bits(spline(q)), _bits(want))
        np.testing.assert_array_equal(_bits([spline.at(v) for v in q.tolist()]), _bits(want))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_signed_zeros(n):
    """At a knot where y is -0.0 and every other term is -0.0 too, the sum
    still starts from +0.0, as PPoly's does."""
    x = np.arange(n) - 1.0
    y = -x**3 - x**2 - x
    q = np.array([-0.0, 0.0])
    want = Oracle(x, y)(q)
    spline = CubicSpline(x, y)
    np.testing.assert_array_equal(_bits(spline(q)), _bits(want))
    np.testing.assert_array_equal(_bits([spline.at(v) for v in q.tolist()]), _bits(want))


def test_scalar_call_takes_numpy_scalars():
    x = _knots(7, "random")
    spline, oracle = CubicSpline(x, x**3), Oracle(x, x**3)
    for q in (np.float64(0.3), np.float64(x[3]), 1, np.float64(-9.0)):
        assert _bits(spline.at(q)) == _bits(oracle(q))


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, math.nan, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, 1.0, 2.0, math.inf], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, 1.0, 2.0, 3.0], [0.0, math.nan, 2.0, 3.0]),
    ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, -math.inf, 3.0]),
    ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0]),
    ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]),
    ([0.0], [0.0]),
    ([[0.0, 1.0], [2.0, 3.0]], [0.0, 1.0]),
], ids=["repeated-x", "decreasing-x", "nan-x", "inf-x", "nan-y", "inf-y",
        "short-y", "long-y", "one-point", "2-d-x"])
def test_bad_data_raises_the_oracles_value_error(x, y):
    with pytest.raises(ValueError) as want:
        Oracle(x, y)
    with pytest.raises(ValueError) as got:
        CubicSpline(x, y)
    assert str(got.value) == str(want.value)
