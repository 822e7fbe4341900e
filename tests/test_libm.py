"""The two namespaces of the libm rule: at every element, each ``_Array``
entry gives the bits of its ``_Scalar`` entry, or raises the error that the
scalar raises first."""

import math
import warnings

import numpy as np
import pytest

from groupcalc import tsallis
from groupcalc._libm import _Array, _Scalar
from groupcalc.errors import DomainError

N = 4096
_rng = np.random.default_rng(20240611)


def _uniform(lo, hi):
    return _rng.uniform(lo, hi, N)


def _magnitudes(lo_exp, hi_exp):
    """N magnitudes spread over [10**lo_exp, 10**hi_exp] on a log scale."""
    return 10.0 ** _uniform(lo_exp, hi_exp)


def _signed(x):
    return x * _rng.choice([-1.0, 1.0], x.size)


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan]

# name -> arguments at which the scalar entry returns a value
ARGUMENTS = {
    "exp": np.concatenate([_uniform(-745.0, 709.0), _uniform(-5.0, 5.0), _SPECIAL]),
    "expm1": np.concatenate([_uniform(-745.0, 709.0), _signed(_magnitudes(-300, 0)), _SPECIAL]),
    "log": np.concatenate([_magnitudes(-300, 300), _uniform(0.5, 2.0), [math.inf, math.nan]]),
    "log1p": np.concatenate([_uniform(-0.999, 5.0), _magnitudes(-300, 300), _SPECIAL[:3]]),
    "sin": np.concatenate([_uniform(-1e3, 1e3), _signed(_magnitudes(-300, 0)), _SPECIAL[:2]]),
    "cos": np.concatenate([_uniform(-1e3, 1e3), _signed(_magnitudes(-300, 0)), _SPECIAL[:2]]),
    "sinh": np.concatenate([_uniform(-710.0, 710.0), _signed(_magnitudes(-300, 0)), _SPECIAL]),
    "cosh": np.concatenate([_uniform(-710.0, 710.0), _uniform(-3.0, 3.0), _SPECIAL]),
    "asinh": np.concatenate([_signed(_magnitudes(-300, 300)), _uniform(-3.0, 3.0), _SPECIAL]),
    "sqrt": np.concatenate([_magnitudes(-300, 300), _uniform(0.0, 4.0), [0.0, -0.0, math.inf]]),
}

# (bases, exponent) at which Python's pow returns a value
POWERS = [
    (np.concatenate([_uniform(-5.0, 5.0), _signed(_magnitudes(-150, 150)), _SPECIAL]), 2),
    (np.concatenate([_uniform(-5.0, 5.0), _signed(_magnitudes(-100, 100))]), 3),
    (np.concatenate([_uniform(-5.0, 5.0), _signed(_magnitudes(-300, 300))]), -1),
    (np.concatenate([_uniform(0.0, 5.0), _magnitudes(-300, 300)]), 0.37),
    (np.concatenate([_uniform(0.0, 5.0), _magnitudes(-200, 200)]), -1.4),
    (np.concatenate([_uniform(-5.0, 5.0), _SPECIAL]), 0),
]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _outcome(fn, x):
    """The bits of fn(x), or the type and message of the error it raised."""
    try:
        return _bits(fn(x))
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _loop(f):
    return lambda x: [f(v) for v in x.tolist()]


@pytest.mark.parametrize("name", sorted(ARGUMENTS))
def test_array_entry_has_the_bits_of_the_scalar_entry(name):
    x = ARGUMENTS[name]
    assert x.size >= N
    scalar = getattr(_Scalar, name, getattr(math, name))  # log, sin, cos: array-only
    want = _outcome(_loop(scalar), x)
    assert not isinstance(want, tuple), want
    assert _outcome(getattr(_Array, name), x) == want


@pytest.mark.parametrize("bases, p", POWERS, ids=[str(p) for _, p in POWERS])
def test_array_pow_has_the_bits_of_the_scalar_pow(bases, p):
    want = _outcome(_loop(lambda v: _Scalar.pow(v, p)), bases)
    assert not isinstance(want, tuple), want
    assert _outcome(lambda x: _Array.pow(x, p), bases) == want


def test_pow_2_is_libm_pow_not_a_product():
    # numpy's square is v*v, which differs from libm's pow(v, 2) on about
    # one input in a thousand; the array pow must follow libm there too.
    v = POWERS[0][0]
    squares = _Array.pow(v, 2)
    assert (squares != v * v).any()
    assert _bits(squares) == _bits([v_ ** 2 for v_ in v.tolist()])


@pytest.mark.parametrize("name, c", [("full", 1.0), ("full", 0.0), ("copy", None)])
def test_constant_and_copy_entries(name, c):
    x = ARGUMENTS["asinh"]
    args = () if c is None else (c,)
    got = getattr(_Array, name)(x, *args)
    assert got is not x
    assert _bits(got) == _bits([getattr(_Scalar, name)(v, *args) for v in x.tolist()])


def test_each_maps_one_scalar_call_per_element():
    x = ARGUMENTS["sin"]
    assert _bits(_Array.each(math.tanh, x)) == _bits(_loop(math.tanh)(x))


def _entry(name, p):
    """The named entry of a namespace, with its exponent bound for pow."""
    return lambda m: getattr(m, name) if p is None else (lambda v: m.pow(v, p))


@pytest.mark.parametrize("name, p, x", [
    ("exp", None, [1.0, 709.0, 710.0, 1e4]),
    ("expm1", None, [-1e4, 0.5, 800.0]),
    ("sinh", None, [-3.0, -711.0, 711.0]),
    ("cosh", None, [0.0, 711.0]),
    ("pow", 2, [2.0, 1e200, 3.0]),
    ("pow", -3, [2.0, 1e-200]),
], ids=["exp", "expm1", "sinh", "cosh", "pow-2", "pow-minus-3"])
def test_overflow_raises_per_element_as_the_scalar(name, p, x):
    entry = _entry(name, p)
    x = np.array(x)
    want = _outcome(_loop(entry(_Scalar)), x)
    assert want[0] is OverflowError
    assert _outcome(entry(_Array), x) == want
    # run() silences numpy's warnings, not libm's OverflowError
    assert _outcome(lambda v: _Array.run(lambda v, _m: entry(_m)(v), v), x) == want


def test_require_in_domain_names_the_first_element_outside():
    cls = tsallis(0.5)  # domain (-2, inf)
    s = np.array([0.0, 1.0, -2.0, -3.0])
    with pytest.raises(DomainError) as scalar:
        _loop(lambda v: _Scalar.require_in_domain(cls, v))(s)
    with pytest.raises(DomainError) as array:
        _Array.require_in_domain(cls, s)
    assert str(array.value) == str(scalar.value)
    _Array.require_in_domain(cls, s[:2])


def test_run_gives_inf_and_nan_without_a_warning():
    x = np.array([10.0, 100.0, -0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _Array.run(lambda v, _m: (v * 1e308 - v * 1e308, v / 0.0), x)
    assert np.isnan(got[0][:2]).all() and got[0][2] == 0.0
    assert got[1][:2].tolist() == [math.inf, math.inf] and math.isnan(got[1][2])
