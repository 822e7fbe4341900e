"""The two namespaces of the libm rule: at every element, each ``_Array``
entry gives the bits of its ``_Scalar`` entry, or raises the error that the
scalar raises first."""

import math
import warnings

import numpy as np
import pytest

from groupcalc import closed_forms as cf
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
    # past |v| = 1.34e154 the pow overflows and hypot(1, v) takes over
    "hypot1": np.concatenate([_signed(_magnitudes(-300, 308)), _uniform(-3.0, 3.0), _SPECIAL]),
}

# (entry, bases, exponent) at which Python's pow, or the cutoff power, returns
# a value; the cutoff clamps the negative bases to 0
POWERS = [
    ("pow", np.concatenate([_uniform(-5.0, 5.0), _signed(_magnitudes(-150, 150)), _SPECIAL]), 2),
    ("pow", np.concatenate([_uniform(-5.0, 5.0), _signed(_magnitudes(-100, 100))]), 3),
    ("pow", np.concatenate([_uniform(-5.0, 5.0), _signed(_magnitudes(-300, 300))]), -1),
    ("pow", np.concatenate([_uniform(0.0, 5.0), _magnitudes(-300, 300)]), 0.37),
    ("pow", np.concatenate([_uniform(0.0, 5.0), _magnitudes(-200, 200)]), -1.4),
    ("pow", np.concatenate([_uniform(-5.0, 5.0), _SPECIAL]), 0),
    ("cutoff_pow", np.concatenate([_uniform(-5.0, 5.0), _signed(_magnitudes(-300, 300)),
                                   _SPECIAL]), 0.37),
    ("cutoff_pow", np.concatenate([_uniform(-5.0, 5.0), _signed(_magnitudes(-200, 200)),
                                   _SPECIAL[2:]]), -1.4),
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
    want = _outcome(_loop(getattr(_Scalar, name)), x)
    assert not isinstance(want, tuple), want
    assert _outcome(getattr(_Array, name), x) == want


@pytest.mark.parametrize("name, bases, p", POWERS,
                         ids=[str(p) if name == "pow" else f"{name}-{p}" for name, _, p in POWERS])
def test_array_pow_has_the_bits_of_the_scalar_pow(name, bases, p):
    want = _outcome(_loop(lambda v: getattr(_Scalar, name)(v, p)), bases)
    assert not isinstance(want, tuple), want
    assert _outcome(lambda x: getattr(_Array, name)(x, p), bases) == want


def test_pow_2_is_libm_pow_not_a_product():
    # numpy's square is v*v, which differs from libm's pow(v, 2) on about
    # one input in a thousand; the array pow must follow libm there too.
    v = POWERS[0][1]
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


def _negative(v):
    return DomainError(f"v = {v!r} < 0")


def _pole(v, w):
    return DomainError(f"pole at v = {v!r}, w = {w!r}")


@pytest.mark.parametrize("entry, x, error", [
    (lambda m, v: m.exp(v), [1.0, 709.0, 710.0, 1e4], OverflowError),
    (lambda m, v: m.expm1(v), [-1e4, 0.5, 800.0], OverflowError),
    (lambda m, v: m.sinh(v), [-3.0, -711.0, 711.0], OverflowError),
    (lambda m, v: m.cosh(v), [0.0, 711.0], OverflowError),
    (lambda m, v: m.pow(v, 2), [2.0, 1e200, 3.0], OverflowError),
    (lambda m, v: m.pow(v, -3), [2.0, 1e-200], OverflowError),
    # the clamped -1.0 comes first and raises nothing
    (lambda m, v: m.cutoff_pow(v, 2), [-1.0, 2.0, 1e200, 3.0], OverflowError),
    (lambda m, v: m.cutoff_pow(v, -2), [-1.0, 2.0, 0.0, 3.0], ZeroDivisionError),
    (lambda m, v: m.reject(v < 0.0, _negative, v), [1.0, 0.0, -2.0, -3.0], DomainError),
    (lambda m, v: m.reject(1.0 - v == 0.0, _pole, v, 2.0 * v), [0.5, 1.0, 1.0], DomainError),
], ids=["exp", "expm1", "sinh", "cosh", "pow-2", "pow-minus-3", "cutoff_pow-2", "cutoff_pow-zero",
        "reject", "reject-pole"])
def test_overflow_raises_per_element_as_the_scalar(entry, x, error):
    x = np.array(x)
    want = _outcome(_loop(lambda v: entry(_Scalar, v)), x)
    assert want[0] is error
    assert _outcome(lambda v: entry(_Array, v), x) == want
    # run() silences numpy's warnings, not libm's OverflowError
    assert _outcome(lambda v: _Array.run(lambda v, _m: entry(_m, v), v), x) == want


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


def test_namespaces_have_the_same_entries():
    def entries(namespace):
        return {name for name in vars(namespace) if not name.startswith("__")}

    assert entries(_Scalar) == entries(_Array) - {"run", "each"}


def test_kappa_sum_and_sub_past_the_square_overflow():
    # pow(v, 2) overflows past |v| = 1.34e154; sqrt(1 + v^2) is then hypot(1, v)
    tiny = math.sqrt(1.0 + (2e-200) ** 2)
    assert cf.kappa_sum(2.0, 1e-200, 1e200) == 1e-200 * math.hypot(1.0, 2e200) + 1e200 * tiny
    assert cf.kappa_sub(2.0, 1e200, 1e-200) == 1e200 * tiny - 1e-200 * math.hypot(1.0, 2e200)
    x, y = np.array([0.5, 1.3e154, -1e300]), np.array([1e-200, 1.0, -3e160])
    for op, twin in ((cf.kappa_sum, cf.kappa_sum_array), (cf.kappa_sub, cf.kappa_sub_array)):
        want = [op(2.0, a, b) for a, b in zip(x.tolist(), y.tolist())]
        assert _bits(twin(2.0, x, y)) == _bits(want)
