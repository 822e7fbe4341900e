"""Generalized arithmetic: closed-form values, group axioms, oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcalc import (
    BG,
    DomainError,
    GroupCalcError,
    abe,
    clamp_occurred,
    cutoff_pow,
    deform,
    dual_deform,
    dual_g_sum,
    exp_g,
    g_div,
    g_integer,
    g_neg,
    g_pow,
    g_prod,
    g_recip,
    g_sub,
    g_sum,
    kaniadakis,
    reset_clamp_flag,
    tsallis,
)
from groupcalc import closed_forms as cf

LN2 = 0.6931471805599453
LN3 = 1.0986122886681098
SINH1 = 1.1752011936438014

CLASSES = [BG, tsallis(0.5), tsallis(0.0), kaniadakis(1.0), abe(1.0, -1.0)]


# -- frozen closed-form values -------------------------------------------------


def test_g_sum_values():
    assert g_sum(tsallis(0.5), 1.0, 2.0) == pytest.approx(4.0, rel=1e-14)
    assert g_sum(kaniadakis(1.0), 3.0, 4.0) == pytest.approx(25.018427517526499, rel=1e-13)
    assert g_sum(tsallis(0.5), 0.7, 0.0) == pytest.approx(0.7, rel=1e-15)


def test_g_prod_values():
    assert g_prod(tsallis(0.5), 2.0, 3.0) == pytest.approx(4.6064507456824115, rel=1e-13)
    assert g_recip(kaniadakis(0.7), 2.5) == pytest.approx(1.0 / 2.5, rel=1e-13)
    assert g_prod(kaniadakis(1.0), 5.0, 1.0) == pytest.approx(5.0, rel=1e-13)


def test_g_integer_values():
    assert g_integer(tsallis(0.0), 3).value == pytest.approx(7.0, rel=1e-14)
    assert g_integer(kaniadakis(1.0), 2).value == pytest.approx(2.8284271247461903, rel=1e-14)
    assert g_integer(BG, -4).value == -4.0
    gi = g_integer(tsallis(0.5), 0)
    assert gi.value == 0.0 and gi.n == 0
    assert g_integer(tsallis(0.5), 1).value == pytest.approx(1.0, rel=1e-15)


def test_g_pow_values():
    assert g_pow(tsallis(0.5), 4.0, 2) == pytest.approx(9.0, rel=1e-13)
    # frozen from the closed form [2 sinh 1 + sqrt(4 sinh^2 1 + 1)]
    assert g_pow(kaniadakis(1.0), math.e, 2) == pytest.approx(4.9046912084993434, rel=1e-13)
    for cls in CLASSES:
        assert g_pow(cls, 2.7, 0) == pytest.approx(1.0, abs=1e-14)
        assert g_pow(cls, 2.7, 1) == pytest.approx(2.7, rel=1e-13)


def test_g_pow_equals_iterated_product():
    for cls in CLASSES:
        for n in range(2, 9):
            acc = 1.2
            for _ in range(n - 1):
                acc = g_prod(cls, 1.2, acc)
            assert g_pow(cls, 1.2, n) == pytest.approx(acc, rel=1e-11)


def test_deform_values():
    assert deform(tsallis(0.0), 1.0) == pytest.approx(LN2, rel=1e-15)
    assert dual_deform(kaniadakis(1.0), 1.0) == pytest.approx(SINH1, rel=1e-15)
    for cls in CLASSES:
        assert deform(cls, 0.0) == 0.0
        assert dual_deform(cls, 0.0) == 0.0


def test_deform_roundtrip():
    for cls in CLASSES:
        assert cls.g(deform(cls, 0.8)) == pytest.approx(0.8, rel=1e-12)
        assert cls.g_inv(dual_deform(cls, 0.8)) == pytest.approx(0.8, rel=1e-12)


def test_dual_g_sum():
    cls = tsallis(0.0)
    assert dual_g_sum(cls, 0.0, 0.0) == 0.0
    assert dual_g_sum(cls, LN2, LN2) == pytest.approx(LN3, rel=1e-14)
    assert dual_g_sum(BG, 1.5, 2.5) == 4.0
    # the dual map is an additive homomorphism for this operation
    for c in CLASSES:
        for x, y in ((0.3, 0.4), (-0.2, 0.9)):
            lhs = dual_deform(c, dual_g_sum(c, x, y))
            rhs = dual_deform(c, x) + dual_deform(c, y)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_neg_and_sub():
    for cls in CLASSES:
        for x in (0.3, 1.7):
            assert g_sum(cls, x, g_neg(cls, x)) == pytest.approx(0.0, abs=1e-13)
            assert g_sub(cls, x, x) == pytest.approx(0.0, abs=1e-13)


def test_recip_and_div():
    # operands kept clear of the multiplicative cutoff edge (x = 2 at q = 0)
    for cls in CLASSES:
        for x in (0.7, 1.5):
            assert g_prod(cls, x, g_recip(cls, x)) == pytest.approx(1.0, rel=1e-12)
            assert g_div(cls, x, x) == pytest.approx(1.0, rel=1e-12)


def test_positive_operand_required():
    for op in (g_prod, g_div):
        with pytest.raises(DomainError):
            op(tsallis(0.5), -1.0, 2.0)
    with pytest.raises(DomainError):
        g_recip(kaniadakis(1.0), 0.0)
    with pytest.raises(DomainError):
        g_pow(BG, -2.0, 2)


def test_g_pow_integrality():
    with pytest.raises(DomainError):
        g_pow(tsallis(0.5), 2.0, 1.5)
    with pytest.raises(DomainError):
        g_integer(BG, 2.5)


# -- cutoff bracket -------------------------------------------------------------


def test_cutoff_clamps_and_flags():
    reset_clamp_flag()
    assert cutoff_pow(-0.5, 2.0) == 0.0
    assert clamp_occurred()
    reset_clamp_flag()
    assert cutoff_pow(0.25, 0.5) == 0.5
    assert not clamp_occurred()


def test_q_recip_cutoff_boundary():
    reset_clamp_flag()
    assert cf.q_recip(0.5, 4.0) == 0.0  # base hits exactly zero: not a clamp
    assert not clamp_occurred()
    reset_clamp_flag()
    assert cf.q_recip(0.5, 5.0) == 0.0  # base negative: clamped
    assert clamp_occurred()


# -- closed-form oracles ---------------------------------------------------------


def test_q_oracle_values():
    assert cf.q_sum(0.5, 1.0, 2.0) == 4.0
    assert cf.q_sub(0.5, 4.0, 2.0) == pytest.approx(1.0, rel=1e-15)
    assert cf.q_prod(0.5, 2.0, 3.0) == pytest.approx(4.6064507456824115, rel=1e-14)
    assert cf.q_integer(0.0, 3) == 7.0
    assert cf.q_pow(0.5, 4.0, 2) == pytest.approx(9.0, rel=1e-14)
    with pytest.raises(DomainError):
        cf.q_sub(0.5, 1.0, -2.0)  # pole at y = -1/(1-q)


def test_kappa_oracle_values():
    assert cf.kappa_sum(1.0, 3.0, 4.0) == pytest.approx(25.018427517526499, rel=1e-14)
    assert cf.kappa_sub(1.0, 3.0, 3.0) == 0.0
    assert cf.kappa_integer(1.0, 2) == pytest.approx(2.8284271247461903, rel=1e-14)
    assert cf.kappa_recip(2.0, 2.5) == 0.4
    assert cf.kappa_pow(1.0, math.e, 2) == pytest.approx(4.9046912084993434, rel=1e-14)
    assert cf.kappa_neg(1.0, 1.3) == -1.3


def test_kappa_oracles_past_the_square_overflow():
    # (k x)^2 and s^2 pass the float range while the values stay far inside it
    cls = kaniadakis(2.0)
    assert cf.kappa_exp(2.0, 1e154) == pytest.approx(exp_g(cls, 1e154), rel=1e-14)
    assert cf.kappa_exp(2.0, -1e154) == pytest.approx(exp_g(cls, -1e154), rel=1e-14)
    assert cf.kappa_pow(2.0, 1e100, 3) == pytest.approx(g_pow(cls, 1e100, 3), rel=1e-14)
    assert cf.kappa_pow(2.0, 1e-100, 3) == pytest.approx(g_pow(cls, 1e-100, 3), rel=1e-14)
    # below the overflow the bits are those of sqrt(v*v + 1)
    assert cf.kappa_exp(1.0, 3.0) == (3.0 + math.sqrt(10.0)) ** 1.0


def test_kappa_neg_is_group_inverse():
    cls = kaniadakis(1.5)
    for x in (0.4, 2.0, -1.1):
        assert g_sum(cls, x, cf.kappa_neg(1.5, x)) == pytest.approx(0.0, abs=1e-13)


def _rel(a, b):
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


@pytest.mark.parametrize("q", [-0.5, 0.0, 0.5, 0.9])
def test_generic_matches_q_oracle(q):
    cls = tsallis(q)
    gamma = 1.0 - q
    rng = np.random.default_rng(101)
    lo = max(-1.0 / gamma * 0.5, -2.0)
    for _ in range(800):
        x, y = rng.uniform(lo, 4.0, 2)
        assert _rel(g_sum(cls, x, y), cf.q_sum(q, x, y)) <= 1e-11
        assert _rel(g_sub(cls, x, y), cf.q_sub(q, x, y)) <= 1e-11
        assert _rel(g_neg(cls, x), cf.q_neg(q, x)) <= 1e-11
        xp, yp = rng.uniform(0.2, 4.0, 2)
        reset_clamp_flag()
        want = cf.q_prod(q, xp, yp)
        if not clamp_occurred():
            assert _rel(g_prod(cls, xp, yp), want) <= 1e-11
        reset_clamp_flag()
        want = cf.q_div(q, xp, yp)
        if not clamp_occurred():
            assert _rel(g_div(cls, xp, yp), want) <= 1e-11
    for n in range(-6, 7):
        assert _rel(g_integer(cls, n).value, cf.q_integer(q, n)) <= 1e-11
        reset_clamp_flag()
        want = cf.q_pow(q, 1.7, n)
        if not clamp_occurred():
            assert _rel(g_pow(cls, 1.7, n), want) <= 1e-11


@pytest.mark.parametrize("kappa", [0.25, 0.5, 1.0, 2.0])
def test_generic_matches_kappa_oracle(kappa):
    cls = kaniadakis(kappa)
    rng = np.random.default_rng(202)
    for _ in range(800):
        x, y = rng.uniform(-4.0, 4.0, 2)
        assert _rel(g_sum(cls, x, y), cf.kappa_sum(kappa, x, y)) <= 1e-11
        assert _rel(g_sub(cls, x, y), cf.kappa_sub(kappa, x, y)) <= 1e-11
        assert _rel(g_neg(cls, x), cf.kappa_neg(kappa, x)) <= 1e-11
        xp, yp = rng.uniform(0.2, 4.0, 2)
        assert _rel(g_prod(cls, xp, yp), cf.kappa_prod(kappa, xp, yp)) <= 1e-11
        assert _rel(g_div(cls, xp, yp), cf.kappa_div(kappa, xp, yp)) <= 1e-11
        assert _rel(g_recip(cls, xp), cf.kappa_recip(kappa, xp)) <= 1e-11
    for n in range(-6, 7):
        assert _rel(g_integer(cls, n).value, cf.kappa_integer(kappa, n)) <= 1e-11
        assert _rel(g_pow(cls, 1.7, n), cf.kappa_pow(kappa, 1.7, n)) <= 1e-11


# -- structural properties --------------------------------------------------------


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.spec_string())
def test_axioms_sampled(cls):
    rng = np.random.default_rng(7)
    lo = max(cls.domain[0] * 0.5, -2.0)
    for _ in range(300):
        x, y, z = rng.uniform(lo, 3.0, 3)
        assert _rel(g_sum(cls, x, y), g_sum(cls, y, x)) <= 1e-11
        assert _rel(g_sum(cls, x, g_sum(cls, y, z)), g_sum(cls, g_sum(cls, x, y), z)) <= 1e-11
        assert _rel(g_sum(cls, x, 0.0), x) <= 1e-12
        xp, yp, zp = rng.uniform(0.7, 3.0, 3)
        try:
            lhs = g_prod(cls, xp, g_prod(cls, yp, zp))
            rhs = g_prod(cls, g_prod(cls, xp, yp), zp)
        except DomainError:
            continue  # triple product fell below the multiplicative cutoff
        assert _rel(lhs, rhs) <= 1e-11


def test_non_distributivity_witness():
    cls = tsallis(0.5)
    a, x, y = 2.0, 1.0, 2.0
    assert abs(a * g_sum(cls, x, y) - g_sum(cls, a * x, a * y)) > 1e-6


def test_deform_homomorphism():
    for cls in CLASSES:
        rng = np.random.default_rng(11)
        lo = max(cls.domain[0] * 0.5, -2.0)
        for _ in range(200):
            x, y = rng.uniform(lo, 3.0, 2)
            lhs = deform(cls, g_sum(cls, x, y))
            rhs = deform(cls, x) + deform(cls, y)
            assert _rel(lhs, rhs) <= 1e-11


def test_g_integer_additivity():
    for cls in CLASSES:
        for n in range(-5, 6):
            for m in range(-5, 6):
                lhs = g_integer(cls, n + m).value
                rhs = g_sum(cls, g_integer(cls, n).value, g_integer(cls, m).value)
                assert _rel(lhs, rhs) <= 1e-11


def test_bg_reduces_to_ordinary_arithmetic():
    rng = np.random.default_rng(13)
    for _ in range(200):
        x, y = rng.uniform(-10.0, 10.0, 2)
        assert g_sum(BG, x, y) == x + y
        assert g_sub(BG, x, y) == x - y
        assert g_neg(BG, x) == -x
        xp, yp = abs(x) + 0.1, abs(y) + 0.1
        assert g_prod(BG, xp, yp) == xp * yp
        assert g_div(BG, xp, yp) == xp / yp
        assert g_recip(BG, xp) == 1.0 / xp


@given(
    xf=st.floats(0.0, 1.0),
    yf=st.floats(0.0, 1.0),
    q=st.floats(-0.5, 0.9),
)
@settings(max_examples=200, deadline=None)
def test_commutativity_property(xf, yf, q):
    cls = tsallis(q)
    lo = 0.5 * cls.domain[0]  # stay inside the class domain
    x = lo + xf * (3.0 - lo)
    y = lo + yf * (3.0 - lo)
    assert _rel(g_sum(cls, x, y), g_sum(cls, y, x)) <= 1e-12


@given(x=st.floats(0.1, 5.0), kappa=st.floats(0.1, 2.0))
@settings(max_examples=200, deadline=None)
def test_kappa_recip_property(x, kappa):
    assert _rel(g_recip(kaniadakis(kappa), x), 1.0 / x) <= 1e-11


# -- closed-form array twins: bit for bit the scalar forms ---------------------


def _scalar_twin(fn, param, x, y):
    """fn at every (x[i], y[i]) as Python floats, and whether that call
    clamped; or the type and message of the first error."""
    values, clamped = [], []
    try:
        for a, b in zip(x.tolist(), y.tolist()):
            reset_clamp_flag()
            values.append(fn(param, a, b))
            clamped.append(clamp_occurred())
    except (GroupCalcError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return np.array(values, dtype=float).view(np.uint64).tolist(), clamped


def _array_twin(fn, param, x, y):
    try:
        out = fn(param, x, y)
    except (GroupCalcError, ArithmeticError) as exc:
        return type(exc), str(exc)
    values, clamped = out if isinstance(out, tuple) else (out, np.zeros(x.shape, bool))
    return values.view(np.uint64).tolist(), clamped.tolist()


def _assert_twins(name, param, x, y):
    x, y = np.array(x, dtype=float), np.array(y, dtype=float)
    want = _scalar_twin(getattr(cf, name), param, x, y)
    assert _array_twin(getattr(cf, f"{name}_array"), param, x, y) == want, name


@st.composite
def _operands(draw, lo, hi, extra=()):
    """Two equal-length operand lists on [lo, hi], with the values of extra
    mixed into the second."""
    x = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=30))
    y = draw(st.lists(st.floats(lo, hi), min_size=len(x), max_size=len(x)))
    for value in extra:
        if draw(st.booleans()):
            y[draw(st.integers(0, len(y) - 1))] = value
    return x, y


@given(data=st.data(), q=st.one_of(st.floats(-0.9, 0.95), st.floats(1.05, 2.9), st.just(0.5)))
@settings(max_examples=80, deadline=None)
def test_q_array_twins(data, q):
    g = 1.0 - q
    x, y = data.draw(_operands(-5.0, 5.0, extra=(-1.0 / g,)))  # q_sub's pole
    for name in ("q_sum", "q_sub"):
        _assert_twins(name, q, x, y)
    # The products take positive operands; for q < 1 the base of the cutoff
    # goes negative (a clamp) for small ones, and y = 0 is allowed.
    x, y = data.draw(_operands(1e-3, 6.0, extra=(0.0,) if q < 1.0 else ()))
    for name in ("q_prod", "q_div"):
        _assert_twins(name, q, x, y)


@given(data=st.data(), kappa=st.floats(0.05, 3.0))
@settings(max_examples=80, deadline=None)
def test_kappa_array_twins(data, kappa):
    x, y = data.draw(_operands(-50.0, 50.0))
    for name in ("kappa_sum", "kappa_sub"):
        _assert_twins(name, kappa, x, y)
    x, y = data.draw(_operands(1e-3, 10.0, extra=(0.0, -1.0)))
    for name in ("kappa_prod", "kappa_div"):
        _assert_twins(name, kappa, x, y)


@pytest.mark.parametrize("prefix, param", [("q", 0.5), ("q", 1.4), ("kappa", 0.25), ("kappa", 2.0)])
def test_array_twins_on_many_samples(prefix, param):
    # libm's pow(v, 2) and v * v differ on ~0.1% of inputs, which a few
    # thousand samples find where a short hypothesis list may not
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-5.0, 5.0, (2, 4000))
    xp, yp = rng.uniform(0.2, 4.0, (2, 4000))
    for op in ("sum", "sub"):
        _assert_twins(f"{prefix}_{op}", param, x, y)
    for op in ("prod", "div"):
        _assert_twins(f"{prefix}_{op}", param, xp, yp)


def test_q_prod_array_clamp_mask():
    reset_clamp_flag()
    values, clamped = cf.q_prod_array(0.5, np.array([0.1, 4.0, 0.25]), np.array([0.1, 4.0, 0.25]))
    assert values.tolist() == [0.0, cf.q_prod(0.5, 4.0, 4.0), 0.0]  # base exactly 0 at 0.25
    assert clamped.tolist() == [True, False, False]
    assert clamp_occurred()


def test_q_twins_reject_the_undeformed_limit():
    with pytest.raises(DomainError, match="q = 1"):
        cf.q_prod_array(1.0, np.array([1.0]), np.array([1.0]))


@pytest.mark.parametrize("q", [-0.5, 0.0, 0.5, 0.9])
def test_generic_raises_exactly_where_the_closed_form_clamps(q):
    # The cutoff policy: where [x**g + y**g - 1]_+ clamps, x (*) y has no
    # value and the generic product raises DomainError instead of returning
    # 0.0.  Bases within 1e-12 of 0 may fall on either side by rounding.
    cls, g = tsallis(q), 1.0 - q
    rng = np.random.default_rng(303)
    outcomes = set()
    for x, y in 10.0 ** rng.uniform(-12.0, 0.5, (400, 2)):
        for generic, closed, base in (
            (g_prod, cf.q_prod, x**g + y**g - 1.0),
            (g_div, cf.q_div, x**g - y**g + 1.0),
        ):
            if abs(base) <= 1e-12:
                continue
            reset_clamp_flag()
            closed(q, x, y)
            try:
                generic(cls, x, y)
            except DomainError:
                raised = True
            else:
                raised = False
            assert raised == clamp_occurred(), (generic.__name__, x, y)
            outcomes.add(raised)
    assert outcomes == {True, False}
