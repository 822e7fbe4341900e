"""Deformed derivatives and integrals: closed forms, identities, backends."""

import math

import numpy as np
import pytest

from groupcalc import (
    BG,
    DomainError,
    Func1D,
    Tolerances,
    ToleranceNotMet,
    abe,
    dual_g_derivative,
    dual_g_integral,
    exp_g,
    func_from_samples,
    fundamental_theorem_residual,
    g_derivative,
    g_integral,
    integrate,
    kaniadakis,
    tsallis,
)
from groupcalc.checks import run_checks

LN2 = 0.6931471805599453
ASINH1 = 0.8813735870195430
SINH1 = 1.1752011936438014

CLASSES = [BG, tsallis(0.5), tsallis(0.0), kaniadakis(1.0), kaniadakis(2.0), abe(1.0, -1.0)]


def test_g_derivative_closed_forms():
    # Tsallis: (1 + (1-q)x) f'(x)
    assert g_derivative(tsallis(0.0), lambda x: x * x, 1.0) == pytest.approx(4.0, rel=1e-9)
    # Kaniadakis: sqrt((kx)^2 + 1) f'(x)
    assert g_derivative(kaniadakis(1.0), lambda x: x, 3.0) == pytest.approx(
        math.sqrt(10.0), rel=1e-10
    )
    assert g_derivative(BG, math.sin, 0.3) == pytest.approx(math.cos(0.3), rel=1e-9)


def test_dual_g_derivative_closed_forms():
    # Tsallis: exp(-(1-q)x) f'(x)
    assert dual_g_derivative(tsallis(0.0), lambda x: x * x, 1.0) == pytest.approx(
        2.0 / math.e, rel=1e-9
    )
    # Kaniadakis: f'(x)/cosh(kx)
    assert dual_g_derivative(kaniadakis(1.0), lambda x: x, 0.0) == pytest.approx(1.0, rel=1e-10)
    assert dual_g_derivative(BG, lambda x: x**3, 2.0) == pytest.approx(12.0, rel=1e-9)


def test_bg_derivative_is_plain_difference():
    f = lambda x: math.exp(0.3 * x)
    tol = Tolerances()
    h = tol.fd_step_scale * (1.0 + 1.2)
    plain = (f(1.2 + h) - f(1.2 - h)) / (2 * h)
    assert g_derivative(BG, f, 1.2, tol) == plain
    assert dual_g_derivative(BG, f, 1.2, tol) == plain


def test_high_accuracy_stencil():
    val = g_derivative(tsallis(0.5), lambda x: math.sin(2 * x), 0.7, high_accuracy=True)
    exact = (1.0 + 0.5 * 0.7) * 2.0 * math.cos(1.4)
    assert val == pytest.approx(exact, abs=1e-11)


def test_derivative_requires_interior_point():
    f = Func1D(lambda x: x, 0.0, 1.0)
    with pytest.raises(DomainError):
        g_derivative(BG, f, 1.0)


def test_dual_derivative_closed_form_match_sampled():
    for q in (-0.5, 0.0, 0.5, 0.9):
        cls = tsallis(q)
        gamma = 1.0 - q
        for f, fp in ((lambda x: x * x, lambda x: 2 * x), (math.sin, math.cos)):
            for x in np.linspace(max(cls.domain[0] * 0.4, -1.5), 2.0, 25):
                want = math.exp(-gamma * x) * fp(x)
                assert dual_g_derivative(cls, f, x) == pytest.approx(want, abs=1e-9)
    for kappa in (0.5, 1.0, 2.0):
        cls = kaniadakis(kappa)
        for x in np.linspace(-1.5, 2.0, 25):
            want = math.cos(x) / math.cosh(kappa * x)
            assert dual_g_derivative(cls, math.sin, x) == pytest.approx(want, abs=1e-9)


def test_ratio_between_derivative_structures():
    for cls in CLASSES:
        for x in (0.2, 0.8, 1.4):
            num = g_derivative(cls, lambda t: t**3 + t, x)
            den = dual_g_derivative(cls, lambda t: t**3 + t, x)
            want = cls.g_prime(cls.g_inv(x)) * cls.g_prime(x)
            assert num / den == pytest.approx(want, rel=1e-9)


def test_chain_identity():
    # derivative of f(G^{-1}(x)) in the deformed structure is f'(G^{-1}(x))
    for cls in CLASSES:
        f = lambda u: u**3
        h = lambda x: f(cls.g_inv(x))
        for x in (0.3, 0.9, 1.6):
            want = 3.0 * cls.g_inv(x) ** 2
            assert g_derivative(cls, h, x) == pytest.approx(want, abs=1e-8)


def test_exp_derivative_identity():
    for cls in CLASSES:
        lo = max(cls.domain[0] * 0.45, -2.0)
        f = Func1D(lambda x: exp_g(cls, x), *cls.domain)
        for x in np.linspace(lo, 2.0, 100):
            assert g_derivative(cls, f, x) == pytest.approx(exp_g(cls, x), abs=1e-8)


def test_g_integral_closed_forms():
    assert g_integral(tsallis(0.0), lambda x: 1.0, 0.0, 1.0) == pytest.approx(LN2, abs=1e-10)
    assert g_integral(kaniadakis(1.0), lambda x: 1.0, 0.0, 1.0) == pytest.approx(ASINH1, abs=1e-10)
    assert g_integral(tsallis(0.5), lambda x: 0.0, 0.0, 1.0) == 0.0


def test_dual_g_integral_closed_forms():
    assert dual_g_integral(tsallis(0.0), lambda x: 1.0, 0.0, 1.0) == pytest.approx(
        math.e - 1.0, abs=1e-10
    )
    assert dual_g_integral(kaniadakis(1.0), lambda x: 1.0, 0.0, 1.0) == pytest.approx(
        SINH1, abs=1e-10
    )
    assert dual_g_integral(BG, lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_quadrature_paths_agree():
    for cls in CLASSES:
        for f in (lambda x: 1.0, lambda x: x * x, math.sin):
            direct = g_integral(cls, f, 0.0, 1.0, method="weight")
            subst = g_integral(cls, f, 0.0, 1.0, method="substitution")
            assert abs(direct - subst) <= 1e-9
            direct = dual_g_integral(cls, f, 0.0, 1.0, method="weight")
            subst = dual_g_integral(cls, f, 0.0, 1.0, method="substitution")
            assert abs(direct - subst) <= 1e-9


def test_gauss_backend_matches_simpson():
    gauss = Tolerances(quad_backend="gauss16")
    for cls in (tsallis(0.5), kaniadakis(1.0)):
        a = g_integral(cls, lambda x: math.exp(-x), 0.0, 2.0)
        b = g_integral(cls, lambda x: math.exp(-x), 0.0, 2.0, gauss)
        assert a == pytest.approx(b, abs=1e-9)
    assert integrate(math.sin, 0.0, math.pi, gauss) == pytest.approx(2.0, abs=1e-10)


def test_fundamental_theorem():
    res = fundamental_theorem_residual(tsallis(0.5), lambda x: x**3, 0.0, 1.0)
    assert res.primal <= 1e-8 and res.dual <= 1e-8
    res = fundamental_theorem_residual(BG, math.sin, 0.0, math.pi)
    assert res.primal <= 1e-9 and res.dual <= 1e-9
    res = fundamental_theorem_residual(BG, math.sin, 0.0, math.pi, high_accuracy=True)
    assert res.primal <= 1e-10 and res.dual <= 1e-10
    res = fundamental_theorem_residual(kaniadakis(2.0), lambda x: x * x, 0.0, 2.0)
    assert res.primal <= 1e-8 and res.dual <= 1e-8


def test_bg_integral_is_plain_quadrature():
    f = lambda x: x * math.exp(-x)
    assert g_integral(BG, f, 0.0, 2.0) == integrate(f, 0.0, 2.0)
    assert dual_g_integral(BG, f, 0.0, 2.0) == integrate(f, 0.0, 2.0)


def test_tolerance_not_met():
    spiky = Tolerances(quad_abs=1e-16, quad_max_depth=4)
    with pytest.raises(ToleranceNotMet):
        integrate(lambda x: math.sqrt(abs(x - 0.3717)), 0.0, 1.0, spiky)


def test_func_from_samples_roundtrip():
    xs = np.linspace(0.0, 2.0, 60)
    f = func_from_samples(xs, np.sin(xs))
    for x in (0.3, 1.1, 1.9):
        assert f(x) == pytest.approx(math.sin(x), abs=1e-6)
    assert f.lo == 0.0 and f.hi == 2.0
    with pytest.raises(ValueError):
        func_from_samples([0, 1], [1, 2])


def test_integral_orientation_and_empty():
    assert integrate(lambda x: 1.0, 1.0, 1.0) == 0.0
    assert g_integral(tsallis(0.5), lambda x: 1.0, 1.0, 0.0) == pytest.approx(
        -g_integral(tsallis(0.5), lambda x: 1.0, 0.0, 1.0), rel=1e-12
    )


@pytest.mark.parametrize("backend", ["simpson", "gauss16"])
def test_checks_pass_near_upper_tsallis_edge(backend):
    # q = 1.23 puts the exp-derivative samples close to the domain edge
    # 1/(q-1), where the 3-point stencil's truncation error exceeded 1e-8.
    results = run_checks(tsallis(1.23), Tolerances(quad_backend=backend))
    assert [r.name for r in results if not r.passed] == []


@pytest.mark.parametrize("cls", [BG, tsallis(0.5), kaniadakis(1.0)])
def test_unknown_integration_method_rejected_for_every_class(cls):
    # the identity class takes the general route too, with its checks
    for integral in (g_integral, dual_g_integral):
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            integral(cls, lambda x: 1.0, 0.0, 1.0, method="bogus")
