"""Deformed derivatives and integrals: closed forms, identities, backends."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    series,
    tsallis,
)
from groupcalc import calculus
from groupcalc.calculus import _gauss_legendre_16
from groupcalc.checks import _sample_range, run_checks
from groupcalc.groups import GroupClass

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


# -- oracles: the per-point recursion and loop the batch backends replaced -----


def oracle_simpson(f, a, b, abs_tol, max_depth):
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, m, fm, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = left + right - whole
        if abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        if depth >= max_depth:
            raise ToleranceNotMet(f"adaptive Simpson hit depth {max_depth} on [{a}, {b}]")
        half = 0.5 * tol
        return recurse(a, fa, m, fm, lm, flm, left, half, depth + 1) + recurse(
            m, fm, b, fb, rm, frm, right, half, depth + 1
        )

    return recurse(a, fa, b, fb, 0.5 * (a + b), fm, whole, abs_tol, 0)


def oracle_gauss16_panels(f, a, b, panels):
    total = 0.0
    nodes, weights = _gauss_legendre_16()
    edges = np.linspace(a, b, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        total += half * sum(w * f(mid + half * t) for t, w in zip(nodes, weights))
    return total


def oracle_gauss16(f, a, b, abs_tol, max_depth):
    prev = oracle_gauss16_panels(f, a, b, 1)
    panels = 2
    for _ in range(max_depth):
        cur = oracle_gauss16_panels(f, a, b, panels)
        if abs(cur - prev) <= abs_tol:
            return cur
        prev = cur
        panels *= 2
    raise ToleranceNotMet(f"Gauss-Legendre doubling exceeded {max_depth} rounds on [{a}, {b}]")


def oracle_integrate(f, a, b, tol):
    if a == b:
        return 0.0
    quadrature = {"simpson": oracle_simpson, "gauss16": oracle_gauss16}[tol.quad_backend]
    return quadrature(f, a, b, tol.quad_abs, tol.quad_max_depth)


def oracle_g_integral(cls, f, a, b, tol, method):
    if method == "substitution":
        return oracle_integrate(lambda u: f(cls.g(u)), cls.g_inv(a), cls.g_inv(b), tol)
    cls.require_in_domain(a)
    cls.require_in_domain(b)
    return oracle_integrate(lambda x: f(x) / cls.deformation_factor(x), a, b, tol)


def oracle_dual_g_integral(cls, f, a, b, tol, method):
    if method == "substitution":
        return oracle_integrate(lambda v: f(cls.g_inv(v)), cls.g(a), cls.g(b), tol)
    return oracle_integrate(lambda x: f(x) * cls.g_prime(x), a, b, tol)


def oracle_fundamental_theorem_residual(cls, f, a, b, tol, high_accuracy):
    delta = f(b) - f(a)
    primal = oracle_g_integral(
        cls, lambda x: g_derivative(cls, f, x, tol, high_accuracy), a, b, tol, "weight"
    )
    dual = oracle_dual_g_integral(
        cls, lambda x: dual_g_derivative(cls, f, x, tol, high_accuracy), a, b, tol, "weight"
    )
    return abs(primal - delta), abs(dual - delta)


def _bits(fn, *args):
    """float.hex of each value fn returns, or the type and text of its error."""
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the oracle's error is the reference
        return type(exc), str(exc)
    return [float(v).hex() for v in (out if isinstance(out, tuple) else (out,))]


BUILTIN_CLASSES = [
    BG, tsallis(0.5), tsallis(0.0), tsallis(1.5), kaniadakis(1.0), kaniadakis(2.0),
    abe(1.0, -1.0), abe(0.7, -0.2), abe(1.0, 0.0), series([0.3]), series([0.2, -0.1]),
]
INTEGRANDS = [lambda x: 1.0, lambda x: x * x, lambda x: x**3, math.sin, lambda x: math.exp(-x)]


@given(
    cls=st.sampled_from(BUILTIN_CLASSES),
    backend=st.sampled_from(["simpson", "gauss16"]),
    method=st.sampled_from(["weight", "substitution"]),
    quad_exp=st.floats(6.0, 13.0),
    max_depth=st.sampled_from([2, 5, 40]),
    f=st.sampled_from(INTEGRANDS),
    ends=st.tuples(st.floats(0.0, 0.45), st.floats(0.55, 1.0)).map(sorted).flatmap(st.permutations),
    high_accuracy=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_deformed_integrals_match_oracle(cls, backend, method, quad_exp, max_depth, f, ends,
                                         high_accuracy):
    # every value and every ToleranceNotMet text of the batch backends is the
    # per-point oracle's, bit for bit, on intervals of either orientation
    lo, hi = _sample_range(cls, margin=0.4)
    lo, hi = max(lo, -1.0), min(hi, 1.5)
    a, b = (lo + (hi - lo) * e for e in ends)
    tol = Tolerances(quad_backend=backend, quad_abs=10.0**-quad_exp, quad_max_depth=max_depth)
    for new, old in ((g_integral, oracle_g_integral), (dual_g_integral, oracle_dual_g_integral)):
        assert _bits(new, cls, f, a, b, tol, method) == _bits(old, cls, f, a, b, tol, method)
    assert _bits(integrate, f, a, b, tol) == _bits(oracle_integrate, f, a, b, tol)
    assert _bits(fundamental_theorem_residual, cls, f, a, b, tol, high_accuracy) == _bits(
        oracle_fundamental_theorem_residual, cls, f, a, b, tol, high_accuracy
    )


@pytest.mark.parametrize("backend", ["simpson", "gauss16"])
@pytest.mark.parametrize("error", [DomainError, ValueError, ZeroDivisionError])
def test_integrand_error_matches_oracle(backend, error):
    def f(x):
        if 0.6 < x < 0.8:
            raise error(f"no value at {x}")
        return math.sin(x)

    tol = Tolerances(quad_backend=backend)
    for run in (integrate, oracle_integrate):
        with pytest.raises(error):
            run(f, 0.0, 1.0, tol)


@pytest.mark.parametrize("backend", ["simpson", "gauss16"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_integrand_matches_oracle(backend, bad):
    # a nan error estimate never meets the tolerance, so both split to the end
    tol = Tolerances(quad_backend=backend, quad_max_depth=8)
    f = lambda x: bad if 0.26 < x < 0.32 else math.sin(5.0 * x)
    with np.errstate(invalid="ignore"):  # the oracle's numpy scalars warn at inf - inf
        want = _bits(oracle_integrate, f, 0.0, 1.0, tol)
    assert want[0] is ToleranceNotMet  # a node in (0.26, 0.32) is reached
    assert _bits(integrate, f, 0.0, 1.0, tol) == want


def test_unreachable_tolerance_stops_after_bounded_points():
    # The finite-difference noise of the integrand sits far above 1e-300, so
    # nearly every interval splits down to the depth limit.  The recursion
    # raises on its leftmost path; the batched stack raises on the same
    # interval after at most one batch per depth level.
    cls, tol = tsallis(0.5), Tolerances(quad_abs=1e-300)
    points = []

    def f(x):
        points.append(x)
        return g_derivative(cls, math.sin, x, tol)

    with pytest.raises(ToleranceNotMet) as batched:
        integrate(f, 0.0, 1.0, tol)
    batched_points = len(points)
    points.clear()
    with pytest.raises(ToleranceNotMet) as recursive:
        oracle_integrate(f, 0.0, 1.0, tol)
    assert str(batched.value) == str(recursive.value)
    assert len(points) == 95  # a few deep intervals on its path meet the tolerance
    bound = 3 + 2 * calculus._SIMPSON_BATCH * (tol.quad_max_depth + 1)
    assert len(points) < batched_points <= bound


def test_stuck_interval_raised_after_earlier_ones():
    # An earlier interval that gets stuck deeper in the tree wins over a later
    # one found stuck first in the same batch.
    tol = Tolerances(quad_abs=1e-12, quad_max_depth=6)
    f = lambda x: math.sqrt(abs(x - 0.3717)) + math.sqrt(abs(x - 0.05))
    with pytest.raises(ToleranceNotMet) as batched:
        integrate(f, 0.0, 1.0, tol)
    with pytest.raises(ToleranceNotMet) as recursive:
        oracle_integrate(f, 0.0, 1.0, tol)
    assert str(batched.value) == str(recursive.value)


@pytest.mark.parametrize("backend", ["simpson", "gauss16"])
def test_results_are_python_float_and_bool(backend):
    tol = Tolerances(quad_backend=backend)
    cls = tsallis(0.5)
    values = [
        integrate(math.sin, 0.0, 1.0, tol),
        g_integral(cls, math.sin, 0.0, 1.0, tol),
        g_integral(cls, math.sin, 0.0, 1.0, tol, method="substitution"),
        dual_g_integral(cls, math.sin, 0.0, 1.0, tol),
        *fundamental_theorem_residual(cls, math.sin, 0.0, 1.0, tol),
    ]
    assert [type(v) for v in values] == [float] * len(values)
    for cls in (BG, tsallis(0.5), kaniadakis(1.0), abe(1.0, -1.0), series([0.3])):
        results = run_checks(cls, tol)
        assert {(type(r.passed), type(r.residual)) for r in results} == {(bool, float)}
        json.dumps([dataclasses.asdict(r) for r in results])


class _Bent(GroupClass):
    """Identity generator with G'(t) = 1 - t, which falls below 0 past t = 1."""

    kind = "bent"

    def g(self, t):
        return t

    def g_inv(self, s):
        return s

    def g_prime(self, t):
        return 1.0 - t

    def spec_string(self):
        return "bent"


@pytest.mark.parametrize("backend, cls, f, a, b, text", [
    ("simpson", tsallis(0.5), Func1D(lambda x: x * x, 0.0, 0.5), 0.0, 1.0,
     "x = 0.0 outside function domain (0.0, 0.5)"),
    ("gauss16", tsallis(0.5), Func1D(lambda x: x * x, 0.0, 0.5), 0.0, 1.0,
     "x = 0.5475062549188188 outside function domain (0.0, 0.5)"),
    ("simpson", _Bent(), lambda x: x * x, 1.25, 2.0,
     "G' must stay positive, got -0.25 at x = 1.25"),
    ("gauss16", _Bent(), lambda x: x * x, 1.25, 2.0,
     "G' must stay positive, got -0.2539746493781312 at x = 1.2539746493781312"),
], ids=["interior-simpson", "interior-gauss16", "rising-simpson", "rising-gauss16"])
def test_batch_integrand_raises_the_first_nodes_error(backend, cls, f, a, b, text):
    # The batch integrands of the fundamental theorem check a whole batch of
    # nodes at once and name the first node whose scalar check fails.
    with pytest.raises(DomainError) as exc:
        fundamental_theorem_residual(cls, f, a, b, Tolerances(quad_backend=backend))
    assert str(exc.value) == text
