"""Generator classes: closed forms, round trips, domains, spec strings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcalc import (
    BG,
    ConvergenceError,
    DomainError,
    GroupCalcError,
    abe,
    cos_g,
    exp_g,
    kaniadakis,
    log_g,
    parse_class_spec,
    series,
    sin_g,
    tsallis,
)
from groupcalc import groups
from groupcalc.groups import exp_g_array, log_g_array

LN2 = 0.6931471805599453
ASINH1 = 0.8813735870195430

ALL_CLASSES = [
    BG,
    tsallis(0.0),
    tsallis(0.5),
    tsallis(-0.5),
    kaniadakis(1.0),
    kaniadakis(0.25),
    abe(1.0, -1.0),
    abe(0.5, -2.0),
]


def test_g_closed_forms():
    assert BG.g(1.7) == 1.7
    assert tsallis(0.0).g(LN2) == pytest.approx(1.0, abs=1e-15)
    assert kaniadakis(1.0).g(0.0) == 0.0


def test_g_inv_closed_forms():
    assert tsallis(0.0).g_inv(1.0) == pytest.approx(LN2, abs=1e-15)
    assert kaniadakis(1.0).g_inv(1.0) == pytest.approx(ASINH1, abs=1e-15)
    a = abe(1.0, -1.0)
    assert a.g_inv(a.g(0.3)) == pytest.approx(0.3, abs=1e-13)


def test_g_inv_domain_errors():
    with pytest.raises(DomainError):
        tsallis(0.5).g_inv(-2.0)  # 1 + 0.5*(-2) = 0
    with pytest.raises(DomainError):
        tsallis(0.5).g_inv(-3.0)
    with pytest.raises(DomainError):
        tsallis(3.0).g_inv(1.0)  # q > 1 flips the domain


def test_g_prime_g_second():
    assert BG.g_prime(5.0) == 1.0
    assert BG.g_second(5.0) == 0.0
    assert tsallis(0.5).g_prime(0.0) == 1.0
    assert kaniadakis(2.0).g_prime(1.0) == pytest.approx(math.cosh(2.0), rel=1e-15)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.spec_string())
def test_normalization_at_zero(cls):
    assert cls.g(0.0) == 0.0
    assert cls.g_prime(0.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.spec_string())
def test_roundtrip_1000_points(cls):
    rng = np.random.default_rng(42)
    for t in rng.uniform(-5.0, 5.0, 1000):
        assert abs(cls.g_inv(cls.g(t)) - t) <= 1e-12 * (1.0 + abs(t))


def test_series_roundtrip_local():
    cls = series([0.5, 0.125, 0.5**3 / 6, 0.5**4 / 24], 4)
    rng = np.random.default_rng(1)
    for t in rng.uniform(-0.5, 0.5, 300):
        assert abs(cls.g_inv(cls.g(t)) - t) <= 1e-12 * (1.0 + abs(t))


def test_series_matches_tsallis_locally():
    # coefficients of the Tsallis expansion: a_k = gamma^k / k!
    gamma = 0.5
    order = 6
    cls = series([gamma**k / math.factorial(k) for k in range(1, order + 1)], order)
    ts = tsallis(1.0 - gamma)
    for t in np.linspace(-0.1, 0.1, 41):
        assert abs(cls.g(t) - ts.g(t)) <= 1e-12


def test_series_order_exceeds_coefficients():
    with pytest.raises(ValueError):
        series([0.5, 0.125], truncation_order=3)


def test_series_inverse_outside_radius():
    cls = series([-1.0], 1)  # G(t) = t - t^2/2, G' = 1 - t: domain is local
    with pytest.raises((ConvergenceError, DomainError)):
        cls.g_inv(10.0)


def test_abe_rejects_non_monotone():
    with pytest.raises(ValueError):
        abe(2.0, 1.0)
    with pytest.raises(ValueError):
        abe(1.0, 1.0)


def test_abe_swaps_parameters():
    assert abe(-1.0, 1.0).spec_string() == "abe:a=1,b=-1"


def test_abe_matches_kaniadakis():
    # G_(k,-k) = sinh(k t)/k
    a, k = abe(1.0, -1.0), kaniadakis(1.0)
    for t in np.linspace(-3, 3, 21):
        assert a.g(t) == pytest.approx(k.g(t), rel=1e-14)


def test_abe_inverse_brackets_past_overflow():
    """G overflows while the bracket grows and is bisected, although the
    root, t ~ 1078 at s ~ 7e263, is far from overflow."""
    cls = abe(0.5636478849147178, -0.5620775811883815)
    s = 7.209973462609746e263
    t = cls.g_inv(s)
    assert t == pytest.approx(1078.10884894319, rel=1e-14)  # exact root 1078.108848943189989
    # one ulp of t moves G by 1.3e-13 relative; t is the closest double
    assert cls.g(t) == pytest.approx(s, rel=1e-13)
    assert cls.g_inv(-s) == pytest.approx(-1081.1208145499882, rel=1e-14)
    u = cls.g_inv_array(np.array([s, -s, 1.0]))
    assert u.tolist() == [t, cls.g_inv(-s), cls.g_inv(1.0)]


def test_degenerate_parameters_normalize_to_bg():
    assert tsallis(1.0) is BG
    assert kaniadakis(0.0) is BG


def test_log_exp_closed_forms():
    cls = tsallis(0.5)
    assert log_g(cls, 4.0) == pytest.approx(2.0, rel=1e-14)
    assert exp_g(cls, 2.0) == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.spec_string())
def test_log_exp_mutually_inverse(cls):
    for x in (0.25, 1.0, 3.5):
        assert exp_g(cls, log_g(cls, x)) == pytest.approx(x, rel=1e-12)
    assert exp_g(cls, 0.0) == 1.0
    assert log_g(cls, 1.0) == 0.0


def test_exp_g_cutoff_edge():
    # closed lower edge of the Tsallis domain maps to the limit value 0
    assert exp_g(tsallis(0.5), -2.0) == 0.0
    with pytest.raises(DomainError):
        exp_g(tsallis(0.5), -2.5)


def test_log_g_needs_positive():
    with pytest.raises(DomainError):
        log_g(BG, 0.0)
    with pytest.raises(DomainError):
        log_g(tsallis(0.5), -1.0)


def test_sin_cos_closed_forms():
    assert sin_g(BG, math.pi / 2) == pytest.approx(1.0, rel=1e-15)
    assert sin_g(tsallis(0.0), 3.8104773809653517) == pytest.approx(1.0, rel=1e-12)
    for cls in ALL_CLASSES:
        assert cos_g(cls, 0.0) == 1.0


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.spec_string())
def test_pythagorean_identity(cls):
    rng = np.random.default_rng(3)
    lo, hi = cls.domain
    lo = max(lo * 0.5, -4.0)
    hi = min(hi * 0.5, 4.0)
    for x in rng.uniform(lo, hi, 200):
        assert abs(sin_g(cls, x) ** 2 + cos_g(cls, x) ** 2 - 1.0) <= 1e-12


def test_derivatives_match_finite_differences():
    h = 1e-5
    for cls in ALL_CLASSES:
        for t in np.linspace(-2.0, 2.0, 17):
            fd1 = (cls.g(t + h) - cls.g(t - h)) / (2 * h)
            fd2 = (cls.g_prime(t + h) - cls.g_prime(t - h)) / (2 * h)
            assert abs(fd1 - cls.g_prime(t)) <= 1e-8 * (1.0 + abs(fd1))
            assert abs(fd2 - cls.g_second(t)) <= 1e-8 * (1.0 + abs(fd2))


@given(t=st.floats(-5.0, 5.0), q=st.floats(-0.9, 0.95))
@settings(max_examples=150, deadline=None)
def test_roundtrip_property_tsallis(t, q):
    cls = tsallis(q)
    assert abs(cls.g_inv(cls.g(t)) - t) <= 1e-11 * (1.0 + abs(t))


@given(t=st.floats(-5.0, 5.0), kappa=st.floats(0.05, 3.0))
@settings(max_examples=150, deadline=None)
def test_roundtrip_property_kaniadakis(t, kappa):
    cls = kaniadakis(kappa)
    assert abs(cls.g_inv(cls.g(t)) - t) <= 1e-11 * (1.0 + abs(t))


def test_parse_class_spec():
    assert parse_class_spec("bg") is BG
    assert parse_class_spec("tsallis:q=0.5").q == 0.5
    assert parse_class_spec("kaniadakis:k=2").kappa == 2.0
    assert parse_class_spec("abe:a=1,b=-1").spec_string() == "abe:a=1,b=-1"
    cls = parse_class_spec("series:a1=0.5,a2=0.125")
    assert cls.coeffs == (0.5, 0.125)
    assert cls.truncation_order == 2
    for bad in ("nope", "tsallis", "tsallis:q=x", "series:a2=1", "bg:q=1",
                "tsallis:q=nan", "kaniadakis:k=inf", "abe:a=1,b=-inf", "series:a1=nan"):
        with pytest.raises(ValueError):
            parse_class_spec(bad)


def test_spec_string_roundtrip():
    for cls in ALL_CLASSES:
        again = parse_class_spec(cls.spec_string())
        assert again.spec_string() == cls.spec_string()


# -- array forms: bit for bit the scalar methods ---------------------------

GENERATOR_METHODS = ("g", "g_prime", "g_second", "g_third")


def _outcome(fn, x):
    """The bits of fn(x), or the type and message of the error it raised."""
    try:
        return np.ascontiguousarray(fn(x), dtype=float).view(np.uint64).tolist()
    except (GroupCalcError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _scalar_loop(method):
    return lambda x: np.array([method(v) for v in x.tolist()], dtype=float)


def _scalar_inverts(cls, points):
    """The points at which the scalar G^-1 returns a value."""
    return [v for v in points
            if not isinstance(_outcome(_scalar_loop(cls.g_inv), np.array([v])), tuple)]


def assert_array_forms_match_scalar(cls, t, s):
    """Every array form at t (generator arguments) or s (arguments of G^-1
    and A) has the bits of the scalar method's loop, or raises its error."""
    t, s = np.array(t, dtype=float), np.array(s, dtype=float)
    for name in GENERATOR_METHODS:
        want = _outcome(_scalar_loop(getattr(cls, name)), t)
        assert _outcome(getattr(cls, f"{name}_array"), t) == want, name
    for name in ("g_inv", "deformation_factor"):
        want = _outcome(_scalar_loop(getattr(cls, name)), s)
        assert _outcome(getattr(cls, f"{name}_array"), s) == want, name
    # With the inverse given, as the spectral routines call them.
    s = np.array(_scalar_inverts(cls, s.tolist()))
    u = cls.g_inv_array(s)
    want_a = _outcome(_scalar_loop(cls.deformation_factor), s)
    assert _outcome(lambda x: cls.deformation_factor_array(x, u), s) == want_a
    want = _outcome(lambda x: np.array([cls.deformation_derivs(v) for v in x.tolist()]).T, s)
    assert _outcome(lambda x: np.array(cls.deformation_derivs_array(x, u)), s) == want


def _near_edges(cls):
    """s = 0 and points just inside each domain edge (large for an open end)."""
    lo, hi = cls.domain
    points = [0.0, -0.0]
    for edge, inward in ((lo, math.inf), (hi, -math.inf)):
        if math.isfinite(edge):
            step = math.copysign(1e-9 * (1.0 + abs(edge)), inward)
            points += [float(np.nextafter(edge, inward)), edge + step]
        else:
            points.append(math.copysign(1e6, edge))
    return points


@st.composite
def _arguments(draw, cls, cap=5.0):
    """A grid, random draws and the near-edge points of cls, shuffled."""
    lo, hi = max(cls.domain[0], -cap), min(cls.domain[1], cap)
    grid = np.linspace(lo, hi, draw(st.integers(3, 40)))[1:-1].tolist()
    free = draw(st.lists(st.floats(lo, hi, exclude_min=True, exclude_max=True), max_size=30))
    points = grid + free + _near_edges(cls)
    return draw(st.permutations(points))


def _check_class(data, cls, t_cap=5.0, s_cap=5.0):
    t_lo, t_hi = (max(cls.t_range[0], -t_cap), min(cls.t_range[1], t_cap))
    t = data.draw(st.lists(st.floats(t_lo, t_hi), min_size=1, max_size=40)) + [0.0, -0.0]
    t += np.linspace(t_lo, t_hi, 17).tolist()
    assert_array_forms_match_scalar(cls, t, data.draw(_arguments(cls, s_cap)))


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_array_forms_bg(data):
    _check_class(data, BG, t_cap=1e6)


@given(data=st.data(), q=st.floats(-0.9, 0.95))
@settings(max_examples=60, deadline=None)
def test_array_forms_tsallis_q_below_one(data, q):
    _check_class(data, tsallis(q))


@given(data=st.data(), q=st.floats(1.05, 3.0))
@settings(max_examples=60, deadline=None)
def test_array_forms_tsallis_q_above_one(data, q):
    _check_class(data, tsallis(q))


@given(data=st.data(), kappa=st.floats(0.05, 3.0))
@settings(max_examples=60, deadline=None)
def test_array_forms_kaniadakis(data, kappa):
    _check_class(data, kaniadakis(kappa))


@given(data=st.data(), a=st.floats(0.05, 2.0),
       b=st.one_of(st.just(0.0), st.floats(-2.0, -0.05)),
       s_cap=st.sampled_from([5.0, 1e300]))
@settings(max_examples=60, deadline=None)
def test_array_forms_abe(data, a, b, s_cap):
    # with |s| up to 1e300, G overflows while the inverse brackets its root
    _check_class(data, abe(a, b), s_cap=s_cap)


@given(data=st.data(), coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_array_forms_series(data, coeffs):
    _check_class(data, series(coeffs))


@pytest.mark.parametrize("cls", ALL_CLASSES + [tsallis(1.5), abe(1.0, 0.0), series([0.3])],
                         ids=lambda c: c.spec_string())
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_array_forms_out_of_domain(cls, data):
    # The domain check of an array comes before its other errors, so the
    # elements inside the domain are ones the scalar inverts.
    lo, hi = cls.domain
    bad = [math.nan, math.inf, -math.inf] + [e for e in (lo, hi) if math.isfinite(e)]
    points = _scalar_inverts(cls, data.draw(_arguments(cls)))
    points.insert(data.draw(st.integers(0, len(points))), data.draw(st.sampled_from(bad)))
    s = np.array(points)
    for name in ("g_inv", "deformation_factor"):
        want = _outcome(_scalar_loop(getattr(cls, name)), s)
        assert _outcome(getattr(cls, f"{name}_array"), s) == want, name


# -- deformed exponential and logarithm over arrays ----------------------------

EXP_LOG_CLASSES = ALL_CLASSES + [tsallis(1.5), abe(1.0, 0.0), series([0.3])]


@pytest.mark.parametrize("cls", EXP_LOG_CLASSES, ids=lambda c: c.spec_string())
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_exp_g_array_matches_scalar(cls, data):
    # Points where the scalar returns, with some of the domain edges and
    # non-finite values mixed in: the lower edge is exp_g's limit value 0.0
    # where G^-1 diverges there, every other one a DomainError.
    scalar = _scalar_loop(lambda v: exp_g(cls, v))
    points = [v for v in data.draw(_arguments(cls))
              if not isinstance(_outcome(scalar, np.array([v])), tuple)]
    odd = [*cls.domain, math.nan]
    points += data.draw(st.lists(st.sampled_from(odd), max_size=2))
    s = np.array(data.draw(st.permutations(points)))
    assert _outcome(lambda x: exp_g_array(cls, x), s) == _outcome(scalar, s)


@pytest.mark.parametrize("cls", EXP_LOG_CLASSES, ids=lambda c: c.spec_string())
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_log_g_array_matches_scalar(cls, data):
    x = data.draw(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=40)) + [1.0]
    if data.draw(st.booleans()):
        bad = data.draw(st.sampled_from([0.0, -0.0, -1.5, -math.inf]))
        x.insert(data.draw(st.integers(0, len(x))), bad)
    x = np.array(x)
    want = _outcome(_scalar_loop(lambda v: log_g(cls, v)), x)
    assert _outcome(lambda v: log_g_array(cls, v), x) == want


def test_exp_g_array_edge_value():
    assert exp_g_array(tsallis(0.5), np.array([-2.0, 0.0])).tolist() == [0.0, 1.0]
    assert exp_g_array(abe(1.0, 0.0), np.array([0.0, -1.0])).tolist() == [1.0, 0.0]
    with pytest.raises(DomainError, match="-2.5"):
        exp_g_array(tsallis(0.5), np.array([0.0, -2.0, -2.5]))


# -- the abe array inverse at the margin of its numpy decisions ----------------


def _g_values(cls, s):
    """The values of G that the scalar inverse compares with s or polishes."""
    seen = []

    def g(t):
        seen.append(cls.g(t))
        return seen[-1]

    try:
        groups._bracketed_invert(g, cls.g_prime, s, cls.tol)
    except (ConvergenceError, OverflowError):  # G's exp may overflow at the root
        pass
    return seen


def _with_neighbours(values, ulps=3):
    """Each value and the floats up to ``ulps`` ulps below and above it."""
    out = []
    for v in values:
        out.append(v)
        down = up = np.float64(v)
        for _ in range(ulps):
            down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
            out += [down.item(), up.item()]
    return out


ABE_PARAMETERS = st.one_of(
    st.tuples(st.floats(0.05, 3.0), st.floats(-3.0, -0.05)),
    st.tuples(st.floats(0.05, 3.0), st.just(0.0)),  # a finite lower domain edge
    st.tuples(st.just(0.0), st.floats(-3.0, -0.05)),  # a finite upper domain edge
    st.floats(0.0, 1e-7).map(lambda a: (a, a - 1e-7)),  # a - b = 1e-7
)
TARGETS = st.one_of(
    st.floats(-5.0, 5.0),
    st.floats(1e300, 1.7e308),  # past where exp overflows while the bracket grows
    st.floats(-1.7e308, -1e300),
)


@given(ab=ABE_PARAMETERS, targets=st.lists(TARGETS, min_size=1, max_size=3), data=st.data())
@settings(max_examples=40, deadline=None)
def test_abe_array_inverse_at_decision_margin(ab, targets, data):
    # s = G(t) a few ulps either side, at every t where the scalar bracket and
    # bisection evaluate G, puts G(t) - s inside the margin where numpy's exp
    # may not decide.  The array inverse must still have the scalar's bits.
    cls = abe(*ab)
    lo, hi = cls.domain
    near_edge = [np.nextafter(edge, 0.0).item() for edge in (lo, hi) if math.isfinite(edge)]
    s = []
    for target in targets + near_edge:
        s0 = min(max(target, lo), hi)
        if cls.contains(s0):
            s += [s0] + _with_neighbours(v for v in _g_values(cls, s0) if math.isfinite(v))
    scales = 10.0 ** np.arange(-3.0, 301.0, 8.0)  # a - b = 1e-7 inverts only at large |s|
    s += np.linspace(max(lo, -5.0), min(hi, 5.0), 34)[1:-1].tolist() + [*scales, *-scales]
    s = _scalar_inverts(cls, [v for v in s if cls.contains(v)])
    # a - b = 1e-7 with a or b near 0 bounds G near 1e7 on one side, and the
    # scalar inverts few of the inputs there: repeat them up to the vector size
    s *= -(-groups._VECTOR_INVERT_MIN // len(s))
    s = np.array(data.draw(st.permutations(s)))
    assert s.size >= groups._VECTOR_INVERT_MIN  # the vector path runs
    assert _outcome(cls.g_inv_array, s) == _outcome(_scalar_loop(cls.g_inv), s)


def test_abe_decisions_inside_margin_are_libm():
    # Where numpy's exp and libm's exp round G(t) apart, s = libm's G(t) is
    # inside the margin: the side of s that G(t) is on must be libm's.
    cls = abe(1.0, -1.0)
    t = np.linspace(-3.0, 3.0, 4001)
    s = cls.g_array(t)
    by_numpy = (np.exp(t) - np.exp(-t)) / 2.0
    apart = by_numpy != s
    if not apart.any():
        pytest.skip("numpy's exp rounds as libm's does on this machine")
    assert (cls._g_against(t[apart], s[apart]) == s[apart]).all()
    # away from the margin numpy decides
    far = s + 1e-6 * (1.0 + np.abs(s))
    assert (cls._g_against(t, far) == by_numpy).all()
