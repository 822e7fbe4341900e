"""Closed-form well solutions: eigenfunctions, energies, zeros, spacings."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from groupcalc import (
    BG,
    DomainError,
    Grid,
    InfiniteWell,
    WellSolution,
    density_cdf,
    eigenfunction_g,
    eigenfunction_x,
    energy,
    hamiltonian_gspace,
    hamiltonian_xspace,
    integrate,
    kaniadakis,
    probability_table,
    solve_well,
    spacing,
    spacing_closed_form,
    tsallis,
    zeros,
    zeros_obey_group_law,
)

LN2 = 0.6931471805599453
SQRT2 = 1.4142135623730951
PI2_OVER_2 = 4.9348022005446793
E1_TSALLIS_Q0 = 10.271144227611911
E1_KANIADAKIS_1 = 6.3525733281214118
PSI1_TSALLIS_Q0_AT_PEAK = 1.4283833145180529  # sqrt(2/(ln2 sqrt2)) at x = sqrt2 - 1
KAPPA_SPACING_1 = 0.45508986056222734  # sinh(arcsinh(1)/2), k=1 L=1 n=2 m=1

CLASSES = [BG, tsallis(0.0), tsallis(0.5), kaniadakis(0.5), kaniadakis(1.0)]


def test_eigenfunction_g_values():
    sol = WellSolution(BG, 1.0, 1)
    assert eigenfunction_g(sol, 0.0) == 0.0
    assert eigenfunction_g(sol, 0.5) == pytest.approx(SQRT2, rel=1e-14)
    sol_q = WellSolution(tsallis(0.0), 1.0, 1)
    assert eigenfunction_g(sol_q, LN2 / 2) == pytest.approx(1.6986436005760381, rel=1e-13)
    assert eigenfunction_g(sol_q, 2.0) == 0.0  # beyond the deformed width
    with pytest.raises(DomainError):
        eigenfunction_g(sol_q, -0.1)


def test_eigenfunction_x_values():
    sol = WellSolution(tsallis(0.0), 1.0, 1)
    assert eigenfunction_x(sol, SQRT2 - 1.0) == pytest.approx(PSI1_TSALLIS_Q0_AT_PEAK, rel=1e-13)
    assert eigenfunction_x(sol, 1.0) == pytest.approx(0.0, abs=1e-13)
    assert eigenfunction_x(sol, 1.5) == 0.0
    assert eigenfunction_x(sol, -0.5) == 0.0
    bg = WellSolution(BG, 1.0, 2)
    for x in np.linspace(0.0, 1.0, 17):
        assert eigenfunction_x(bg, x) == pytest.approx(
            math.sqrt(2.0) * math.sin(2 * math.pi * x), abs=1e-13
        )


def test_energy_values():
    assert energy(WellSolution(BG, 1.0, 1)) == pytest.approx(PI2_OVER_2, rel=1e-15)
    assert energy(WellSolution(tsallis(0.0), 1.0, 1)) == pytest.approx(E1_TSALLIS_Q0, rel=1e-14)
    assert energy(WellSolution(kaniadakis(1.0), 1.0, 1)) == pytest.approx(
        E1_KANIADAKIS_1, rel=1e-14
    )


def test_energy_units():
    base = energy(WellSolution(BG, 1.0, 1))
    assert energy(WellSolution(BG, 1.0, 1, hbar=2.0)) == pytest.approx(4 * base)
    assert energy(WellSolution(BG, 1.0, 1, m0=2.0)) == pytest.approx(base / 2)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.spec_string())
def test_energy_ratio_is_n_squared(cls):
    e1 = energy(WellSolution(cls, 1.0, 1))
    for n in range(2, 7):
        assert energy(WellSolution(cls, 1.0, n)) / e1 == pytest.approx(n * n, rel=1e-13)


def test_zeros_values():
    assert zeros(WellSolution(BG, 1.0, 1)) == [0.0, 1.0]
    zs = zeros(WellSolution(tsallis(0.0), 1.0, 2))
    assert zs[1] == pytest.approx(SQRT2 - 1.0, rel=1e-14)
    assert zeros(WellSolution(BG, 1.0, 4)) == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


def test_zeros_against_sign_change_bisection():
    for cls in (tsallis(0.0), kaniadakis(1.0)):
        for n in (2, 3, 5):
            sol = WellSolution(cls, 1.0, n)
            zs = zeros(sol)
            for m in range(1, n):
                lo, hi = zs[m] - 0.8 / n, zs[m] + 0.8 / n
                lo, hi = max(lo, zs[m - 1] + 1e-6), min(hi, zs[m + 1] - 1e-6)
                found = brentq(lambda x: eigenfunction_x(sol, x), lo, hi, xtol=1e-14)
                assert abs(found - zs[m]) <= 1e-10


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.spec_string())
def test_zeros_group_law(cls):
    for n in range(1, 7):
        assert zeros_obey_group_law(WellSolution(cls, 1.0, n))


def test_spacing_values():
    sol = WellSolution(tsallis(0.0), 1.0, 2)
    assert spacing(sol, 1) == pytest.approx(SQRT2 - 1.0, rel=1e-13)
    assert spacing(sol, 2) == pytest.approx(2.0 - SQRT2, rel=1e-13)
    bg = WellSolution(BG, 1.0, 5)
    for m in range(1, 6):
        assert spacing(bg, m) == pytest.approx(0.2, rel=1e-14)
    solk = WellSolution(kaniadakis(1.0), 1.0, 2)
    assert spacing(solk, 1) == pytest.approx(KAPPA_SPACING_1, rel=1e-13)


def test_spacing_closed_forms_match_generic():
    for cls in (tsallis(0.0), tsallis(0.5), tsallis(-0.5), kaniadakis(0.5), kaniadakis(1.0)):
        for n in (1, 2, 4, 6):
            sol = WellSolution(cls, 1.0, n)
            for m in range(1, n + 1):
                assert abs(spacing(sol, m) - spacing_closed_form(sol, m)) <= 1e-12


def test_spacings_telescope_to_width():
    for cls in CLASSES:
        for n in (1, 3, 6):
            sol = WellSolution(cls, 2.5, n)
            assert sum(spacing(sol, m) for m in range(1, n + 1)) == pytest.approx(
                2.5, abs=1e-13
            )


def test_spacings_increase_for_q_below_one():
    for q in (0.0, 0.5, -1.0):
        sol = WellSolution(tsallis(q), 1.0, 6)
        gaps = [spacing(sol, m) for m in range(1, 7)]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_spacing_index_errors():
    sol = WellSolution(BG, 1.0, 3)
    for bad in (0, 4, -1):
        with pytest.raises(IndexError):
            spacing(sol, bad)


def test_quantum_number_validation():
    with pytest.raises(ValueError):
        WellSolution(BG, 1.0, 0)
    with pytest.raises(ValueError):
        WellSolution(BG, -1.0, 1)


@pytest.mark.parametrize("name, value", [
    ("m0", 0.0), ("m0", -1.0), ("m0", math.inf), ("hbar", 0.0), ("hbar", math.nan),
])
def test_library_entry_points_reject_bad_scales(name, value):
    message = f"^{name} must be finite and > 0, got {value!r}$"
    with pytest.raises(DomainError, match=message):
        solve_well(BG, 1.0, 101, 2, **{name: value})
    with pytest.raises(DomainError, match=message):
        WellSolution(BG, 1.0, 1, **{name: value})


@pytest.mark.parametrize("hbar, m0", [(1e-200, 1.0), (1.0, 1e-320)])
def test_builders_and_energy_check_the_kinetic_coefficient(hbar, m0):
    # each scale is finite and > 0, but hbar^2/(2 m0) underflows or overflows
    message = r"^hbar\^2/\(2 m0\) must be finite and > 0"
    with pytest.raises(DomainError, match=message):
        hamiltonian_gspace(BG, Grid(0.0, 1.0, 11, "g"), InfiniteWell(1.0), m0, hbar)
    with pytest.raises(DomainError, match=message):
        hamiltonian_xspace(kaniadakis(0.5), Grid(0.0, 1.0, 11), InfiniteWell(1.0), m0, hbar)
    with pytest.raises(DomainError, match=message):
        energy(WellSolution(BG, 1.0, 1, hbar, m0))


def test_domain_guard_for_q_above_one():
    # gamma = -1: the coordinate map diverges at x = 1, so a width-1 well
    # (or wider) is refused rather than silently truncated
    with pytest.raises(DomainError):
        WellSolution(tsallis(2.0), 1.0, 1)
    sol = WellSolution(tsallis(2.0), 0.5, 1)  # narrower well is fine
    assert sol.L_g == pytest.approx(-math.log(0.5), rel=1e-14)


def test_normalization_by_quadrature():
    for cls in CLASSES:
        sol = WellSolution(cls, 1.0, 3)
        total = integrate(lambda x: eigenfunction_x(sol, x) ** 2, 0.0, 1.0)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_density_cdf():
    sol = WellSolution(tsallis(0.0), 1.0, 2)
    assert density_cdf(sol, 0.0) == 0.0
    assert density_cdf(sol, 1.0) == 1.0
    mass = integrate(lambda x: eigenfunction_x(sol, x) ** 2, 0.0, 0.3)
    assert density_cdf(sol, 0.3) == pytest.approx(mass, abs=1e-9)


def test_probability_table_shape_and_symmetry():
    sol = WellSolution(BG, 1.0, 1)
    table = probability_table(sol, 101)
    assert table.shape == (101, 2)
    assert np.abs(table[:, 1] - table[::-1, 1]).max() <= 1e-10  # mirror symmetric
    assert table[0, 0] == 0.0 and table[-1, 0] == 1.0


def test_probability_table_deformed_sampling():
    sol = WellSolution(tsallis(0.0), 1.0, 1)
    table = probability_table(sol, 51, sampling="g")
    # in the deformed coordinate the density is the plain box sine squared
    assert np.abs(table[:, 1] - np.sin(np.pi * table[:, 0]) ** 2).max() <= 1e-12


def test_probability_concentrates_for_strong_deformation():
    # kappa = 1 - q = 100: ground-state mass inside x/L <= 0.2,
    # frozen thresholds from the closed-form antiderivative
    sol_q = WellSolution(tsallis(1.0 - 100.0), 1.0, 1)
    frac_q = integrate(lambda x: eigenfunction_x(sol_q, x) ** 2, 0.0, 0.2)
    assert frac_q == pytest.approx(0.7938938015631162, abs=1e-6)
    sol_k = WellSolution(kaniadakis(100.0), 1.0, 1)
    frac_k = integrate(lambda x: eigenfunction_x(sol_k, x) ** 2, 0.0, 0.2)
    assert frac_k == pytest.approx(0.8465485232673964, abs=1e-6)
    assert frac_q > 0.5 and frac_k > 0.5


def test_matches_numeric_solver_nodewise():
    from groupcalc import transform_state

    for cls in (tsallis(0.0), tsallis(0.5), kaniadakis(0.5), kaniadakis(1.0)):
        spec = solve_well(cls, 1.0, 2001, 5, path="g")
        for n in range(1, 6):
            sol = WellSolution(cls, 1.0, n)
            phi = spec.states[n - 1]
            got_g = phi.values
            want_g = np.array([eigenfunction_g(sol, u) for u in phi.grid.nodes])
            if np.dot(want_g, got_g) < 0:
                want_g = -want_g
            assert np.abs(got_g - want_g).max() <= 1e-4
            psi = transform_state(cls, phi)
            got_x = psi.values
            want_x = np.array([eigenfunction_x(sol, x) for x in psi.grid.nodes])
            if np.dot(want_x, got_x) < 0:
                want_x = -want_x
            assert np.abs(got_x - want_x).max() <= 1e-4
