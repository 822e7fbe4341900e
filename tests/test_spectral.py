"""Operators, eigensolver, state transforms, serialization."""

import math
import os

import numpy as np
import pytest

from groupcalc import (
    BG,
    DomainError,
    Grid,
    InfiniteWell,
    CallablePotential,
    Tolerances,
    Tridiagonal,
    WellSolution,
    abe,
    commutator_check,
    cross_check_well,
    eigenfunction_x,
    field_term,
    func_from_samples,
    hamiltonian_gspace,
    hamiltonian_xspace,
    hermiticity_defect,
    kaniadakis,
    mass_profile,
    momentum_matrix,
    series,
    solve_eigen,
    solve_well,
    transform_state,
    tsallis,
)
from groupcalc.groups import AbeClass
from groupcalc.spectral import Spectrum, WaveFunction, _balance, _thomas, _x_samples
from groupcalc.tables import write_csv, write_spectrum

PI2_OVER_2 = 4.9348022005446793
E1_TSALLIS_Q0 = 10.271144227611911
E1_KANIADAKIS_1 = 6.3525733281214118


# -- momentum ---------------------------------------------------------------


def test_momentum_bg_is_centered_difference():
    grid = Grid(0.0, 1.0, 101)
    k = momentum_matrix(BG, grid)
    h = grid.spacing
    assert k.upper[5] == pytest.approx(0.5 / h)  # K[5, 6]
    assert k.lower[4] == pytest.approx(-0.5 / h)  # K[5, 4]
    assert k.diag[5] == 0.0
    assert hermiticity_defect(k) <= 1e-12


def test_momentum_hermiticity_interior():
    grid = Grid(0.0, 1.0, 201)
    for cls in (tsallis(0.5), kaniadakis(1.0)):
        k = momentum_matrix(cls, grid)
        assert hermiticity_defect(k) <= 1e-10


def test_momentum_domain_check():
    with pytest.raises(DomainError):
        momentum_matrix(tsallis(0.5), Grid(-3.0, 1.0, 11))


# -- commutator ---------------------------------------------------------------


@pytest.mark.parametrize("cls", [BG, tsallis(0.5), kaniadakis(2.0)],
                         ids=lambda c: c.spec_string())
def test_commutator_residual(cls):
    grid = Grid(0.0, 1.0, 2001)
    assert commutator_check(cls, grid) <= 1e-6


def test_commutator_second_order_decay():
    coarse = commutator_check(tsallis(0.5), Grid(0.0, 1.0, 1001))
    fine = commutator_check(tsallis(0.5), Grid(0.0, 1.0, 2001))
    ratio = coarse / fine
    assert 3.0 <= ratio <= 5.0  # O(h^2): halved spacing, quartered residual


def test_commutator_custom_state():
    grid = Grid(0.0, 1.0, 1501)
    x = grid.nodes
    psi = 0.2 * np.sin(np.pi * x) ** 2
    assert commutator_check(BG, grid, [psi]) <= 1e-5


# -- hamiltonians -----------------------------------------------------------


def test_xspace_bg_reduces_to_textbook():
    grid = Grid(0.0, 1.0, 101)
    h = grid.spacing
    ham = hamiltonian_xspace(BG, grid, InfiniteWell(1.0))
    assert ham.diag[3] == pytest.approx(1.0 / h**2)
    assert ham.upper[3] == pytest.approx(-0.5 / h**2)  # H[3, 4]
    assert ham.lower[3] == pytest.approx(-0.5 / h**2)  # H[4, 3]
    assert field_term(BG, 0.5) == 0.0


def test_field_term_closed_forms():
    # Tsallis: constant -(1-q)^2/8 (hbar = m0 = 1)
    gamma = 0.5
    cls = tsallis(1.0 - gamma)
    for x in (0.1, 0.7, 1.3):
        assert field_term(cls, x) == pytest.approx(-(gamma**2) / 8.0, rel=1e-12)
    # Kaniadakis at the origin: -kappa^2/4, frozen value -1.0 for kappa=2
    assert field_term(kaniadakis(2.0), 0.0) == pytest.approx(-1.0, rel=1e-12)


def test_xspace_symmetric_for_quadratic_stretch():
    # A^2 is quadratic for these classes, so the raw stencil is already symmetric
    grid = Grid(0.0, 1.0, 101)
    for cls in (tsallis(0.0), kaniadakis(1.0)):
        ham = hamiltonian_xspace(cls, grid, InfiniteWell(1.0))
        scale = max(np.abs(band).max() for band in ham)
        assert np.abs(ham.upper - ham.lower).max() <= 1e-9 * scale


def test_gspace_matrix_structure():
    cls = tsallis(0.0)
    grid_g = Grid(0.0, cls.g_inv(1.0), 101, "g")
    assert grid_g.end == pytest.approx(math.log(2.0), rel=1e-15)
    ham = hamiltonian_gspace(cls, grid_g, InfiniteWell(1.0))
    assert np.array_equal(ham.upper, ham.lower)
    h = grid_g.spacing
    assert ham.diag[0] == pytest.approx(1.0 / h**2)
    assert ham.upper[0] == pytest.approx(-0.5 / h**2)


def test_space_tagging_enforced():
    grid_x = Grid(0.0, 1.0, 51, "x")
    grid_g = Grid(0.0, kaniadakis(1.0).g_inv(1.0), 51, "g")
    with pytest.raises(ValueError):
        hamiltonian_gspace(kaniadakis(1.0), grid_x, InfiniteWell(1.0))
    with pytest.raises(ValueError):
        hamiltonian_xspace(kaniadakis(1.0), grid_g, InfiniteWell(1.0))


# -- eigensolver --------------------------------------------------------------


def test_bg_well_spectrum():
    spec = solve_well(BG, 1.0, 2001, 3)
    for n, e in enumerate(spec.energies, start=1):
        assert e == pytest.approx(PI2_OVER_2 * n * n, rel=1e-3)
    assert spec.energies[0] == pytest.approx(PI2_OVER_2, rel=1e-6)


def test_tsallis_well_spectrum():
    spec = solve_well(tsallis(0.0), 1.0, 2001, 1)
    assert spec.energies[0] == pytest.approx(E1_TSALLIS_Q0, rel=1e-3)


def test_k_zero_rejected():
    with pytest.raises(DomainError):
        solve_well(BG, 1.0, 101, 0)


def test_residuals_reported_and_small():
    spec = solve_well(kaniadakis(1.0), 1.0, 2001, 5)
    res = spec.solver_meta["residuals"]
    assert len(res) == 5
    assert max(res) <= 1e-8


def test_orthonormality_under_state_measure():
    for cls in (tsallis(0.5), kaniadakis(1.0)):
        for path in ("g", "x"):
            spec = solve_well(cls, 1.0, 801, 4, path=path)
            for i, a in enumerate(spec.states):
                for j, b in enumerate(spec.states):
                    want = 1.0 if i == j else 0.0
                    assert a.inner(b) == pytest.approx(want, abs=1e-8)


def test_ql_backend_matches_sturm():
    ql = Tolerances(eigen_backend="ql")
    a = solve_well(tsallis(0.5), 1.0, 301, 3)
    b = solve_well(tsallis(0.5), 1.0, 301, 3, tol=ql)
    assert np.allclose(a.energies, b.energies, rtol=1e-10)
    assert b.solver_meta["backend"] == "ql"


def test_cross_solver_agreement():
    for cls in (tsallis(0.0), tsallis(0.5), kaniadakis(0.5), kaniadakis(1.0)):
        _, _, disc = cross_check_well(cls, 1.0, 2001, 5)
        assert disc <= 5e-3


def test_cross_solver_discrepancy_shrinks():
    cls = kaniadakis(1.0)
    _, _, coarse = cross_check_well(cls, 1.0, 501, 3)
    _, _, fine = cross_check_well(cls, 1.0, 1001, 3)
    assert fine < coarse


def test_nonsymmetric_abe_path_balances():
    # Abe stretch is not quadratic: exercises the balancing similarity
    spec_g, spec_x, disc = cross_check_well(abe(1.0, -1.0), 1.0, 801, 3)
    assert disc <= 5e-3
    kan = solve_well(kaniadakis(1.0), 1.0, 801, 3)  # same generator, closed path
    assert np.allclose(spec_g.energies, kan.energies, rtol=1e-10)


def test_asymmetric_abe_well():
    cls = abe(0.5, -2.0)
    spec_g, spec_x, disc = cross_check_well(cls, 1.0, 1501, 5)
    assert disc <= 5e-3
    exact1 = (math.pi / cls.g_inv(1.0)) ** 2 / 2
    assert spec_g.energies[0] == pytest.approx(exact1, rel=1e-4)
    assert max(spec_x.solver_meta["residuals"]) <= 1e-8


def test_series_class_well():
    # order-8 truncation of the gamma = 0.8 exponential generator: inside its
    # local domain the spectrum must sit on the analytic-class values
    gamma = 0.8
    cls = series([gamma**k / math.factorial(k) for k in range(1, 9)], 8)
    spec_g, _, disc = cross_check_well(cls, 0.3, 1001, 3)
    assert disc <= 5e-3
    exact1 = (math.pi / tsallis(1.0 - gamma).g_inv(0.3)) ** 2 / 2
    assert spec_g.energies[0] == pytest.approx(exact1, rel=1e-4)


def test_q_above_one_well():
    cls = tsallis(1.5)  # domain (-inf, 2) still contains the unit well
    spec_g, _, disc = cross_check_well(cls, 1.0, 1501, 4)
    assert disc <= 5e-3
    sol = WellSolution(cls, 1.0, 1)
    from groupcalc import energy

    assert spec_g.energies[0] == pytest.approx(energy(sol), rel=1e-4)


def test_units_scale_through_solver():
    spec = solve_well(tsallis(0.0), 1.0, 801, 1, hbar=2.0, m0=0.5)
    from groupcalc import energy

    sol = WellSolution(tsallis(0.0), 1.0, 1, hbar=2.0, m0=0.5)
    assert spec.energies[0] == pytest.approx(energy(sol), rel=1e-4)


def test_solve_eigen_validates_input():
    grid = Grid(0.0, 1.0, 6)
    with pytest.raises(ValueError):
        solve_eigen(Tridiagonal(np.ones(3), np.ones(2), np.ones(2)), 1, grid)  # size mismatch
    with pytest.raises(ValueError):
        solve_eigen(Tridiagonal(np.ones(4), np.ones(3), np.ones(2)), 1, grid)  # band lengths
    with pytest.raises(ValueError):
        solve_eigen(np.eye(3), 1, Grid(0.0, 1.0, 5))  # dense matrix, not bands


def test_large_grid_is_banded():
    # a dense operator at this size would take 3.2 GB
    cls, n_points = kaniadakis(1.0), 20001
    grid_x = Grid(0.0, 1.0, n_points, "x")
    grid_g = Grid(0.0, cls.g_inv(1.0), n_points, "g")
    cells = 3 * (n_points - 2) - 2
    assert sum(band.size for band in hamiltonian_xspace(cls, grid_x, InfiniteWell(1.0))) == cells
    assert sum(band.size for band in hamiltonian_gspace(cls, grid_g, InfiniteWell(1.0))) == cells
    from groupcalc import energy

    exact = [energy(WellSolution(cls, 1.0, n)) for n in (1, 2, 3)]
    for path in ("g", "x"):
        spec = solve_well(cls, 1.0, n_points, 3, path=path)
        assert np.allclose(spec.energies, exact, rtol=1e-6, atol=0.0)


# -- transforms and profiles ---------------------------------------------------


def test_transform_state_matches_closed_form():
    cls = tsallis(0.0)
    spec = solve_well(cls, 1.0, 2001, 1)
    psi = transform_state(cls, spec.states[0])
    sol = WellSolution(cls, 1.0, 1)
    xs = psi.grid.nodes
    want = np.array([eigenfunction_x(sol, x) for x in xs])
    if np.dot(want, psi.values) < 0:
        want = -want
    assert np.abs(psi.values - want).max() <= 1e-6


def test_transform_preserves_norm():
    for cls in (tsallis(0.5), kaniadakis(1.0)):
        spec = solve_well(cls, 1.0, 1501, 2)
        for state in spec.states:
            assert state.norm_sq() == pytest.approx(1.0, abs=1e-10)
            psi = transform_state(cls, state)
            assert psi.norm_sq() == pytest.approx(1.0, abs=1e-8)


def test_transform_bg_is_identity():
    spec = solve_well(BG, 1.0, 301, 1)
    psi = transform_state(BG, spec.states[0])
    assert np.array_equal(psi.values, spec.states[0].values)
    assert psi.grid.space == "x"


def _series_exp08():
    # order-8 truncation of the gamma = 0.8 exponential generator
    return series([0.8**k / math.factorial(k) for k in range(1, 9)], 8)


OUTPUT_CASES = [(tsallis(0.5), 1.0), (kaniadakis(1.0), 1.0), (abe(0.5, -2.0), 1.0),
                (_series_exp08(), 0.3)]


def _transform_per_node(cls, phi):
    """The per-node formula transform_state must reproduce bit for bit."""
    from scipy.interpolate import CubicSpline

    u = phi.grid.nodes
    spline = CubicSpline(u, phi.values)
    xs = Grid(cls.g(phi.grid.start), cls.g(phi.grid.end), phi.grid.n_points, "x").nodes
    return np.array([
        float(spline(np.clip(cls.g_inv(x), u[0], u[-1]))) / math.sqrt(cls.deformation_factor(x))
        for x in xs
    ])


@pytest.mark.parametrize("cls, L", OUTPUT_CASES, ids=[c.kind for c, _ in OUTPUT_CASES])
def test_transform_state_equals_per_node_formula(cls, L):
    spec = solve_well(cls, L, 301, 3)
    for state in spec.states:
        assert np.array_equal(transform_state(cls, state).values, _transform_per_node(cls, state))


def test_x_samples_keyed_on_tolerances():
    # AbeClass leaves tol out of equality, yet tol changes G^-1
    grid = Grid(0.0, 1.0, 51)
    loose = AbeClass(1.0, -1.0, tol=Tolerances(inverse_abs=1e-3))
    tight = AbeClass(1.0, -1.0)
    assert loose == tight
    u_loose, _ = _x_samples(loose, grid)
    u_tight, _ = _x_samples(tight, grid)
    assert np.array_equal(u_loose, [loose.g_inv(x) for x in grid.nodes])
    assert np.array_equal(u_tight, [tight.g_inv(x) for x in grid.nodes])
    assert not np.array_equal(u_loose, u_tight)


def test_x_samples_are_read_only():
    u, a = _x_samples(kaniadakis(1.0), Grid(0.0, 1.0, 21))
    for arr in (u, a):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_x_samples_domain_error_is_not_cached():
    grid = Grid(-3.0, 1.0, 11)  # leaves the domain (-2, inf) of tsallis(0.5)
    for _ in range(2):
        with pytest.raises(DomainError):
            _x_samples(tsallis(0.5), grid)


def _thomas_indexed(diag, off, b):
    """The indexed Thomas loop _thomas must reproduce bit for bit."""
    n = diag.size
    c = np.zeros(n - 1, dtype=np.longdouble)
    g = np.zeros(n, dtype=np.longdouble)
    beta = diag[0]
    g[0] = b[0] / beta
    for i in range(1, n):
        c[i - 1] = off[i - 1] / beta
        beta = diag[i] - off[i - 1] * c[i - 1]
        g[i] = (b[i] - off[i - 1] * g[i - 1]) / beta
    for i in range(n - 2, -1, -1):
        g[i] -= c[i] * g[i + 1]
    return g


def test_thomas_equals_indexed_loop():
    rng = np.random.default_rng(7)
    # entries with extended-precision bits, like d - E in the refinement
    diag = rng.uniform(2.0, 3.0, 400).astype(np.longdouble) - np.longdouble(0.1)
    off = rng.uniform(-1.0, 1.0, 399).astype(np.longdouble)
    b = rng.standard_normal(400).astype(np.longdouble)
    got = _thomas(diag, off, b)
    assert got.dtype == np.longdouble
    assert np.array_equal(got, _thomas_indexed(diag, off, b))
    with pytest.raises(ZeroDivisionError):
        _thomas(np.zeros(3, dtype=np.longdouble), off[:2], b[:3])


@pytest.mark.parametrize("n_points", [1001, 4001])
def test_balance_equals_loop(n_points):
    rng = np.random.default_rng(n_points)
    ham = hamiltonian_xspace(abe(1.0, -1.0), Grid(0.0, 1.0, n_points), InfiniteWell(1.0))
    random_bands = (-rng.uniform(0.5, 2.0, n_points - 1), -rng.uniform(0.5, 2.0, n_points - 1))
    for upper, lower in ((ham.upper, ham.lower), random_bands):
        _, scale = _balance(upper, lower)
        want = np.ones(upper.size + 1)
        for i in range(upper.size):
            want[i + 1] = want[i] * math.sqrt(upper[i] / lower[i])
        assert np.array_equal(scale, want)


def test_mass_profile():
    assert mass_profile(tsallis(0.0), 1.0, 1.0) == pytest.approx(0.25, rel=1e-14)
    assert mass_profile(kaniadakis(1.0), 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)
    assert mass_profile(BG, 7.3, 1.0) == 1.0
    assert mass_profile(BG, 7.3, 2.5) == 2.5


def test_mass_ratio_limit():
    # m_q / m_kappa for kappa = 1 - q = 100 approaches 1 once kappa*x dominates;
    # the bound holds from x ~ 0.18 upward (at x = 0.1 the ratio is ~0.835)
    q_cls, k_cls = tsallis(1.0 - 100.0), kaniadakis(100.0)
    for x in np.linspace(0.2, 1.0, 30):
        ratio = mass_profile(q_cls, x) / mass_profile(k_cls, x)
        assert 0.9 <= ratio <= 1.1


def test_harmonic_potential_bg():
    # box-truncated harmonic oscillator: E_n = n + 1/2 at hbar = m0 = omega = 1
    grid = Grid(-8.0, 8.0, 1601, "x")
    ham = hamiltonian_xspace(BG, grid, CallablePotential(lambda x: 0.5 * x * x))
    spec = solve_eigen(ham, 3, grid, BG)
    assert np.allclose(spec.energies, [0.5, 1.5, 2.5], atol=1e-3)


def test_tabulated_potential_roundtrip():
    xs = np.linspace(0.0, 1.0, 80)
    pot = CallablePotential(func_from_samples(xs, 3.0 * xs * (1 - xs)))
    assert pot.value_x(0.5) == pytest.approx(0.75, abs=1e-6)


# -- serialization ---------------------------------------------------------------


def test_write_spectrum_files(tmp_path):
    spec = solve_well(tsallis(0.5), 1.0, 301, 2)
    paths = write_spectrum(spec, str(tmp_path), "w")
    names = {os.path.basename(p) for p in paths}
    assert names == {"w_energies.csv", "w_state_1.csv", "w_state_2.csv", "w_meta.txt"}
    energies = (tmp_path / "w_energies.csv").read_text().splitlines()
    assert energies[0] == "n,energy,residual"
    assert energies[1].startswith("1,")
    state = (tmp_path / "w_state_1.csv").read_text().splitlines()
    assert state[0] == "x,re_psi,im_psi,prob_density"
    assert len(state) == 301 + 1
    meta = (tmp_path / "w_meta.txt").read_text()
    assert "class: tsallis:q=0.5" in meta
    assert "backend: sturm" in meta


def test_write_spectrum_state_bytes_equal_write_csv(tmp_path):
    grid = Grid(-1.0, 0.0, 8, "x")
    odd = np.array([-0.0, 1e-310, 5e-324, 1e150, -np.inf, np.nan, 123456789012.345, 2.0 / 3.0])
    spectra = [
        solve_well(abe(0.5, -2.0), 1.0, 301, 3),
        Spectrum(np.array([1.0]), [WaveFunction(grid, odd, np.ones(8))], BG, {"residuals": [0.0]}),
    ]
    for i, spec in enumerate(spectra):
        write_spectrum(spec, str(tmp_path), f"s{i}")
        for n, state in enumerate(spec.states, start=1):
            # the per-value rows the state files were written from before
            rows = [(x, v, 0.0, v**2) for x, v in zip(state.grid.nodes, state.values.tolist())]
            want = tmp_path / f"want{i}_{n}.csv"
            write_csv(want, rows, header="x,re_psi,im_psi,prob_density")
            assert (tmp_path / f"s{i}_state_{n}.csv").read_bytes() == want.read_bytes()


def test_write_spectrum_deterministic(tmp_path):
    spec = solve_well(kaniadakis(1.0), 1.0, 201, 1)
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_spectrum(spec, str(a), "s")
    write_spectrum(spec, str(b), "s")
    assert (a / "s_state_1.csv").read_bytes() == (b / "s_state_1.csv").read_bytes()
