"""Discretized deformed quantum operators and the bound-state eigensolver.

Two equivalent formulations of the same eigenproblem are assembled:

* ``hamiltonian_xspace``: position-dependent-mass operator on a plain-x grid,
      -(hbar^2/2m0) A^2 psi'' - (hbar^2/m0) A A' psi'
      - (hbar^2/8m0)(A'^2 + 2 A A'') psi + V psi,
  discretized with 3-point stencils (non-symmetric as written);

* ``hamiltonian_gspace``: constant-mass operator on a grid in the deformed
  coordinate u = G^{-1}(x), a plain Dirichlet Laplacian plus V(G(u)).

Every operator here (the Hamiltonians and the momentum stencil) is held as a
:class:`Tridiagonal` record of its three bands, ``diag``, ``upper`` and
``lower``; no N x N array is ever built.  ``solve_eigen`` takes that record
and extracts the lowest eigenpairs with LAPACK bisection on Sturm sequences
plus inverse iteration, refining each pair with one extended precision
inverse-iteration step.  Non-symmetric bands are first reduced to a
symmetric tridiagonal matrix by an exact diagonal similarity (the discrete
counterpart of the sqrt(A) wavefunction rescaling, which itself is exposed as
:func:`transform_state`).  LAPACK comes from scipy, which is imported at the
first eigensolve, not with this module.

``solve_box`` is the one route from a potential in the hard-walled box
[xmin, xmax] to its spectrum: it checks both walls against the class
domain, builds the grid of the chosen path ("g" or "x", the ``space`` of a
:class:`Grid`), assembles and solves.  ``solve_well`` is the box [0, L] with
no potential inside.  A potential is an :class:`InfiniteWell` or a
:class:`CallablePotential` of any rule, for example a
``calculus.func_from_samples`` spline through tabulated (x, V) data.

The samples u = G^{-1}(x) and A(x) on the nodes of a plain-x grid are
computed once per (class, grid) and reused, read-only, by the x-space
Hamiltonian, by every state transformed onto that grid and by the momentum
and commutator routines.  All per-node class values come from the array
forms of the class methods (``g_array``, ``g_inv_array``, ...), one call per
grid.  Those equal the scalar methods bit for bit, because they leave every
transcendental function and ``**`` to libm, one call per element through
``math`` and Python's ``**``, so the written digits do not depend on which
form computed them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._lapack import eigh_tridiagonal  # looked up at each call, so it can be replaced
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ConvergenceError, DomainError, kinetic_coefficient, require_positive
from .groups import GroupClass

SPACE_X = "x"
SPACE_G = "g"

#: most nodes a grid may have; checked before anything is allocated
MAX_GRID_POINTS = 1_000_000


class Tridiagonal(NamedTuple):
    """Tridiagonal operator M as its bands: ``diag[i] = M[i, i]``,
    ``upper[i] = M[i, i + 1]`` and ``lower[i] = M[i + 1, i]``."""

    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """M @ x."""
        y = self.diag * x
        y[:-1] += self.upper * x[1:]
        y[1:] += self.lower * x[:-1]
        return y


@dataclass(frozen=True)
class Grid:
    """Uniform mesh, tagged with the coordinate space it discretizes."""

    start: float
    end: float
    n_points: int
    space: str = SPACE_X

    def __post_init__(self):
        if not 3 <= self.n_points <= MAX_GRID_POINTS:
            raise DomainError(f"grid needs 3 to {MAX_GRID_POINTS} points, got {self.n_points}")
        if not self.end > self.start:
            raise ValueError("grid needs end > start")
        if self.space not in (SPACE_X, SPACE_G):
            raise ValueError(f"unknown coordinate space {self.space!r}")
        h = self.spacing  # the stencils divide by h * h
        if not 0.0 < h * h < math.inf:
            raise DomainError(f"grid spacing {h!r} is out of range: its square is {h * h!r}")

    @property
    def spacing(self) -> float:
        return (self.end - self.start) / (self.n_points - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.start, self.end, self.n_points)


@dataclass
class WaveFunction:
    """Sampled state with per-node quadrature weights for its norm."""

    grid: Grid
    values: np.ndarray
    norm_weight: np.ndarray

    def norm_sq(self) -> float:
        return float(np.sum(self.norm_weight * np.abs(self.values) ** 2))

    def normalize(self) -> "WaveFunction":
        n = math.sqrt(self.norm_sq())
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        self.values = self.values / n
        return self

    def inner(self, other: "WaveFunction") -> float:
        return float(np.sum(self.norm_weight * np.conj(self.values) * other.values).real)

    def prob_density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


@dataclass
class Spectrum:
    """Ordered eigenpairs with solver provenance."""

    energies: np.ndarray
    states: list[WaveFunction]
    group_class: GroupClass
    solver_meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InfiniteWell:
    """Zero inside [0, L]; the solver imposes hard Dirichlet walls."""

    L: float

    def __post_init__(self):
        require_positive("well:L", self.L)

    def value_x(self, x: float) -> float:
        return 0.0


@dataclass(frozen=True)
class CallablePotential:
    rule: Callable[[float], float]

    def value_x(self, x: float) -> float:
        return float(self.rule(x))


# ---------------------------------------------------------------------------
# x-grid samples
# ---------------------------------------------------------------------------


def _x_samples(cls: GroupClass, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (u, a): u = G^{-1}(x) and A(x) on the nodes of a plain-x grid."""
    # The tolerances of the numerically inverted classes are not part of
    # their equality, yet they change G^{-1}, so they are part of the key.
    return _x_samples_cached(cls, getattr(cls, "tol", None), grid)


@functools.lru_cache(maxsize=4)
def _x_samples_cached(cls, tol, grid):
    # The array forms take transcendental functions from libm, not from
    # numpy's ufuncs, which differ in the last ulp on some inputs and would
    # change the written digits.  A is taken from the one inversion.
    nodes = grid.nodes
    u = cls.g_inv_array(nodes)
    a = cls.deformation_factor_array(nodes, u)
    u.flags.writeable = False
    a.flags.writeable = False
    return u, a


# ---------------------------------------------------------------------------
# momentum operator
# ---------------------------------------------------------------------------


def _diff_matrix(grid: Grid) -> Tridiagonal:
    """Centered first-derivative stencil; one-sided on the boundary rows."""
    n, h = grid.n_points, grid.spacing
    diag = np.zeros(n)
    upper = np.full(n - 1, 0.5 / h)
    lower = np.full(n - 1, -0.5 / h)
    diag[0], upper[0] = -1.0 / h, 1.0 / h
    lower[-1], diag[-1] = -1.0 / h, 1.0 / h
    return Tridiagonal(diag, upper, lower)


def momentum_matrix(cls: GroupClass, grid: Grid) -> Tridiagonal:
    """Real stencil K of the deformed momentum, p_g = -i hbar K.

    K is the symmetrized product (A K0 + K0 A)/2 with K0 the
    centered-difference derivative.  With the -i hbar factor restored the
    operator is Hermitian on interior rows (K is antisymmetric there);
    boundary rows use one-sided differences and are excluded from
    Hermiticity statements.
    """
    if grid.space != SPACE_X:
        raise ValueError("momentum_matrix expects a plain-x grid")
    nodes = grid.nodes
    for x in (nodes[0], nodes[-1]):
        cls.require_in_domain(x)
    _, a = _x_samples(cls, grid)
    k0 = _diff_matrix(grid)
    return Tridiagonal(
        0.5 * (a * k0.diag + k0.diag * a),
        0.5 * (a[:-1] * k0.upper + k0.upper * a[1:]),
        0.5 * (a[1:] * k0.lower + k0.lower * a[:-1]),
    )


def hermiticity_defect(k: Tridiagonal) -> float:
    """Max interior-row deviation of K from antisymmetry (p_g from Hermiticity)."""
    sym_diag = 2.0 * k.diag[1:-1]
    sym_off = (k.upper + k.lower)[1:-1]
    return float(np.abs(np.concatenate([sym_diag, sym_off])).max())


def _default_bumps(grid: Grid) -> list[np.ndarray]:
    """Smooth low-curvature test states, small near the grid ends."""
    x = grid.nodes
    a, b = grid.start, grid.end
    u = (x - a) / (b - a)
    gauss = 0.25 * np.exp(-(((u - 0.5) / 0.3) ** 2))
    poly = u * (1.0 - u)
    return [gauss, poly]


def commutator_check(
    cls: GroupClass,
    grid: Grid,
    test_functions: Sequence[np.ndarray] | None = None,
    hbar: float = 1.0,
) -> float:
    """Max interior residual of ([x_g, p_g] - i hbar) applied to test states.

    x_g is the diagonal operator G^{-1}(x).  The residual decays as the square
    of the grid spacing for smooth states.
    """
    xg, _ = _x_samples(cls, grid)
    k = momentum_matrix(cls, grid)
    states = list(test_functions) if test_functions is not None else _default_bumps(grid)
    worst = 0.0
    for psi in states:
        psi = np.asarray(psi, dtype=float)
        # [x_g, -i hbar K] psi - i hbar psi = -i hbar ([x_g, K] psi + psi)
        resid = hbar * (xg * k.matvec(psi) - k.matvec(xg * psi) + psi)
        worst = max(worst, float(np.abs(resid[1:-1]).max()))
    return worst


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------


def _potential_values(potential, xs: np.ndarray) -> np.ndarray:
    if isinstance(potential, InfiniteWell):
        return np.zeros_like(xs)
    return np.array([potential.value_x(x) for x in xs])


def hamiltonian_xspace(
    cls: GroupClass,
    grid: Grid,
    potential,
    m0: float = 1.0,
    hbar: float = 1.0,
) -> Tridiagonal:
    """Position-dependent-mass Hamiltonian on interior nodes (Dirichlet walls).

    Returns the bands of the operator
    -(hbar^2/2m0) A^2 d2 - (hbar^2/m0) A A' d1 - (hbar^2/8m0)(A'^2 + 2AA'') + V
    with centered 3-point stencils; rows/columns for the wall nodes are
    dropped.  The operator is non-symmetric as written (its exact diagonal
    symmetrization happens inside :func:`solve_eigen`).
    """
    if grid.space != SPACE_X:
        raise ValueError("hamiltonian_xspace expects a plain-x grid")
    nodes = grid.nodes
    for x in (nodes[0], nodes[-1]):
        cls.require_in_domain(x)
    h = grid.spacing
    alpha = kinetic_coefficient(hbar, m0)
    inner = nodes[1:-1]
    u, _ = _x_samples(cls, grid)
    a, da, d2a = cls.deformation_derivs_array(inner, u[1:-1])
    v = _potential_values(potential, inner)

    lap = a * a / (h * h)
    drift = a * da / h  # coefficient of the centered first difference
    diag = 2.0 * alpha * lap - 0.25 * alpha * (da * da + 2.0 * a * d2a) + v
    upper = -alpha * (lap[:-1] + drift[:-1])
    lower = -alpha * (lap[1:] - drift[1:])
    return Tridiagonal(diag, upper, lower)


def field_term(cls: GroupClass, x: float, m0: float = 1.0, hbar: float = 1.0) -> float:
    """Deformation-induced scalar term -(hbar^2/8m0)(A'^2 + 2 A A'') at x."""
    a, da, d2a = cls.deformation_derivs(x)
    return -(hbar * hbar / (8.0 * m0)) * (da * da + 2.0 * a * d2a)


def hamiltonian_gspace(
    cls: GroupClass,
    grid: Grid,
    potential,
    m0: float = 1.0,
    hbar: float = 1.0,
) -> Tridiagonal:
    """Constant-mass Hamiltonian in the deformed coordinate (interior nodes).

    Plain 3-point Dirichlet Laplacian plus the potential evaluated at
    x = G(u); symmetric tridiagonal by construction.
    """
    if grid.space != SPACE_G:
        raise ValueError("hamiltonian_gspace expects a deformed-coordinate grid")
    h = grid.spacing
    alpha = kinetic_coefficient(hbar, m0)
    inner_u = grid.nodes[1:-1]
    xs = cls.g_array(inner_u)
    v = _potential_values(potential, xs)
    off = np.full(inner_u.size - 1, -alpha / (h * h))
    return Tridiagonal(2.0 * alpha / (h * h) + v, off, off)


def mass_profile(cls: GroupClass, x: float, m0: float = 1.0) -> float:
    """Position-dependent mass m0 / A(x)^2."""
    a = cls.deformation_factor(x)
    return m0 / (a * a)


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------


def _balance(upper, lower):
    """Exact diagonal similarity onto a symmetric tridiagonal matrix.

    Returns (off, scale) with S = D M D^{-1}, D = diag(scale), symmetric with
    off-diagonal sign(upper) * sqrt(upper * lower).  Requires every product
    upper_i * lower_i > 0.
    """
    prod = upper * lower
    if np.any(prod <= 0.0):
        raise ConvergenceError(
            "cannot symmetrize: an off-diagonal product is not positive "
            "(grid too coarse for this deformation)"
        )
    scale = np.concatenate(([1.0], np.multiply.accumulate(np.sqrt(upper / lower))))
    off = np.sign(upper) * np.sqrt(prod)
    return off, scale


def _thomas(diag, off, b):
    """Tridiagonal solve (longdouble) used by the refinement pass."""
    # Lists of np.longdouble scalars: indexing them is far cheaper than
    # indexing the arrays, and the arithmetic stays in longdouble.
    diag, off, b = list(diag), list(off), list(b)
    n = len(diag)
    c = [None] * (n - 1)
    g = [None] * n
    beta = diag[0]
    if beta == 0.0:
        raise ZeroDivisionError
    g[0] = b[0] / beta
    for i in range(1, n):
        c[i - 1] = off[i - 1] / beta
        beta = diag[i] - off[i - 1] * c[i - 1]
        if beta == 0.0:
            raise ZeroDivisionError
        g[i] = (b[i] - off[i - 1] * g[i - 1]) / beta
    for i in range(n - 2, -1, -1):
        g[i] -= c[i] * g[i + 1]
    return np.array(g, dtype=np.longdouble)


def _refine_pair(d_ld, e_ld, energy, vector):
    """One inverse-iteration step plus a Rayleigh update, in longdouble."""
    x = vector.astype(np.longdouble)
    try:
        z = _thomas(d_ld - np.longdouble(energy), e_ld, x)
    except ZeroDivisionError:
        z = x
    z /= np.sqrt((z * z).sum())
    y = Tridiagonal(d_ld, e_ld, e_ld).matvec(z)
    e_new = float((z * y).sum())
    resid = float(np.sqrt(((y - e_new * z) ** 2).sum()))
    return e_new, z.astype(float), resid


def solve_eigen(
    operator: Tridiagonal,
    k: int,
    grid: Grid,
    group_class: GroupClass | None = None,
    hbar: float = 1.0,
    m0: float = 1.0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Spectrum:
    """Lowest k eigenpairs of a (possibly non-symmetric) tridiagonal operator.

    Parameters
    ----------
    operator : Tridiagonal
        Interior-node bands from one of the Hamiltonian builders: 1-d arrays
        of lengths n, n - 1 and n - 1.
    k : int
        Number of eigenpairs, 1 <= k <= n.
    grid : Grid
        The full grid (including wall nodes) the operator was assembled on.
    tol : Tolerances
        ``tol.eigen_backend`` picks "sturm" (bisection + inverse iteration,
        default) or "ql"; ``tol.eigen_residual`` is the per-pair residual
        bound checked after refinement.

    Returns
    -------
    Spectrum
        States carry zero wall values and trapezoid weights in the grid
        measure (times the balancing factors for the non-symmetric path, in
        which measure the returned states are exactly orthogonal).
    """
    d, upper, lower = (np.asarray(band, dtype=float) for band in operator)
    n = d.size
    if d.ndim != 1 or upper.shape != (n - 1,) or lower.shape != (n - 1,):
        shapes = (d.shape, upper.shape, lower.shape)
        raise ValueError(f"bands must be 1-d of lengths n, n-1, n-1, got shapes {shapes}")
    if grid.n_points != n + 2:
        raise ValueError("grid does not match operator size (interior nodes expected)")
    if not 1 <= k <= n:
        raise DomainError(f"k must be in [1, {n}], got {k}")

    if np.array_equal(upper, lower):
        off, scale = upper, np.ones(n)
    else:
        off, scale = _balance(upper, lower)

    if tol.eigen_backend == "ql":
        energies, vectors = eigh_tridiagonal(d, off, select="a", lapack_driver="stev")
        energies, vectors = energies[:k], vectors[:, :k]
    else:  # "sturm", the other name of config.EIGEN_BACKENDS
        energies, vectors = eigh_tridiagonal(
            d, off, select="i", select_range=(0, k - 1), lapack_driver="stebz"
        )

    d_ld = d.astype(np.longdouble)
    e_ld = off.astype(np.longdouble)
    states, out_energies, residuals = [], [], []
    h = grid.spacing
    weights = np.full(grid.n_points, h)
    weights[0] = weights[-1] = 0.5 * h
    weights[1:-1] *= scale * scale  # measure in which the x-space path is symmetric

    for j in range(k):
        energy, w, resid = _refine_pair(d_ld, e_ld, energies[j], vectors[:, j])
        if resid > 10.0 * tol.eigen_residual:
            raise ConvergenceError(
                f"eigenpair {j} residual {resid:.3e} stayed above "
                f"10 x {tol.eigen_residual:.1e} after refinement"
            )
        v = w / scale
        full = np.zeros(grid.n_points)
        full[1:-1] = v
        state = WaveFunction(grid, full, weights.copy()).normalize()
        if state.values[1] < 0:  # deterministic sign convention
            state.values = -state.values
        states.append(state)
        out_energies.append(energy)
        residuals.append(resid)

    meta = {
        "backend": tol.eigen_backend,
        "n_points": grid.n_points,
        "spacing": h,
        "space": grid.space,
        "hbar": hbar,
        "m0": m0,
        "residuals": residuals,
        "class": group_class.spec_string() if group_class is not None else None,
    }
    return Spectrum(np.array(out_energies), states, group_class, meta)


# ---------------------------------------------------------------------------
# state transforms and conveniences
# ---------------------------------------------------------------------------


def transform_state(cls: GroupClass, phi: WaveFunction) -> WaveFunction:
    """Map a deformed-coordinate state to plain x space.

    psi(x) = phi(G^{-1}(x)) / sqrt(A(x)), sampled on a uniform x grid spanning
    the image of the input grid; the plain-dx norm is preserved.
    """
    from scipy.interpolate import CubicSpline

    if phi.grid.space != SPACE_G:
        raise ValueError("transform_state expects a state on a deformed-coordinate grid")
    if cls.is_identity:
        return WaveFunction(
            Grid(phi.grid.start, phi.grid.end, phi.grid.n_points, SPACE_X),
            phi.values.copy(),
            phi.norm_weight.copy(),
        )
    u_nodes = phi.grid.nodes
    spline = CubicSpline(u_nodes, phi.values)
    x_grid = Grid(cls.g(phi.grid.start), cls.g(phi.grid.end), phi.grid.n_points, SPACE_X)
    u, a = _x_samples(cls, x_grid)
    values = spline(np.clip(u, u_nodes[0], u_nodes[-1])) / np.sqrt(a)
    h = x_grid.spacing
    weights = np.full(x_grid.n_points, h)
    weights[0] = weights[-1] = 0.5 * h
    return WaveFunction(x_grid, values, weights)


def solve_box(
    cls: GroupClass,
    xmin: float,
    xmax: float,
    potential,
    n_points: int,
    k: int,
    path: str = SPACE_G,
    hbar: float = 1.0,
    m0: float = 1.0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Spectrum:
    """Lowest k states in the hard-walled box [xmin, xmax], on either path.

    Both walls must lie inside the class domain, and hbar, m0 and
    hbar^2/(2 m0) must be finite and > 0.  Path "g" solves on the uniform
    grid in u = G^{-1}(x) between the images of the walls, path "x" on the
    uniform plain-x grid.
    """
    kinetic_coefficient(hbar, m0)
    for edge in (xmin, xmax):
        cls.require_in_domain(edge, "box edge")
    if path == SPACE_G:
        grid = Grid(cls.g_inv(xmin), cls.g_inv(xmax), n_points, SPACE_G)
        ham = hamiltonian_gspace(cls, grid, potential, m0, hbar)
    elif path == SPACE_X:
        grid = Grid(xmin, xmax, n_points, SPACE_X)
        ham = hamiltonian_xspace(cls, grid, potential, m0, hbar)
    else:
        raise ValueError(f"unknown path {path!r}")
    return solve_eigen(ham, k, grid, cls, hbar, m0, tol)


def solve_well(
    cls: GroupClass,
    L: float,
    n_points: int,
    k: int,
    path: str = SPACE_G,
    hbar: float = 1.0,
    m0: float = 1.0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Spectrum:
    """Infinite-well spectrum: the box [0, L] with no potential inside."""
    return solve_box(cls, 0.0, L, InfiniteWell(L), n_points, k, path, hbar, m0, tol)


def cross_check_well(
    cls: GroupClass,
    L: float,
    n_points: int,
    k: int,
    hbar: float = 1.0,
    m0: float = 1.0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[Spectrum, Spectrum, float]:
    """Solve both formulations; return them plus the max relative energy gap."""
    spec_g = solve_well(cls, L, n_points, k, SPACE_G, hbar, m0, tol)
    spec_x = solve_well(cls, L, n_points, k, SPACE_X, hbar, m0, tol)
    rel = np.abs(spec_x.energies - spec_g.energies) / np.abs(spec_g.energies)
    return spec_g, spec_x, float(rel.max())
