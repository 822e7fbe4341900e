"""Closed-form bound states of the infinite well under a deformation class.

In the deformed coordinate the problem is the textbook box of width
L_g = G^{-1}(L): sine eigenfunctions, quadratic spectrum.  Mapping back to
plain x compresses the nodes through G, which is where all the class-specific
structure (non-uniform zeros, asymmetric densities) comes from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import g_sum
from .errors import DomainError, kinetic_coefficient, require_positive
from .groups import GroupClass

#: largest quantum number, and most samples of a probability table; both are
#: checked before anything is allocated
MAX_QUANTUM_NUMBER = 1000
MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class WellSolution:
    """Quantum number 1 <= n <= MAX_QUANTUM_NUMBER of a width-L well under a group class."""

    group_class: GroupClass
    L: float
    n: int
    hbar: float = 1.0
    m0: float = 1.0
    L_g: float = field(init=False)

    def __post_init__(self):
        require_positive("L", self.L)
        if not 1 <= self.n <= MAX_QUANTUM_NUMBER:
            raise DomainError(f"quantum number must be in [1, {MAX_QUANTUM_NUMBER}], got {self.n}")
        require_positive("hbar", self.hbar)
        require_positive("m0", self.m0)
        for edge in (0.0, self.L):
            self.group_class.require_in_domain(edge, "well edge")
        object.__setattr__(self, "L_g", self.group_class.g_inv(self.L))

    @property
    def norm_constant(self) -> float:
        """Normalization in the deformed coordinate, sqrt(2 / L_g)."""
        return math.sqrt(2.0 / self.L_g)

    @property
    def wavenumber(self) -> float:
        return self.n * math.pi / self.L_g


def eigenfunction_g(sol: WellSolution, x_g: float) -> float:
    """Deformed-coordinate eigenfunction: norm_constant * sin(k x_g) in the box."""
    if x_g < 0.0:
        raise DomainError(f"eigenfunction_g needs x_g >= 0, got {x_g!r}")
    if x_g > sol.L_g:
        return 0.0
    return sol.norm_constant * math.sin(sol.wavenumber * x_g)


def eigenfunction_x(sol: WellSolution, x: float) -> float:
    """Plain-space eigenfunction; zero outside [0, L]."""
    if x < 0.0 or x > sol.L:
        return 0.0
    cls = sol.group_class
    u = cls.g_inv(x)
    amp = math.sqrt(2.0 / (sol.L_g * cls.deformation_factor(x)))
    return amp * math.sin(sol.n * math.pi * u / sol.L_g)


def energy(sol: WellSolution) -> float:
    """hbar^2 (n pi / L_g)^2 / (2 m0)."""
    kinetic_coefficient(sol.hbar, sol.m0)
    k = sol.wavenumber
    return sol.hbar**2 * k * k / (2.0 * sol.m0)


def zeros(sol: WellSolution) -> list[float]:
    """The n+1 nodes of the eigenfunction in plain space, [0, ..., L].

    Interior zero m is G(m L_g / n); consecutive zeros differ by the
    generalized sum with G(L_g / n).
    """
    cls, n = sol.group_class, sol.n
    out = [0.0]
    for m in range(1, n):
        out.append(cls.g(m * sol.L_g / n))
    out.append(sol.L)
    return out


def spacing(sol: WellSolution, m: int) -> float:
    """Gap between zeros m and m-1 (1 <= m <= n); the gaps sum to L."""
    if not 1 <= m <= sol.n:
        raise IndexError(f"spacing index m={m} outside 1..{sol.n}")
    cls, n = sol.group_class, sol.n
    return cls.g(m * sol.L_g / n) - cls.g((m - 1) * sol.L_g / n)


def spacing_closed_form(sol: WellSolution, m: int) -> float:
    """Spacing via the per-class closed form (Tsallis / Kaniadakis / BG only).

    Dual route to :func:`spacing`, used for cross-validation.
    """
    if not 1 <= m <= sol.n:
        raise IndexError(f"spacing index m={m} outside 1..{sol.n}")
    cls, n, L = sol.group_class, sol.n, sol.L
    kind = cls.kind
    if kind == "bg":
        return L / n
    if kind == "tsallis":
        g = 1.0 - cls.q
        base = 1.0 + g * L
        return (base ** (m / n) - base ** ((m - 1) / n)) / g
    if kind == "kaniadakis":
        k = cls.kappa
        s = k * L + math.sqrt((k * L) ** 2 + 1.0)
        plus = s ** (m / n) - s ** ((m - 1) / n)
        minus = s ** (-m / n) - s ** (-(m - 1) / n)
        return (plus - minus) / (2.0 * k)
    raise ValueError(f"no closed-form spacing for class kind {kind!r}")


def zeros_obey_group_law(sol: WellSolution, rel_tol: float = 1e-11) -> bool:
    """Check zero_m = g_sum(zero_{m-1}, G(L_g/n)) for every interior gap."""
    cls = sol.group_class
    zs = zeros(sol)
    step = cls.g(sol.L_g / sol.n)
    for m in range(1, len(zs)):
        expect = g_sum(cls, zs[m - 1], step)
        if abs(expect - zs[m]) > rel_tol * (1.0 + abs(zs[m])):
            return False
    return True


def probability_table(
    sol: WellSolution, n_samples: int, sampling: str = "x"
) -> np.ndarray:
    """(n_samples, 2) table of normalized density against the scaled coordinate.

    Column 0 is x/L (or x_g/L_g with ``sampling="g"``), column 1 is the
    probability density divided by the squared deformed-space amplitude,
    which makes the undeformed table sit in [0, 1].
    """
    if not 2 <= n_samples <= MAX_SAMPLES:
        raise DomainError(f"samples must be in [2, {MAX_SAMPLES}], got {n_samples}")
    out = np.empty((n_samples, 2))
    ratios = np.linspace(0.0, 1.0, n_samples)
    a_sq = sol.norm_constant**2
    if sampling == "x":
        for i, r in enumerate(ratios):
            psi = eigenfunction_x(sol, r * sol.L)
            out[i] = (r, psi * psi / a_sq)
    elif sampling == "g":
        for i, r in enumerate(ratios):
            phi = eigenfunction_g(sol, r * sol.L_g)
            out[i] = (r, phi * phi / a_sq)
    else:
        raise ValueError(f"unknown sampling {sampling!r}")
    return out


def density_cdf(sol: WellSolution, x: float) -> float:
    """Integral of |psi_n|^2 from 0 to x, by the exact antiderivative.

    In the deformed coordinate the density is a plain box sine-squared, so
    the mass up to x is s - sin(2 pi n s)/(2 pi n) with s = G^{-1}(x)/L_g.
    """
    if x <= 0.0:
        return 0.0
    if x >= sol.L:
        return 1.0
    s = sol.group_class.g_inv(x) / sol.L_g
    return s - math.sin(2.0 * math.pi * sol.n * s) / (2.0 * math.pi * sol.n)
