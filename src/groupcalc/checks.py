"""Self-check suites: every structural identity of the deformed machinery,
runnable against any group class (powers the ``check`` CLI command).

Each check returns its worst residual so failures are diagnosable.  For a
truncated-series class only the local-domain subset runs and the report is
flagged as restricted.

The sampled suites run over arrays.  Each draws all its samples in one call,
in the order a per-sample loop would draw them, and inverts every distinct
operand once: the generalized sum x (+) y is G(u + v) with u = G^-1(x) and
v = G^-1(y) taken from one ``g_inv_array`` call.  IEEE addition commutes, so
every residual equals the per-sample loop's bit for bit.  The worst residual
is reduced as the loop's ``worst = max(worst, r)`` reduces it: from 0.0,
skipping NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, calculus, closed_forms, groups
from ._libm import _Array
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DomainError
from .groups import GroupClass


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""


def _sample_range(cls: GroupClass, margin: float = 0.5) -> tuple[float, float]:
    """Interval of safe arguments, kept away from any finite domain edge."""
    lo, hi = cls.domain
    lo = -5.0 if lo == -math.inf else lo * margin
    hi = 5.0 if hi == math.inf else hi * margin
    if cls.kind == "series":
        lo, hi = max(lo, -0.05), min(hi, 0.05)
    return lo, hi


def _rel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / (1.0 + np.maximum(np.abs(a), np.abs(b)))


def _worst(*residuals: np.ndarray) -> float:
    """The largest residual, or 0.0 if there is none; NaN is skipped."""
    return float(np.fmax.reduce(np.concatenate(residuals), initial=0.0))


def check_roundtrip(cls: GroupClass, tol: Tolerances, n: int = 1000) -> CheckResult:
    rng = np.random.default_rng(7)
    t_hi = 5.0 if cls.kind != "series" else 0.05
    t = rng.uniform(-t_hi, t_hi, n)
    back = cls.g_inv_array(cls.g_array(t))
    worst = _worst(np.abs(back - t) / (1.0 + np.abs(t)))
    return CheckResult("generator-roundtrip", worst <= tol.roundtrip_rel, worst)


def check_pythagorean(cls: GroupClass, tol: Tolerances, n: int = 200) -> CheckResult:
    rng = np.random.default_rng(11)
    lo, hi = _sample_range(cls)
    u = cls.g_inv_array(rng.uniform(lo, hi, n))
    s, c = _Array.sin(u), _Array.cos(u)
    worst = _worst(np.abs(s * s + c * c - 1.0))
    return CheckResult("pythagorean", worst <= 1e-12, worst)


def check_derivatives_fd(cls: GroupClass, tol: Tolerances, n: int = 50) -> CheckResult:
    """g_prime/g_second against centered differences of the level below."""
    rng = np.random.default_rng(13)
    t_hi = 3.0 if cls.kind != "series" else 0.05
    h = 1e-5
    t = rng.uniform(-t_hi, t_hi, n)
    fd1 = (cls.g_array(t + h) - cls.g_array(t - h)) / (2 * h)
    fd2 = (cls.g_prime_array(t + h) - cls.g_prime_array(t - h)) / (2 * h)
    worst = _worst(_rel(fd1, cls.g_prime_array(t)), _rel(fd2, cls.g_second_array(t)))
    return CheckResult("derivatives-vs-differences", worst <= 1e-8, worst)


def check_axioms(cls: GroupClass, tol: Tolerances, n: int = 300) -> CheckResult:
    """Symmetry, associativity and null-composability of the generalized sum.

    A sample whose y (+) z or x (+) y leaves the domain of G^-1 counts for
    symmetry only.
    """
    rng = np.random.default_rng(17)
    lo, hi = _sample_range(cls)
    x, y, z = rng.uniform(lo, hi, (n, 3)).T
    u = cls.g_inv_array(np.concatenate((x, y, z, [0.0])))
    ux, uy, uz, u0 = np.split(u, [n, 2 * n, 3 * n])
    xy, yx, yz = np.split(cls.g_array(np.concatenate((ux + uy, uy + ux, uy + uz))), 3)
    keep = cls.contains_array(yz) & cls.contains_array(xy)
    u_yz, u_xy = np.split(cls.g_inv_array(np.concatenate((yz[keep], xy[keep]))), 2)
    ux, uz = ux[keep], uz[keep]
    lhs, rhs, null = np.split(cls.g_array(np.concatenate((ux + u_yz, u_xy + uz, ux + u0))), 3)
    worst = _worst(_rel(xy, yx), _rel(lhs, rhs), _rel(null, x[keep]))
    return CheckResult("group-axioms", worst <= tol.oracle_rel, worst)


def check_homomorphism(cls: GroupClass, tol: Tolerances, n: int = 200) -> CheckResult:
    """deform(x (+) y) = deform(x) + deform(y) on samples, and on the
    generalized integers m (+) k = [m + k] for m, k in -4..4 (a pair counts
    where all three integers exist and G^-1 accepts [m] and [k])."""
    rng = np.random.default_rng(19)
    lo, hi = _sample_range(cls)
    x, y = rng.uniform(lo, hi, (n, 2)).T
    ux, uy = np.split(cls.g_inv_array(np.concatenate((x, y))), 2)
    values, ok = np.zeros(17), np.zeros(17, bool)  # [n] for n = -8..8, where it exists
    for i in range(17):
        try:
            values[i], ok[i] = algebra.g_integer(cls, i - 8).value, True
        except DomainError:
            pass
    small = values[4:13]  # the integers -4..4
    invertible = ok[4:13] & cls.contains_array(small)
    back = cls.g_inv_array(np.concatenate((cls.g_array(ux + uy), small[invertible])))
    u_small = np.zeros(9)
    u_small[invertible] = back[n:]
    m, k = np.divmod(np.arange(81), 9)  # indices of -4..4, so m + k indexes -8..8
    pairs = invertible[m] & invertible[k] & ok[m + k]
    m, k = m[pairs], k[pairs]
    worst = _worst(
        _rel(back[:n], ux + uy),
        _rel(values[m + k], cls.g_array(u_small[m] + u_small[k])),
    )
    return CheckResult("additive-homomorphism", worst <= tol.oracle_rel, worst)


def check_oracle_equivalence(cls: GroupClass, tol: Tolerances, n: int = 2000) -> CheckResult:
    """Generic operations against the closed-form q-/kappa-algebra.

    A product or quotient whose closed form clamps a cutoff base is skipped.
    """
    cf = closed_forms
    if cls.kind == "tsallis":
        param, ops = cls.q, (cf.q_sum_array, cf.q_sub_array, cf.q_prod_array, cf.q_div_array)
    elif cls.kind == "kaniadakis":
        param, ops = cls.kappa, (
            cf.kappa_sum_array, cf.kappa_sub_array, cf.kappa_prod_array, cf.kappa_div_array
        )
    else:
        return CheckResult("oracle-equivalence", True, 0.0, "no closed-form oracle for this class")
    oracle_sum, oracle_sub, oracle_prod, oracle_div = ops
    rng = np.random.default_rng(23)
    lo, hi = _sample_range(cls)
    # one row per sample: (x, y) on the sample range, then (x', y') on [0.2, 4)
    draws = rng.random((n, 4))
    x, y = (lo + (hi - lo) * draws[:, :2]).T
    xp, yp = (0.2 + (4.0 - 0.2) * draws[:, 2:]).T
    ux, uy = np.split(cls.g_inv_array(np.concatenate((x, y))), 2)
    g_sum, g_sub = np.split(cls.g_array(np.concatenate((ux + uy, ux - uy))), 2)
    want_prod, clamped_prod = oracle_prod(param, xp, yp)
    want_div, clamped_div = oracle_div(param, xp, yp)
    keep_prod, keep_div = ~clamped_prod, ~clamped_div
    lx, ly = np.split(groups.log_g_array(cls, np.concatenate((xp, yp))), 2)
    g_prod, g_div = np.split(
        groups.exp_g_array(cls, np.concatenate(((lx + ly)[keep_prod], (lx - ly)[keep_div]))),
        [keep_prod.sum()],
    )
    worst = _worst(
        _rel(g_sum, oracle_sum(param, x, y)),
        _rel(g_sub, oracle_sub(param, x, y)),
        _rel(g_prod, want_prod[keep_prod]),
        _rel(g_div, want_div[keep_div]),
    )
    return CheckResult("oracle-equivalence", worst <= tol.oracle_rel, worst)


def check_non_distributivity(cls: GroupClass, tol: Tolerances) -> CheckResult:
    """The generalized sum must not distribute over ordinary scaling."""
    if cls.is_identity:
        gap = abs(2.0 * algebra.g_sum(cls, 1.0, 2.0) - algebra.g_sum(cls, 2.0, 4.0))
        return CheckResult("bg-distributivity", gap <= 1e-12, gap, "identity class distributes")

    def gaps(triples):
        for a, x, y in triples:
            try:
                yield abs(a * algebra.g_sum(cls, x, y) - algebra.g_sum(cls, a * x, a * y))
            except DomainError:
                pass

    found = list(gaps(((2.0, 1.0, 2.0), (3.0, 0.5, 0.25), (1.5, 0.2, 0.8))))
    if not found:  # every fixed triple leaves the domain: scale (2, 1, 2) into the sample range
        hi = _sample_range(cls)[1]
        found = list(gaps(((2.0, hi / 4, hi / 2),)))
    best = max([0.0] + found)
    return CheckResult("non-distributivity-witness", best > 1e-6, best)


def check_exp_derivative_identity(cls: GroupClass, tol: Tolerances, n: int = 100) -> CheckResult:
    """Deformed derivative of the deformed exponential reproduces it.

    The derivative is ``calculus.g_derivative`` with the 5-point stencil,
    A(x) (f(x-2h) - 8 f(x-h) + 8 f(x+h) - f(x+2h)) / (12 h), at every x at once.
    """
    lo, hi = _sample_range(cls, margin=0.45)
    lo, hi = max(lo, -2.0), min(hi, 2.0)
    x = np.linspace(lo, hi, n)
    h = tol.fd_step_scale * (1.0 + np.abs(x))
    nodes = np.concatenate((x - 2 * h, x - h, x + h, x + 2 * h, x))
    f_2m, f_m, f_p, f_2p, exp_x = np.split(groups.exp_g_array(cls, nodes), 5)
    d = cls.deformation_factor_array(x) * ((f_2m - 8 * f_m + 8 * f_p - f_2p) / (12 * h))
    worst = _worst(np.abs(d - exp_x))
    return CheckResult("exp-derivative-identity", worst <= 1e-8, worst)


def check_fundamental_theorem(cls: GroupClass, tol: Tolerances) -> CheckResult:
    lo, hi = _sample_range(cls, margin=0.4)
    a, b = max(lo, 0.0), min(hi, 1.0)
    if cls.kind == "series":
        a, b = 0.0, min(hi, 0.04)
    worst = 0.0
    for f in (lambda x: x * x, lambda x: x**3, math.sin):
        res = calculus.fundamental_theorem_residual(cls, f, a, b, tol)
        worst = max(worst, res.primal, res.dual)
    return CheckResult("fundamental-theorem", worst <= 1e-8, worst)


def check_quadrature_paths(cls: GroupClass, tol: Tolerances) -> CheckResult:
    lo, hi = _sample_range(cls, margin=0.4)
    a, b = max(lo, 0.0), min(hi, 1.0)
    if cls.kind == "series":
        a, b = 0.0, min(hi, 0.04)
    worst = 0.0
    for f in (lambda x: 1.0, lambda x: x * x):
        direct = calculus.g_integral(cls, f, a, b, tol, method="weight")
        subst = calculus.g_integral(cls, f, a, b, tol, method="substitution")
        worst = max(worst, abs(direct - subst))
        direct = calculus.dual_g_integral(cls, f, a, b, tol, method="weight")
        subst = calculus.dual_g_integral(cls, f, a, b, tol, method="substitution")
        worst = max(worst, abs(direct - subst))
    return CheckResult("quadrature-paths", worst <= 1e-9, worst)


_LOCAL_ONLY = ("series",)


def run_checks(cls: GroupClass, tol: Tolerances = DEFAULT_TOLERANCES) -> list[CheckResult]:
    """All applicable identity suites for a class, restricted for series."""
    restricted = cls.kind in _LOCAL_ONLY
    suites = [
        check_roundtrip,
        check_pythagorean,
        check_derivatives_fd,
        check_axioms,
        check_homomorphism,
        check_oracle_equivalence,
        check_non_distributivity,
    ]
    if not restricted:
        suites += [
            check_exp_derivative_identity,
            check_fundamental_theorem,
            check_quadrature_paths,
        ]
    results = [suite(cls, tol) for suite in suites]
    if restricted:
        results.append(
            CheckResult(
                "restricted-domain",
                True,
                0.0,
                "truncated series: local-domain suite only",
            )
        )
    return results
