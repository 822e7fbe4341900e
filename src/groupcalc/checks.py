"""Self-check suites: every structural identity of the deformed machinery,
runnable against any group class (powers the ``check`` CLI command).

Each check returns its worst residual so failures are diagnosable.  For a
truncated-series class only the local-domain subset runs and the report is
flagged as restricted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, calculus, closed_forms, groups
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


def _rel(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def check_roundtrip(cls: GroupClass, tol: Tolerances, n: int = 1000) -> CheckResult:
    rng = np.random.default_rng(7)
    t_hi = 5.0 if cls.kind != "series" else 0.05
    worst = 0.0
    for t in rng.uniform(-t_hi, t_hi, n):
        back = cls.g_inv(cls.g(t))
        worst = max(worst, abs(back - t) / (1.0 + abs(t)))
    return CheckResult("generator-roundtrip", worst <= tol.roundtrip_rel, worst)


def check_pythagorean(cls: GroupClass, tol: Tolerances, n: int = 200) -> CheckResult:
    rng = np.random.default_rng(11)
    lo, hi = _sample_range(cls)
    worst = 0.0
    for x in rng.uniform(lo, hi, n):
        s, c = groups.sin_g(cls, x), groups.cos_g(cls, x)
        worst = max(worst, abs(s * s + c * c - 1.0))
    return CheckResult("pythagorean", worst <= 1e-12, worst)


def check_derivatives_fd(cls: GroupClass, tol: Tolerances, n: int = 50) -> CheckResult:
    """g_prime/g_second against centered differences of the level below."""
    rng = np.random.default_rng(13)
    t_hi = 3.0 if cls.kind != "series" else 0.05
    h = 1e-5
    worst = 0.0
    for t in rng.uniform(-t_hi, t_hi, n):
        fd1 = (cls.g(t + h) - cls.g(t - h)) / (2 * h)
        fd2 = (cls.g_prime(t + h) - cls.g_prime(t - h)) / (2 * h)
        worst = max(worst, _rel(fd1, cls.g_prime(t)), _rel(fd2, cls.g_second(t)))
    return CheckResult("derivatives-vs-differences", worst <= 1e-8, worst)


def check_axioms(cls: GroupClass, tol: Tolerances, n: int = 300) -> CheckResult:
    """Symmetry, associativity and null-composability of the generalized sum."""
    rng = np.random.default_rng(17)
    lo, hi = _sample_range(cls)
    worst = 0.0
    for _ in range(n):
        x, y, z = rng.uniform(lo, hi, 3)
        try:
            worst = max(worst, _rel(algebra.g_sum(cls, x, y), algebra.g_sum(cls, y, x)))
            lhs = algebra.g_sum(cls, x, algebra.g_sum(cls, y, z))
            rhs = algebra.g_sum(cls, algebra.g_sum(cls, x, y), z)
            worst = max(worst, _rel(lhs, rhs))
            worst = max(worst, _rel(algebra.g_sum(cls, x, 0.0), x))
        except DomainError:
            continue  # the triple wandered out of the domain; sample on
    return CheckResult("group-axioms", worst <= tol.oracle_rel, worst)


def check_homomorphism(cls: GroupClass, tol: Tolerances, n: int = 200) -> CheckResult:
    rng = np.random.default_rng(19)
    lo, hi = _sample_range(cls)
    worst = 0.0
    for _ in range(n):
        x, y = rng.uniform(lo, hi, 2)
        lhs = algebra.deform(cls, algebra.g_sum(cls, x, y))
        rhs = algebra.deform(cls, x) + algebra.deform(cls, y)
        worst = max(worst, _rel(lhs, rhs))
    for m in range(-4, 5):
        for k in range(-4, 5):
            try:
                lhs = algebra.g_integer(cls, m + k).value
                rhs = algebra.g_sum(
                    cls, algebra.g_integer(cls, m).value, algebra.g_integer(cls, k).value
                )
            except DomainError:
                continue  # series integers far from 0 leave the local domain
            worst = max(worst, _rel(lhs, rhs))
    return CheckResult("additive-homomorphism", worst <= tol.oracle_rel, worst)


def check_oracle_equivalence(cls: GroupClass, tol: Tolerances, n: int = 2000) -> CheckResult:
    """Generic operations against the closed-form q-/kappa-algebra."""
    if cls.kind == "tsallis":
        param = cls.q
        oracle = {
            "sum": lambda x, y: closed_forms.q_sum(param, x, y),
            "sub": lambda x, y: closed_forms.q_sub(param, x, y),
            "prod": lambda x, y: closed_forms.q_prod(param, x, y),
            "div": lambda x, y: closed_forms.q_div(param, x, y),
        }
    elif cls.kind == "kaniadakis":
        param = cls.kappa
        oracle = {
            "sum": lambda x, y: closed_forms.kappa_sum(param, x, y),
            "sub": lambda x, y: closed_forms.kappa_sub(param, x, y),
            "prod": lambda x, y: closed_forms.kappa_prod(param, x, y),
            "div": lambda x, y: closed_forms.kappa_div(param, x, y),
        }
    else:
        return CheckResult("oracle-equivalence", True, 0.0, "no closed-form oracle for this class")
    generic = {
        "sum": lambda x, y: algebra.g_sum(cls, x, y),
        "sub": lambda x, y: algebra.g_sub(cls, x, y),
        "prod": lambda x, y: algebra.g_prod(cls, x, y),
        "div": lambda x, y: algebra.g_div(cls, x, y),
    }
    rng = np.random.default_rng(23)
    lo, hi = _sample_range(cls)
    worst = 0.0
    for _ in range(n):
        x, y = rng.uniform(lo, hi, 2)
        worst = max(worst, _rel(generic["sum"](x, y), oracle["sum"](x, y)))
        worst = max(worst, _rel(generic["sub"](x, y), oracle["sub"](x, y)))
        xp, yp = rng.uniform(0.2, 4.0, 2)
        algebra.reset_clamp_flag()
        want = oracle["prod"](xp, yp)
        if not algebra.clamp_occurred():
            worst = max(worst, _rel(generic["prod"](xp, yp), want))
        algebra.reset_clamp_flag()
        want = oracle["div"](xp, yp)
        if not algebra.clamp_occurred():
            worst = max(worst, _rel(generic["div"](xp, yp), want))
    return CheckResult("oracle-equivalence", worst <= tol.oracle_rel, worst)


def check_non_distributivity(cls: GroupClass, tol: Tolerances) -> CheckResult:
    """The generalized sum must not distribute over ordinary scaling."""
    if cls.is_identity:
        gap = abs(2.0 * algebra.g_sum(cls, 1.0, 2.0) - algebra.g_sum(cls, 2.0, 4.0))
        return CheckResult("bg-distributivity", gap <= 1e-12, gap, "identity class distributes")
    best = 0.0
    for a, x, y in ((2.0, 1.0, 2.0), (3.0, 0.5, 0.25), (1.5, 0.2, 0.8)):
        try:
            gap = abs(a * algebra.g_sum(cls, x, y) - algebra.g_sum(cls, a * x, a * y))
        except DomainError:
            continue
        best = max(best, gap)
    return CheckResult("non-distributivity-witness", best > 1e-6, best)


def check_exp_derivative_identity(cls: GroupClass, tol: Tolerances, n: int = 100) -> CheckResult:
    """Deformed derivative of the deformed exponential reproduces it."""
    lo, hi = _sample_range(cls, margin=0.45)
    lo, hi = max(lo, -2.0), min(hi, 2.0)
    f = calculus.Func1D(lambda x: groups.exp_g(cls, x), *cls.domain)
    worst = 0.0
    for x in np.linspace(lo, hi, n):
        d = calculus.g_derivative(cls, f, x, tol, high_accuracy=True)
        worst = max(worst, abs(d - groups.exp_g(cls, x)))
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
