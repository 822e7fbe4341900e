"""Identity suites: every residual equals the per-sample loop's, bit for bit.

The reference loops below evaluate each suite one sample and one scalar call
at a time; they are the suites as first written and serve as the oracle for
the array suites of ``groupcalc.checks``.  Each residual is compared by
``float.hex``.  The ``check`` stdout of one class per parameter set is pinned
too; its last digits depend on the libm build, so those cases hold for the
numpy and scipy versions they were recorded with.  ``python
tests/test_checks.py`` prints the stdout of the running code in the layout of
``CHECK_STDOUT``.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
import scipy

from groupcalc import algebra, calculus, checks, closed_forms, groups
from groupcalc.checks import CheckResult, _sample_range
from groupcalc.cli import main
from groupcalc.config import DEFAULT_TOLERANCES
from groupcalc.errors import DomainError

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

SPECS = (
    "bg",
    "tsallis:q=0.5",
    "tsallis:q=1.4",
    "kaniadakis:k=1",
    "abe:a=1,b=-1",
    "abe:a=0.8,b=0",
    "series:a1=0.3",
)
BACKENDS = ("simpson", "gauss16")


# -- reference: one sample, one scalar call at a time ------------------------


def _rel(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def ref_roundtrip(cls, tol, n=1000):
    rng = np.random.default_rng(7)
    t_hi = 5.0 if cls.kind != "series" else 0.05
    worst = 0.0
    for t in rng.uniform(-t_hi, t_hi, n):
        back = cls.g_inv(cls.g(t))
        worst = max(worst, abs(back - t) / (1.0 + abs(t)))
    return CheckResult("generator-roundtrip", worst <= tol.roundtrip_rel, worst)


def ref_pythagorean(cls, tol, n=200):
    rng = np.random.default_rng(11)
    lo, hi = _sample_range(cls)
    worst = 0.0
    for x in rng.uniform(lo, hi, n):
        s, c = groups.sin_g(cls, x), groups.cos_g(cls, x)
        worst = max(worst, abs(s * s + c * c - 1.0))
    return CheckResult("pythagorean", worst <= 1e-12, worst)


def ref_derivatives_fd(cls, tol, n=50):
    rng = np.random.default_rng(13)
    t_hi = 3.0 if cls.kind != "series" else 0.05
    h = 1e-5
    worst = 0.0
    for t in rng.uniform(-t_hi, t_hi, n):
        fd1 = (cls.g(t + h) - cls.g(t - h)) / (2 * h)
        fd2 = (cls.g_prime(t + h) - cls.g_prime(t - h)) / (2 * h)
        worst = max(worst, _rel(fd1, cls.g_prime(t)), _rel(fd2, cls.g_second(t)))
    return CheckResult("derivatives-vs-differences", worst <= 1e-8, worst)


def _axiom_triples(cls, n=300):
    rng = np.random.default_rng(17)
    lo, hi = _sample_range(cls)
    return [rng.uniform(lo, hi, 3) for _ in range(n)]


def ref_axioms(cls, tol, n=300):
    worst = 0.0
    for x, y, z in _axiom_triples(cls, n):
        try:
            worst = max(worst, _rel(algebra.g_sum(cls, x, y), algebra.g_sum(cls, y, x)))
            lhs = algebra.g_sum(cls, x, algebra.g_sum(cls, y, z))
            rhs = algebra.g_sum(cls, algebra.g_sum(cls, x, y), z)
            worst = max(worst, _rel(lhs, rhs))
            worst = max(worst, _rel(algebra.g_sum(cls, x, 0.0), x))
        except DomainError:
            continue
    return CheckResult("group-axioms", worst <= tol.oracle_rel, worst)


def ref_homomorphism(cls, tol, n=200):
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
                continue
            worst = max(worst, _rel(lhs, rhs))
    return CheckResult("additive-homomorphism", worst <= tol.oracle_rel, worst)


def ref_oracle_equivalence(cls, tol, n=2000):
    cf = closed_forms
    if cls.kind == "tsallis":
        param = cls.q
        oracle = {"sum": cf.q_sum, "sub": cf.q_sub, "prod": cf.q_prod, "div": cf.q_div}
    elif cls.kind == "kaniadakis":
        param = cls.kappa
        oracle = {
            "sum": cf.kappa_sum, "sub": cf.kappa_sub, "prod": cf.kappa_prod, "div": cf.kappa_div,
        }
    else:
        return CheckResult("oracle-equivalence", True, 0.0, "no closed-form oracle for this class")
    generic = {"sum": algebra.g_sum, "sub": algebra.g_sub, "prod": algebra.g_prod,
               "div": algebra.g_div}
    rng = np.random.default_rng(23)
    lo, hi = _sample_range(cls)
    worst = 0.0
    for _ in range(n):
        x, y = rng.uniform(lo, hi, 2)
        worst = max(worst, _rel(generic["sum"](cls, x, y), oracle["sum"](param, x, y)))
        worst = max(worst, _rel(generic["sub"](cls, x, y), oracle["sub"](param, x, y)))
        xp, yp = rng.uniform(0.2, 4.0, 2)
        for op in ("prod", "div"):
            algebra.reset_clamp_flag()
            want = oracle[op](param, xp, yp)
            if not algebra.clamp_occurred():
                worst = max(worst, _rel(generic[op](cls, xp, yp), want))
    return CheckResult("oracle-equivalence", worst <= tol.oracle_rel, worst)


def ref_exp_derivative_identity(cls, tol, n=100):
    lo, hi = _sample_range(cls, margin=0.45)
    lo, hi = max(lo, -2.0), min(hi, 2.0)
    f = calculus.Func1D(lambda x: groups.exp_g(cls, x), *cls.domain)
    worst = 0.0
    for x in np.linspace(lo, hi, n):
        d = calculus.g_derivative(cls, f, x, tol, high_accuracy=True)
        worst = max(worst, abs(d - groups.exp_g(cls, x)))
    return CheckResult("exp-derivative-identity", worst <= 1e-8, worst)


REFERENCES = {
    checks.check_roundtrip: ref_roundtrip,
    checks.check_pythagorean: ref_pythagorean,
    checks.check_derivatives_fd: ref_derivatives_fd,
    checks.check_axioms: ref_axioms,
    checks.check_homomorphism: ref_homomorphism,
    checks.check_oracle_equivalence: ref_oracle_equivalence,
    checks.check_exp_derivative_identity: ref_exp_derivative_identity,
}


def _bits(result: CheckResult) -> tuple:
    return result.name, result.passed, float(result.residual).hex(), result.detail


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("spec", SPECS)
def test_suites_match_the_per_sample_loops(spec, backend):
    cls = groups.parse_class_spec(spec)
    tol = DEFAULT_TOLERANCES.replace(quad_backend=backend)
    for suite, reference in REFERENCES.items():
        if cls.kind == "series" and suite is checks.check_exp_derivative_identity:
            continue  # restricted suite: run_checks never runs it for series
        assert _bits(suite(cls, tol)) == _bits(reference(cls, tol)), suite.__name__


class BoundedSinh(groups.GroupClass):
    """G = sinh with G^-1 restricted to (-1, 1): a generalized sum of two
    arguments inside the domain can land outside it."""

    kind = "bounded-sinh"
    domain = (-1.0, 1.0)

    def g(self, t):
        return math.sinh(t)

    def g_inv(self, s):
        self.require_in_domain(s)
        return math.asinh(s)

    def g_prime(self, t):
        return math.cosh(t)

    def spec_string(self):
        return "bounded-sinh"


def test_axioms_drop_the_samples_whose_sums_leave_the_domain():
    cls = BoundedSinh()
    left = [
        (x, y, z) for x, y, z in _axiom_triples(cls)
        if not (cls.contains(algebra.g_sum(cls, y, z)) and cls.contains(algebra.g_sum(cls, x, y)))
    ]
    assert 0 < len(left) < 300  # the skip fires, and not for every sample
    assert _bits(checks.check_axioms(cls, DEFAULT_TOLERANCES)) == _bits(
        ref_axioms(cls, DEFAULT_TOLERANCES)
    )


class NanOutside(BoundedSinh):
    """BoundedSinh whose G^-1 answers NaN outside the domain instead of raising."""

    def g_inv(self, s):
        return math.asinh(s) if self.contains(s) else math.nan


def test_nan_residuals_are_skipped_as_max_skips_them():
    cls = NanOutside()
    result = checks.check_roundtrip(cls, DEFAULT_TOLERANCES)
    assert _bits(result) == _bits(ref_roundtrip(cls, DEFAULT_TOLERANCES))
    assert result.residual > 0.0  # the samples that stay inside still count


# -- check stdout ------------------------------------------------------------

CHECK_STDOUT = {
    "abe:a=0.8,b=0": (
        "PASS generator-roundtrip residual=1.50072772749e-15\n"
        "PASS pythagorean residual=2.22044604925e-16\n"
        "PASS derivatives-vs-differences residual=3.69905826471e-11\n"
        "PASS group-axioms residual=1.89574152008e-15\n"
        "PASS additive-homomorphism residual=1.38777878078e-15\n"
        "PASS oracle-equivalence residual=0  (no closed-form oracle for this class)\n"
        "PASS non-distributivity-witness residual=3.2\n"
        "PASS exp-derivative-identity residual=3.87694321091e-11\n"
        "PASS fundamental-theorem residual=2.32899921571e-10\n"
        "PASS quadrature-paths residual=7.66053886991e-15\n"
    ),
    "abe:a=1,b=-1": (
        "PASS generator-roundtrip residual=1.38944527144e-16\n"
        "PASS pythagorean residual=2.22044604925e-16\n"
        "PASS derivatives-vs-differences residual=3.03090000801e-11\n"
        "PASS group-axioms residual=9.56147486253e-16\n"
        "PASS additive-homomorphism residual=1.66533453694e-16\n"
        "PASS oracle-equivalence residual=0  (no closed-form oracle for this class)\n"
        "PASS non-distributivity-witness residual=7.06149295674\n"
        "PASS exp-derivative-identity residual=4.92308416256e-11\n"
        "PASS fundamental-theorem residual=2.32899921571e-10\n"
        "PASS quadrature-paths residual=3.52884388377e-13\n"
    ),
    "bg": (
        "PASS generator-roundtrip residual=0\n"
        "PASS pythagorean residual=2.22044604925e-16\n"
        "PASS derivatives-vs-differences residual=3.27560201184e-12\n"
        "PASS group-axioms residual=2.51640170468e-16\n"
        "PASS additive-homomorphism residual=0\n"
        "PASS oracle-equivalence residual=0  (no closed-form oracle for this class)\n"
        "PASS bg-distributivity residual=0  (identity class distributes)\n"
        "PASS exp-derivative-identity residual=4.50510739824e-11\n"
        "PASS fundamental-theorem residual=2.32899921571e-10\n"
        "PASS quadrature-paths residual=0\n"
    ),
    "kaniadakis:k=1": (
        "PASS generator-roundtrip residual=1.17541747808e-16\n"
        "PASS pythagorean residual=2.22044604925e-16\n"
        "PASS derivatives-vs-differences residual=3.03090000801e-11\n"
        "PASS group-axioms residual=9.44494989423e-16\n"
        "PASS additive-homomorphism residual=1.15997822442e-16\n"
        "PASS oracle-equivalence residual=5.63046982258e-15\n"
        "PASS non-distributivity-witness residual=7.06149295674\n"
        "PASS exp-derivative-identity residual=4.49555948023e-11\n"
        "PASS fundamental-theorem residual=2.32899921571e-10\n"
        "PASS quadrature-paths residual=3.52884388377e-13\n"
    ),
    "series:a1=0.3": (
        "PASS generator-roundtrip residual=6.67416438116e-18\n"
        "PASS pythagorean residual=2.22044604925e-16\n"
        "PASS derivatives-vs-differences residual=6.6359311208e-12\n"
        "PASS group-axioms residual=2.59957123352e-17\n"
        "PASS additive-homomorphism residual=1.37569299213e-16\n"
        "PASS oracle-equivalence residual=0  (no closed-form oracle for this class)\n"
        "PASS non-distributivity-witness residual=0.505930641573\n"
        "PASS restricted-domain residual=0  (truncated series: local-domain suite only)\n"
    ),
    "tsallis:q=0.5": (
        "PASS generator-roundtrip residual=3.11799547771e-16\n"
        "PASS pythagorean residual=2.22044604925e-16\n"
        "PASS derivatives-vs-differences residual=1.60719760958e-11\n"
        "PASS group-axioms residual=6.34097986592e-16\n"
        "PASS additive-homomorphism residual=1.11022302463e-16\n"
        "PASS oracle-equivalence residual=5.74996871205e-16\n"
        "PASS non-distributivity-witness residual=2\n"
        "PASS exp-derivative-identity residual=4.03010957939e-11\n"
        "PASS fundamental-theorem residual=2.32900143615e-10\n"
        "PASS quadrature-paths residual=8.43769498715e-15\n"
    ),
    "tsallis:q=1.4": (
        "PASS generator-roundtrip residual=4.95304375541e-16\n"
        "PASS pythagorean residual=2.22044604925e-16\n"
        "PASS derivatives-vs-differences residual=2.2794116342e-11\n"
        "PASS group-axioms residual=7.30899158206e-16\n"
        "PASS additive-homomorphism residual=1.33226762955e-15\n"
        "PASS oracle-equivalence residual=5.71076856153e-14\n"
        "PASS non-distributivity-witness residual=0.3\n"
        "PASS exp-derivative-identity residual=4.39710490241e-11\n"
        "PASS fundamental-theorem residual=2.32899921571e-10\n"
        "PASS quadrature-paths residual=6.43929354283e-15\n"
    ),
}


def check_stdout(spec: str) -> str:
    """Standard output of ``check --class spec``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", "--class", spec])
    if code != 0:
        raise AssertionError(f"check --class {spec} exited {code}")
    return out.getvalue()


@pytest.mark.skipif(
    {"numpy": np.__version__, "scipy": scipy.__version__} != RECORDED_WITH,
    reason=f"stdout recorded with {RECORDED_WITH}",
)
@pytest.mark.parametrize("spec", SPECS)
def test_check_stdout_is_byte_identical(spec):
    assert check_stdout(spec) == CHECK_STDOUT[spec]



@pytest.mark.parametrize("spec", ["tsallis:q=2", "tsallis:q=3", "series:a1=-1"])
def test_non_distributivity_witness_scaled_into_the_domain(spec):
    # every fixed witness triple leaves these domains, so the scaled one stands in
    line = next(l for l in check_stdout(spec).splitlines() if "non-distributivity" in l)
    assert line.startswith("PASS ")
    assert float(line.split("residual=")[1]) > 1e-6

if __name__ == "__main__":
    print(json.dumps({spec: check_stdout(spec) for spec in sorted(SPECS)}, indent=4))
