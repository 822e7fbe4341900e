"""Entropy group classes and the deformed elementary functions they induce.

A group class is described by a strictly increasing generator ``G`` with
``G(0) = 0`` and ``G'(0) = 1``.  Everything else in the package (deformed
arithmetic, deformed calculus, deformed spectra) is driven by the four
callables ``G``, ``G^{-1}``, ``G'`` and ``G''`` exposed here, plus domain
metadata for ``G^{-1}``.

Built-in classes:

* ``BG``                     -- identity generator, plain arithmetic.
* ``tsallis(q)``             -- G(t) = (e^{(1-q)t} - 1)/(1-q); q = 1 degenerates to BG.
* ``kaniadakis(kappa)``      -- G(t) = sinh(kappa t)/kappa; kappa = 0 degenerates to BG.
* ``abe(a, b)``              -- G(t) = (e^{at} - e^{bt})/(a - b); inverse is a Newton
                                iteration from a lower bound.
* ``series(coeffs, order)``  -- truncated formal series t + sum a_k t^{k+1}/(k+1);
                                inverse is a local Newton iteration.

Each scalar method, the domain checks, ``log_g`` and ``exp_g`` have an
array form (``g_array``, ..., ``require_in_domain_array``, ``log_g_array``)
for 1-d float arrays, whose every element equals the scalar result bit for
bit.  Each formula is written once, over a private trailing namespace
argument ``_m`` (see :mod:`groupcalc._libm`); its array form runs that same
formula over ``_Array``, which calls libm once per element and raises the
scalar's error for the first element that has one.  A subclass of
:class:`GroupClass` that defines only scalar methods gets array forms that
loop over them.  The numeric inverses of ``abe`` and ``series`` are Newton
iterations written the same way: every element takes the scalar's steps, an
element that has converged or failed is frozen, and an element that failed
raises the scalar's error after the loop.  An array with an element outside
the domain raises the scalar's DomainError for the first such element,
before any other error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._libm import _Array, _Scalar
from .config import DEFAULT_TOLERANCES, Spec, Tolerances
from .errors import ConvergenceError, DomainError

_INF = math.inf


def _over_array(name):
    """The array form of method ``name``: its formula run over _Array."""
    return lambda self, *args: _Array.run(getattr(self, name), *args)


class GroupClass:
    """Base interface: generator, inverse, derivatives, domain metadata.

    ``domain`` is the open interval of arguments accepted by ``g_inv`` (and by
    every deformed function built on it); the built-in classes compute it
    once, at construction.  Instances are immutable and all methods are
    pure, so they are safe to share between threads.
    """

    #: open interval (lo, hi) of valid arguments to g_inv
    domain: tuple[float, float] = (-_INF, _INF)
    #: interval of generator arguments t on which G is operationally monotone
    t_range: tuple[float, float] = (-_INF, _INF)
    kind: str = "abstract"

    def g(self, t: float) -> float:
        raise NotImplementedError

    def g_inv(self, s: float) -> float:
        raise NotImplementedError

    def g_prime(self, t: float) -> float:
        raise NotImplementedError

    def g_second(self, t: float) -> float:
        raise NotImplementedError

    def g_third(self, t: float) -> float:
        raise NotImplementedError

    def spec_string(self) -> str:
        """Class specification string as accepted by :func:`parse_class_spec`."""
        raise NotImplementedError

    # -- helpers shared by every class --------------------------------------

    @property
    def is_identity(self) -> bool:
        return isinstance(self, BGClass)

    def contains(self, s: float) -> bool:
        lo, hi = self.domain
        return (lo < s) & (s < hi)

    contains_array = contains  # the formula holds elementwise as written

    def require_in_domain(self, s: float, what: str = "argument", _m=_Scalar) -> None:
        _m.reject(_m.not_(self.contains(s)), lambda s: DomainError(
            f"{what} {s!r} outside domain {self.domain} of class {self.spec_string()}"
        ), s)

    require_in_domain_array = _over_array("require_in_domain")

    def deformation_factor(self, x: float) -> float:
        """A(x) = G'(G^{-1}(x)), the local stretching of the deformed coordinate."""
        return self.g_prime(self.g_inv(x))

    def deformation_derivs(self, x: float) -> tuple[float, float, float]:
        """(A, A', A'') at x, with A(x) = G'(G^{-1}(x)).

        A'  = G''(u)/G'(u) and A'' = (G'''(u) G'(u) - G''(u)^2)/G'(u)^3
        at u = G^{-1}(x); exact given exact generator derivatives.
        """
        u = self.g_inv(x)
        return _derivs(self.g_prime(u), self.g_second(u), self.g_third(u))

    # -- array forms: element i equals the scalar method at x[i] -------------
    # The base forms loop over the scalar methods; the built-in classes run
    # their one formula over _Array instead (see _OneFormula).

    def g_array(self, t: np.ndarray) -> np.ndarray:
        return _Array.each(self.g, t)

    def g_inv_array(self, s: np.ndarray) -> np.ndarray:
        return _Array.each(self.g_inv, s)

    def g_prime_array(self, t: np.ndarray) -> np.ndarray:
        return _Array.each(self.g_prime, t)

    def g_second_array(self, t: np.ndarray) -> np.ndarray:
        return _Array.each(self.g_second, t)

    def g_third_array(self, t: np.ndarray) -> np.ndarray:
        return _Array.each(self.g_third, t)

    def deformation_factor_array(
        self, x: np.ndarray, u: np.ndarray | None = None
    ) -> np.ndarray:
        """A at every x.  ``u``, if given, is ``g_inv_array(x)``, which a
        class whose A goes through the inverse then takes as it is.  A
        subclass that overrides :meth:`deformation_factor` overrides this."""
        return self.g_prime_array(self.g_inv_array(x) if u is None else u)

    def deformation_derivs_array(
        self, x: np.ndarray, u: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A, A', A'') at every x, by the formulas of :meth:`deformation_derivs`;
        ``u`` as for :meth:`deformation_factor_array`."""
        if u is None:
            u = self.g_inv_array(x)
        g1, g2, g3 = self.g_prime_array(u), self.g_second_array(u), self.g_third_array(u)
        return _Array.run(_derivs, g1, g2, g3)

    def __repr__(self):
        return f"<GroupClass {self.spec_string()}>"


def _derivs(g1, g2, g3, _m=_Scalar):
    """(A, A', A'') from G', G'' and G''' at u = G^{-1}(x)."""
    return g1, g2 / g1, (g3 * g1 - g2 * g2) / _m.pow(g1, 3)


class _OneFormula(GroupClass):
    """A built-in class.  Each formula is written once, in a scalar method
    with the trailing namespace argument ``_m``; its array form runs the
    same method over ``_Array``."""

    g_array = _over_array("g")
    g_prime_array = _over_array("g_prime")
    g_second_array = _over_array("g_second")
    g_third_array = _over_array("g_third")
    g_inv_array = _over_array("g_inv")


class _ClosedInverse(_OneFormula):
    """A built-in class whose A is a formula over ``_m`` too."""

    def deformation_factor_array(self, x, u=None):
        return _Array.run(self.deformation_factor, x)


@dataclass(frozen=True, repr=False)
class BGClass(_ClosedInverse):
    """Identity generator: every deformed operation reduces to the plain one."""

    kind: str = field(default="bg", init=False)
    domain = (-_INF, _INF)

    def g(self, t, _m=_Scalar):
        return _m.copy(t)

    def g_inv(self, s, _m=_Scalar):
        return _m.copy(s)

    def g_prime(self, t, _m=_Scalar):
        return _m.full(t, 1.0)

    def g_second(self, t, _m=_Scalar):
        return _m.full(t, 0.0)

    def g_third(self, t, _m=_Scalar):
        return _m.full(t, 0.0)

    def deformation_factor(self, x, _m=_Scalar):
        return _m.full(x, 1.0)

    def spec_string(self):
        return "bg"


@dataclass(frozen=True, repr=False)
class TsallisClass(_ClosedInverse):
    """G(t) = (exp(gamma t) - 1)/gamma with gamma = 1 - q (gamma != 0)."""

    q: float
    kind: str = field(default="tsallis", init=False)

    def __post_init__(self):
        edge = -1.0 / self.gamma
        object.__setattr__(self, "domain", (edge, _INF) if self.gamma > 0 else (-_INF, edge))

    @property
    def gamma(self) -> float:
        return 1.0 - self.q

    def g(self, t, _m=_Scalar):
        return _m.expm1(self.gamma * t) / self.gamma

    def g_inv(self, s, _m=_Scalar):
        _m.require_in_domain(self, s)
        return _m.log1p(self.gamma * s) / self.gamma

    def g_prime(self, t, _m=_Scalar):
        return _m.exp(self.gamma * t)

    def g_second(self, t, _m=_Scalar):
        return self.gamma * _m.exp(self.gamma * t)

    def g_third(self, t, _m=_Scalar):
        return self.gamma**2 * _m.exp(self.gamma * t)

    def deformation_factor(self, x, _m=_Scalar):
        _m.require_in_domain(self, x)
        return 1.0 + self.gamma * x

    def spec_string(self):
        return f"tsallis:q={_fmt_param(self.q)}"


@dataclass(frozen=True, repr=False)
class KaniadakisClass(_ClosedInverse):
    """G(t) = sinh(kappa t)/kappa (kappa != 0)."""

    kappa: float
    kind: str = field(default="kaniadakis", init=False)
    domain = (-_INF, _INF)

    def g(self, t, _m=_Scalar):
        return _m.sinh(self.kappa * t) / self.kappa

    def g_inv(self, s, _m=_Scalar):
        return _m.asinh(self.kappa * s) / self.kappa

    def g_prime(self, t, _m=_Scalar):
        return _m.cosh(self.kappa * t)

    def g_second(self, t, _m=_Scalar):
        return self.kappa * _m.sinh(self.kappa * t)

    def g_third(self, t, _m=_Scalar):
        return self.kappa**2 * _m.cosh(self.kappa * t)

    def deformation_factor(self, x, _m=_Scalar):
        return _m.hypot1(self.kappa * x)

    def spec_string(self):
        return f"kaniadakis:k={_fmt_param(self.kappa)}"


@dataclass(frozen=True, repr=False)
class AbeClass(_OneFormula):
    """G(t) = (exp(at) - exp(bt))/(a - b); inverse by Newton steps on log G.

    Monotonicity of G requires a >= 0 >= b (after canonical ordering a > b);
    other parameterizations, and a, b or a - b that are not finite, are
    rejected at construction.  With b = 0 or a = 0 the class is Tsallis and
    G^{-1} is its closed form.
    """

    a: float
    b: float
    kind: str = field(default="abe", init=False)
    tol: Tolerances = field(default=DEFAULT_TOLERANCES, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.a - self.b):
            raise ValueError("Abe class needs finite a, b and a - b")
        if self.a == self.b:
            raise ValueError("Abe class needs a != b")
        if self.a < self.b:  # G is symmetric under swapping a and b
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
        if not (self.a >= 0.0 >= self.b):
            raise ValueError(
                "Abe class needs a >= 0 >= b, otherwise G is not monotone "
                "and the inverse is ill-defined"
            )
        lo = -_INF if self.b < 0 else -1.0 / self.a
        hi = _INF if self.a > 0 else -1.0 / self.b
        object.__setattr__(self, "domain", (lo, hi))

    def g(self, t, _m=_Scalar):
        a, b = self.a, self.b
        return (_m.exp(a * t) - _m.exp(b * t)) / (a - b)

    def g_prime(self, t, _m=_Scalar):
        a, b = self.a, self.b
        return (a * _m.exp(a * t) - b * _m.exp(b * t)) / (a - b)

    def g_second(self, t, _m=_Scalar):
        a, b = self.a, self.b
        return (a * a * _m.exp(a * t) - b * b * _m.exp(b * t)) / (a - b)

    def g_third(self, t, _m=_Scalar):
        a, b = self.a, self.b
        return (a**3 * _m.exp(a * t) - b**3 * _m.exp(b * t)) / (a - b)

    def g_inv(self, s, _m=_Scalar):
        _m.require_in_domain(self, s)
        a, b, tol = self.a, self.b, self.tol
        if a == 0.0 or b == 0.0:  # tsallis with gamma = a + b: G^-1 is closed
            return _m.log1p((a + b) * s) / (a + b) + 0.0  # s = -0 gives +0
        # G_{a,b}(t) = -G_{-b,-a}(-t): solve G(t) = y = |s| on t > 0, where
        # G(t) = e^{ct} v(t), c the rate of the larger exp, v = (1 - e^{-dt})/d.
        # r(t) = log(y/v) - ct is convex and decreasing, so Newton steps from
        # a lower bound of the root climb to it.  s = 0 solves y = 1, then gives 0.
        d, y, c = a - b, abs(s) + (s == 0.0), _m.where(s < 0.0, -b, a)
        dy, log_dy, minus_d, stop = d * y, _m.log(y) + math.log(d), -d, tol.inverse_abs
        # there y/v ~ dy nears overflow: take log((y/k)/v) + log(k), k = max(d, 1)
        big, k = dy > 1e300, max(d, 1.0)
        split_log = _m.any(big)
        y_k, log_k = _m.where(big, y / k, y), _m.where(big, math.log(k), 0.0)
        # G <= expm1(ct)/c and G <= e^{ct}/d bound the root from below
        t = _m.maximum(_m.where(big, log_dy, _m.log1p(c * y)) / c, log_dy / c)
        # near 0, G^-1(y) = y - (c - d/2) y^2 + O(y^3) is closer; an absolute stop
        # rule would end Newton there before its relative error falls to an ulp
        t = _m.where(dy < 1e-3, y - (c - 0.5 * d) * y * y, t)
        live = _m.full(s, True)
        for _ in range(tol.inverse_max_iter):
            e = _m.expm1(minus_d * t)  # -d v; below 1e-20, t is v to the last bit
            v = _m.where(e > -1e-20, t, e / minus_d)  # and keeps it where dt is subnormal
            log_ratio = _m.log(y_k / v) + log_k if split_log else _m.log(y_k / v)
            # t > 0, so a frozen t takes a zero step, which meets the stop rule
            delta = _m.where(live, (log_ratio - c * t) / (c + (1.0 + e) / v), 0.0)
            t = t + delta
            live = _m.not_(abs(delta) <= stop * (1.0 + t))
            if not _m.any(live):
                break
        _m.reject(live, lambda s: ConvergenceError(f"abe inverse did not converge for s={s!r}"), s)
        return _m.where(s < 0.0, -t, t) * (s != 0.0)

    def spec_string(self):
        return f"abe:a={_fmt_param(self.a)},b={_fmt_param(self.b)}"


@dataclass(frozen=True, repr=False)
class SeriesClass(_OneFormula):
    """Truncated formal generator t + sum_{k=1}^{m} a_k t^{k+1}/(k+1).

    Only a local group law: the inverse is a Newton iteration seeded at s,
    restricted to the neighbourhood of 0 where G' stays above
    ``tol.series_gprime_min``; ``domain`` is G at its ends, computed once.
    G and G' are sums over one list of powers of t, so a Newton step takes
    each pow(t, k) once for both; only G's last, pow(t, m + 1), is its own.
    """

    coeffs: tuple[float, ...]
    truncation_order: int
    kind: str = field(default="series", init=False)
    tol: Tolerances = field(default=DEFAULT_TOLERANCES, compare=False)
    _t_range: tuple[float, float] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if self.truncation_order < 1:
            raise ValueError("truncation_order must be >= 1")
        if self.truncation_order > len(self.coeffs):
            raise ValueError(
                f"truncation_order {self.truncation_order} exceeds the "
                f"{len(self.coeffs)} supplied coefficients"
            )
        object.__setattr__(self, "_t_range", self._monotone_t_range())
        t_lo, t_hi = self._t_range
        object.__setattr__(self, "domain", (self.g(t_lo), self.g(t_hi)))

    def _monotone_t_range(self):
        """Largest scanned interval around 0 where G' > series_gprime_min."""
        floor = self.tol.series_gprime_min

        def ok(t):
            return self.g_prime(t) > floor

        span = [0.0, 0.0]
        for sign, idx in ((-1.0, 0), (1.0, 1)):
            t, step = 0.0, 1e-3
            while abs(t + sign * step) <= 1e6 and ok(t + sign * step):
                t += sign * step
                step *= 1.25
            span[idx] = t
        return (span[0], span[1])

    @property
    def t_range(self):
        return self._t_range

    def _powers(self, t, _m=_Scalar):
        """[t, pow(t, 2), ..., pow(t, m)]: the powers of G', and of G but its
        last (pow(t, 1) is t, bit for bit)."""
        powers = [t]
        for k in range(2, self.truncation_order + 1):
            powers.append(_m.pow(t, k))
        return powers

    def _g(self, t, powers, _m=_Scalar):
        """G(t) from ``powers`` of t; it takes pow(t, m + 1) itself."""
        m, coeffs = self.truncation_order, self.coeffs
        acc = t  # acc = acc + ..., since += would write into an array t
        for k in range(1, m):
            acc = acc + coeffs[k - 1] * powers[k] / (k + 1)
        return acc + coeffs[m - 1] * _m.pow(t, m + 1) / (m + 1)

    def _g_prime(self, powers):
        """G' from ``powers`` of its argument."""
        acc = 1.0  # order >= 1, so an array argument makes acc an array
        for c, p in zip(self.coeffs, powers):
            acc = acc + c * p
        return acc

    def g(self, t, _m=_Scalar):
        return self._g(t, self._powers(t, _m), _m)

    def g_prime(self, t, _m=_Scalar):
        return self._g_prime(self._powers(t, _m))

    def g_second(self, t, _m=_Scalar):
        acc = 0.0
        for k in range(1, self.truncation_order + 1):
            acc = acc + k * self.coeffs[k - 1] * _m.pow(t, k - 1)
        return acc

    def g_third(self, t, _m=_Scalar):
        acc = _m.full(t, 0.0)
        for k in range(2, self.truncation_order + 1):
            acc = acc + k * (k - 1) * self.coeffs[k - 1] * _m.pow(t, k - 2)
        return acc

    def g_inv(self, s, _m=_Scalar):
        _m.require_in_domain(self, s)
        floor, tol = self.tol.series_gprime_min, self.tol
        t = s  # G is the identity to first order, so s is a good seed
        live, flat = _m.full(s, True), _m.full(s, False)
        for _ in range(tol.inverse_max_iter):
            u = _m.where(live, t, 0.0)  # G and G' at 0 stand in where t is frozen
            powers = self._powers(u, _m)
            slope = self._g_prime(powers)
            low = live & (slope <= floor)
            live, flat = live & _m.not_(low), flat | low
            if not _m.any(live):
                break
            # G at w = where(live, u, 0): u's powers are w's where live, the
            # only elements whose step counts, and only pow(w, m + 1) is new
            delta = (self._g(_m.where(live, u, 0.0), powers, _m) - s) / slope
            t = _m.where(live, u - delta, t)
            live = live & _m.not_(abs(delta) <= tol.inverse_abs * (1.0 + abs(t)))
            if not _m.any(live):
                break
        _m.reject(live | flat, lambda flat, t, s: ConvergenceError(
            f"series inverse left the monotone region near t={t!r}" if flat
            else f"series inverse did not converge for s={s!r}"
        ), flat, t, s)
        return t

    def spec_string(self):
        parts = ",".join(
            f"a{k + 1}={_fmt_param(c)}" for k, c in enumerate(self.coeffs)
        )
        return f"series:{parts}"


BG = BGClass()


def tsallis(q: float) -> GroupClass:
    """Tsallis class; q = 1 is the Boltzmann-Gibbs limit and returns ``BG``."""
    return BG if q == 1.0 else TsallisClass(float(q))


def kaniadakis(kappa: float) -> GroupClass:
    """Kaniadakis class; kappa = 0 returns ``BG``."""
    return BG if kappa == 0.0 else KaniadakisClass(float(kappa))


def abe(a: float, b: float) -> GroupClass:
    return AbeClass(float(a), float(b))


def series(coeffs, truncation_order: int | None = None) -> GroupClass:
    coeffs = tuple(float(c) for c in coeffs)
    if truncation_order is None:
        truncation_order = len(coeffs)
    return SeriesClass(coeffs, truncation_order)


# ---------------------------------------------------------------------------
# deformed elementary functions
# ---------------------------------------------------------------------------


def log_g(cls: GroupClass, x: float, _m=_Scalar) -> float:
    """Deformed logarithm G(log x), defined for x > 0."""
    _m.reject(x <= 0.0, lambda x: DomainError(f"log_g needs x > 0, got {x!r}"), x)
    return _m.form(cls, "g")(_m.log(x))


def exp_g(cls: GroupClass, x: float, _m=_Scalar) -> float:
    """Deformed exponential exp(G^{-1}(x)).

    At a finite lower domain edge where G^{-1} diverges to -inf (Tsallis with
    q < 1, Abe with b = 0) the limiting value 0.0 is returned, matching the
    cutoff convention of the closed-form q-exponential.
    """
    lo = cls.domain[0]
    edge = (x == lo) & (math.isfinite(lo) and cls.t_range[0] == -_INF)
    inside = _m.where(edge, 0.0, x)  # G^-1(0) = 0 stands in at the edge
    _m.require_in_domain(cls, inside)
    return _m.where(edge, 0.0, _m.exp(_m.form(cls, "g_inv")(inside)))


log_g_array, exp_g_array = (functools.partial(_Array.run, f) for f in (log_g, exp_g))


def cos_g(cls: GroupClass, x: float) -> float:
    """Deformed cosine cos(G^{-1}(x))."""
    return math.cos(cls.g_inv(x))


def sin_g(cls: GroupClass, x: float) -> float:
    """Deformed sine sin(G^{-1}(x))."""
    return math.sin(cls.g_inv(x))


# ---------------------------------------------------------------------------
# class specification strings ("bg", "tsallis:q=0.5", ...)
# ---------------------------------------------------------------------------


def _fmt_param(v: float) -> str:
    return format(v, ".12g")


def parse_class_spec(spec: str) -> GroupClass:
    """Parse a class specification string.

    Accepted forms::

        bg
        tsallis:q=<float>
        kaniadakis:k=<float>
        abe:a=<float>,b=<float>
        series:a1=<float>,a2=<float>,...[,order=<int>]
    """
    parsed = Spec(spec.strip().lower())
    name, number, params, finish = parsed.name, parsed.number, parsed.params, parsed.finish
    if name == "bg":
        return finish(BG)
    if name == "tsallis":
        return finish(tsallis(number("q")))
    if name == "kaniadakis":
        return finish(kaniadakis(number("k" if "k" in params else "kappa")))
    if name == "abe":
        return finish(abe(number("a"), number("b")))
    if name == "series":
        order = int(params.pop("order")) if "order" in params else None
        coeffs = []
        while f"a{len(coeffs) + 1}" in params:
            coeffs.append(number(f"a{len(coeffs) + 1}"))
        if not coeffs:
            raise ValueError(f"series spec needs at least a1, got {spec!r}")
        return finish(series(coeffs, order))
    raise ValueError(f"unknown class {name!r} in spec {spec!r}")
