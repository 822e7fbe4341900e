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
* ``abe(a, b)``              -- G(t) = (e^{at} - e^{bt})/(a - b); inverse is numeric.
* ``series(coeffs, order)``  -- truncated formal series t + sum a_k t^{k+1}/(k+1);
                                inverse is a local Newton iteration.

Each scalar method has an array form (``g_array``, ``g_inv_array``, ...,
``deformation_factor_array``) for 1-d float arrays, whose every element
equals the scalar method's result bit for bit.  The array forms use numpy
only for correctly rounded operations (+ - * /, comparisons, ``abs``,
``sqrt``, ``where``) and call libm through ``math`` and Python's ``**`` once
per element: numpy's own ``exp``, ``expm1``, ``sinh``, ``**``, ... differ from
libm in the last ulp on a share of inputs.  The numerically inverted classes
run their inversions as masked vector copies of the scalar iterations, in
which every element takes the scalar's steps and stops on its own.  An array
with an element outside the domain raises the scalar's DomainError for the
first such element, before any other error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Spec, Tolerances
from .errors import ConvergenceError, DomainError

_INF = math.inf


def _map(f, x):
    """f at every element of the 1-d float array x, one scalar call each."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _pow(x, p):
    """x ** p elementwise, through Python's float ``**`` as the scalar methods."""
    return np.fromiter(map(pow, x.tolist(), itertools.repeat(p)), float, x.size)


def _raise_first(failures: dict) -> None:
    """Raise the ConvergenceError a node-by-node loop would have met first."""
    if failures:
        raise ConvergenceError(failures[min(failures)])


class GroupClass:
    """Base interface: generator, inverse, derivatives, domain metadata.

    ``domain`` is the open interval of arguments accepted by ``g_inv`` (and by
    every deformed function built on it).  Instances are immutable and all
    methods are pure, so they are safe to share between threads.
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
        return lo < s < hi

    def contains_array(self, s: np.ndarray) -> np.ndarray:
        """:meth:`contains` at every element of s."""
        lo, hi = self.domain
        return (lo < s) & (s < hi)

    def require_in_domain(self, s: float, what: str = "argument") -> None:
        if not self.contains(s):
            raise DomainError(
                f"{what} {s!r} outside domain {self.domain} of class {self.spec_string()}"
            )

    def require_in_domain_array(self, s: np.ndarray, what: str = "argument") -> None:
        """:meth:`require_in_domain` for every element; the error names the
        first element outside the domain."""
        outside = ~self.contains_array(s)
        if outside.any():
            self.require_in_domain(s[outside.argmax()].item(), what)

    def deformation_factor(self, x: float) -> float:
        """A(x) = G'(G^{-1}(x)), the local stretching of the deformed coordinate."""
        return self.g_prime(self.g_inv(x))

    def deformation_derivs(self, x: float) -> tuple[float, float, float]:
        """(A, A', A'') at x, with A(x) = G'(G^{-1}(x)).

        A'  = G''(u)/G'(u) and A'' = (G'''(u) G'(u) - G''(u)^2)/G'(u)^3
        at u = G^{-1}(x); exact given exact generator derivatives.
        """
        u = self.g_inv(x)
        g1 = self.g_prime(u)
        g2 = self.g_second(u)
        g3 = self.g_third(u)
        return g1, g2 / g1, (g3 * g1 - g2 * g2) / g1**3

    # -- array forms: element i equals the scalar method at x[i] -------------
    # The base forms loop over the scalar methods; the built-in classes
    # override them with vector code.

    def g_array(self, t: np.ndarray) -> np.ndarray:
        return _map(self.g, t)

    def g_inv_array(self, s: np.ndarray) -> np.ndarray:
        return _map(self.g_inv, s)

    def g_prime_array(self, t: np.ndarray) -> np.ndarray:
        return _map(self.g_prime, t)

    def g_second_array(self, t: np.ndarray) -> np.ndarray:
        return _map(self.g_second, t)

    def g_third_array(self, t: np.ndarray) -> np.ndarray:
        return _map(self.g_third, t)

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
        g1 = self.g_prime_array(u)
        g2 = self.g_second_array(u)
        g3 = self.g_third_array(u)
        return g1, g2 / g1, (g3 * g1 - g2 * g2) / _pow(g1, 3)

    def __repr__(self):
        return f"<GroupClass {self.spec_string()}>"


@dataclass(frozen=True, repr=False)
class BGClass(GroupClass):
    """Identity generator: every deformed operation reduces to the plain one."""

    kind: str = field(default="bg", init=False)
    domain = (-_INF, _INF)

    def g(self, t):
        return t

    def g_inv(self, s):
        return s

    def g_prime(self, t):
        return 1.0

    def g_second(self, t):
        return 0.0

    def g_third(self, t):
        return 0.0

    def g_array(self, t):
        return np.array(t, dtype=float)

    def g_inv_array(self, s):
        return np.array(s, dtype=float)

    def g_prime_array(self, t):
        return np.ones(t.shape)

    def g_second_array(self, t):
        return np.zeros(t.shape)

    def g_third_array(self, t):
        return np.zeros(t.shape)

    def spec_string(self):
        return "bg"


@dataclass(frozen=True, repr=False)
class TsallisClass(GroupClass):
    """G(t) = (exp(gamma t) - 1)/gamma with gamma = 1 - q (gamma != 0)."""

    q: float
    kind: str = field(default="tsallis", init=False)

    @property
    def gamma(self) -> float:
        return 1.0 - self.q

    @property
    def domain(self):
        edge = -1.0 / self.gamma
        return (edge, _INF) if self.gamma > 0 else (-_INF, edge)

    def g(self, t):
        return math.expm1(self.gamma * t) / self.gamma

    def g_inv(self, s):
        self.require_in_domain(s)
        return math.log1p(self.gamma * s) / self.gamma

    def g_prime(self, t):
        return math.exp(self.gamma * t)

    def g_second(self, t):
        return self.gamma * math.exp(self.gamma * t)

    def g_third(self, t):
        return self.gamma**2 * math.exp(self.gamma * t)

    def deformation_factor(self, x):
        self.require_in_domain(x)
        return 1.0 + self.gamma * x

    def g_array(self, t):
        return _map(math.expm1, self.gamma * t) / self.gamma

    def g_inv_array(self, s):
        self.require_in_domain_array(s)
        return _map(math.log1p, self.gamma * s) / self.gamma

    def g_prime_array(self, t):
        return _map(math.exp, self.gamma * t)

    def g_second_array(self, t):
        return self.gamma * _map(math.exp, self.gamma * t)

    def g_third_array(self, t):
        return self.gamma**2 * _map(math.exp, self.gamma * t)

    def deformation_factor_array(self, x, u=None):
        self.require_in_domain_array(x)
        return 1.0 + self.gamma * x

    def spec_string(self):
        return f"tsallis:q={_fmt_param(self.q)}"


@dataclass(frozen=True, repr=False)
class KaniadakisClass(GroupClass):
    """G(t) = sinh(kappa t)/kappa (kappa != 0)."""

    kappa: float
    kind: str = field(default="kaniadakis", init=False)
    domain = (-_INF, _INF)

    def g(self, t):
        return math.sinh(self.kappa * t) / self.kappa

    def g_inv(self, s):
        return math.asinh(self.kappa * s) / self.kappa

    def g_prime(self, t):
        return math.cosh(self.kappa * t)

    def g_second(self, t):
        return self.kappa * math.sinh(self.kappa * t)

    def g_third(self, t):
        return self.kappa**2 * math.cosh(self.kappa * t)

    def deformation_factor(self, x):
        return math.sqrt(1.0 + (self.kappa * x) ** 2)

    def g_array(self, t):
        return _map(math.sinh, self.kappa * t) / self.kappa

    def g_inv_array(self, s):
        return _map(math.asinh, self.kappa * s) / self.kappa

    def g_prime_array(self, t):
        return _map(math.cosh, self.kappa * t)

    def g_second_array(self, t):
        return self.kappa * _map(math.sinh, self.kappa * t)

    def g_third_array(self, t):
        return self.kappa**2 * _map(math.cosh, self.kappa * t)

    def deformation_factor_array(self, x, u=None):
        return np.sqrt(1.0 + _pow(self.kappa * x, 2))

    def spec_string(self):
        return f"kaniadakis:k={_fmt_param(self.kappa)}"


@dataclass(frozen=True, repr=False)
class AbeClass(GroupClass):
    """G(t) = (exp(at) - exp(bt))/(a - b); inverse by bisection plus Newton polish.

    Monotonicity of G requires a >= 0 >= b (after canonical ordering a > b);
    other parameterizations are rejected at construction.
    """

    a: float
    b: float
    kind: str = field(default="abe", init=False)
    tol: Tolerances = field(default=DEFAULT_TOLERANCES, compare=False)

    def __post_init__(self):
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

    @property
    def domain(self):
        lo = -_INF if self.b < 0 else -1.0 / self.a
        hi = _INF if self.a > 0 else -1.0 / self.b
        return (lo, hi)

    def g(self, t):
        a, b = self.a, self.b
        return (math.exp(a * t) - math.exp(b * t)) / (a - b)

    def g_prime(self, t):
        a, b = self.a, self.b
        return (a * math.exp(a * t) - b * math.exp(b * t)) / (a - b)

    def g_second(self, t):
        a, b = self.a, self.b
        return (a * a * math.exp(a * t) - b * b * math.exp(b * t)) / (a - b)

    def g_third(self, t):
        a, b = self.a, self.b
        return (a**3 * math.exp(a * t) - b**3 * math.exp(b * t)) / (a - b)

    def g_inv(self, s):
        self.require_in_domain(s)
        return _bracketed_invert(self.g, self.g_prime, s, self.tol)

    def _exps(self, t):
        return _map(math.exp, self.a * t), _map(math.exp, self.b * t)

    def g_array(self, t):
        ea, eb = self._exps(t)
        return (ea - eb) / (self.a - self.b)

    def _g_and_prime_array(self, t):
        """G and G' at t from one pair of exponentials."""
        a, b = self.a, self.b
        ea, eb = self._exps(t)
        return (ea - eb) / (a - b), (a * ea - b * eb) / (a - b)

    def g_prime_array(self, t):
        return self._g_and_prime_array(t)[1]

    def g_second_array(self, t):
        a, b = self.a, self.b
        ea, eb = self._exps(t)
        return (a * a * ea - b * b * eb) / (a - b)

    def g_third_array(self, t):
        a, b = self.a, self.b
        ea, eb = self._exps(t)
        return (a**3 * ea - b**3 * eb) / (a - b)

    def g_inv_array(self, s):
        self.require_in_domain_array(s)
        return _bracketed_invert_array(self.g_array, self._g_and_prime_array, s, self.tol)

    def spec_string(self):
        return f"abe:a={_fmt_param(self.a)},b={_fmt_param(self.b)}"


@dataclass(frozen=True, repr=False)
class SeriesClass(GroupClass):
    """Truncated formal generator t + sum_{k=1}^{m} a_k t^{k+1}/(k+1).

    Only a local group law: the inverse is a Newton iteration seeded at s,
    restricted to the neighbourhood of 0 where G' stays above
    ``tol.series_gprime_min``.
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

    @property
    def domain(self):
        t_lo, t_hi = self._t_range
        return (self.g(t_lo), self.g(t_hi))

    def g(self, t):
        acc = t
        for k in range(1, self.truncation_order + 1):
            acc += self.coeffs[k - 1] * t ** (k + 1) / (k + 1)
        return acc

    def g_prime(self, t):
        acc = 1.0
        for k in range(1, self.truncation_order + 1):
            acc += self.coeffs[k - 1] * t**k
        return acc

    def g_second(self, t):
        acc = 0.0
        for k in range(1, self.truncation_order + 1):
            acc += k * self.coeffs[k - 1] * t ** (k - 1)
        return acc

    def g_third(self, t):
        acc = 0.0
        for k in range(2, self.truncation_order + 1):
            acc += k * (k - 1) * self.coeffs[k - 1] * t ** (k - 2)
        return acc

    def g_inv(self, s):
        self.require_in_domain(s)
        floor = self.tol.series_gprime_min
        t = s  # G is the identity to first order, so s is a good seed
        for _ in range(self.tol.inverse_max_iter):
            slope = self.g_prime(t)
            if slope <= floor:
                raise ConvergenceError(
                    f"series inverse left the monotone region near t={t!r}"
                )
            delta = (self.g(t) - s) / slope
            t -= delta
            if abs(delta) <= self.tol.inverse_abs * (1.0 + abs(t)):
                return t
        raise ConvergenceError(f"series inverse did not converge for s={s!r}")

    def g_array(self, t):
        acc = t
        for k in range(1, self.truncation_order + 1):
            acc = acc + self.coeffs[k - 1] * _pow(t, k + 1) / (k + 1)
        return acc

    def g_prime_array(self, t):
        acc = np.ones(t.shape)
        for k in range(1, self.truncation_order + 1):
            acc = acc + self.coeffs[k - 1] * _pow(t, k)
        return acc

    def g_second_array(self, t):
        acc = np.zeros(t.shape)
        for k in range(1, self.truncation_order + 1):
            acc = acc + k * self.coeffs[k - 1] * _pow(t, k - 1)
        return acc

    def g_third_array(self, t):
        acc = np.zeros(t.shape)
        for k in range(2, self.truncation_order + 1):
            acc = acc + k * (k - 1) * self.coeffs[k - 1] * _pow(t, k - 2)
        return acc

    def g_inv_array(self, s):
        """Masked copy of :meth:`g_inv`: each element leaves on its own."""
        self.require_in_domain_array(s)
        floor = self.tol.series_gprime_min
        t = np.array(s, dtype=float)
        active = np.arange(s.size)
        failures = {}
        for _ in range(self.tol.inverse_max_iter):
            if not active.size:
                break
            ta = t[active]
            slope = self.g_prime_array(ta)
            low = slope <= floor
            for i, ti in zip(active[low].tolist(), ta[low].tolist()):
                failures[i] = f"series inverse left the monotone region near t={ti!r}"
            active, ta, slope = active[~low], ta[~low], slope[~low]
            delta = (self.g_array(ta) - s[active]) / slope
            ta = ta - delta
            t[active] = ta
            active = active[~(np.abs(delta) <= self.tol.inverse_abs * (1.0 + np.abs(ta)))]
        for i, si in zip(active.tolist(), s[active].tolist()):
            failures[i] = f"series inverse did not converge for s={si!r}"
        _raise_first(failures)
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


def _bracketed_invert(g, g_prime, s: float, tol: Tolerances) -> float:
    """Solve g(t) = s: grow a bracket geometrically from [-1, 1], bisect,
    then polish with safeguarded Newton steps.

    While the bracket grows and shrinks, a g(t) that overflows counts as
    +-inf with the sign of t, the limit of an increasing g with g(0) = 0;
    the root itself may be far from overflow.
    """
    if s == 0.0:  # G(0) = 0 for every class; keep the fixed point exact
        return 0.0
    lo, hi = -1.0, 1.0
    grew = 0
    try:
        while g(lo) > s:
            lo *= 2.0
            grew += 1
            if grew > 60:
                raise ConvergenceError(f"failed to bracket inverse for s={s!r}")
    except OverflowError:  # g(lo) = -inf lies below s
        pass
    grew = 0
    try:
        while g(hi) < s:
            hi *= 2.0
            grew += 1
            if grew > 60:
                raise ConvergenceError(f"failed to bracket inverse for s={s!r}")
    except OverflowError:  # g(hi) = +inf lies above s
        pass

    for _ in range(80):  # bisection down to a short interval
        mid = 0.5 * (lo + hi)
        try:
            below = g(mid) < s
        except OverflowError:
            below = mid < 0.0
        if below:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-6 * (1.0 + abs(mid)):
            break

    t = 0.5 * (lo + hi)
    for _ in range(tol.inverse_max_iter):
        delta = (g(t) - s) / g_prime(t)
        t -= delta
        if not lo - 1.0 <= t <= hi + 1.0:  # safeguard: fall back to bracket
            t = 0.5 * (lo + hi)
        if abs(delta) <= tol.inverse_abs * (1.0 + abs(t)):
            return t
    raise ConvergenceError(f"Newton polish did not converge for s={s!r}")


def _g_or_inf(g, t: np.ndarray) -> np.ndarray:
    """g(t), where an element whose g overflows takes +-inf with its sign:
    the rule of the scalar bracket, which guards each g call with ``try``."""
    try:
        return g(t)
    except OverflowError:
        pass
    out = np.empty(t.shape)
    for i, ti in enumerate(t.tolist()):
        try:
            out[i] = g(t[i : i + 1])[0]
        except OverflowError:
            out[i] = math.copysign(_INF, ti)
    return out


def _bracketed_invert_array(g, g_and_prime, s: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Masked vector copy of :func:`_bracketed_invert` over the elements of s.

    Every element takes the scalar's bracket growth, bisection and Newton
    steps and leaves each stage on its own stop rule, so element i is the
    scalar result for s[i] bit for bit.  ``g_and_prime(t)`` returns
    (g(t), g_prime(t)).
    """
    t = np.zeros(s.shape)  # G(0) = 0 keeps the fixed point s = 0 exact
    lo, hi = np.full(s.shape, -1.0), np.full(s.shape, 1.0)
    live = np.flatnonzero(s != 0.0)
    failures = {}
    for edge, outside in ((lo, np.greater), (hi, np.less)):
        active = live
        for _ in range(61):  # the scalar gives up after 60 doublings
            active = active[outside(_g_or_inf(g, edge[active]), s[active])]
            edge[active] *= 2.0
            if not active.size:
                break
        else:
            for i, si in zip(active.tolist(), s[active].tolist()):
                failures[i] = f"failed to bracket inverse for s={si!r}"
            live = np.setdiff1d(live, active)

    active = live
    for _ in range(80):
        if not active.size:
            break
        l, h = lo[active], hi[active]
        mid = 0.5 * (l + h)
        below = _g_or_inf(g, mid) < s[active]
        l, h = np.where(below, mid, l), np.where(below, h, mid)
        lo[active], hi[active] = l, h
        active = active[~(h - l < 1e-6 * (1.0 + np.abs(mid)))]

    t[live] = 0.5 * (lo[live] + hi[live])
    active = live
    for _ in range(tol.inverse_max_iter):
        if not active.size:
            break
        ta = t[active]
        gt, gp = g_and_prime(ta)
        delta = (gt - s[active]) / gp
        ta = ta - delta
        l, h = lo[active], hi[active]
        ta = np.where((l - 1.0 <= ta) & (ta <= h + 1.0), ta, 0.5 * (l + h))
        t[active] = ta
        active = active[~(np.abs(delta) <= tol.inverse_abs * (1.0 + np.abs(ta)))]
    for i, si in zip(active.tolist(), s[active].tolist()):
        failures[i] = f"Newton polish did not converge for s={si!r}"
    _raise_first(failures)
    return t


# ---------------------------------------------------------------------------
# deformed elementary functions
# ---------------------------------------------------------------------------


def log_g(cls: GroupClass, x: float) -> float:
    """Deformed logarithm G(log x), defined for x > 0."""
    if x <= 0.0:
        raise DomainError(f"log_g needs x > 0, got {x!r}")
    return cls.g(math.log(x))


def exp_g(cls: GroupClass, x: float) -> float:
    """Deformed exponential exp(G^{-1}(x)).

    At a finite lower domain edge where G^{-1} diverges to -inf (Tsallis with
    q < 1, Abe with b = 0) the limiting value 0.0 is returned, matching the
    cutoff convention of the closed-form q-exponential.
    """
    lo, hi = cls.domain
    if x == lo and math.isfinite(lo) and cls.t_range[0] == -_INF:
        return 0.0
    cls.require_in_domain(x)
    return math.exp(cls.g_inv(x))


def log_g_array(cls: GroupClass, x: np.ndarray) -> np.ndarray:
    """:func:`log_g` at every element of x; the error names the first x <= 0."""
    bad = x <= 0.0
    if bad.any():
        log_g(cls, x[bad.argmax()].item())
    return cls.g_array(_map(math.log, x))


def exp_g_array(cls: GroupClass, x: np.ndarray) -> np.ndarray:
    """:func:`exp_g` at every element of x, the limiting edge value included."""
    lo = cls.domain[0]
    edge = x == lo if math.isfinite(lo) and cls.t_range[0] == -_INF else np.zeros(x.shape, bool)
    out = np.zeros(x.shape)
    inner = x[~edge]
    cls.require_in_domain_array(inner)
    out[~edge] = _map(math.exp, cls.g_inv_array(inner))
    return out


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
