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

Each scalar method, the domain checks, ``log_g`` and ``exp_g`` have an
array form (``g_array``, ..., ``require_in_domain_array``, ``log_g_array``)
for 1-d float arrays, whose every element equals the scalar result bit for
bit.  Each formula is written once, over a private trailing namespace
argument ``_m`` (see :mod:`groupcalc._libm`); its array form runs that same
formula over ``_Array``, which calls libm once per element and raises the
scalar's error for the first element that has one.  A subclass of
:class:`GroupClass` that defines only scalar methods gets array forms that
loop over them.  The numerically inverted classes run their inversions as
masked vector copies of the scalar iterations, in which every element takes
the scalar's steps and stops on its own.  The abe inverse takes each bracket
and bisection decision "G(t) < s" from numpy's vector ``exp`` where that G
lies further from s than two faithful exps can part (``_EXP_MARGIN``), and
from libm elsewhere; its Newton polish stays on libm.  Arrays shorter than
``_VECTOR_INVERT_MIN`` take the scalar inverse per element.  An array with
an element outside the domain raises the scalar's DomainError for the first
such element, before any other error.
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


def _raise_first(failures: dict) -> None:
    """Raise the ConvergenceError a node-by-node loop would have met first."""
    if failures:
        raise ConvergenceError(failures[min(failures)])


def _over_array(name):
    """The array form of method ``name``: its formula run over _Array."""
    return lambda self, *args: _Array.run(getattr(self, name), *args)


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


class _ClosedInverse(_OneFormula):
    """A built-in class whose G^{-1} and A are formulas over ``_m`` too."""

    g_inv_array = _over_array("g_inv")

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

    @property
    def gamma(self) -> float:
        return 1.0 - self.q

    @property
    def domain(self):
        edge = -1.0 / self.gamma
        return (edge, _INF) if self.gamma > 0 else (-_INF, edge)

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
        return _m.sqrt(1.0 + _m.pow(self.kappa * x, 2))

    def spec_string(self):
        return f"kaniadakis:k={_fmt_param(self.kappa)}"


@dataclass(frozen=True, repr=False)
class AbeClass(_OneFormula):
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

    def g_inv(self, s):
        self.require_in_domain(s)
        return _bracketed_invert(self.g, self.g_prime, s, self.tol)

    def g_inv_array(self, s):
        _Array.require_in_domain(self, s)
        if s.size < _VECTOR_INVERT_MIN:
            return _Array.each(lambda si: _bracketed_invert(self.g, self.g_prime, si, self.tol), s)
        return _Array.run(
            _bracketed_invert_array, self.g, self.g_prime, self._g_against, s, self.tol
        )

    def _g_against(self, t, s):
        """An array on the side of s where G(t) lies at every element, G(t) as
        the scalar bracket takes it (libm's exp, an overflow as +-inf).

        It is G(t) by numpy's exp where that lies more than ``_EXP_MARGIN``
        of the exponentials' size away from s: further than two faithful
        exps can part it from libm's G.  Elsewhere, and where a value is not
        finite or an exp nears overflow, it is libm's G.
        """
        a, b = self.a, self.b
        ea, eb = np.exp(a * t), np.exp(b * t)
        size = ea + eb
        g = (ea - eb) / (a - b)
        sure = (np.abs(g - s) > _EXP_MARGIN / abs(a - b) * size) & (size < _EXP_CEIL)
        if not sure.all():
            unsure = ~sure
            g[unsure] = _g_or_inf(self.g, t[unsure], _Array)
        return g

    def spec_string(self):
        return f"abe:a={_fmt_param(self.a)},b={_fmt_param(self.b)}"


@dataclass(frozen=True, repr=False)
class SeriesClass(_OneFormula):
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

    def g(self, t, _m=_Scalar):
        acc = t  # acc = acc + ..., since += would write into an array t
        for k in range(1, self.truncation_order + 1):
            acc = acc + self.coeffs[k - 1] * _m.pow(t, k + 1) / (k + 1)
        return acc

    def g_prime(self, t, _m=_Scalar):
        acc = 1.0  # order >= 1, so an array t makes acc an array
        for k in range(1, self.truncation_order + 1):
            acc = acc + self.coeffs[k - 1] * _m.pow(t, k)
        return acc

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

    def g_inv_array(self, s):
        """Masked copy of :meth:`g_inv`: each element leaves on its own."""
        _Array.require_in_domain(self, s)
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


# Below this many elements the abe array inverse calls the scalar one per
# element.  Its ~25 vector steps cost ~0.5 ms whatever the length, the
# scalar inverse 10-15 us per element, and they break even at 50-80 elements.
_VECTOR_INVERT_MIN = 64
# The relative gap, in units of (e^{at} + e^{bt})/|a - b|, beyond which G(t)
# from numpy's exp decides a bracket or bisection step.  Two exps that are
# faithful (error < 1 ulp) put G within ~1e-15 of that unit of each other, so
# the margin is ~1e6 times wider than any gap they can open.  libm still takes
# a decision for about 1 element in 1000, whose bisection passes that close
# to its root.
_EXP_MARGIN = 1e-9
# Where numpy's e^{at} + e^{bt} stays below this, far under DBL_MAX = 1.8e308,
# no libm exp overflows; where a libm exp overflows, numpy's sum passes it.
_EXP_CEIL = 1e307


def _g_or_inf(g, t: np.ndarray, _m) -> np.ndarray:
    """g(t), where an element whose g overflows takes +-inf with its sign:
    the rule of the scalar bracket, which guards each g call with ``try``."""
    try:
        return g(t, _m)
    except OverflowError:
        pass
    out = np.empty(t.shape)
    for i, ti in enumerate(t.tolist()):
        try:
            out[i] = g(t[i : i + 1], _m)[0]
        except OverflowError:
            out[i] = math.copysign(_INF, ti)
    return out


def _bracketed_invert_array(
    g, g_prime, g_against, s: np.ndarray, tol: Tolerances, _m
) -> np.ndarray:
    """Masked vector copy of :func:`_bracketed_invert` over the elements of s,
    with g and g_prime taken over the namespace ``_m``.

    Every element takes the scalar's bracket growth, bisection and Newton
    steps and leaves each stage on its own stop rule, so element i is the
    scalar result for s[i] bit for bit.  ``g_against(t, s)`` takes the
    bracket and bisection decisions: at every element it is on the same side
    of s as the scalar's g(t), an overflow counting as +-inf.
    """
    t = np.zeros(s.shape)  # G(0) = 0 keeps the fixed point s = 0 exact
    lo, hi = np.full(s.shape, -1.0), np.full(s.shape, 1.0)
    live = np.flatnonzero(s != 0.0)
    failures = {}
    for edge, outside in ((lo, np.greater), (hi, np.less)):
        active = live
        for _ in range(61):  # the scalar gives up after 60 doublings
            active = active[outside(g_against(edge[active], s[active]), s[active])]
            edge[active] *= 2.0
            if not active.size:
                break
        else:
            for i, si in zip(active.tolist(), s[active].tolist()):
                failures[i] = f"failed to bracket inverse for s={si!r}"
            live = np.setdiff1d(live, active)

    active = live
    l, h, sa = lo[active], hi[active], s[active]
    for _ in range(80):
        if not active.size:
            break
        mid = 0.5 * (l + h)
        below = g_against(mid, sa) < sa
        l, h = np.where(below, mid, l), np.where(below, h, mid)
        short = h - l < 1e-6 * (1.0 + np.abs(mid))
        if short.any():  # these leave: store their bracket
            lo[active[short]], hi[active[short]] = l[short], h[short]
            going = ~short
            active, l, h, sa = active[going], l[going], h[going], sa[going]
    lo[active], hi[active] = l, h

    t[live] = 0.5 * (lo[live] + hi[live])
    active = live
    for _ in range(tol.inverse_max_iter):
        if not active.size:
            break
        ta = t[active]
        delta = (g(ta, _m) - s[active]) / g_prime(ta, _m)
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
