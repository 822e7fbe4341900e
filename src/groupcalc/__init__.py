"""groupcalc: deformed arithmetic, calculus and quantum spectra generated by
entropy group classes.

A group class is a strictly increasing generator G with G(0) = 0, G'(0) = 1.
Conjugating ordinary addition through G yields a generalized arithmetic; its
coordinate maps induce a deformed differential calculus and, through a
position-dependent momentum, a deformed bound-state problem.  The Tsallis and
Kaniadakis classes reproduce the closed-form q- and kappa-algebras, which are
kept alongside as independent oracles.

The scalar layers (``config``, ``errors``, ``groups``, ``algebra``) are
imported with the package and load no numpy.  The names of ``calculus``,
``spectral`` and ``well``, and those modules themselves, are imported at
their first lookup (``groupcalc.solve_well``, ``from groupcalc import
calculus``, a star import), which is when numpy loads.
"""

from importlib import import_module as _import_module

from .algebra import (
    GInteger,
    clamp_occurred,
    cutoff_pow,
    deform,
    dual_deform,
    dual_g_sum,
    g_div,
    g_integer,
    g_neg,
    g_pow,
    g_prod,
    g_recip,
    g_sub,
    g_sum,
    reset_clamp_flag,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    ConvergenceError,
    DomainError,
    GroupCalcError,
    ParseError,
    ToleranceNotMet,
)
from .groups import (
    BG,
    GroupClass,
    abe,
    cos_g,
    exp_g,
    kaniadakis,
    log_g,
    parse_class_spec,
    series,
    sin_g,
    tsallis,
)

# the names each numpy-backed module exports, imported at the first lookup
_LAZY = {
    "calculus": (
        "Func1D", "dual_g_derivative", "dual_g_integral", "func_from_samples",
        "fundamental_theorem_residual", "g_derivative", "g_integral", "integrate",
    ),
    "spectral": (
        "Grid", "InfiniteWell", "CallablePotential", "Spectrum", "Tridiagonal",
        "WaveFunction", "commutator_check", "cross_check_well", "field_term",
        "hamiltonian_gspace", "hamiltonian_xspace", "hermiticity_defect", "mass_profile",
        "momentum_matrix", "solve_box", "solve_eigen", "solve_well", "transform_state",
    ),
    "well": (
        "WellSolution", "density_cdf", "eigenfunction_g", "eigenfunction_x", "energy",
        "probability_table", "spacing", "spacing_closed_form", "zeros",
        "zeros_obey_group_law",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([name for name in dir() if not name.startswith("_")] + [*_LAZY, *_HOME])


def __getattr__(name):
    """A lazy module of ``_LAZY``, or one of its names, bound here once found."""
    if name in _LAZY:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_HOME[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
