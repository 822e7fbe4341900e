"""groupcalc: deformed arithmetic, calculus and quantum spectra generated by
entropy group classes.

A group class is a strictly increasing generator G with G(0) = 0, G'(0) = 1.
Conjugating ordinary addition through G yields a generalized arithmetic; its
coordinate maps induce a deformed differential calculus and, through a
position-dependent momentum, a deformed bound-state problem.  The Tsallis and
Kaniadakis classes reproduce the closed-form q- and kappa-algebras, which are
kept alongside as independent oracles.
"""

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
from .calculus import (
    Func1D,
    dual_g_derivative,
    dual_g_integral,
    func_from_samples,
    fundamental_theorem_residual,
    g_derivative,
    g_integral,
    integrate,
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
from .spectral import (
    Grid,
    InfiniteWell,
    CallablePotential,
    Spectrum,
    Tridiagonal,
    WaveFunction,
    commutator_check,
    cross_check_well,
    field_term,
    hamiltonian_gspace,
    hamiltonian_xspace,
    hermiticity_defect,
    mass_profile,
    momentum_matrix,
    solve_box,
    solve_eigen,
    solve_well,
    transform_state,
)
from .well import (
    WellSolution,
    density_cdf,
    eigenfunction_g,
    eigenfunction_x,
    energy,
    probability_table,
    spacing,
    spacing_closed_form,
    zeros,
    zeros_obey_group_law,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
