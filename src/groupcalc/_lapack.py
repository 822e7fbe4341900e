"""The LAPACK routines of scipy.linalg, imported on their first call.

``spectral`` binds :func:`eigh_tridiagonal` as a module attribute and looks
it up at call time, and the spline of ``_spline`` calls :func:`solve_banded`
and :func:`solve`, so ``import groupcalc`` and every command that never
solves an eigenproblem or builds a spline load numpy only, not scipy.
"""


def eigh_tridiagonal(d, e, **kwargs):
    """``scipy.linalg.eigh_tridiagonal(d, e, **kwargs)``."""
    from scipy.linalg import eigh_tridiagonal as solve

    return solve(d, e, **kwargs)


def solve_banded(l_and_u, ab, b, **kwargs):
    """``scipy.linalg.solve_banded(l_and_u, ab, b, **kwargs)``."""
    from scipy.linalg import solve_banded as banded

    return banded(l_and_u, ab, b, **kwargs)


def solve(a, b, **kwargs):
    """``scipy.linalg.solve(a, b, **kwargs)``."""
    from scipy.linalg import solve as dense

    return dense(a, b, **kwargs)
