"""The LAPACK eigensolver, imported on its first call.

``spectral`` binds :func:`eigh_tridiagonal` as a module attribute and looks
it up at call time, so ``import groupcalc`` and every command that never
solves an eigenproblem load numpy only, not scipy.
"""


def eigh_tridiagonal(d, e, **kwargs):
    """``scipy.linalg.eigh_tridiagonal(d, e, **kwargs)``."""
    from scipy.linalg import eigh_tridiagonal as solve

    return solve(d, e, **kwargs)
