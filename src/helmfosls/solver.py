"""Complex sparse direct solvers for the assembled systems.

Both system kinds are factored by one sparse LU (SuperLU) with the
minimum-degree ordering of A^T + A in symmetric mode.  The least-squares
system is Hermitian positive definite (Cai, Lazarov, Manteuffel &
McCormick, SIAM J. Numer. Anal. 1994), so it is factored without
pivoting, and that structure is checked on every solve: a positive
diagonal, no off-diagonal pivot and a real positive U diagonal.  The
classical FEM system is complex symmetric indefinite and keeps threshold
partial pivoting.  The reported residual is always recomputed from the
matrix.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .fosls import CLASSICAL_FEM, FOSLS, galerkin_residual

RESIDUAL_TOL = 1e-10
# SuperLU pivots off the diagonal only when |a_jj| < t * max |a_ij|
HPD_PIVOT_THRESH = 0.0
GENERAL_PIVOT_THRESH = 0.1
# Hermitian pivots are real up to rounding (|imag| / real <= 2e-13 on
# the systems of the tests); a non-Hermitian matrix gives O(1) ratios
PIVOT_IMAG_RTOL = 1e-8


class SolverError(RuntimeError):
    """The factorization failed or its result did not pass the checks."""


@dataclass
class SolveReport:
    """Solution vector with the factor's smallest |pivot| and fill."""

    solution: np.ndarray
    iterations: int  # always 0: both solves are direct
    relative_residual: float
    min_pivot: float
    fill: int


def _factor_solve(system, hpd):
    A = system.matrix.astype(complex, copy=False)
    if hpd and np.any(A.diagonal().real <= 0):
        raise SolverError("matrix has nonpositive diagonal; not HPD")
    try:
        # A.T of a CSR matrix is a CSC view; solve with trans="T" undoes it.
        # relax and panel_size stay at SuperLU's defaults: on the FOSLS
        # matrix of plane-wave k=8, p=3, n=20 (scipy 1.17.1), relax=32 with
        # panel_size=16 corrupted the interpreter's heap, seen as an abort
        # or an error deleting an interned string at exit, and smaller
        # supernodes saved at most about 15 % of the factorization
        lu = scipy.sparse.linalg.splu(
            A.T, permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=HPD_PIVOT_THRESH if hpd else GENERAL_PIVOT_THRESH,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SolverError(f"LU factorization failed: {exc}") from exc
    # the first lu.U builds CSC copies of both factors, L and U, and keeps
    # them on lu (a later lu.L is free); scipy's SuperLU has no copy-free
    # access to the diagonal (only L, U, nnz, perm_c, perm_r, shape, solve)
    pivots = lu.U.diagonal()
    if hpd:
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise SolverError("LU pivoted off the diagonal; not HPD")
        if np.any(pivots.real <= 0) or np.any(
            np.abs(pivots.imag) > PIVOT_IMAG_RTOL * pivots.real
        ):
            raise SolverError("U has a non-real or nonpositive pivot; not HPD")
    x = lu.solve(system.rhs, trans="T")
    if not np.all(np.isfinite(x)):
        raise SolverError("LU solve produced non-finite entries (singular matrix?)")
    res = galerkin_residual(system, x)
    if res > RESIDUAL_TOL:
        raise SolverError(f"residual {res:.3e} above tolerance {RESIDUAL_TOL:g}")
    return SolveReport(x, 0, res, float(np.min(np.abs(pivots))), int(lu.nnz))


def solve_hpd(system):
    """Solve a Hermitian positive definite least-squares system."""
    if system.kind != FOSLS:
        raise ValueError("solve_hpd expects a least-squares system")
    return _factor_solve(system, hpd=True)


def solve_general(system):
    """Solve a general (complex symmetric indefinite) system by LU."""
    if system.kind != CLASSICAL_FEM:
        raise ValueError("solve_general expects a classical FEM system")
    return _factor_solve(system, hpd=False)
