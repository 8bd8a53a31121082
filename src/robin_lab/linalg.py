"""Conjugate gradient solver for the assembled SPD systems.

The iteration is Jacobi (diagonal) preconditioned; the iteration budget is
10x the dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError, NumericBreakdownError


@dataclass
class SolveReport:
    iterations: int
    final_relative_residual: float
    converged: bool


def cg_solve(A: sp.csr_array, b: np.ndarray, tol: float = 1e-10):
    """Solve A x = b to a relative residual of tol.

    Returns ``(x, SolveReport)``.  Non-convergence is reported, not raised;
    non-finite intermediate values raise :class:`NumericBreakdownError`.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (A.shape[0],):
        raise InvalidArgumentError(
            f"right-hand side has shape {b.shape}, expected ({A.shape[0]},)"
        )
    if not tol > 0.0:  # NaN included
        raise InvalidArgumentError(f"tol must be > 0, got {tol}")

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), SolveReport(0, 0.0, True)

    diag = A.diagonal().copy()
    diag[diag <= 0.0] = 1.0
    inv_diag = 1.0 / diag

    x = np.zeros_like(b)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    restarts_left = 5

    iterations = 0
    while iterations < 10 * A.shape[0]:
        iterations += 1
        Ap = A @ p
        pAp = float(p @ Ap)
        if not np.isfinite(pAp):
            raise NumericBreakdownError("non-finite value in conjugate gradient")
        if pAp <= 0.0:
            # direction of nonpositive curvature: matrix is not PD, give up
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rel = float(np.linalg.norm(r)) / b_norm
        if not np.isfinite(rel):
            raise NumericBreakdownError("non-finite residual in conjugate gradient")
        if rel <= tol:
            true_r = b - A @ x
            if float(np.linalg.norm(true_r)) / b_norm <= tol:
                break
            if restarts_left == 0:
                break
            # recurrence drifted from the true residual; restart cleanly
            restarts_left -= 1
            r = true_r
            z = inv_diag * r
            p = z.copy()
            rz = float(r @ z)
            continue
        z = inv_diag * r
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next

    final_rel = float(np.linalg.norm(b - A @ x)) / b_norm
    report = SolveReport(
        iterations=iterations,
        final_relative_residual=final_rel,
        converged=final_rel <= tol,
    )
    return x, report
