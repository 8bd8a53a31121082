"""Conjugate gradient solver for the assembled SPD systems.

The preconditioner is one symmetric multigrid V-cycle on the mesh hierarchy
of `mesh.prolongations`: Galerkin coarse operators P^T A P of the system's
own matrix, one damped Jacobi sweep before and after each coarse
correction, and a dense pseudo-inverse on the coarsest level, which is A
itself when no hierarchy is given.  Level l damps by 1.6 / rho_l, where
rho_l = max_i sum_j |a_ij| / a_ii bounds the largest eigenvalue of D^-1 A
(Gershgorin), so the smoother contracts and the cycle is SPD for every
lambda, beta and n.  The iteration budget is 10x the dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError, NumericBreakdownError

# largest coarsest level solved densely: its pseudo-inverse takes 8 MB
MAX_DENSE = 1000


@dataclass
class SolveReport:
    iterations: int
    final_relative_residual: float
    converged: bool


def cg_solve(A: sp.csr_array, b: np.ndarray, tol: float = 1e-10, transfers=()):
    """Solve A x = b to a relative residual of tol.

    ``transfers`` holds the ``(P, P.T)`` pairs of the mesh hierarchy,
    finest first (see `mesh.prolongations`).  Returns
    ``(x, SolveReport)``.  Non-convergence is reported, not raised;
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

    precondition = _v_cycle(A, transfers)
    x = np.zeros_like(b)
    r = b.copy()
    z = precondition(r)
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
            z = precondition(r)
            p = z.copy()
            rz = float(r @ z)
            continue
        z = precondition(r)
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


def _v_cycle(A, transfers):
    """The V(1,1) cycle on A's Galerkin hierarchy, as a map of residuals."""
    ops = [A]
    for P, Pt in transfers:
        ops.append(Pt @ ops[-1] @ P)
    if ops[-1].shape[0] > MAX_DENSE:
        raise InvalidArgumentError(f"coarsest level above {MAX_DENSE} unknowns: pass the hierarchy")
    scales = [_jacobi_scale(op) for op in ops[:-1]]
    # a pseudo-inverse: a singular coarse operator must not raise, CG reports it
    coarsest = np.linalg.pinv(ops[-1].toarray(), hermitian=True)

    def cycle(r, level=0):
        if level == len(transfers):
            return coarsest @ r
        op, scale, (P, Pt) = ops[level], scales[level], transfers[level]
        x = scale * r
        x += P @ cycle(Pt @ (r - op @ x), level + 1)
        x += scale * (r - op @ x)
        return x

    return cycle


def _jacobi_scale(A) -> np.ndarray:
    """omega / diag(A) with omega = 1.6 / (Gershgorin bound of D^-1 A)."""
    diag = A.diagonal()
    diag = np.where(diag > 0.0, diag, 1.0)  # A is not PD; CG reports it
    # row sums of |A|: no row of an assembled or Galerkin operator is empty
    row_sums = np.add.reduceat(np.abs(A.data), A.indptr[:-1])
    rho = float(np.max(row_sums / diag))
    return (1.6 / rho) / diag
