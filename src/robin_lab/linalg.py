"""Conjugate gradient solver for the assembled SPD systems.

Jacobi (diagonal) preconditioning is on by default; the default iteration
budget is 10x the dimension.  A small dense Gaussian-elimination solver is
provided purely as an independent verification channel for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError, NumericBreakdownError


@dataclass
class SolveReport:
    iterations: int
    final_relative_residual: float
    converged: bool
    residual_history: list = field(default_factory=list)


def cg_solve(
    A: sp.csr_array,
    b: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = None,
    precondition: bool = True,
):
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
    if max_iter is None:
        max_iter = 10 * A.shape[0]

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), SolveReport(0, 0.0, True, [0.0])

    inv_diag = None
    if precondition:
        diag = A.diagonal().copy()
        diag[diag <= 0.0] = 1.0
        inv_diag = 1.0 / diag

    def precond(vec):
        return inv_diag * vec if precondition else vec

    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    history = [1.0]
    restarts_left = 5

    iterations = 0
    while iterations < max_iter:
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
        history.append(rel)
        if rel <= tol:
            true_r = b - A @ x
            if float(np.linalg.norm(true_r)) / b_norm <= tol:
                break
            if restarts_left == 0:
                break
            # recurrence drifted from the true residual; restart cleanly
            restarts_left -= 1
            r = true_r
            z = precond(r)
            p = z.copy()
            rz = float(r @ z)
            continue
        z = precond(r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next

    final_rel = float(np.linalg.norm(b - A @ x)) / b_norm
    report = SolveReport(
        iterations=iterations,
        final_relative_residual=final_rel,
        converged=final_rel <= tol,
        residual_history=history,
    )
    return x, report


def quadratic_form(A: sp.csr_array, v: np.ndarray) -> float:
    """v' A v."""
    v = np.asarray(v, dtype=float)
    if v.shape != (A.shape[0],):
        raise InvalidArgumentError(
            f"vector has shape {v.shape}, expected ({A.shape[0]},)"
        )
    return float(v @ (A @ v))


def gauss_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense Gaussian elimination with partial pivoting (test oracle only)."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise InvalidArgumentError("gauss_solve expects a square matrix and a vector")
    if n > 2000:
        raise InvalidArgumentError("gauss_solve is a desk-scale oracle (n <= 2000)")
    for k in range(n):
        pivot = k + int(np.argmax(np.abs(a[k:, k])))
        if np.abs(a[pivot, k]) < 1e-300:
            raise NumericBreakdownError("singular matrix in gauss_solve")
        if pivot != k:
            a[[k, pivot]] = a[[pivot, k]]
            b[[k, pivot]] = b[[pivot, k]]
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k:] -= factors[:, None] * a[k, k:]
        b[k + 1 :] -= factors * b[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    return x
