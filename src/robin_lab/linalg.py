"""Conjugate gradient for a family of SPD systems (A + w_i B_i) x_i = b.

The members share A = K + lambda M, b and the mesh hierarchy.  A family is
one batched solve, independent CG on the columns of an (n, N) block (not
block CG: no step mixes members).  A column that meets its tolerance
freezes while the others go on.  Column reductions sum each member's own
contiguous row, never across rows and never through BLAS, so a member's
bits depend neither on its place in the family nor on the thread count.

The preconditioner is one symmetric V(1,1) multigrid cycle on the hierarchy
of `mesh.prolongations`, built once per family: P^T A P per level, and
P^T B P per distinct B (constant members share B(1)).  Member i is smoothed
by Jacobi damped by 1.6 over the Gershgorin bound of D^-1 (A + w_i B_i),
taken from the row sums of |A| + |w_i B_i|, so the cycle is SPD for every
lambda, beta and n.  The coarsest level (A itself without a hierarchy) is
inverted by one stacked Cholesky factorisation, with the pseudo-inverse
for a member whose factorisation fails: CG then reports the singular
operator as non-convergence.  The budget is 10 iterations per unknown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError, NumericBreakdownError, noted_member

# largest coarsest level solved densely: its inverse takes 8 MB per member
MAX_DENSE = 1000


@dataclass
class SolveReport:
    iterations: int  # summed over the members
    final_relative_residual: float  # the largest member's
    converged: bool  # every member's
    member_iterations: list
    member_residuals: list  # each member's true final relative residual


def cg_solve(A: sp.csr_array, b: np.ndarray, tol: float = 1e-10, transfers=(), boundary=None):
    """Solve (A + w_i B_i) x_i = b to a relative residual of tol for each
    (B_i, w_i) of ``boundary``; without it, the one member solves A x = b.

    ``transfers`` holds the prolongations P of the mesh hierarchy, finest
    first, as `mesh.prolongations` returns them.  Returns ``(X, SolveReport)``
    with member i's solution in row i of X.  Non-convergence is reported,
    not raised; a non-finite intermediate value raises
    :class:`NumericBreakdownError` noted with the member's index.
    """
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if b.shape != (n,):
        raise InvalidArgumentError(f"right-hand side has shape {b.shape}, expected ({n},)")
    if not tol > 0.0:  # NaN included
        raise InvalidArgumentError(f"tol must be > 0, got {tol}")
    boundary = [(sp.csr_array((n, n)), 0.0)] if boundary is None else boundary
    size = len(boundary)

    with np.errstate(over="ignore"):  # an overflow gives inf, raised below
        b_norm = float(np.sqrt(np.sum(b * b)))
    if not np.isfinite(b_norm):
        raise NumericBreakdownError("norm of the right-hand side is not finite")
    if b_norm == 0.0:
        return np.zeros((size, n)), SolveReport(0, 0.0, True, [0] * size, [0.0] * size)
    apply, precondition = _multigrid(A, boundary, transfers)

    with np.errstate(all="ignore"):  # non-finite values are caught below
        x, r = np.zeros((n, size)), np.repeat(b[:, None], size, axis=1)
        p = precondition(r)
        rz = _dots(r, p)
        iterations, restarts_left = np.zeros(size, dtype=int), np.full(size, 5)
        active = np.ones(size, dtype=bool)
        while True:
            active &= iterations < 10 * n
            if not active.any():
                break
            iterations += active
            Ap = apply(p)
            pAp = _dots(p, Ap)
            _check_finite(pAp, active, "non-finite value in conjugate gradient")
            active &= pAp > 0.0  # nonpositive curvature: not PD, give up
            alpha = np.divide(rz, pAp, out=np.zeros(size), where=active)
            x += alpha * p
            r -= alpha * Ap
            rel = np.sqrt(_dots(r, r)) / b_norm
            _check_finite(rel, active, "non-finite residual in conjugate gradient")
            restart = active & (rel <= tol)
            if restart.any():
                true_r = b[:, None] - apply(x)
                true_ok = np.sqrt(_dots(true_r, true_r)) / b_norm <= tol
                done = restart & (true_ok | (restarts_left == 0))
                # the recurrence drifted from the true residual: restart cleanly
                restart &= ~done
                restarts_left -= restart
                r[:, restart] = true_r[:, restart]
                active &= ~done
            z = precondition(r)
            rz_next = _dots(r, z)
            p = z + np.divide(rz_next, rz, out=np.zeros(size), where=active & ~restart) * p
            rz = rz_next
        true_r = b[:, None] - apply(x)
        residuals = np.sqrt(_dots(true_r, true_r)) / b_norm

    converged = bool(np.all(residuals <= tol))
    totals = (int(iterations.sum()), float(residuals.max(initial=0.0)), converged)
    return x.T.copy(), SolveReport(*totals, iterations.tolist(), residuals.tolist())


def _dots(a, b) -> np.ndarray:
    """Column inner products of two (n, N) blocks, each summed along its
    own contiguous row, so with the bits of a lone vector's sum."""
    return np.sum(np.ascontiguousarray((a * b).T), axis=1)


def _check_finite(values, active, message) -> None:
    bad = np.flatnonzero(active & ~np.isfinite(values))
    if bad.size:
        raise noted_member(NumericBreakdownError(message), bad[0])


def _multigrid(A, boundary, transfers):
    """The map X -> (A + w_i B_i) X[:, i] on (n, N) blocks, and the cycle."""
    transfers = [(P, P.T.tocsr()) for P in transfers]

    def galerkin(M):
        images = [M]
        for P, Pt in transfers:
            images.append(Pt @ images[-1] @ P)
        return images

    ops = galerkin(A)
    if ops[-1].shape[0] > MAX_DENSE:
        raise InvalidArgumentError(f"coarsest level above {MAX_DENSE} unknowns: pass the hierarchy")
    # a run of consecutive members that share a B is one group, a slice of
    # the columns; each distinct B's Galerkin images are formed once
    starts = [i for i, (B, _) in enumerate(boundary) if i == 0 or B is not boundary[i - 1][0]]
    groups = [slice(a, b) for a, b in zip(starts, starts[1:] + [len(boundary)])]
    weights = np.array([w for _, w in boundary], dtype=float)
    chains = {id(B): B for B, _ in boundary}
    chains = {key: galerkin(B) for key, B in chains.items()}
    mats = [[chains[id(boundary[g.start][0])][level] for g in groups] for level in range(len(ops))]

    def apply(x, level=0):
        y = ops[level] @ x
        for B, cols in zip(mats[level], groups):
            y[:, cols] += (B @ x[:, cols]) * weights[cols]
        return y

    scales = [_jacobi_scales(op, level, groups, weights) for op, level in zip(ops, mats[:-1])]
    dense = np.repeat(ops[-1].toarray()[None], len(weights), axis=0)
    for B, cols in zip(mats[-1], groups):
        dense[cols] += B.toarray() * weights[cols, None, None]
    coarsest = _inverses(dense)

    def cycle(r, level=0):
        if level == len(transfers):
            return np.einsum("nij,nj->in", coarsest, np.ascontiguousarray(r.T))
        scale, (P, Pt) = scales[level], transfers[level]
        x = scale * r
        x += P @ cycle(Pt @ (r - apply(x, level)), level + 1)
        x += scale * (r - apply(x, level))
        return x

    return apply, cycle


def _jacobi_scales(A, mats, groups, weights) -> np.ndarray:
    """omega_i / diag(A + w_i B_i) as an (n, N) block, with omega_i = 1.6
    over the Gershgorin bound of D^-1 (A + w_i B_i)."""
    diag = np.repeat(A.diagonal()[:, None], len(weights), axis=1)
    # row sums of |A|: no row of an assembled or Galerkin operator is empty
    rows = np.repeat(np.add.reduceat(np.abs(A.data), A.indptr[:-1])[:, None], len(weights), axis=1)
    for B, cols in zip(mats, groups):
        diag[:, cols] += B.diagonal()[:, None] * weights[cols]
        rows[:, cols] += (abs(B) @ np.ones(B.shape[1]))[:, None] * np.abs(weights[cols])
    diag = np.where(diag > 0.0, diag, 1.0)  # A is not PD; CG reports it
    return (1.6 / np.max(rows / diag, axis=0)) / diag


def _inverses(a) -> np.ndarray:
    """Inverses of stacked SPD matrices by Cholesky; a member whose
    factorisation fails gets its pseudo-inverse, the others keep theirs."""
    try:
        inv_l = np.linalg.inv(np.linalg.cholesky(a))
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.linalg.pinv(a, hermitian=True)
        return np.concatenate([_inverses(one[None]) for one in a])
    return np.swapaxes(inv_l, -1, -2) @ inv_l
