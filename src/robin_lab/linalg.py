"""Conjugate gradient for a family of SPD systems (A + w_i B_i) x_i = b.

The members share A = K + lambda M, b and the mesh hierarchy.  A family is
one batched solve, independent CG on the columns of an (n, N) block (not
block CG: no step mixes members), updated in place in buffers allocated
once.  A column that meets its tolerance freezes while the others go on.
Column reductions sum each member's own contiguous row, never across rows
and never through BLAS, so a member's bits depend neither on its place in
the family nor on the thread count.

The preconditioner is one symmetric V(1,1) multigrid cycle on the hierarchy
of `mesh.prolongations`, built once per family: per level P^T A P and, for
each distinct B (constant members share B(1)), P^T B P, read sorted into one
CSR of every member's nonempty rows with columns interleaved like the
raveled block, so an apply is A X plus one boundary product scaled by the
weights, whatever N is.
Member i is smoothed by Jacobi damped by 1.6 over the Gershgorin bound of
D^-1 (A + w_i B_i), from the row sums of |A| + |w_i B_i|, so the cycle is
SPD for every lambda, beta and n.  The coarsest level (A itself without a
hierarchy) is inverted by one stacked Cholesky factorisation, with the
pseudo-inverse for a member whose factorisation fails: CG then reports the
singular operator as non-convergence.  The budget is 10 iterations per
unknown.  b is solved for at the scale 2^-e that brings max |b| into [1/2, 1),
exactly, so any finite load has the bits of its scaled solve times 2^e.
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
    B_i may be any scipy sparse matrix, and it is never modified.

    ``transfers`` holds the prolongations P of the mesh hierarchy, finest
    first, as `mesh.prolongations` returns them.  Returns ``(X, SolveReport)``
    with member i's solution in row i of X.  Non-convergence is reported,
    not raised.  An empty ``boundary`` raises :class:`InvalidArgumentError`.
    A B_i that is not n x n or a non-finite w_i raises it too, and a
    non-finite intermediate value :class:`NumericBreakdownError`, each
    noted with the member's index.
    """
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if b.shape != (n,):
        raise InvalidArgumentError(f"right-hand side has shape {b.shape}, expected ({n},)")
    if not tol > 0.0:  # NaN included
        raise InvalidArgumentError(f"tol must be > 0, got {tol}")
    boundary = [(sp.csr_array((n, n)), 0.0)] if boundary is None else boundary
    if len(boundary) == 0:
        raise InvalidArgumentError("boundary holds no (B, w) term: the family is empty")
    for i, (B, w) in enumerate(boundary):
        if B.shape != (n, n) or not np.isfinite(w):
            message = f"boundary term of shape {B.shape}, weight {w}: expected ({n}, {n}), finite"
            raise noted_member(InvalidArgumentError(message), i)
    size = len(boundary)

    # b / 2^scale is exact, and its b * b can neither overflow nor underflow to 0
    scale = int(np.frexp(np.max(np.abs(b), initial=0.0))[1])
    b = np.ldexp(b, -scale)
    b_norm = float(np.sqrt(np.sum(b * b)))
    if not np.isfinite(b_norm):
        raise NumericBreakdownError("norm of the right-hand side is not finite")
    if b_norm == 0.0:
        return np.zeros((size, n)), SolveReport(0, 0.0, True, [0] * size, [0.0] * size)

    with np.errstate(all="ignore"):  # non-finite values are caught below
        apply, precondition = _multigrid(A, boundary, transfers)
        x, r = np.zeros((n, size)), np.repeat(b[:, None], size, axis=1)
        p, work = precondition(r).copy(), (np.empty((n, size)), np.empty((size, n)))
        rz = _dots(r, p, work)
        iterations, restarts_left = np.zeros(size, dtype=int), np.full(size, 5)
        active = np.ones(size, dtype=bool)
        while True:
            active &= iterations < 10 * n
            if not active.any():
                break
            iterations += active
            Ap = apply(p)
            pAp = _dots(p, Ap, work)
            _check_finite(pAp, active, "non-finite value in conjugate gradient")
            active &= pAp > 0.0  # nonpositive curvature: not PD, give up
            alpha = np.divide(rz, pAp, out=np.zeros(size), where=active)
            x += np.multiply(alpha, p, out=work[0])
            r -= np.multiply(alpha, Ap, out=Ap)
            del Ap  # not held through the cycle
            rel = np.sqrt(_dots(r, r, work)) / b_norm
            _check_finite(rel, active, "non-finite residual in conjugate gradient")
            restart = active & (rel <= tol)
            if restart.any():
                true_r = apply(x)  # b - A x in place: one block less at the peak
                np.subtract(b[:, None], true_r, out=true_r)
                true_ok = np.sqrt(_dots(true_r, true_r, work)) / b_norm <= tol
                done = restart & (true_ok | (restarts_left == 0))
                # the recurrence drifted from the true residual: restart cleanly
                restart &= ~done
                restarts_left -= restart
                r[:, restart] = true_r[:, restart]
                active &= ~done
            z = precondition(r)
            rz_next = _dots(r, z, work)
            p *= np.divide(rz_next, rz, out=np.zeros(size), where=active & ~restart)
            p += z
            rz = rz_next
        true_r = apply(x)
        np.subtract(b[:, None], true_r, out=true_r)
        residuals = np.sqrt(_dots(true_r, true_r, work)) / b_norm
        x = np.ldexp(x.T, scale, order="C")
    _check_finite(np.abs(x).max(axis=1), True, "solution is not finite at the load's scale")

    converged = bool(np.all(residuals <= tol))
    totals = (int(iterations.sum()), float(residuals.max(initial=0.0)), converged)
    return x, SolveReport(*totals, iterations.tolist(), residuals.tolist())


def _dots(a, b, work) -> np.ndarray:
    """Column inner products of two (n, N) blocks, each member's products
    summed along its own contiguous row of a member-major copy, so with the
    bits of a lone vector's sum; ``work`` holds an (n, N) and an (N, n) block."""
    products, rows = work
    rows[...] = np.multiply(a, b, out=products).T
    return np.sum(rows, axis=1)


def _check_finite(values, active, message) -> None:
    bad = np.flatnonzero(active & ~np.isfinite(values))
    if bad.size:
        raise noted_member(NumericBreakdownError(message), bad[0])


def _multigrid(A, boundary, transfers):
    """The map X -> (A + w_i B_i) X[:, i] on (n, N) blocks, and the cycle."""
    transfers = [(P, P.T.tocsr()) for P in transfers]
    weights = np.array([w for _, w in boundary], dtype=float)
    distinct = {}  # id(B) -> (its chain, B): constant members share B(1)
    member = [distinct.setdefault(id(B), (len(distinct), B))[0] for B, _ in boundary]

    def terms(op, images):
        """The Jacobi scales and the boundary terms as one CSR on the raveled (n, N)
        block: row (k, i) is B_i's k-th nonempty row, column c N + i is member i's vertex c."""
        for B in images:  # read sorted, once the coarser images are made from them
            B.sort_indices()
        n, size, scale = op.shape[0], len(member), _jacobi_scales(op, images, member, weights)
        lengths = np.diff([B.indptr for B in images])[member]
        members, rows = np.nonzero(lengths)
        dtype = sp.get_index_dtype(maxval=n * size)
        cols = np.concatenate([images[k].indices for k in member]).astype(dtype, copy=False) * size
        cols += np.repeat(np.arange(size, dtype=dtype), [images[k].nnz for k in member])
        indptr = np.cumsum(np.append(0, lengths[members, rows]), dtype=dtype)
        data = np.concatenate([images[k].data for k in member])
        S = sp.csr_array((data, cols, indptr), shape=(len(rows), n * size))
        return scale, S, rows * size + members, weights[members]

    ops, levels, images = [A], [], [sp.csr_array(B) for _, B in distinct.values()]
    # B itself if it is canonical CSR, else a sorted copy: no B is sorted in place
    images = [B if B.has_canonical_format else B.sorted_indices() for B in images]
    for P, Pt in transfers:
        ops.append(Pt @ ops[-1] @ P)
        images, fine = [Pt @ B @ P for B in images], images
        levels.append(terms(ops[-2], fine))
    if ops[-1].shape[0] > MAX_DENSE:
        raise InvalidArgumentError(f"coarsest level above {MAX_DENSE} unknowns: pass the hierarchy")
    levels.append(terms(ops[-1], images))  # applied only when the coarsest is the finest
    blocks = np.array([B.toarray() for B in images])[member]
    coarsest = _inverses(ops[-1].toarray() + blocks * weights[:, None, None])
    xs = [np.empty((op.shape[0], len(member))) for op in ops[:-1]]

    def apply(x, level=0):
        _, S, where, w = levels[level]
        y = ops[level] @ x
        np.add.at(y.ravel(), where, (S @ x.ravel()) * w)
        return y

    # no closure refers to itself, so the hierarchy is freed on return, not
    # by the cyclic garbage collector after the rest of the run
    hierarchy = (transfers, [scale for scale, *_ in levels], xs, coarsest, apply)
    return apply, lambda r: _cycle(r, hierarchy)


def _cycle(r, hierarchy, level=0):
    """One V(1,1) cycle on the (n, N) block r from ``level`` down."""
    transfers, scales, xs, coarsest, apply = hierarchy
    if level == len(transfers):
        return np.einsum("nij,nj->in", coarsest, np.ascontiguousarray(r.T))
    (P, Pt), scale, x = transfers[level], scales[level], xs[level]
    np.multiply(scale, r, out=x)
    y = apply(x, level)
    y = Pt @ np.subtract(r, y, out=y)  # the fine block is freed before the recursion
    x += P @ _cycle(y, hierarchy, level + 1)
    y = apply(x, level)
    x += np.multiply(scale, np.subtract(r, y, out=y), out=y)
    return x


def _jacobi_scales(A, images, member, weights) -> np.ndarray:
    """omega_i / diag(A + w_i B_i) as an (n, N) block, omega_i = 1.6 over the
    Gershgorin bound of D^-1 (A + w_i B_i), B_i = images[member[i]]."""
    diag = np.take(np.stack([B.diagonal() for B in images], axis=1), member, axis=1) * weights
    diag += A.diagonal()[:, None]
    # row sums of |B| by row id, in abs(B) @ 1's order, and of |A|, no row of which is empty
    sums = [np.bincount(np.repeat(np.arange(B.shape[0]), np.diff(B.indptr)), np.abs(B.data),
                        minlength=B.shape[0]) for B in images]  # int64 for a B with no entries
    sums = np.take(np.stack(sums, axis=1, dtype=float), member, axis=1)
    sums *= np.abs(weights)
    sums += np.add.reduceat(np.abs(A.data), A.indptr[:-1])[:, None]
    diag[~(diag > 0.0)] = 1.0  # A is not PD; CG reports it
    return np.divide(1.6 / np.max(sums / diag, axis=0), diag, out=diag)


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
