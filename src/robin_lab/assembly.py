"""P1 Galerkin assembly of the Robin operator K + lambda*M + B.

K and M (consistent or row-sum-lumped) share one element rule: cell T
contributes |T| (G G^T + lambda P), with |T| the mesh's cell measure, G
its basis gradients and P the mass pattern (1 + delta_ij)/((d+1)(d+2)),
or I/(d+1) lumped.  Every cell is one of the d! Kuhn simplices of its
grid box, and with its vertices in path order each has the same G G^T,
so one block serves every cell and no per-cell geometry is computed.
B is the boundary mass matrix weighted by the coefficient beta,
integrated with facet quadrature (exact for per-facet beta).  The load
integrates the source against the P1 basis with cell quadrature, adding
each block of `fields.source_blocks` in cell order: the bits of one
scatter over every cell, with no cells x points array held.

Each matrix is a ``scipy.sparse.csr_array`` with int32 indices and no
stored zeros: K + lambda*M is written in CSR order from the stencil the
one block tiles on the grid, and B is one scatter of facet blocks.
K + lambda*M and the load do not depend on beta, so a family that differs
only in beta builds them once (`assemble_operator`, `assemble_load`), and
`assemble_system` gives each member its B, kept apart from K + lambda*M:
a constant beta scales one B(1), so a constant family assembles B once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError, noted_member
from .fields import BoundaryField, SourceField, boundary_sup, eval_boundary, source_blocks
from .mesh import Mesh
from .quadrature import cell_rule, facet_rule


def _scatter(num_vertices: int, ids, local) -> sp.csr_array:
    """Sum (ne, nloc, nloc) blocks, or (ne, nloc^2) rows, on the (ne, nloc) vertex
    ids by one COO -> CSR conversion, dropping entries that sum to zero."""
    ids = np.asarray(ids, dtype=np.int32)
    nloc = ids.shape[1]
    rows = np.repeat(ids, nloc, axis=1).ravel()
    cols = np.tile(ids, (1, nloc)).ravel()
    out = sp.coo_array((local.ravel(), (rows, cols)), shape=(num_vertices,) * 2).tocsr()
    out.eliminate_zeros()
    return out


def _cells(mesh: Mesh, stiffness: bool, lam: float, lumped: bool) -> sp.csr_array:
    """The element rule in CSR order: every cell gets the same block
    |T| (n^2 L + lam P), or |T| lam P without ``stiffness``.  On a Kuhn
    simplex with its vertices in path order the basis gradients are
    n (s_k - s_{k+1}), with s_1, ..., s_d the path's orthonormal steps and
    s_0 = s_{d+1} = 0, so G G^T = n^2 L on every cell, L the path graph's
    Laplacian; P is the mass pattern (1 + delta_ij)/((d+1)(d+2)), or I/(d+1)
    lumped.  Entry (v, v + s) is summed in slot s of an (offsets, grid)
    array, one slice-add over the boxes per block entry (k, l) of each path,
    in `kuhn_paths` order; sorted offsets put each row in column order."""
    d, n, nv = mesh.dim, mesh.n, mesh.num_vertices
    pattern = np.eye(d + 1) / (d + 1) if lumped else (1.0 + np.eye(d + 1)) / ((d + 1) * (d + 2))
    grads = -np.diff(np.pad(np.eye(d), ((1, 1), (0, 0))), axis=0)  # on the path along x, y, z
    laplacian = grads @ grads.T * (n**2 if stiffness else 0)
    block = (laplacian + lam * pattern) * mesh.cell_measure
    ids = mesh.cell_rows(0, math.factorial(d))  # the paths of the box at vertex 0
    steps = ids[:, None, :] - ids[:, :, None]  # (path, k, l): column minus row
    offsets = np.unique(steps)
    acc = np.zeros((len(offsets),) + (n + 1,) * d)
    for p, k, l in np.ndindex(steps.shape):  # vertex k of path p lies at one place in every box
        box = tuple(slice(c, c + n) for c in np.unravel_index(ids[p, k], (n + 1,) * d))
        acc[(np.searchsorted(offsets, steps[p, k, l]),) + box] += block[k, l]
    stored = acc.reshape(len(offsets), nv).T != 0.0
    data = acc.reshape(len(offsets), nv).T[stored]
    del acc  # freed before the columns are gathered
    cols = np.arange(nv, dtype=np.int32)[:, None] + offsets.astype(np.int32)
    indptr = np.pad(np.count_nonzero(stored, axis=1).cumsum(dtype=np.int32), (1, 0))
    return sp.csr_array((data, cols[stored], indptr), shape=(nv, nv))


def assemble_stiffness(mesh: Mesh) -> sp.csr_array:
    """Gradient-gradient matrix; constants lie in its kernel."""
    return _cells(mesh, True, 0.0, False)


def assemble_mass(mesh: Mesh, lumped: bool = False) -> sp.csr_array:
    """Consistent P1 mass matrix, or its row-sum-lumped diagonal."""
    return _cells(mesh, False, 1.0, lumped)


def assemble_boundary_mass(mesh: Mesh, beta: BoundaryField) -> sp.csr_array:
    """Boundary matrix with entries sum_facets int_facet beta phi_i phi_j."""
    rule_points, weights = facet_rule(mesh.dim)
    beta_vals = eval_boundary(beta, mesh, rule_points)  # (nf, nq)
    # basis values at the quad nodes are the barycentric coordinates, so
    # row q of the table holds w_q phi_i phi_j over all (i, j)
    table = weights[:, None, None] * rule_points[:, :, None] * rule_points[:, None, :]
    local = mesh.facet_measure * (beta_vals @ table.reshape(len(weights), -1))
    return _scatter(mesh.num_vertices, mesh.facet_vertices, local)


def assemble_load(mesh: Mesh, f: SourceField) -> np.ndarray:
    """Load vector F_i = sum_cells int_cell f phi_i (exact for constant f)."""
    rule_points, weights = cell_rule(mesh.dim)
    table = weights[:, None] * rule_points
    load = np.zeros(mesh.num_vertices)
    for cells, values in source_blocks(f, mesh):
        # raveled, in the same order: numpy's one-dimensional fast path
        np.add.at(load, cells.ravel(), (mesh.cell_measure * (values @ table)).ravel())
    return load


def assemble_operator(mesh: Mesh, lam: float, lumped: bool = False) -> sp.csr_array:
    """K + lam*M, the part of the system shared by every coefficient beta.

    lam must be finite and > 0; that makes the operator positive definite
    whatever the (nonnegative) boundary term.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise InvalidArgumentError(f"lambda must be a finite number > 0, got {lam}")
    return _cells(mesh, True, float(lam), lumped)


class System(NamedTuple):
    """A family's matrices (K + lam*M) + w_i B_i, one (B_i, w_i) per member:
    (B(beta), 1), or for a constant beta (B(1), beta) with one shared B(1)."""

    operator: sp.csr_array
    boundary: list
    # stored entries of one member's matrix: B's lie in the operator's pattern
    nnz = property(lambda self: self.operator.nnz)


def assemble_system(operator: sp.csr_array, mesh: Mesh, betas) -> System:
    """The family's matrices, with the operator from `assemble_operator`; a
    member whose coefficient fails raises with a note naming its index."""
    constant = [beta.kind == "constant" for beta in betas]
    unit = assemble_boundary_mass(mesh, BoundaryField.constant(1.0)) if any(constant) else None
    boundary = []
    for i, beta in enumerate(betas):
        try:
            if constant[i]:  # boundary_sup checks the value
                boundary.append((unit, boundary_sup(beta, mesh)))
            else:
                boundary.append((assemble_boundary_mass(mesh, beta), 1.0))
        except Exception as exc:
            noted_member(exc, i)
            raise
    return System(operator, boundary)
