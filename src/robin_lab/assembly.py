"""P1 Galerkin assembly of the Robin operator K + lambda*M + B.

K is the stiffness matrix (gradients are constant per simplex, so entries
are exact), M the consistent or row-sum-lumped mass matrix (closed-form
simplex formulas), and B the boundary mass matrix weighted by the
coefficient beta, integrated with facet quadrature (exact for per-facet
beta).  The load vector integrates the source against the P1 basis with
cell quadrature.

Matrices are plain ``scipy.sparse.csr_array``.  K + lambda*M and the load
do not depend on beta, so a family of problems that differ only in beta
builds them once (`assemble_operator`, `assemble_load`), and
`assemble_system` gives each member its B, kept apart from K + lambda*M: a
constant beta scales one B(1), so a constant family assembles B once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateMeshError, InvalidArgumentError, noted_member
from .fields import BoundaryField, SourceField, boundary_sup, eval_boundary, eval_source
from .mesh import Mesh
from .quadrature import cell_rule, facet_rule


def _basis_gradients(mesh: Mesh) -> np.ndarray:
    """P1 basis gradients per cell, shape (nc, dim+1, dim)."""
    if np.any(mesh.cell_measures <= 0.0):
        raise DegenerateMeshError("zero-measure cell encountered")
    pts = mesh.vertices[mesh.cells]
    edges = pts[:, 1:, :] - pts[:, :1, :]
    inv = np.linalg.inv(edges)
    grads_tail = np.transpose(inv, (0, 2, 1))  # gradient of barycentric i >= 1
    return np.concatenate([-grads_tail.sum(axis=1, keepdims=True), grads_tail], axis=1)


def _scatter(num_vertices: int, ids, local) -> sp.csr_array:
    """Accumulate (ne, nloc, nloc) blocks, or (ne, nloc^2) rows, on the (ne, nloc) vertex ids.

    Duplicate (row, col) entries are summed by the COO -> CSR conversion.
    """
    nloc = ids.shape[1]
    rows = np.repeat(ids, nloc, axis=1).ravel()
    cols = np.tile(ids, (1, nloc)).ravel()
    shape = (num_vertices, num_vertices)
    return sp.coo_array((local.ravel(), (rows, cols)), shape=shape).tocsr()


def assemble_stiffness(mesh: Mesh) -> sp.csr_array:
    """Gradient-gradient matrix; constants lie in its kernel."""
    grads = _basis_gradients(mesh)
    local = mesh.cell_measures[:, None, None] * (grads @ np.transpose(grads, (0, 2, 1)))
    return _scatter(mesh.num_vertices, mesh.cells, local)


def assemble_mass(mesh: Mesh, lumped: bool = False) -> sp.csr_array:
    """Consistent P1 mass matrix, or its row-sum-lumped diagonal."""
    d = mesh.dim
    measures = mesh.cell_measures
    if lumped:
        shares = np.repeat(measures / (d + 1), d + 1)
        diag = np.bincount(mesh.cells.ravel(), shares, minlength=mesh.num_vertices)
        idx = np.arange(mesh.num_vertices)[:, None]
        return _scatter(mesh.num_vertices, idx, diag[:, None, None])
    pattern = (np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2))
    local = measures[:, None, None] * pattern[None, :, :]
    return _scatter(mesh.num_vertices, mesh.cells, local)


def assemble_boundary_mass(mesh: Mesh, beta: BoundaryField) -> sp.csr_array:
    """Boundary matrix with entries sum_facets int_facet beta phi_i phi_j."""
    rule_points, weights = facet_rule(mesh.dim)
    beta_vals = eval_boundary(beta, mesh, rule_points)  # (nf, nq)
    # basis values at the quad nodes are the barycentric coordinates, so
    # row q of the table holds w_q phi_i phi_j over all (i, j)
    table = weights[:, None, None] * rule_points[:, :, None] * rule_points[:, None, :]
    local = mesh.facet_measures[:, None] * (beta_vals @ table.reshape(len(weights), -1))
    return _scatter(mesh.num_vertices, mesh.facet_vertices, local)


def assemble_load(mesh: Mesh, f: SourceField) -> np.ndarray:
    """Load vector F_i = sum_cells int_cell f phi_i (exact for constant f)."""
    rule_points, weights = cell_rule(mesh.dim)
    f_vals = eval_source(f, mesh)  # (nc, nq)
    local = mesh.cell_measures[:, None] * (f_vals @ (weights[:, None] * rule_points))
    return np.bincount(mesh.cells.ravel(), local.ravel(), minlength=mesh.num_vertices)


def assemble_operator(mesh: Mesh, lam: float, lumped: bool = False) -> sp.csr_array:
    """K + lam*M, the part of the system shared by every coefficient beta.

    lam must be finite and > 0; that makes the operator positive definite
    whatever the (nonnegative) boundary term.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise InvalidArgumentError(f"lambda must be a finite number > 0, got {lam}")
    return assemble_stiffness(mesh) + assemble_mass(mesh, lumped) * float(lam)


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
