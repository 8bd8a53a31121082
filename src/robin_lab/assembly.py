"""P1 Galerkin assembly of the Robin operator K + lambda*M + B.

K is the stiffness matrix (gradients are constant per simplex, so entries
are exact), M the consistent or row-sum-lumped mass matrix (closed-form
simplex formulas), and B the boundary mass matrix weighted by the
coefficient beta, integrated with facet quadrature (exact for per-facet
beta at quad_order >= 2).  The load vector integrates the source against
the P1 basis with cell quadrature.

Matrices are plain ``scipy.sparse.csr_array``.  K + lambda*M and the load
do not depend on beta, so a family of problems that differ only in beta
builds them once (`assemble_operator`, `assemble_load`) and each member
adds its own B (`assemble_system`).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateMeshError, InvalidArgumentError
from .fields import BoundaryField, SourceField, eval_boundary, eval_source
from .mesh import Mesh
from .quadrature import cell_rule, facet_rule


def _cell_geometry(mesh: Mesh):
    """Measures, and P1 basis gradients per cell, shape (nc, dim+1, dim)."""
    pts = mesh.vertices[mesh.cells]
    edges = pts[:, 1:, :] - pts[:, :1, :]
    if mesh.dim == 1:
        det = edges[:, 0, 0]
        measures = np.abs(det)
        if np.any(measures <= 0.0):
            raise DegenerateMeshError("zero-length cell encountered")
        inv = (1.0 / det).reshape(-1, 1, 1)
    else:
        det = np.linalg.det(edges)
        measures = np.abs(det) / math.factorial(mesh.dim)
        if np.any(measures <= 0.0):
            raise DegenerateMeshError("zero-measure cell encountered")
        inv = np.linalg.inv(edges)
    grads_tail = np.transpose(inv, (0, 2, 1))  # gradient of barycentric i >= 1
    grads = np.concatenate([-grads_tail.sum(axis=1, keepdims=True), grads_tail], axis=1)
    return measures, grads


def _scatter(num_vertices: int, ids, local) -> sp.csr_array:
    """Accumulate (ne, nloc, nloc) blocks on the (ne, nloc) vertex ids.

    Duplicate (row, col) entries are summed by the COO -> CSR conversion.
    """
    nloc = ids.shape[1]
    rows = np.repeat(ids, nloc, axis=1).ravel()
    cols = np.tile(ids, (1, nloc)).ravel()
    shape = (num_vertices, num_vertices)
    return sp.coo_array((local.ravel(), (rows, cols)), shape=shape).tocsr()


def assemble_stiffness(mesh: Mesh) -> sp.csr_array:
    """Gradient-gradient matrix; constants lie in its kernel."""
    measures, grads = _cell_geometry(mesh)
    local = measures[:, None, None] * (grads @ np.transpose(grads, (0, 2, 1)))
    return _scatter(mesh.num_vertices, mesh.cells, local)


def assemble_mass(mesh: Mesh, lumped: bool = False) -> sp.csr_array:
    """Consistent P1 mass matrix, or its row-sum-lumped diagonal."""
    d = mesh.dim
    measures = mesh.cell_measures
    if lumped:
        diag = np.zeros(mesh.num_vertices)
        np.add.at(diag, mesh.cells, (measures / (d + 1))[:, None])
        idx = np.arange(mesh.num_vertices)[:, None]
        return _scatter(mesh.num_vertices, idx, diag[:, None, None])
    pattern = (np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2))
    local = measures[:, None, None] * pattern[None, :, :]
    return _scatter(mesh.num_vertices, mesh.cells, local)


def assemble_boundary_mass(
    mesh: Mesh, beta: BoundaryField, quad_order: int = 2
) -> sp.csr_array:
    """Boundary matrix with entries sum_facets int_facet beta phi_i phi_j."""
    rule_points, weights = facet_rule(mesh.dim, quad_order)
    beta_vals = eval_boundary(beta, mesh, rule_points)  # (nf, nq)
    # basis values at the quad nodes are the barycentric coordinates
    local = mesh.facet_measures[:, None, None] * np.einsum(
        "q,fq,qi,qj->fij", weights, beta_vals, rule_points, rule_points
    )
    return _scatter(mesh.num_vertices, mesh.facet_vertices, local)


def assemble_load(mesh: Mesh, f: SourceField, quad_order: int = 2) -> np.ndarray:
    """Load vector F_i = sum_cells int_cell f phi_i (exact for constant f)."""
    rule_points, weights = cell_rule(mesh.dim, quad_order)
    measures = mesh.cell_measures
    pts = mesh.vertices[mesh.cells]  # (nc, nloc, dim)
    physical = np.einsum("qk,ckd->cqd", rule_points, pts)
    nc, nq, dim = physical.shape
    f_vals = eval_source(f, physical.reshape(-1, dim)).reshape(nc, nq)
    local = measures[:, None] * np.einsum("q,cq,qi->ci", weights, f_vals, rule_points)
    out = np.zeros(mesh.num_vertices)
    np.add.at(out, mesh.cells, local)
    return out


def assemble_operator(mesh: Mesh, lam: float, lumped: bool = False) -> sp.csr_array:
    """K + lam*M, the part of the system shared by every coefficient beta.

    lam must be finite and > 0; that makes the operator positive definite
    whatever the (nonnegative) boundary term.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise InvalidArgumentError(f"lambda must be a finite number > 0, got {lam}")
    return assemble_stiffness(mesh) + assemble_mass(mesh, lumped) * float(lam)


def assemble_system(
    operator: sp.csr_array, mesh: Mesh, beta: BoundaryField, quad_order: int = 2
) -> sp.csr_array:
    """(K + lam*M) + B(beta), with the operator from `assemble_operator`."""
    return operator + assemble_boundary_mass(mesh, beta, quad_order)
