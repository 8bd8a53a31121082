"""P1 Galerkin assembly of the Robin operator K + lambda*M + B.

K is the stiffness matrix (gradients are constant per simplex, so entries
are exact), M the consistent or row-sum-lumped mass matrix (closed-form
simplex formulas), and B the boundary mass matrix weighted by the
coefficient beta, integrated with facet quadrature (exact for per-facet
beta at quad_order >= 2).  The load vector integrates the source against
the P1 basis with cell quadrature.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegenerateMeshError,
    InvalidArgumentError,
    SingularSystemError,
)
from .fields import BoundaryField, SourceField, eval_boundary, eval_source
from .mesh import Mesh
from .quadrature import cell_rule, facet_rule


class SymmetricSparseMatrix:
    """Symmetric sparse operator with canonical upper-triangle storage.

    ``rows``, ``cols``, ``values`` hold the deduplicated entries with
    ``row <= col``; the full symmetric CSR form is cached for products.
    """

    def __init__(self, dimension: int, csr: sp.csr_matrix):
        self.dimension = int(dimension)
        self._csr = csr
        coo = csr.tocoo()
        keep = coo.row <= coo.col
        order = np.lexsort((coo.col[keep], coo.row[keep]))
        self.rows = coo.row[keep][order].astype(np.int64)
        self.cols = coo.col[keep][order].astype(np.int64)
        self.values = coo.data[keep][order]

    @classmethod
    def from_triplets(cls, dimension, rows, cols, values) -> "SymmetricSparseMatrix":
        """Build from full-matrix triplets (duplicates are summed)."""
        csr = sp.coo_matrix(
            (np.asarray(values, dtype=float), (rows, cols)),
            shape=(dimension, dimension),
        ).tocsr()
        csr.sum_duplicates()
        return cls(dimension, csr)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self._csr @ np.asarray(v, dtype=float)

    def diagonal(self) -> np.ndarray:
        return self._csr.diagonal()

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def __add__(self, other: "SymmetricSparseMatrix") -> "SymmetricSparseMatrix":
        if self.dimension != other.dimension:
            raise InvalidArgumentError("cannot add matrices of different dimensions")
        return SymmetricSparseMatrix(self.dimension, (self._csr + other._csr).tocsr())

    def scaled(self, factor: float) -> "SymmetricSparseMatrix":
        return SymmetricSparseMatrix(self.dimension, (self._csr * float(factor)).tocsr())


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


def _scatter(num_vertices: int, ids, local) -> SymmetricSparseMatrix:
    """Accumulate (ne, nloc, nloc) blocks on the (ne, nloc) vertex ids."""
    nloc = ids.shape[1]
    rows = np.repeat(ids, nloc, axis=1).ravel()
    cols = np.tile(ids, (1, nloc)).ravel()
    return SymmetricSparseMatrix.from_triplets(num_vertices, rows, cols, local.ravel())


def assemble_stiffness(mesh: Mesh) -> SymmetricSparseMatrix:
    """Gradient-gradient matrix; constants lie in its kernel."""
    measures, grads = _cell_geometry(mesh)
    local = measures[:, None, None] * (grads @ np.transpose(grads, (0, 2, 1)))
    return _scatter(mesh.num_vertices, mesh.cells, local)


def assemble_mass(mesh: Mesh, lumped: bool = False) -> SymmetricSparseMatrix:
    """Consistent P1 mass matrix, or its row-sum-lumped diagonal."""
    d = mesh.dim
    measures, _ = _cell_geometry(mesh)
    if lumped:
        diag = np.zeros(mesh.num_vertices)
        np.add.at(diag, mesh.cells, (measures / (d + 1))[:, None])
        idx = np.arange(mesh.num_vertices)
        return SymmetricSparseMatrix.from_triplets(mesh.num_vertices, idx, idx, diag)
    pattern = (np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2))
    local = measures[:, None, None] * pattern[None, :, :]
    return _scatter(mesh.num_vertices, mesh.cells, local)


def assemble_boundary_mass(
    mesh: Mesh, beta: BoundaryField, quad_order: int = 2
) -> SymmetricSparseMatrix:
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
    measures, _ = _cell_geometry(mesh)
    pts = mesh.vertices[mesh.cells]  # (nc, nloc, dim)
    physical = np.einsum("qk,ckd->cqd", rule_points, pts)
    nc, nq, dim = physical.shape
    f_vals = eval_source(f, physical.reshape(-1, dim)).reshape(nc, nq)
    local = measures[:, None] * np.einsum("q,cq,qi->ci", weights, f_vals, rule_points)
    out = np.zeros(mesh.num_vertices)
    np.add.at(out, mesh.cells, local)
    return out


def assemble_system(
    mesh: Mesh,
    lam: float,
    beta: BoundaryField,
    lumped: bool = False,
    quad_order: int = 2,
) -> SymmetricSparseMatrix:
    """K + lam*M + B; positive definite unless lam = 0 and beta vanishes."""
    if lam < 0.0:
        raise InvalidArgumentError(f"lambda must be >= 0, got {lam}")
    stiffness = assemble_stiffness(mesh)
    boundary = assemble_boundary_mass(mesh, beta, quad_order)
    if lam == 0.0 and boundary.max_abs() == 0.0:
        raise SingularSystemError(
            "lambda = 0 with vanishing boundary coefficient: constants are in "
            "the kernel of the operator"
        )
    mass = assemble_mass(mesh, lumped)
    return stiffness + mass.scaled(lam) + boundary
