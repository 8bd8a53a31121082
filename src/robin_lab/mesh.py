"""Structured simplicial meshes of the unit interval, square, and cube.

All three families are uniform with n subdivisions per axis, so the
characteristic size is h = 1/n and every measure is exact:

* interval: n segments of length 1/n; the boundary carries the counting
  measure on {0, 1}, so the two endpoint facets have measure 1 each;
* square: each grid square is split into two triangles by the same
  diagonal (low-left to up-right), giving 2n^2 cells and 4n boundary
  edges of length 1/n;
* cube: each grid cube is split into six tetrahedra sharing the main
  diagonal (Kuhn subdivision), giving 6n^3 cells of volume 1/(6n^3) and
  12n^2 boundary triangles.

`prolongations` interpolates from the mesh at ceil(n/2) to the one at n
(nested for even n) in closed form, for the solver's multigrid cycle.

A boundary facet is a face whose vertices all lie on one face of the box.
A mesh is immutable (its arrays are read-only) and safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError


@dataclass(frozen=True, eq=False)
class Mesh:
    """Simplicial mesh of one of the unit boxes, with boundary data.

    A boundary facet is a face (d of a cell's d + 1 vertices) whose vertices
    all lie on one face of the box.  The facets are rows of the ``facet_*``
    arrays, in cell-major order and, within a cell, in
    ``itertools.combinations`` order of its vertex columns, with each row's
    vertices sorted; a per-facet field's i-th value belongs to row i.
    ``facet_vertices`` holds those vertex indices (a single vertex in 1D)
    and ``facet_measures`` the surface measure (1.0 for interval endpoints).
    """

    dim: int
    vertices: np.ndarray  # (num_vertices, dim)
    cells: np.ndarray  # (num_cells, dim + 1), vertex indices
    cell_measures: np.ndarray  # (num_cells,)
    facet_vertices: np.ndarray  # (num_facets, dim)
    facet_measures: np.ndarray  # (num_facets,)
    h: float

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def num_facets(self) -> int:
        return self.facet_vertices.shape[0]


def build_interval_mesh(n: int) -> Mesh:
    """Uniform mesh of (0, 1) with n segments."""
    _check_n(n)
    vertices = (np.arange(n + 1, dtype=float) / n).reshape(-1, 1)
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return _finish_mesh(1, vertices, cells, n)


def build_unit_square_mesh(n: int) -> Mesh:
    """Uniform triangulation of (0, 1)^2, two triangles per grid square."""
    _check_n(n)
    side = n + 1
    xs = np.arange(side, dtype=float) / n
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])
    # vertex index iy * side + ix; squares in row-major (iy, ix) order
    v00 = (np.arange(n)[:, None] * side + np.arange(n)).ravel()
    v10, v01, v11 = v00 + 1, v00 + side, v00 + side + 1
    # both triangles share the v00-v11 diagonal
    cells = np.stack(
        [np.column_stack([v00, v10, v11]), np.column_stack([v00, v11, v01])], axis=1
    )
    return _finish_mesh(2, vertices, cells.reshape(-1, 3), n)


# vertex paths of the six Kuhn tetrahedra inside one grid cube: start at the
# low corner and step along the axes in each order, shape (6, 4, 3)
_KUHN_PATHS = np.array(
    [
        np.cumsum([(0, 0, 0), *np.eye(3, dtype=np.int64)[list(perm)]], axis=0)
        for perm in itertools.permutations((0, 1, 2))
    ]
)


def build_unit_cube_mesh(n: int) -> Mesh:
    """Kuhn subdivision of (0, 1)^3: six tetrahedra per grid cube."""
    _check_n(n)
    side = n + 1
    coords = np.arange(side, dtype=float) / n
    gx, gy, gz = np.meshgrid(coords, coords, coords, indexing="ij")
    # index = (ix * side + iy) * side + iz
    vertices = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    r = np.arange(n)
    corners = ((r[:, None, None] * side + r[:, None]) * side + r).ravel()
    steps = _KUHN_PATHS @ np.array([side * side, side, 1])  # (6, 4) index offsets
    cells = corners[:, None, None] + steps
    return _finish_mesh(3, vertices, cells.reshape(-1, 4), n)


# the mesh arrays take about 400 bytes per cell, so this caps a mesh near
# 1.6 GB, 20x the cells of the cube at n = 32
MAX_CELLS = 4_000_000


def build_mesh(domain: str, n: int) -> Mesh:
    """Dispatch on the domain name: interval, square, or cube.  A mesh of
    more than MAX_CELLS cells is rejected before anything is allocated."""
    builders = {
        "interval": (1, build_interval_mesh),
        "square": (2, build_unit_square_mesh),
        "cube": (3, build_unit_cube_mesh),
    }
    if domain not in builders:
        raise InvalidArgumentError(
            f"unknown domain {domain!r}; expected interval, square, or cube"
        )
    dim, builder = builders[domain]
    cells = math.factorial(dim) * n**dim  # n, 2n^2, 6n^3
    if cells > MAX_CELLS:
        raise InvalidArgumentError(
            f"the {domain} mesh with n = {n} has more than {MAX_CELLS} cells"
        )
    return builder(n)


def boundary_vertex_indices(mesh: Mesh) -> list:
    """Sorted indices of the vertices that lie on some boundary facet."""
    return np.unique(mesh.facet_vertices).tolist()


# grid axes of the vertex numbering, slowest first: the square numbers its
# vertices iy * side + ix, the cube (ix * side + iy) * side + iz
_AXIS_ORDER = {1: [0], 2: [1, 0], 3: [0, 1, 2]}


def prolongations(mesh: Mesh) -> list:
    """P1 interpolation matrices of the coarsening chain n -> ceil(n/2) while
    n > 3, finest first, so the coarsest mesh has at most 4^dim vertices.

    Row i of a prolongation holds the weights of fine vertex i on the
    corners of the coarse Kuhn simplex that contains it: with t its
    coordinates in its coarse grid box, sorted so that t(1) >= ... >= t(d),
    the weights are 1 - t(1), t(1) - t(2), ..., t(d) on the path from the
    box's low corner that steps along the axes in that order.  For odd n
    the meshes do not nest and the same formula interpolates.
    """
    dim, n = mesh.dim, round(1.0 / mesh.h)
    order = _AXIS_ORDER[dim]
    out = []
    while n > 3:
        m = -(-n // 2)
        grid = np.empty(((n + 1) ** dim, dim), dtype=np.int64)
        grid[:, order] = np.column_stack(np.unravel_index(np.arange(len(grid)), (n + 1,) * dim))
        # in coarse grid units a fine vertex sits at grid * m / n = low + local / n
        low = np.minimum(grid * m // n, m - 1)
        local = grid * m - low * n  # n t, integers in [0, n]
        axes = np.argsort(-local, axis=1, kind="stable")
        weights = -np.diff(np.take_along_axis(local, axes, axis=1), prepend=n, append=0) / n
        steps = np.cumsum(axes[:, :, None] == np.arange(dim), axis=1)
        corners = np.concatenate([low[:, None], low[:, None] + steps], axis=1)
        cols = np.ravel_multi_index(tuple(corners[..., a] for a in order), (m + 1,) * dim)
        rows = np.repeat(np.arange(len(grid)), dim + 1)
        P = sp.csr_array((weights.ravel(), (rows, cols.ravel())), shape=(len(grid), (m + 1) ** dim))
        P.eliminate_zeros()
        out.append(P)
        n = m
    return out


def _check_n(n: int) -> None:
    if n < 1:
        raise InvalidArgumentError(f"mesh parameter n must be >= 1, got {n}")


def _finish_mesh(dim, vertices, cells, n) -> Mesh:
    cells = np.asarray(cells, dtype=np.int64)
    arrays = {
        "vertices": vertices,
        "cells": cells,
        "cell_measures": np.abs(simplex_geometry(vertices, cells)[0]) / math.factorial(dim),
        **_boundary_facets(vertices, cells, dim),
    }
    for arr in arrays.values():
        arr.setflags(write=False)
    return Mesh(dim=dim, h=1.0 / n, **arrays)


def simplex_geometry(vertices, cells):
    """``(det, cof)`` of each simplex's edge matrix E (row i is vertex i+1
    minus vertex 0), in closed form: its signed determinant (num_cells,) and
    cofactor matrix, shape (dim, dim, num_cells) with the cell last so every
    entry is one contiguous array.  E^-1 = cof^T / det, so row i of cof / det
    is the gradient of barycentric coordinate i+1; the measure is |det| / dim!."""
    corners = cells.T  # (vertex, cell)
    e = np.take(vertices.T, corners[1:], axis=1) - np.take(vertices.T, corners[:1], axis=1)
    e = e.swapaxes(0, 1)  # (edge, coordinate, cell)
    if len(e) == 1:
        cof = np.ones(e.shape)
    elif len(e) == 2:
        cof = e[::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]
    else:  # row r is the cross product of edges r+1 and r+2, cyclically
        cof = np.empty(e.shape)
        for r, k in itertools.product(range(3), repeat=2):
            s, t, u, v = (r + 1) % 3, (r + 2) % 3, (k + 1) % 3, (k + 2) % 3
            cof[r, k] = e[s, u] * e[t, v] - e[s, v] * e[t, u]
    return np.einsum("kc,kc->c", e[0], cof[0]), cof


def _boundary_facets(vertices, cells, dim) -> dict:
    # the mesh is conforming and fills the convex box, so a face is on the
    # boundary iff its vertices all lie on one box face: bit 2a (2a+1) of a
    # vertex is set when its coordinate a is 0 (1), and the AND is nonzero
    on_side = np.stack([vertices == 0.0, vertices == 1.0], axis=2).reshape(len(vertices), -1)
    bits = np.packbits(on_side, axis=1, bitorder="little")[:, 0]  # uint8, 2 * dim <= 6 bits
    combos = np.array(list(itertools.combinations(range(dim + 1), dim)))
    shared = np.bitwise_and.reduce(bits[cells][:, combos], axis=2)  # (num_cells, dim + 1)
    cell, combo = np.divmod(np.flatnonzero(shared), len(combos))
    facet_vertices = np.sort(cells[cell[:, None], combos[combo]], axis=1)
    pts = vertices[facet_vertices]  # (nf, dim, dim)
    if dim == 1:
        measures = np.ones(len(facet_vertices))  # counting measure on the endpoints
    elif dim == 2:
        measures = np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
    else:
        cross = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
        measures = np.linalg.norm(cross, axis=1) / 2.0
    return {"facet_vertices": facet_vertices, "facet_measures": measures}
