"""Structured simplicial meshes of the unit interval, square, and cube.

A mesh is its dimension d and its number n of subdivisions per axis: each
of the n^d grid boxes is split into the d! Kuhn simplices, one per order in
which a path from the box's low corner steps along the axes (`kuhn_paths`),
so every cell is a translate of one of d! reference simplices.  h = 1/n,
the boundary facets follow from the integer grid, and every cell has the
measure 1/(d! n^d) and every boundary facet 1/((d-1)! n^(d-1)), each a
single float rounded once:

* interval: n segments of length 1/n; the boundary carries the counting
  measure on {0, 1}, so the two endpoint facets have measure 1 each;
* square: two triangles per grid square, sharing its low-left to up-right
  diagonal: 2n^2 cells and 4n boundary edges of length 1/n;
* cube: six tetrahedra per grid cube, sharing its main diagonal: 6n^3
  cells of volume 1/(6n^3) and 12n^2 boundary triangles.

`prolongations` interpolates from the mesh at ceil(n/2) to the one at n
(nested for even n) in closed form, for the solver's multigrid cycle.
A mesh is immutable (its arrays are read-only) and safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError

# domain name -> dimension
DOMAINS = {"interval": 1, "square": 2, "cube": 3}

# a CLI solve on the cube with an expression source peaks at about 160 B per cell
# (peak RSS 246 MB at n = 64 and 466 MB at n = 80, MB = 2^20 B), so this caps it
# near 0.6 GB, 20x cube n = 32
MAX_CELLS = 4_000_000

# grid axes of the vertex numbering, slowest first: the square numbers its
# vertices iy * side + ix, the cube (ix * side + iy) * side + iz
_AXIS_ORDER = {1: [0], 2: [1, 0], 3: [0, 1, 2]}


def kuhn_paths(dim: int) -> np.ndarray:
    """Integer vertices of the d! Kuhn simplices of the unit box, shape
    (d!, d + 1, d): path k starts at the low corner and steps along the axes
    in the k-th order of ``itertools.permutations``."""
    steps = np.eye(dim, dtype=np.int64)[list(itertools.permutations(range(dim)))]
    return np.pad(steps, ((0, 0), (1, 0), (0, 0))).cumsum(axis=1)


@dataclass(frozen=True, eq=False)
class Mesh:
    """Kuhn mesh of the unit box of dimension ``dim`` (1, 2 or 3) with ``n``
    subdivisions per axis, with boundary data; any other (dim, n), or more
    than MAX_CELLS cells, raises InvalidArgumentError before allocating.

    Vertices are numbered by grid position (``_AXIS_ORDER``).  Cells are
    box-major and path-minor: boxes in the order of their low corner's
    vertex index, then the d! paths in `kuhn_paths` order.  Each cell lists
    its vertices in path order, which assembly relies on.
    A boundary facet is a face (d of a cell's d + 1 vertices) whose vertices
    all lie on one face of the box.  Row i of ``facet_vertices`` holds the
    sorted vertex indices of facet i (a single vertex in 1D), and a
    per-facet field's i-th value belongs to it.  The rows are cell-major
    and, within a cell, in ``itertools.combinations`` order of its vertex
    columns.  ``cell_measure`` and ``facet_measure`` are the one measure
    every cell and every boundary facet has (1.0 for interval endpoints).
    """

    dim: int
    n: int
    h: float = field(init=False)
    vertices: np.ndarray = field(init=False)  # (num_vertices, dim)
    cells: np.ndarray = field(init=False)  # (num_cells, dim + 1), vertex indices
    facet_vertices: np.ndarray = field(init=False)  # (num_facets, dim)
    cell_measure: float = field(init=False)  # of every cell
    facet_measure: float = field(init=False)  # of every boundary facet

    def __post_init__(self):
        dim, n = self.dim, self.n
        if not (is_integer(n) and n >= 1):
            raise InvalidArgumentError(f"mesh parameter n must be an integer >= 1, got {n!r}")
        if not (is_integer(dim) and 1 <= dim <= 3):
            raise InvalidArgumentError(f"mesh dimension must be 1, 2 or 3, got {dim!r}")
        dim, n = int(dim), int(n)
        cell_parts = math.factorial(dim) * n**dim  # n, 2n^2, 6n^3
        if cell_parts > MAX_CELLS:
            raise InvalidArgumentError(
                f"the {dim}-dimensional mesh with n = {n} has more than {MAX_CELLS} cells"
            )
        grid = _grid(dim, n)
        # the boxes' low corners: the vertices with no coordinate n, in vertex order
        boxes = np.arange((n + 1) ** dim).reshape((n + 1,) * dim)[(slice(n),) * dim].ravel()
        paths = kuhn_paths(dim)
        cells = (boxes[:, None, None] + _index(paths, n + 1)).reshape(-1, dim + 1)
        # Kuhn end-face rule: every face but the two without an end vertex of the
        # path holds both ends, which differ in every coordinate, so only these
        # can be boundary facets.  On box c with step axes a_1 ... a_d, the face
        # without the last vertex lies on x_{a_d} = 0 iff c[a_d] = 0, and the
        # face without the first on x_{a_1} = 1 iff c[a_1] = n - 1.
        axes = np.diff(paths, axis=1).argmax(axis=2)  # (d!, d): each path's step axes
        corner = grid[boxes]
        ends = np.stack([corner[:, axes[:, -1]] == 0, corner[:, axes[:, 0]] == n - 1], axis=2)
        cell, end = np.divmod(np.flatnonzero(ends), 2)
        # path order is vertex order, so each facet's vertices are already sorted
        facet_vertices = cells[cell[:, None], end[:, None] + np.arange(dim)]
        arrays = {"vertices": grid / n, "cells": cells, "facet_vertices": facet_vertices}
        for arr in arrays.values():
            arr.setflags(write=False)
        # d! equal cells split each grid box of side 1/n, and (d-1)! facets each box
        # face; in 1D, 1/(0! n^0) = 1 is the counting measure on the endpoints
        facet_parts = math.factorial(dim - 1) * n ** (dim - 1)
        measures = {"cell_measure": 1.0 / cell_parts, "facet_measure": 1.0 / facet_parts}
        for name, value in dict(arrays, **measures, dim=dim, n=n, h=1.0 / n).items():
            object.__setattr__(self, name, value)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def num_facets(self) -> int:
        return self.facet_vertices.shape[0]


def build_mesh(domain: str, n: int) -> Mesh:
    """The mesh of a domain named in DOMAINS: interval, square, or cube."""
    if domain not in DOMAINS:
        raise InvalidArgumentError(
            f"unknown domain {domain!r}; expected interval, square, or cube"
        )
    return Mesh(DOMAINS[domain], n)


def boundary_vertex_indices(mesh: Mesh) -> np.ndarray:
    """Sorted indices of the vertices that lie on some boundary facet."""
    return np.unique(mesh.facet_vertices)


def prolongations(mesh: Mesh) -> list:
    """P1 interpolation matrices of the coarsening chain n -> ceil(n/2) while
    n > 3, finest first, so the coarsest mesh has at most 4^dim vertices.

    Row i of a prolongation holds the weights of fine vertex i on the
    corners of the coarse Kuhn simplex that contains it: with t its
    coordinates in its coarse grid box, sorted so that t(1) >= ... >= t(d),
    the weights are 1 - t(1), t(1) - t(2), ..., t(d) on the path from the
    box's low corner that steps along the axes in that order.  For odd n
    the meshes do not nest and the same formula interpolates.  The corners'
    indices grow along the path, so the int32 CSR arrays are written directly.
    """
    dim, n = mesh.dim, mesh.n
    out = []
    while n > 3:
        m = -(-n // 2)
        grid = _grid(dim, n)
        # in coarse grid units a fine vertex sits at grid * m / n = low + local / n
        low = np.minimum(grid * m // n, m - 1)
        local = grid * m - low * n  # n t, integers in [0, n]
        axes = np.argsort(-local, axis=1, kind="stable")
        weights = -np.diff(np.take_along_axis(local, axes, axis=1), prepend=n, append=0) / n
        strides = _index(np.eye(dim, dtype=np.int64), m + 1)[axes]  # of the path's steps
        cols = _index(low, m + 1)[:, None] + np.pad(strides.cumsum(axis=1), ((0, 0), (1, 0)))
        indptr = np.arange(0, (dim + 1) * len(grid) + 1, dim + 1, dtype=np.int32)
        cols = cols.ravel().astype(np.int32)
        P = sp.csr_array((weights.ravel(), cols, indptr), shape=(len(grid), (m + 1) ** dim))
        P.eliminate_zeros()
        out.append(P)
        n = m
    return out


def is_integer(value) -> bool:
    """A Python or numpy integer; booleans are not integers here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _grid(dim: int, n: int) -> np.ndarray:
    """Integer coordinates 0..n of the grid's vertices in vertex order, shape ((n+1)^dim, dim)."""
    grid = np.empty(((n + 1) ** dim, dim), dtype=np.int64)
    grid[:, _AXIS_ORDER[dim]] = np.indices((n + 1,) * dim).reshape(dim, -1).T
    return grid


def _index(points: np.ndarray, side: int) -> np.ndarray:
    """Vertex indices of integer grid points (coordinates on the last axis)
    on a grid of ``side`` vertices per axis."""
    axes = _AXIS_ORDER[points.shape[-1]]
    return np.ravel_multi_index(tuple(points[..., a] for a in axes), (side,) * len(axes))
