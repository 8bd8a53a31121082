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

A mesh stores only (dim, n) and its boundary facets; h, the measures, the
cells and the vertex coordinates are closed forms of (dim, n), the last two
generated for a range (`Mesh.cell_rows`, `Mesh.coordinates`) when needed;
the whole arrays are the ranges from 0 to `num_cells` or `num_vertices`.
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

# with an expression source on the cube, stampacchia (two betas) peaks highest: about 102 B
# per cell at even n, 121 B at odd n, whose transfers do not nest (299 / 372 / 456 MB RSS at
# n = 80 / 86 / 87, MB = 2^20 B; solve and theorem0 249 / 308 / 428 MB), near 0.45 GB at the
# cap; larger families add to it (MAX_MEMBER_VERTICES). Vertex indices, so int32 cells, < 2^31
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
    its vertices in path order, which assembly relies on.  The mesh stores
    neither: `cell_rows` and `coordinates` generate any range of them.
    A boundary facet is a face (d of a cell's d + 1 vertices) whose vertices
    all lie on one face of the box.  Row i of ``facet_vertices`` holds the
    sorted vertex indices of facet i (a single vertex in 1D), and a
    per-facet field's i-th value belongs to it.  The rows are cell-major
    and, within a cell, in ``itertools.combinations`` order of its vertex
    columns.  A mesh stores only ``dim``, ``n``, ``facet_vertices`` and its
    paths.  ``h``, the counts, and ``cell_measure`` and ``facet_measure`` (the
    one measure every cell and every boundary facet has, 1.0 for interval
    endpoints) are closed forms of (dim, n).
    """

    dim: int
    n: int
    facet_vertices: np.ndarray = field(init=False)  # (num_facets, dim)
    _paths: np.ndarray = field(init=False, repr=False)  # (d!, d + 1) offsets from a box corner

    def __post_init__(self):
        dim, n = self.dim, self.n
        if not (is_integer(n) and n >= 1):
            raise InvalidArgumentError(f"mesh parameter n must be an integer >= 1, got {n!r}")
        if not (is_integer(dim) and 1 <= dim <= 3):
            raise InvalidArgumentError(f"mesh dimension must be 1, 2 or 3, got {dim!r}")
        dim, n = int(dim), int(n)
        if math.factorial(dim) * n**dim > MAX_CELLS:  # n, 2n^2, 6n^3 cells
            raise InvalidArgumentError(
                f"the {dim}-dimensional mesh with n = {n} has more than {MAX_CELLS} cells"
            )
        # Kuhn end-face rule: every face but the two without an end vertex of the
        # path holds both ends, which differ in every coordinate, so only these
        # can be boundary facets.  On box c with step axes a_1 ... a_d, the face
        # without the last vertex lies on x_{a_d} = 0 iff c[a_d] = 0, and the
        # face without the first on x_{a_1} = 1 iff c[a_1] = n - 1.
        paths = kuhn_paths(dim)
        axes = np.diff(paths, axis=1).argmax(axis=2)  # (d!, d): each path's step axes
        corner = dict(zip(_AXIS_ORDER[dim], np.ix_(*[np.arange(n)] * dim)))  # by grid axis
        ends = np.empty((n,) * dim + (len(paths), 2), dtype=bool)  # (boxes..., path, end)
        for p, (first, last) in enumerate(axes[:, [0, -1]]):
            ends[..., p, 0], ends[..., p, 1] = corner[last] == 0, corner[first] == n - 1
        box, face = np.divmod(np.flatnonzero(ends), 2 * len(paths))
        # path order is vertex order, so each facet's vertices are already sorted
        offsets = _frozen(_index(paths, n + 1).astype(np.int32))
        faces = np.stack([offsets[:, :-1], offsets[:, 1:]], axis=1).reshape(-1, dim)
        facet_vertices = _frozen(_corners(box.astype(np.int32), dim, n)[:, None] + faces[face])
        arrays = {"facet_vertices": facet_vertices, "_paths": offsets}
        for name, value in dict(arrays, dim=dim, n=n).items():
            object.__setattr__(self, name, value)

    def cell_rows(self, start: int, stop: int) -> np.ndarray:
        """Vertex indices of cells start..stop - 1, shape (stop - start, dim + 1),
        int32: the d! paths of every box they lie in, cut to the range."""
        parts = len(self._paths)
        first = start // parts
        corners = _corners(np.arange(first, -(-stop // parts), dtype=np.int32), self.dim, self.n)
        rows = (corners[:, None] + self._paths.ravel()).reshape(-1, self.dim + 1)
        return rows[start - first * parts : stop - first * parts]

    def coordinates(self, start: int, stop: int) -> np.ndarray:
        """Coordinates of vertices start..stop - 1, contiguous, shape (dim, stop - start):
        cut from the grid lines along the fastest axis that hold them."""
        side, order = self.n + 1, _AXIS_ORDER[self.dim]
        first, last = start // side, -(-stop // side)
        values = np.arange(side) / self.n
        *lead, _ = np.unravel_index(np.arange(first, last) * side, (side,) * self.dim)
        grid = [np.repeat(values[index], side) for index in lead] + [np.tile(values, last - first)]
        return np.stack(grid)[np.argsort(order), start - first * side : stop - first * side]

    h = property(lambda self: 1.0 / self.n)
    num_vertices = property(lambda self: (self.n + 1) ** self.dim)
    num_cells = property(lambda self: math.factorial(self.dim) * self.n**self.dim)
    num_facets = property(lambda self: len(self.facet_vertices))
    # d! equal cells split each grid box of side 1/n, and (d-1)! facets each box face:
    # (d-1)! n^(d-1) = d! n^d / (d n); in 1D, 1/(0! n^0) = 1 is the counting measure on {0, 1}
    cell_measure = property(lambda self: 1.0 / self.num_cells)
    facet_measure = property(lambda self: 1.0 / (self.num_cells // (self.dim * self.n)))


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
    indices grow along the path, so the exact-size int32 CSR arrays are written
    directly, from int32 temporaries (int64 once n (m + 1) reaches 2^31).
    """
    out, n = [], mesh.n
    while n > 3:
        out.append(_prolongation(mesh.dim, n))
        n = -(-n // 2)
    return out


def is_integer(value) -> bool:
    """A Python or numpy integer; booleans are not integers here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _grid(dim: int, n: int, dtype) -> np.ndarray:
    """Integer coordinates 0..n of the grid's vertices in vertex order, shape ((n+1)^dim, dim)."""
    grid = np.empty(((n + 1) ** dim, dim), dtype=dtype)
    grid[:, _AXIS_ORDER[dim]] = np.indices((n + 1,) * dim, dtype=dtype).reshape(dim, -1).T
    return grid


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only."""
    arr.setflags(write=False)
    return arr


def _corners(boxes: np.ndarray, dim: int, n: int) -> np.ndarray:
    """Vertex indices of the low corners of boxes numbered in vertex order, in their
    dtype: box sum c_k n^k has the corner sum c_k (n + 1)^k, c_0 on the fastest axis."""
    return boxes + sum(boxes // n**k * (n + 1) ** (k - 1) for k in range(1, dim))


def _index(points: np.ndarray, side: int) -> np.ndarray:
    """Vertex indices of integer grid points (coordinates on the last axis)
    on a grid of ``side`` vertices per axis."""
    axes = _AXIS_ORDER[points.shape[-1]]
    return np.ravel_multi_index(tuple(points[..., a] for a in axes), (side,) * len(axes))


def _prolongation(dim: int, n: int) -> sp.csr_array:
    """The interpolation matrix from the mesh at m = ceil(n/2) to the one at n."""
    m = -(-n // 2)
    grid = _grid(dim, n, sp.get_index_dtype(maxval=n * (m + 1)))
    # in coarse grid units a fine vertex sits at grid * m / n = low + local / n
    low = np.minimum(grid * m // n, m - 1)
    local = grid * m - low * n  # n t, integers in [0, n]
    axes = np.argsort(-local, axis=1, kind="stable")
    # n, the sorted n t and 0, whose differences are the weights
    ends = np.pad(np.take_along_axis(local, axes, axis=1), ((0, 0), (1, 1)), constant_values=(n, 0))
    strides = _index(np.eye(dim, dtype=int), m + 1).astype(np.int32)[axes]  # of the path's steps
    del grid, local, axes  # each temporary is freed once used, before the floats are made
    cols = np.pad(strides.cumsum(axis=1, dtype=np.int32), ((0, 0), (1, 0)))
    cols += _index(low, m + 1).astype(np.int32, copy=False)[:, None]
    del strides, low
    weights = np.subtract(ends[:, :-1], ends[:, 1:], dtype=float) / n
    del ends
    stored = weights != 0.0
    indptr = np.pad(np.count_nonzero(stored, axis=1).cumsum(dtype=np.int32), (1, 0))
    return sp.csr_array((weights[stored], cols[stored], indptr), shape=(len(cols), (m + 1) ** dim))
