"""Exact solutions and reference constructions the tests compare the
package against.

The 1D problem -u'' + lam u = f on (0, 1) with u' = beta u at 0 and
-u' = beta u at 1 (the same beta at both ends) and constant data has the
closed form

    u(x) = f/lam + A cosh(sqrt(lam) (x - 1/2)),
    A = -(beta f / lam) / (sqrt(lam) sinh(sqrt(lam)/2) + beta cosh(sqrt(lam)/2))

On the square, -Laplace(u) + lam u = 1 with du/dnu + beta u = 0 separates:
`robin_square_series` expands u in the even Robin modes cos(mu_j (x - 1/2))
of x, with mu_j tan(mu_j / 2) = beta, and solves each mode's equation in y
with the closed form above at lam + mu_j^2.

The boundary facets of any conforming simplicial mesh are the faces that
belong to exactly one cell; `boundary_facets_by_count` finds them by
counting every face, independently of the box geometry the mesh uses.

`simplex_geometry` computes every cell's basis gradients and determinant
from its own vertex coordinates, and `assemble_by_cells` assembles
K + lam*M from them cell by cell, independently of the Kuhn reference
blocks the package tiles.

`cells_by_formula` lists the cells box-major and path-minor from the
vertices' grid positions, looked up like the transfers' corners below:
the order the package's range generator `Mesh.cell_rows` must reproduce.

`prolongations_by_corners` builds the multigrid transfers from each fine
vertex's coarse simplex corners as grid points, looked up in the coarse
mesh's vertices and converted from COO, and `cell_points_by_einsum` places
the cell rule points with one einsum over each cell's vertex coordinates:
the forms the package's closed-form CSR and coordinate-major builds must
reproduce bit for bit.

`csv_cell_by_cell` writes a numeric table one cell at a time, without the
per-block formatting of distinct values that the CLI's writer does.
`csv_row_by_row` joins the CLI's cells one row at a time, with no row
blocks, and `points_pair_by_pair` formats polyline points one pair at a
time with the % operator: the forms whose bytes the CLI's block joins and
numpy rounding must reproduce.
"""

import functools
import itertools
import math

import numpy as np
import scipy.sparse as sp

from robin_lab.cli import _cells
from robin_lab.errors import InvalidArgumentError
from robin_lab.mesh import Mesh, kuhn_paths
from robin_lab.quadrature import cell_rule


def all_cells(mesh):
    """Every cell's vertex indices, shape (num_cells, dim + 1): the one range
    from 0 to num_cells."""
    return mesh.cell_rows(0, mesh.num_cells)


def all_vertices(mesh):
    """Every vertex's coordinates, shape (num_vertices, dim): the one range
    from 0 to num_vertices, vertex-major."""
    return mesh.coordinates(0, mesh.num_vertices).T


def analytic_interval_solution(lam: float, beta: float, f_const: float):
    """Closed-form 1D solution for constant data, same beta at both ends."""
    if lam <= 0.0:
        raise InvalidArgumentError(f"lambda must be > 0, got {lam}")
    if beta < 0.0:
        raise InvalidArgumentError(f"beta must be >= 0, got {beta}")
    root = math.sqrt(lam)
    amp = -(beta * f_const / lam) / (
        root * math.sinh(root / 2.0) + beta * math.cosh(root / 2.0)
    )

    def evaluate(x: float) -> float:
        return f_const / lam + amp * math.cosh(root * (x - 0.5))

    return evaluate


def robin_square_series(lam: float, beta: float, modes: int = 1000):
    """The exact solution for f = 1 and a constant beta > 0 on (0, 1)^2 as a
    function of an (m, 2) array of points, summed over the first ``modes``
    even modes u = sum_j c_j cos(mu_j (x - 1/2)) w_j(y).  c_j = int X_j /
    int X_j^2 expands 1 in the modes X_j, and w_j solves -w'' + (lam +
    mu_j^2) w = 1 with the Robin condition, written with cosh(r s) /
    cosh(r/2) = e^(r (s - 1/2)) (1 + e^(-2 r s)) / (1 + e^(-r)) at
    s = |y - 1/2| so that no term overflows."""
    mu = _even_robin_roots(float(beta), modes)
    coeffs = (2.0 * np.sin(mu / 2.0) / mu) / (0.5 + np.sin(mu) / (2.0 * mu))
    r = np.sqrt(lam + mu**2)

    def evaluate(points):
        # the series separates, so it is summed once on the grid of the
        # points' distinct coordinates
        (x, ix), (y, iy) = (np.unique(c, return_inverse=True) for c in np.asarray(points).T)
        s = np.abs(y - 0.5)[:, None]
        ratio = np.exp(r * (s - 0.5)) * (1.0 + np.exp(-2.0 * r * s)) / (1.0 + np.exp(-r))
        w = (1.0 - beta * ratio / (r * np.tanh(r / 2.0) + beta)) / r**2
        return ((coeffs * np.cos(np.outer(x - 0.5, mu))) @ w.T)[ix, iy]

    return evaluate


@functools.lru_cache(maxsize=None)
def _even_robin_roots(beta: float, modes: int) -> np.ndarray:
    """mu_j in (2 pi j, 2 pi j + pi) with mu_j tan(mu_j / 2) = beta, j < modes,
    by bisection on t = mu_j / 2 - pi j in (0, pi/2), where (2 pi j + 2t) tan t
    rises from 0 to infinity."""
    base = 2.0 * np.pi * np.arange(modes)
    lo, hi = np.zeros(modes), np.full(modes, np.pi / 2.0)
    for _ in range(64):
        mid = (lo + hi) / 2.0
        above = (base + 2.0 * mid) * np.tan(mid) > beta
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    mu = base + lo + hi
    mu.setflags(write=False)
    return mu


def boundary_facets_by_count(mesh):
    """``(facet_vertices, facet_measures)`` of the faces that occur in exactly
    one cell, in cell-major and then ``itertools.combinations`` order, each
    row's vertices sorted.  Every face is sorted and keyed by one integer for
    ``np.unique``, so meshes of benchmark size take milliseconds."""
    dim = mesh.dim
    combos = list(itertools.combinations(range(dim + 1), dim))
    faces = np.sort(all_cells(mesh)[:, combos], axis=2).reshape(-1, dim)
    keys = np.ravel_multi_index(faces.T, (mesh.num_vertices,) * dim)
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    facet_vertices = faces[counts[inverse] == 1]
    pts = all_vertices(mesh)[facet_vertices]  # (nf, dim, dim)
    if dim == 1:
        measures = np.ones(len(facet_vertices))  # counting measure on the endpoints
    elif dim == 2:
        measures = np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
    else:
        cross = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
        measures = np.linalg.norm(cross, axis=1) / 2.0
    return facet_vertices, measures


def simplex_geometry(vertices, cells):
    """``(grads, det)``: the P1 basis gradients of every cell, shape
    (dim + 1, dim, nc) with the cell last, and the determinant of its edge
    matrix E (row i is vertex i+1 minus vertex 0), in closed form: E^-1 =
    cof^T / det, so rows 1..dim of the gradients are the cofactor rows over
    the determinant and row 0 is minus their sum."""
    coords, corners = np.asarray(vertices, dtype=float).T, np.asarray(cells).T
    e = np.take(coords, corners[1:], axis=1) - np.take(coords, corners[:1], axis=1)
    e = e.swapaxes(0, 1)  # (edge, coordinate, cell)
    d = len(e)
    if d == 1:
        cof = np.ones(e.shape)
    elif d == 2:
        cof = e[::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]
    else:  # row r is the cross product of edges r+1 and r+2, cyclically
        cof = np.empty(e.shape)
        for r, k in itertools.product(range(3), repeat=2):
            s, t, u, v = (r + 1) % 3, (r + 2) % 3, (k + 1) % 3, (k + 2) % 3
            cof[r, k] = e[s, u] * e[t, v] - e[s, v] * e[t, u]
    det = np.einsum("kc,kc->c", e[0], cof[0])
    grads = np.tensordot(np.vstack([-np.ones(d), np.eye(d)]), cof, axes=1) / det
    return grads, det


def assemble_by_cells(mesh, lam, lumped, stiffness=True):
    """K + lam*M, or lam*M alone without ``stiffness``, as the sum over cells
    of |T| (G G^T + lam P), with G and |T| = |det| / d! of each cell taken
    from its own coordinates, in one COO -> CSR conversion with zero
    entries dropped."""
    d, nc = mesh.dim, mesh.num_cells
    cells = all_cells(mesh)
    grads, det = simplex_geometry(all_vertices(mesh), cells)
    pattern = np.eye(d + 1) / (d + 1) if lumped else (1.0 + np.eye(d + 1)) / ((d + 1) * (d + 2))
    gram = np.einsum("akc,bkc->cab", grads, grads) if stiffness else 0.0
    blocks = (gram + lam * pattern) * (np.abs(det) / math.factorial(d))[:, None, None]
    rows = np.repeat(cells, d + 1, axis=1)
    cols = np.tile(cells, (1, d + 1))
    data = np.broadcast_to(blocks, (nc, d + 1, d + 1)).ravel()
    shape = (mesh.num_vertices,) * 2
    out = sp.coo_array((data, (rows.ravel(), cols.ravel())), shape=shape).tocsr()
    out.eliminate_zeros()
    return out


def cells_by_formula(mesh):
    """Every cell's vertex indices: the boxes in the order of their low
    corner's vertex index, each with the d! `kuhn_paths` from that corner."""
    grid = np.rint(all_vertices(mesh) * mesh.n).astype(np.int64)
    index = np.empty((mesh.n + 1,) * mesh.dim, dtype=np.int64)
    index[tuple(grid.T)] = np.arange(len(grid))
    corners = grid[(grid < mesh.n).all(axis=1)]
    positions = corners[:, None, None, :] + kuhn_paths(mesh.dim)  # (boxes, d!, d + 1, d)
    return index[tuple(np.moveaxis(positions, -1, 0))].reshape(-1, mesh.dim + 1)


def prolongations_by_corners(mesh):
    """The chain of `robin_lab.mesh.prolongations`, n -> ceil(n/2) while
    n > 3, with row i holding fine vertex i's weights on the corners of its
    coarse Kuhn simplex: with t its coordinates in its coarse grid box,
    sorted so that t(1) >= ... >= t(d), the weights 1 - t(1), t(1) - t(2),
    ..., t(d) sit on the path from the box's low corner that steps along the
    axes in that order.  Each corner is a coarse grid point, found among the
    coarse mesh's vertices; zero weights are dropped."""
    dim, n = mesh.dim, mesh.n
    out = []
    while n > 3:
        m = -(-n // 2)
        grid = np.rint(all_vertices(Mesh(dim, n)) * n).astype(np.int64)
        coarse = np.rint(all_vertices(Mesh(dim, m)) * m).astype(np.int64)
        index = np.empty((m + 1,) * dim, dtype=np.int64)
        index[tuple(coarse.T)] = np.arange(len(coarse))
        # in coarse grid units a fine vertex sits at grid * m / n = low + local / n
        low = np.minimum(grid * m // n, m - 1)
        local = grid * m - low * n
        axes = np.argsort(-local, axis=1, kind="stable")
        weights = -np.diff(np.take_along_axis(local, axes, axis=1), prepend=n, append=0) / n
        steps = np.cumsum(axes[:, :, None] == np.arange(dim), axis=1)
        corners = np.concatenate([low[:, None], low[:, None] + steps], axis=1)
        cols = index[tuple(np.moveaxis(corners, -1, 0))]
        rows = np.repeat(np.arange(len(grid)), dim + 1)
        P = sp.csr_array((weights.ravel(), (rows, cols.ravel())), shape=(len(grid), len(coarse)))
        P.eliminate_zeros()
        out.append(P)
        n = m
    return out


def cell_points_by_einsum(mesh):
    """The cell rule points of every cell in physical coordinates, shape
    (nc, nq, dim): the barycentric rule rows times the cell's vertices."""
    rule_points, _ = cell_rule(mesh.dim)
    return np.einsum("qk,ckd->cqd", rule_points, all_vertices(mesh)[all_cells(mesh)])


def csv_cell_by_cell(header, columns) -> str:
    """A numeric table as text, row by row with every cell through "%.17g":
    the plain writer whose bytes emit_csv must reproduce."""
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    lines = [",".join(header)] + [",".join("%.17g" % cell for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def csv_row_by_row(header, columns) -> str:
    """A table as text, each whole column through the CLI's cell rule and
    every row through one "%s,...,%s\\n"."""
    line = ",".join(["%s"] * len(columns)) + "\n"
    rows = zip(*(_cells(column) for column in columns))
    return ",".join(header) + "\n" + "".join(map(line.__mod__, rows))


def points_pair_by_pair(coords) -> str:
    """Interleaved x, y coordinates as "%.3f,%.3f" points joined by " "."""
    pairs = zip(coords[0::2].tolist(), coords[1::2].tolist())
    return " ".join(map("%.3f,%.3f".__mod__, pairs))
