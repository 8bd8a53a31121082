"""Exact solutions and reference constructions the tests compare the
package against.

The 1D problem -u'' + lam u = f on (0, 1) with u' = beta u at 0 and
-u' = beta u at 1 (the same beta at both ends) and constant data has the
closed form

    u(x) = f/lam + A cosh(sqrt(lam) (x - 1/2)),
    A = -(beta f / lam) / (sqrt(lam) sinh(sqrt(lam)/2) + beta cosh(sqrt(lam)/2))

The boundary facets of any conforming simplicial mesh are the faces that
belong to exactly one cell; `boundary_facets_by_count` finds them by
counting every face, independently of the box geometry the mesh uses.
"""

import itertools
import math

import numpy as np

from robin_lab.errors import InvalidArgumentError


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


def boundary_facets_by_count(mesh):
    """``(facet_vertices, facet_measures)`` of the faces that occur in exactly
    one cell, in cell-major and then ``itertools.combinations`` order, each
    row's vertices sorted.  Every face is sorted and keyed by one integer for
    ``np.unique``, so meshes of benchmark size take milliseconds."""
    dim = mesh.dim
    combos = list(itertools.combinations(range(dim + 1), dim))
    faces = np.sort(mesh.cells[:, combos], axis=2).reshape(-1, dim)
    keys = np.ravel_multi_index(faces.T, (mesh.num_vertices,) * dim)
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    facet_vertices = faces[counts[inverse] == 1]
    pts = mesh.vertices[facet_vertices]  # (nf, dim, dim)
    if dim == 1:
        measures = np.ones(len(facet_vertices))  # counting measure on the endpoints
    elif dim == 2:
        measures = np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
    else:
        cross = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
        measures = np.linalg.norm(cross, axis=1) / 2.0
    return facet_vertices, measures
