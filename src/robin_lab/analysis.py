"""Sup norms and level sets of nodal vectors (one value per mesh vertex),
the L^p norm of a source, and the trace exponent.

Sup-norms are nodal maxima, which are exact for P1 functions; the boundary
sup of u is ``sup_norm(u[boundary_vertex_indices(mesh)])``.  Boundary
level-set measures use indicator fractions over per-facet sample points
(quadrature nodes plus the centroid, placed by `fields.interpolate`), which
is monotone in the threshold by construction.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, UnsupportedDimensionError
from .fields import SourceField, interpolate, source_blocks
from .mesh import Mesh
from .quadrature import cell_rule, facet_rule


def trace_exponent(d: int) -> float:
    """The trace exponent s = 2(d-1)/(d-2); requires d >= 3."""
    if d <= 2:
        raise UnsupportedDimensionError(
            f"exponent formulas degenerate for d = {d}; need d >= 3"
        )
    return 2.0 * (d - 1.0) / (d - 2.0)


def sup_norm(values) -> float:
    """Max |value| over the given nodal values (P1 extrema sit at vertices)."""
    values = np.abs(np.asarray(values, dtype=float))
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError("nodal values must be finite")
    return float(values.max()) if values.size else 0.0


def check_nodal(u, mesh: Mesh) -> np.ndarray:
    """u as a float array, checked to hold one value per vertex of mesh."""
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.num_vertices,):
        raise InvalidArgumentError(
            f"nodal vector has shape {u.shape}, expected ({mesh.num_vertices},)"
        )
    return u


def lp_norm(f: SourceField, p: float, mesh: Mesh) -> float:
    """(int_Omega |f|^p)^(1/p) by the cell quadrature rule."""
    if not p >= 1.0:  # NaN included
        raise InvalidArgumentError(f"p must be >= 1, got {p}")
    _, weights = cell_rule(mesh.dim)
    sums, nonzero = [], False
    with np.errstate(over="ignore"):  # an overflow is reported below, naming p
        for _, values in source_blocks(f, mesh):
            sums.append(np.abs(values) ** p @ weights)
            nonzero = nonzero or values.any()
        integral = mesh.cell_measure * float(np.sum(np.concatenate(sums)))
    # a subnormal integral has lost digits: refused like an underflow to 0
    if not np.isfinite(integral) or (integral < np.finfo(float).tiny and nonzero):
        raise InvalidArgumentError(f"int |f|^p = {integral:g} at p = {p:g}: beyond float range")
    return integral ** (1.0 / p)


def level_set_measure(u, mesh: Mesh, k):
    """Boundary measure of {|u| > k}, by indicator sample fractions; a 1-D
    array of levels k gives an array of measures from one interpolation."""
    levels = np.asarray(k, dtype=float)
    if not np.all(levels >= 0.0):  # NaN included
        raise InvalidArgumentError(f"level must be >= 0, got {k}")
    u = check_nodal(u, mesh)
    points, _ = facet_rule(mesh.dim)
    # indicator samples: the rule points plus the centroid
    samples = np.vstack([points, np.full((1, mesh.dim), 1.0 / mesh.dim)])
    values = np.sort(np.abs(interpolate(u, mesh.facet_vertices, samples)), axis=None)
    counts = np.searchsorted(values, [np.inf, *levels.flat], "right")  # NaN sorts last
    measures = mesh.facet_measure * (counts[0] - counts[1:]) / len(samples)
    return float(measures[0]) if levels.ndim == 0 else measures
