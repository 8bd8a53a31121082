"""Sup norms and level sets of nodal vectors (one value per mesh vertex),
the L^p norm of a source, and the trace exponent.

Sup-norms are nodal maxima, which are exact for P1 functions; the boundary
sup of u is ``sup_norm(u[boundary_vertex_indices(mesh)])``.  Boundary
level-set measures use indicator fractions over per-facet sample points
(quadrature nodes plus the centroid), which is monotone in the threshold by
construction.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, UnsupportedDimensionError
from .fields import SourceField, eval_source
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
    values = eval_source(f, mesh)
    with np.errstate(over="ignore"):  # an overflow is reported below, naming p
        powers = np.abs(values) ** p
        integral = float(np.einsum("e,q,eq->", mesh.cell_measures, weights, powers))
    if not np.isfinite(integral) or (integral == 0.0 and values.any()):
        raise InvalidArgumentError(f"int |f|^p = {integral:g} at p = {p:g}: beyond float range")
    return integral ** (1.0 / p)


def level_set_measure(u, mesh: Mesh, k: float) -> float:
    """Boundary measure of {|u| > k}, by indicator sample fractions."""
    if k < 0.0:
        raise InvalidArgumentError(f"level must be >= 0, got {k}")
    u = check_nodal(u, mesh)
    points, _ = facet_rule(mesh.dim)
    # indicator samples: the rule points plus the centroid
    nverts = points.shape[1]
    samples = np.vstack([points, np.full((1, nverts), 1.0 / nverts)])
    values = u[mesh.facet_vertices] @ samples.T  # (nf, nsamples)
    fractions = np.mean(np.abs(values) > k, axis=1)
    return float(mesh.facet_measures @ fractions)
