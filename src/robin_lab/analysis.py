"""Solution sup norms, the L^p norm of a source, level sets, and the trace
exponent.

Sup-norms are nodal maxima, which are exact for P1 functions.  Boundary
level-set measures use indicator fractions over per-facet sample points
(quadrature nodes plus the centroid), which is monotone in the threshold by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UnsupportedDimensionError
from .fields import SourceField, eval_source
from .mesh import Mesh, boundary_vertex_indices
from .quadrature import cell_rule, facet_rule


@dataclass(frozen=True, eq=False)
class DiscreteSolution:
    """Nodal coefficient vector tied to a mesh."""

    mesh: Mesh
    nodal_values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.nodal_values, dtype=float)
        if values.shape != (self.mesh.num_vertices,):
            raise InvalidArgumentError(
                f"nodal vector has shape {values.shape}, expected "
                f"({self.mesh.num_vertices},)"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("nodal values must be finite")
        object.__setattr__(self, "nodal_values", values)

    def __sub__(self, other: "DiscreteSolution") -> "DiscreteSolution":
        if other.mesh is not self.mesh:
            raise InvalidArgumentError("solutions live on different meshes")
        return DiscreteSolution(self.mesh, self.nodal_values - other.nodal_values)


def trace_exponent(d: int) -> float:
    """The trace exponent s = 2(d-1)/(d-2); requires d >= 3."""
    if d <= 2:
        raise UnsupportedDimensionError(
            f"exponent formulas degenerate for d = {d}; need d >= 3"
        )
    return 2.0 * (d - 1.0) / (d - 2.0)


def sup_norm(u: DiscreteSolution, region: str = "closure") -> float:
    """Max |nodal value| over the region (P1 extrema sit at vertices)."""
    values = np.abs(u.nodal_values)
    if region == "closure":
        selected = values
    elif region == "boundary":
        selected = values[boundary_vertex_indices(u.mesh)]
    else:
        raise InvalidArgumentError(f"region must be closure or boundary, got {region!r}")
    return float(selected.max()) if selected.size else 0.0


def lp_norm(f: SourceField, p: float, mesh: Mesh) -> float:
    """(int_Omega |f|^p)^(1/p) by the cell quadrature rule."""
    if p < 1.0:
        raise InvalidArgumentError(f"p must be >= 1, got {p}")
    _, weights = cell_rule(mesh.dim)
    values = eval_source(f, mesh)
    integral = float(np.einsum("e,q,eq->", mesh.cell_measures, weights, np.abs(values) ** p))
    return integral ** (1.0 / p)


def level_set_measure(u: DiscreteSolution, k: float) -> float:
    """Boundary measure of {|u| > k}, by indicator sample fractions."""
    if k < 0.0:
        raise InvalidArgumentError(f"level must be >= 0, got {k}")
    points, _ = facet_rule(u.mesh.dim)
    # indicator samples: the rule points plus the centroid
    nverts = points.shape[1]
    samples = np.vstack([points, np.full((1, nverts), 1.0 / nverts)])
    values = u.nodal_values[u.mesh.facet_vertices] @ samples.T  # (nf, nsamples)
    fractions = np.mean(np.abs(values) > k, axis=1)
    return float(u.mesh.facet_measures @ fractions)

