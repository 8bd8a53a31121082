"""Solution-level quantities: norms, traces, truncations, and level sets.

Sup-norms are nodal maxima, which are exact for P1 functions.  Level-set
measures use indicator fractions over per-entity sample points (quadrature
nodes plus the centroid), which is monotone in the threshold by
construction.  Truncation is applied nodally; crossing points inside cells
are not inserted, so it is a diagnostic-grade interpolation of the
continuous operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly
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

    def __add__(self, other: "DiscreteSolution") -> "DiscreteSolution":
        if other.mesh is not self.mesh:
            raise InvalidArgumentError("solutions live on different meshes")
        return DiscreteSolution(self.mesh, self.nodal_values + other.nodal_values)


@dataclass(frozen=True)
class Exponents:
    """Sobolev embedding exponent q and trace exponent s for dimension d."""

    d: int
    q: float
    s: float


def exponents(d: int) -> Exponents:
    """q = 2d/(d-2) and s = 2(d-1)/(d-2); requires d >= 3."""
    if d <= 2:
        raise UnsupportedDimensionError(
            f"exponent formulas degenerate for d = {d}; need d >= 3"
        )
    return Exponents(d=d, q=2.0 * d / (d - 2.0), s=2.0 * (d - 1.0) / (d - 2.0))


def sup_norm(u: DiscreteSolution, region: str = "closure") -> float:
    """Max |nodal value| over the region (P1 extrema sit at vertices)."""
    values = np.abs(u.nodal_values)
    if region == "closure":
        selected = values
    elif region == "boundary":
        selected = values[boundary_vertex_indices(u.mesh)]
    elif region == "interior":
        interior = np.setdiff1d(
            np.arange(u.mesh.num_vertices), boundary_vertex_indices(u.mesh)
        )
        selected = values[interior]
    else:
        raise InvalidArgumentError(
            f"region must be closure, boundary, or interior, got {region!r}"
        )
    return float(selected.max()) if selected.size else 0.0


def _region_entities(mesh: Mesh, region: str, order: int):
    """(vertex index array, measures, barycentric rule points, weights)."""
    if region == "domain":
        points, weights = cell_rule(mesh.dim, order)
        return mesh.cells, mesh.cell_measures, points, weights
    if region == "boundary":
        points, weights = facet_rule(mesh.dim, order)
        return mesh.facet_vertices, mesh.facet_measures, points, weights
    raise InvalidArgumentError(f"region must be domain or boundary, got {region!r}")


def lp_norm(
    obj,
    p: float,
    region: str = "domain",
    quad_order: int = 2,
    mesh: Mesh = None,
) -> float:
    """(int |obj|^p)^(1/p) by quadrature over cells or facets.

    ``obj`` is a DiscreteSolution (either region) or a SourceField (domain
    only; pass the mesh explicitly).
    """
    if p < 1.0:
        raise InvalidArgumentError(f"p must be >= 1, got {p}")
    if isinstance(obj, DiscreteSolution):
        mesh = obj.mesh
        ids, measures, points, weights = _region_entities(mesh, region, quad_order)
        values = obj.nodal_values[ids] @ points.T  # (nent, nq)
    elif isinstance(obj, SourceField):
        if region != "domain":
            raise InvalidArgumentError("source fields are defined on the domain only")
        if mesh is None:
            raise InvalidArgumentError("lp_norm of a source field needs a mesh")
        ids, measures, points, weights = _region_entities(mesh, region, quad_order)
        physical = np.einsum("qk,ckd->cqd", points, mesh.vertices[ids])
        nent, nq, dim = physical.shape
        values = eval_source(obj, physical.reshape(-1, dim)).reshape(nent, nq)
    else:
        raise InvalidArgumentError(f"cannot take lp_norm of {type(obj).__name__}")
    integral = float(np.einsum("e,q,eq->", measures, weights, np.abs(values) ** p))
    return integral ** (1.0 / p)


def h1_norm(u: DiscreteSolution) -> float:
    """sqrt(u'Ku + u'Mu) with stiffness and consistent mass on u's mesh."""
    stiffness = assembly.assemble_stiffness(u.mesh)
    mass = assembly.assemble_mass(u.mesh)
    v = u.nodal_values
    return float(np.sqrt(v @ (stiffness @ v) + v @ (mass @ v)))


def truncate(u: DiscreteSolution, k: float) -> DiscreteSolution:
    """Nodal interpolation of (|u| - k)^+ sgn(u)."""
    if k < 0.0:
        raise InvalidArgumentError(f"truncation level must be >= 0, got {k}")
    v = u.nodal_values
    return DiscreteSolution(u.mesh, np.maximum(np.abs(v) - k, 0.0) * np.sign(v))


def _indicator_points(points: np.ndarray, order: int) -> np.ndarray:
    """Sample set for level sets: rule points plus the centroid."""
    if order >= 2:
        nverts = points.shape[1]
        centroid = np.full((1, nverts), 1.0 / nverts)
        return np.vstack([points, centroid])
    return points


def level_set_measure(
    u: DiscreteSolution, k: float, region: str = "boundary", quad_order: int = 2
) -> float:
    """Measure of {|u| > k} in the region, by indicator sample fractions."""
    if k < 0.0:
        raise InvalidArgumentError(f"level must be >= 0, got {k}")
    ids, measures, points, _ = _region_entities(u.mesh, region, quad_order)
    samples = _indicator_points(points, quad_order)
    values = u.nodal_values[ids] @ samples.T  # (nent, nsamples)
    fractions = np.mean(np.abs(values) > k, axis=1)
    return float(measures @ fractions)


def trace_values(u: DiscreteSolution) -> np.ndarray:
    """Nodal values restricted to the boundary vertices (sorted indices)."""
    return u.nodal_values[boundary_vertex_indices(u.mesh)]


def trace_constant_estimate(u: DiscreteSolution, d: int) -> float:
    """Boundary s-norm over the H1 norm: an empirical trace-constant bound."""
    if sup_norm(u, "closure") == 0.0:
        raise InvalidArgumentError("trace constant is undefined for the zero solution")
    s = exponents(d).s
    return lp_norm(u, s, region="boundary") / h1_norm(u)
