"""Boundary coefficients and volume sources.

A :class:`BoundaryField` is a nonnegative bounded scalar field on the
domain boundary.  Three representations are supported:

* ``constant`` - one value everywhere;
* ``per_facet`` - one value per boundary facet (row of the mesh's facet
  arrays), the canonical form for stability experiments because sup-norm
  differences of two such fields are exact (no quadrature error);
* ``closure`` - an arbitrary callable of the coordinates.

A closure receives every evaluation point at once as an array ``p`` of
shape (dim, k), so ``p[i]`` holds coordinate i of all k points; it returns
k values or a scalar, which is broadcast.  ``lambda p: 1.0 + p[0]`` is a
valid closure on every domain.

Negative and non-finite values are rejected at evaluation time, where the
evidence is; closures cannot be validated eagerly.

Sup norms are approximated by maxima over a per-facet sample set
consisting of the facet vertices plus the facet quadrature nodes, so
piecewise-linear and per-facet data are resolved exactly and closures are
sampled up to the corners.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidCoefficientError
from .mesh import Mesh
from .quadrature import cell_rule, facet_rule


@dataclass(frozen=True, eq=False)
class BoundaryField:
    """Nonnegative scalar coefficient on the boundary."""

    kind: str
    constant_value: float = None
    facet_values: np.ndarray = None
    closure: object = None

    @classmethod
    def constant(cls, value: float) -> "BoundaryField":
        return cls(kind="constant", constant_value=float(value))

    @classmethod
    def per_facet(cls, values) -> "BoundaryField":
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidArgumentError("per_facet values must be a nonempty 1-d sequence")
        arr.setflags(write=False)
        return cls(kind="per_facet", facet_values=arr)

    @classmethod
    def from_function(cls, fn) -> "BoundaryField":
        return cls(kind="closure", closure=fn)

    @classmethod
    def from_expression(cls, expr: str) -> "BoundaryField":
        return cls.from_function(compile_expression(expr))


@dataclass(frozen=True, eq=False)
class SourceField:
    """Scalar source term on the domain."""

    kind: str
    constant_value: float = None
    closure: object = None

    @classmethod
    def constant(cls, value: float) -> "SourceField":
        value = float(value)
        if not np.isfinite(value):
            raise InvalidArgumentError(f"source constant must be finite, got {value}")
        return cls(kind="constant", constant_value=value)

    @classmethod
    def from_function(cls, fn) -> "SourceField":
        return cls(kind="closure", closure=fn)

    @classmethod
    def from_expression(cls, expr: str) -> "SourceField":
        return cls.from_function(compile_expression(expr))


def eval_boundary(field: BoundaryField, mesh: Mesh, bary_points) -> np.ndarray:
    """Values at barycentric points of every boundary facet, shape (nf, k).

    ``bary_points`` has shape (k, dim): row j is a point in barycentric
    coordinates of the facet's (sorted) vertices.
    """
    bary_points = np.asarray(bary_points, dtype=float)
    shape = (mesh.num_facets, bary_points.shape[0])
    if field.kind == "constant":
        values = np.full(shape, field.constant_value)
    elif field.kind == "per_facet":
        if field.facet_values.size != mesh.num_facets:
            raise InvalidArgumentError(
                f"per_facet field has {field.facet_values.size} values but the "
                f"mesh has {mesh.num_facets} boundary facets"
            )
        values = np.repeat(field.facet_values[:, None], shape[1], axis=1)
    else:
        physical = bary_points @ mesh.vertices[mesh.facet_vertices]  # (nf, k, dim)
        values = _eval_closure(field.closure, physical.reshape(-1, mesh.dim))
        values = values.reshape(shape)
    invalid = ~(np.isfinite(values) & (values >= 0.0))
    if invalid.any():
        facet, j = np.argwhere(invalid)[0]
        raise InvalidCoefficientError(
            f"boundary coefficient is negative or not finite ({values[facet, j]}) "
            f"on facet {facet}"
        )
    return values


def eval_source(field: SourceField, mesh: Mesh) -> np.ndarray:
    """Values at the cell rule points of every cell, shape (nc, nq)."""
    rule_points, _ = cell_rule(mesh.dim)
    shape = (mesh.num_cells, rule_points.shape[0])
    if field.kind == "constant":
        values = np.full(shape, field.constant_value)
    else:
        physical = np.einsum("qk,ckd->cqd", rule_points, mesh.vertices[mesh.cells])
        values = _eval_closure(field.closure, physical.reshape(-1, mesh.dim))
        values = values.reshape(shape)
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError("source field evaluated to a non-finite value")
    return values


def _eval_closure(fn, points: np.ndarray) -> np.ndarray:
    """fn at all points (k, dim) in one call; see the module docstring."""
    with np.errstate(all="ignore"):
        values = np.asarray(fn(points.T), dtype=float)
    return np.broadcast_to(values, points.shape[:1])


def _sample_points(mesh: Mesh) -> np.ndarray:
    """Barycentric sample set: the facet vertices, then the quad nodes."""
    rule_points, _ = facet_rule(mesh.dim)
    return np.vstack([np.eye(mesh.dim), rule_points])


def boundary_sup(field: BoundaryField, mesh: Mesh) -> float:
    """Max of the field over the boundary sample set (exact for constants)."""
    return float(eval_boundary(field, mesh, _sample_points(mesh)).max())


def boundary_sup_diff(a: BoundaryField, b: BoundaryField, mesh: Mesh) -> float:
    """Sup over the boundary sample set of |a - b| (exact for per-facet data)."""
    points = _sample_points(mesh)
    diff = eval_boundary(a, mesh, points) - eval_boundary(b, mesh, points)
    return float(np.abs(diff).max())


_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)
_COORD_NAMES = ("x", "y", "z")
# a longer expression can nest deeper than Python's parser and evaluator
# recurse: a chain of about 1000 unary minus signs already fails
_MAX_EXPRESSION_CHARS = 500


def compile_expression(expr: str):
    """Compile a coordinate expression (x, y, z, + - * /, constants).

    Returns a closure taking a coordinate array ``p`` whose ``p[i]`` is
    coordinate i (a number, or an array of them); it evaluates element by
    element.  A constant subexpression that divides by zero is rejected
    here; using a variable the domain does not have (e.g. ``z`` on the
    square) fails at evaluation, or earlier through
    `check_expression_dimension`.
    """
    if len(expr) > _MAX_EXPRESSION_CHARS:
        raise InvalidArgumentError(
            f"field expression is longer than {_MAX_EXPRESSION_CHARS} characters"
        )
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise InvalidArgumentError(f"cannot parse field expression {expr!r}: {exc}") from exc
    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.Load)):
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
            continue
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_UNARY):
            continue
        if isinstance(node, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.UAdd, ast.USub)):
            continue
        if isinstance(node, ast.Constant) and is_finite_number(node.value):
            continue
        if isinstance(node, ast.Name) and node.id in _COORD_NAMES:
            continue
        raise InvalidArgumentError(
            f"field expression {expr!r} uses unsupported syntax "
            f"({type(node).__name__}); allowed: x, y, z, + - * /, finite numbers"
        )
    code = compile(tree, "<field-expression>", "eval")

    # numpy coordinates divide by zero to inf or nan; only arithmetic on
    # constants alone raises, whatever the point, so one probe finds it
    # (float() catches an integer product beyond the float range)
    probe = dict.fromkeys(_COORD_NAMES, np.float64(0.0))
    try:
        with np.errstate(all="ignore"):
            float(eval(code, {"__builtins__": {}}, probe))
    except ArithmeticError as exc:
        raise InvalidArgumentError(
            f"field expression {expr!r} cannot be evaluated: {exc}"
        ) from exc

    def evaluate(point):
        scope = {name: point[i] for i, name in enumerate(_COORD_NAMES) if i < len(point)}
        try:
            return eval(code, {"__builtins__": {}}, scope)
        except NameError as exc:
            raise InvalidArgumentError(
                f"field expression {expr!r} references a coordinate the "
                f"{len(point)}-dimensional domain does not have"
            ) from exc

    return evaluate


def is_finite_number(value) -> bool:
    """An int or float within the float range; booleans are not numbers here."""
    # int-float comparison is exact, and NaN compares false
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    return ok and abs(value) <= sys.float_info.max


def check_expression_dimension(expr: str, dim: int) -> None:
    """Reject an expression that names a coordinate a dim-dimensional domain
    lacks (``y`` or ``z`` on the interval, ``z`` on the square)."""
    tree = ast.parse(expr, mode="eval")
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    missing = sorted(names - set(_COORD_NAMES[:dim]))
    if missing:
        raise InvalidArgumentError(
            f"field expression {expr!r} references {', '.join(missing)}, which "
            f"the {dim}-dimensional domain does not have"
        )
