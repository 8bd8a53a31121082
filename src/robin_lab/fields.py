"""Boundary coefficients and volume sources.

A :class:`BoundaryField` is a nonnegative bounded scalar field on the
domain boundary.  Three representations are supported:

* ``constant`` - one value everywhere;
* ``per_facet`` - one value per boundary facet (row of the mesh's facet
  arrays), the canonical form for stability experiments because sup-norm
  differences of two such fields are exact (no quadrature error);
* ``closure`` - an arbitrary callable of the coordinates.

A closure receives the points of one block of at most `BLOCK` simplices
per call as an array ``p`` of shape (dim, k), so ``p[i]`` holds coordinate
i of those k points; it returns k values or a scalar, which is broadcast.
``lambda p: 1.0 + p[0]`` is a valid closure on every domain.  A block's
points are the only coordinates and closure temporaries alive at a time.

Negative and non-finite values are rejected at evaluation time, where the
evidence is; closures cannot be validated eagerly.  `compile_expression`
checks an expression's syntax tree against one tuple of node types, its
operators included, besides finite constants and coordinate names.

`interpolate` is the one sampling path: it carries nodal data (vertex
coordinates for a closure's points, a P1 solution for its level sets) to
barycentric points of cells or facets, each point summed in vertex order.

Sup norms are approximated by maxima over a per-facet sample set
consisting of the facet vertices plus the facet quadrature nodes, so
piecewise-linear and per-facet data are resolved exactly and closures are
sampled up to the corners.  `sup_gaps` is the one pairwise loop: the sup of
|row_n - row_m| for every pair of a family's coefficient tables or nodal
solutions, one row against all later rows at a time.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidCoefficientError
from .mesh import Mesh
from .quadrature import cell_rule, facet_rule

BLOCK = 2**14  # simplices per closure call, bounding point temporaries; 2^12 and 2^16 are slower


@dataclass(frozen=True, eq=False)
class _Field:
    """A field's kind and data; a closure is built from a function or an expression."""

    kind: str
    constant_value: float = None
    closure: object = None

    @classmethod
    def from_function(cls, fn):
        return cls(kind="closure", closure=fn)

    @classmethod
    def from_expression(cls, expr: str):
        return cls.from_function(compile_expression(expr))


@dataclass(frozen=True, eq=False)
class BoundaryField(_Field):
    """Nonnegative scalar coefficient on the boundary."""

    facet_values: np.ndarray = None

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


@dataclass(frozen=True, eq=False)
class SourceField(_Field):
    """Scalar source term on the domain."""

    @classmethod
    def constant(cls, value: float) -> "SourceField":
        value = float(value)
        if not np.isfinite(value):
            raise InvalidArgumentError(f"source constant must be finite, got {value}")
        return cls(kind="constant", constant_value=value)


def interpolate(nodal, ids, bary_points) -> np.ndarray:
    """Values with the vertex axis last at k barycentric points (rows of
    ``bary_points``) of each simplex, a row of vertex ``ids``: shape
    (..., len(ids), k), weight j going to column j, summed in column order."""
    out = np.zeros(np.shape(nodal)[:-1] + (len(ids), len(bary_points)))
    for corner, weights in zip(ids.T, np.asarray(bary_points, dtype=float).T):
        values = np.take(nodal, corner, axis=-1)
        for j, weight in enumerate(weights):
            out[..., j] += weight * values
    return out


def _tabulate(field, mesh: Mesh, ids, bary_points) -> np.ndarray:
    """A boundary or source field at barycentric points of the simplices
    ``ids``, shape (len(ids), k); a closure gets one block's points per
    call, in no promised order (see the module docstring)."""
    shape = (len(ids), len(bary_points))
    if field.kind == "constant":
        return np.full(shape, field.constant_value)
    if field.kind == "per_facet":
        if field.facet_values.size != shape[0]:
            raise InvalidArgumentError(
                f"per_facet field has {field.facet_values.size} values but the "
                f"mesh has {shape[0]} boundary facets"
            )
        return np.repeat(field.facet_values[:, None], shape[1], axis=1)
    out = np.empty(shape)
    for start in range(0, shape[0], BLOCK):
        points = interpolate(mesh.vertices.T, ids[start:start + BLOCK], bary_points)
        with np.errstate(all="ignore"):
            values = np.asarray(field.closure(points.reshape(mesh.dim, -1)), dtype=float)
        out[start:start + BLOCK] = np.broadcast_to(values, (points[0].size,)).reshape(-1, shape[1])
    return out


def eval_boundary(field: BoundaryField, mesh: Mesh, bary_points) -> np.ndarray:
    """Values at the barycentric points (k, dim) of every boundary facet's
    sorted vertices, shape (nf, k)."""
    values = _tabulate(field, mesh, mesh.facet_vertices, bary_points)
    invalid = ~(np.isfinite(values) & (values >= 0.0))
    if invalid.any():
        facet, j = np.argwhere(invalid)[0]
        raise InvalidCoefficientError(
            f"boundary coefficient is negative or not finite ({values[facet, j]}) "
            f"on facet {facet}"
        )
    return values


def eval_source(field: SourceField, mesh: Mesh, cells=None) -> np.ndarray:
    """Values at the cell rule points of ``cells`` (rows of vertex ids, by
    default every cell), shape (len(cells), nq)."""
    values = _tabulate(field, mesh, mesh.cells if cells is None else cells, cell_rule(mesh.dim)[0])
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError("source field evaluated to a non-finite value")
    return values


def _sample_points(mesh: Mesh) -> np.ndarray:
    """Barycentric sample set: the facet vertices, then the quad nodes."""
    rule_points, _ = facet_rule(mesh.dim)
    return np.vstack([np.eye(mesh.dim), rule_points])


def boundary_sup(field: BoundaryField, mesh: Mesh) -> float:
    """Max of the field over the boundary sample set (exact for constants)."""
    return float(eval_boundary(field, mesh, _sample_points(mesh)).max())


def boundary_sup_diff(betas, mesh: Mesh) -> np.ndarray:
    """(N, N) table of the sup over the boundary sample set of |beta_n - beta_m|
    (exact for per-facet data).  Each field is evaluated once; a constant or
    per-facet one at one sample per facet, which holds all its values."""
    points = _sample_points(mesh)
    values = [eval_boundary(b, mesh, points if b.kind == "closure" else points[:1]) for b in betas]
    return sup_gaps(values)


def sup_gaps(rows) -> np.ndarray:
    """(N, N) table of max |rows[n] - rows[m]| (the rows broadcast to one
    array), symmetric with a zero diagonal: each n against every m > n at
    once, since |a - b| == |b - a| exactly.  A non-finite gap raises."""
    rows = np.asarray([row.ravel() for row in np.broadcast_arrays(*rows)])
    table = np.zeros((len(rows), len(rows)))
    with np.errstate(all="ignore"):  # a non-finite gap is raised below
        for n in range(len(rows) - 1):
            table[n, n + 1 :] = table[n + 1 :, n] = np.abs(rows[n + 1 :] - rows[n]).max(axis=1)
    if not np.all(np.isfinite(table)):
        raise InvalidArgumentError("sup gaps must be finite")
    return table


_ALLOWED_NODES = (ast.Expression, ast.Load, ast.BinOp, ast.UnaryOp, ast.Add, ast.Sub, ast.Mult,
                  ast.Div, ast.UAdd, ast.USub)
_COORD_NAMES = ("x", "y", "z")
# a longer expression can nest deeper than Python's parser and evaluator
# recurse: a chain of about 1000 unary minus signs already fails
_MAX_EXPRESSION_CHARS = 500


def _parse_expression(expr: str) -> ast.Expression:
    """The syntax tree of an expression; InvalidArgumentError if too long or unparsable."""
    if len(expr) > _MAX_EXPRESSION_CHARS:
        raise InvalidArgumentError(
            f"field expression is longer than {_MAX_EXPRESSION_CHARS} characters"
        )
    try:
        return ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise InvalidArgumentError(f"cannot parse field expression {expr!r}: {exc}") from exc


def compile_expression(expr: str):
    """Compile a coordinate expression (x, y, z, + - * /, constants).

    Returns a closure taking a coordinate array ``p`` whose ``p[i]`` is
    coordinate i (a number, or an array of them); it evaluates element by
    element.  A constant subexpression that divides by zero is rejected
    here; using a variable the domain does not have (e.g. ``z`` on the
    square) fails at evaluation, or earlier through
    `check_expression_dimension`.
    """
    tree = _parse_expression(expr)
    for node in ast.walk(tree):
        if isinstance(node, _ALLOWED_NODES):  # ast.walk visits each operator too
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
    lacks (``y`` or ``z`` on the interval, ``z`` on the square) or does not parse."""
    names = {n.id for n in ast.walk(_parse_expression(expr)) if isinstance(n, ast.Name)}
    missing = sorted(names - set(_COORD_NAMES[:dim]))
    if missing:
        raise InvalidArgumentError(
            f"field expression {expr!r} references {', '.join(missing)}, which "
            f"the {dim}-dimensional domain does not have"
        )
