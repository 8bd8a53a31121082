"""Boundary coefficients and volume sources.

A :class:`BoundaryField` is a nonnegative bounded scalar field on the
domain boundary.  Three representations are supported:

* ``constant`` - one value everywhere;
* ``per_facet`` - one value per boundary facet (row of the mesh's facet
  arrays), the canonical form for stability experiments because sup-norm
  differences of two such fields are exact (no quadrature error);
* ``closure`` - an arbitrary callable of the coordinates.

Every field is sampled by one walk over blocks of at most `BLOCK` facets
or cells, in order: `eval_boundary` gathers the facet blocks into one
table, and `source_blocks` yields the cell blocks, generated by
`Mesh.cell_rows`, so no table of a source over every cell, and no array of
every cell or vertex, is held.  A closure gets one block's points per call,
placed from the coordinates of the vertex range the block touches, as an
array ``p`` of shape (dim, k), ``p[i]`` holding coordinate i of those k
points, and returns k values or a scalar, which is broadcast:
``lambda p: 1.0 + p[0]`` is a valid closure on every domain.

Negative and non-finite values are rejected at evaluation time, where the
evidence is; closures cannot be validated eagerly.  `compile_expression`
checks an expression's syntax tree against one tuple of node types, its
operators included, besides finite constants and coordinate names.

`interpolate` is the one sampling path: it carries nodal data (vertex
coordinates for a closure's points, a P1 solution for its level sets) to
barycentric points of cells or facets, each point summed in vertex order.

Sup norms are maxima over one per-facet sample set: a closure at the facet
vertices and quadrature nodes, so up to the corners, and constant or
per-facet data at one point per facet, which resolves it exactly.
`sup_gaps` is the one pairwise loop: the sup of |row_n - row_m| for every
pair of a family's coefficient tables or nodal solutions, one row against
all later rows at a time.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidCoefficientError
from .mesh import Mesh
from .quadrature import cell_rule, facet_rule

BLOCK = 2**14  # simplices per block of the walk, bounding temporaries; 2^12 and 2^16 are slower


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
        arr = np.array(values, dtype=float)  # a copy: the caller's array stays writable
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


def _tabulate(field, mesh: Mesh, source, bary_points):
    """The one block walk over a (count, rows) source, ``rows(start, stop)`` being the
    vertex ids of simplices start..stop - 1: (block, values) for each block of at most
    `BLOCK` of them in order, values being the field at their barycentric points, shape
    (len(block), k); a closure is called once per block, on points placed from the
    coordinates of the block's vertex range."""
    count, rows = source
    if field.kind == "per_facet" and field.facet_values.size != count:
        raise InvalidArgumentError(
            f"per_facet field has {field.facet_values.size} values but the "
            f"mesh has {count} boundary facets"
        )
    for start in range(0, count, BLOCK):
        block = rows(start, min(start + BLOCK, count))
        if field.kind == "constant":
            values = np.full((len(block), len(bary_points)), field.constant_value)
        elif field.kind == "per_facet":
            values = field.facet_values[start:start + BLOCK, None].repeat(len(bary_points), axis=1)
        else:
            low = block.min()
            points = interpolate(mesh.coordinates(low, block.max() + 1), block - low, bary_points)
            with np.errstate(all="ignore"):
                values = np.asarray(field.closure(points.reshape(mesh.dim, -1)), dtype=float)
            # copied, so a scalar gives a contiguous block, with the bits of any other
            values = np.array(np.broadcast_to(values, (points[0].size,))).reshape(points[0].shape)
        yield block, values


def eval_boundary(field: BoundaryField, mesh: Mesh, bary_points) -> np.ndarray:
    """Values at the barycentric points (k, dim) of every boundary facet's
    sorted vertices, shape (nf, k)."""
    facets = (mesh.num_facets, lambda start, stop: mesh.facet_vertices[start:stop])
    blocks = _tabulate(field, mesh, facets, bary_points)
    values = np.concatenate([values for _, values in blocks])
    invalid = ~(np.isfinite(values) & (values >= 0.0))
    if invalid.any():
        facet, j = np.argwhere(invalid)[0]
        raise InvalidCoefficientError(
            f"boundary coefficient is negative or not finite ({values[facet, j]}) "
            f"on facet {facet}"
        )
    return values


def source_blocks(field: SourceField, mesh: Mesh):
    """(cells, values) for each block of at most `BLOCK` cells, in cell order:
    the source at the cells' rule points, shape (len(cells), nq)."""
    source = (mesh.num_cells, mesh.cell_rows)
    for cells, values in _tabulate(field, mesh, source, cell_rule(mesh.dim)[0]):
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("source field evaluated to a non-finite value")
        yield cells, values


def _samples(field: BoundaryField, mesh: Mesh) -> np.ndarray:
    """The field on the boundary sample set: a closure at each facet's vertices, then its
    quad nodes; a constant or per-facet field at one point per facet, which holds all its values."""
    points = np.vstack([np.eye(mesh.dim), facet_rule(mesh.dim)[0]])
    return eval_boundary(field, mesh, points if field.kind == "closure" else points[:1])


def boundary_sup(field: BoundaryField, mesh: Mesh) -> float:
    """Max of the field over the boundary sample set (exact for constant and per-facet data)."""
    return float(_samples(field, mesh).max())


def boundary_sup_diff(betas, mesh: Mesh) -> np.ndarray:
    """(N, N) table of the sup over the boundary sample set of |beta_n - beta_m|
    (exact for constant and per-facet data), each field sampled once."""
    return sup_gaps([_samples(beta, mesh) for beta in betas])


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
