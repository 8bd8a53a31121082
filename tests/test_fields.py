import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robin_lab import fields
from robin_lab.assembly import assemble_load
from robin_lab.errors import InvalidArgumentError, InvalidCoefficientError
from robin_lab.fields import (
    BoundaryField,
    SourceField,
    boundary_sup,
    boundary_sup_diff,
    check_expression_dimension,
    compile_expression,
    eval_boundary,
    interpolate,
    source_blocks,
    sup_gaps,
)
from robin_lab.mesh import build_mesh
from robin_lab.quadrature import facet_rule

from oracles import (
    all_cells,
    all_vertices,
    cell_points_by_einsum,
    cells_by_formula,
    random_coefficient,
)


def test_eval_constant():
    m = build_mesh("interval", 2)
    values = eval_boundary(BoundaryField.constant(1.0), m, np.ones((1, 1)))
    assert values.shape == (2, 1)
    assert np.all(values == 1.0)


def test_eval_per_facet_lookup(monkeypatch):
    m = build_mesh("interval", 2)
    field = BoundaryField.per_facet([0.5, 2.0])
    assert eval_boundary(field, m, np.ones((1, 1))).tolist() == [[0.5], [2.0]]
    # walked in blocks of 3 facets, the last one ragged, each keeps its own value
    monkeypatch.setattr(fields, "BLOCK", 3)
    m = build_mesh("square", 2)  # 8 facets
    values = np.arange(m.num_facets) / 2.0
    table = eval_boundary(BoundaryField.per_facet(values), m, np.eye(2))
    assert np.array_equal(table, np.repeat(values[:, None], 2, axis=1))


@pytest.mark.parametrize("count", [7, 9])
def test_per_facet_length_must_match_facet_count(count):
    m = build_mesh("square", 2)  # 8 facets
    with pytest.raises(InvalidArgumentError, match="8 boundary facets"):
        eval_boundary(BoundaryField.per_facet(np.ones(count)), m, np.eye(2))


def test_eval_closure_on_square_edge():
    m = build_mesh("square", 2)
    field = BoundaryField.from_function(lambda p: p[0] + 1.0)
    # bottom edge from (0, 0) to (0.5, 0), evaluated at its midpoint
    corners = all_vertices(m)[m.facet_vertices]  # (nf, 2, 2)
    bottom = np.all(corners[:, :, 1] == 0.0, axis=1) & (corners[:, :, 0].min(axis=1) == 0.0)
    facet = int(np.flatnonzero(bottom)[0])
    values = eval_boundary(field, m, np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert values[facet, 0] == pytest.approx(1.25)
    assert values.shape == (m.num_facets, 2)


def test_closure_sees_all_points_at_once():
    m = build_mesh("square", 3)
    shapes = []

    def fn(p):
        shapes.append(p.shape)
        return 2.0  # a scalar broadcasts to every point

    values = eval_boundary(BoundaryField.from_function(fn), m, np.eye(2))
    assert shapes == [(2, m.num_facets * 2)]
    assert values.shape == (m.num_facets, 2) and np.all(values == 2.0)


def test_negative_coefficient_rejected_at_evaluation():
    m = build_mesh("interval", 2)
    with pytest.raises(InvalidCoefficientError):
        eval_boundary(BoundaryField.constant(-1.0), m, np.ones((1, 1)))
    with pytest.raises(InvalidCoefficientError):
        boundary_sup(BoundaryField.from_function(lambda p: -p[0] - 0.1), m)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_coefficient_rejected_at_evaluation(bad):
    m = build_mesh("interval", 2)
    with pytest.raises(InvalidCoefficientError, match="not finite"):
        boundary_sup(BoundaryField.constant(bad), m)
    with pytest.raises(InvalidCoefficientError):
        boundary_sup(BoundaryField.from_expression("1/(x-x)"), m)


def test_sup_diff_examples():
    m = build_mesh("interval", 4)
    same = BoundaryField.constant(3.0)
    assert boundary_sup_diff([same, same], m)[0, 1] == 0.0
    assert boundary_sup_diff(
        [BoundaryField.constant(1.0), BoundaryField.constant(1.5)], m
    )[0, 1] == pytest.approx(0.5)
    beta_n = BoundaryField.constant(1.0 + 1.0 / 2.0)
    beta_m = BoundaryField.constant(1.0 + 1.0 / 4.0)
    assert boundary_sup_diff([beta_n, beta_m], m)[0, 1] == pytest.approx(0.25)


def test_sup_diff_symmetry_and_triangle_inequality():
    m = build_mesh("square", 2)
    rng = np.random.default_rng(7)
    nf = m.num_facets
    betas = [
        BoundaryField.per_facet(rng.uniform(0.0, 2.0, nf)),
        BoundaryField.per_facet(rng.uniform(0.0, 2.0, nf)),
        BoundaryField.from_expression("1 + x * y"),
        BoundaryField.constant(0.5),
    ]
    table = boundary_sup_diff(betas, m)
    points = np.vstack([np.eye(m.dim), facet_rule(m.dim)[0]])  # vertices, then quad nodes
    for n, k in itertools.product(range(len(betas)), repeat=2):
        # |beta_k - beta_n| on the full sample set, each field evaluated apart
        values = [eval_boundary(betas[i], m, points) for i in (k, n)]
        assert table[n, k] == np.abs(values[0] - values[1]).max()
    assert table[0, 1] <= table[0, 2] + table[2, 1] + 1e-14


def test_boundary_sup_examples():
    m = build_mesh("interval", 2)
    assert boundary_sup(BoundaryField.constant(2.0), m) == 2.0
    assert boundary_sup(BoundaryField.per_facet([0.1, 7.0]), m) == 7.0


def test_boundary_sup_closure_reaches_corner():
    # sample set contains the facet vertices, so x attains 1 at the corner
    m = build_mesh("square", 3)
    field = BoundaryField.from_function(lambda p: p[0])
    assert boundary_sup(field, m) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_constant_norms_are_exact(n):
    m = build_mesh("square", n)
    field = BoundaryField.constant(0.75)
    assert boundary_sup(field, m) == 0.75


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(["interval", "square", "cube"]),
    st.integers(1, 4),
    st.sampled_from(["constant", "per_facet", "closure"]),
    st.integers(0, 2**32 - 1),
)
def test_boundary_sup_is_the_max_over_vertices_and_quad_nodes(domain, n, kind, seed):
    # the sup and the sup gap to beta = 0 read the same samples, and sampling
    # a constant or per-facet field at one point per facet loses no value
    m = build_mesh(domain, n)
    beta = random_coefficient(kind, m, seed)
    points = np.vstack([np.eye(m.dim), facet_rule(m.dim)[0]])
    sup = boundary_sup(beta, m)
    assert sup == eval_boundary(beta, m, points).max()
    assert sup == boundary_sup_diff([beta, BoundaryField.constant(0.0)], m)[0, 1]


def test_constant_and_per_facet_fields_are_sampled_at_one_point(monkeypatch):
    m = build_mesh("cube", 2)
    sampled = []

    def recording(field, mesh, bary_points):
        sampled.append((field.kind, np.shape(bary_points)))
        return eval_boundary(field, mesh, bary_points)

    monkeypatch.setattr(fields, "eval_boundary", recording)
    betas = [BoundaryField.constant(2.0), BoundaryField.per_facet(np.ones(m.num_facets)),
             BoundaryField.from_expression("1 + x")]
    for beta in betas:
        boundary_sup(beta, m)
    boundary_sup_diff(betas, m)
    closure = (3 + len(facet_rule(3)[0]), 3)  # each facet's vertices, then its quad nodes
    assert sampled == 2 * [("constant", (1, 3)), ("per_facet", (1, 3)), ("closure", closure)]


def test_per_facet_leaves_the_callers_array_writable():
    values = np.array([0.5, 2.0])
    field = BoundaryField.per_facet(values)
    values[0] = 3.0  # the field holds its own copy
    assert field.facet_values.tolist() == [0.5, 2.0]
    assert not field.facet_values.flags.writeable


def test_per_facet_shape_validation():
    with pytest.raises(InvalidArgumentError):
        BoundaryField.per_facet([])
    with pytest.raises(InvalidArgumentError):
        BoundaryField.per_facet([[1.0, 2.0]])


def _source_table(f, mesh):
    """The source at every cell's rule points, gathered from its blocks,
    which must come in cell order."""
    blocks = list(source_blocks(f, mesh))
    assert np.array_equal(np.concatenate([cells for cells, _ in blocks]), all_cells(mesh))
    return np.concatenate([values for _, values in blocks])


@pytest.mark.parametrize("block", [7, fields.BLOCK])
@pytest.mark.parametrize("n", [3, 14])
def test_cell_blocks_starting_mid_box_concatenate_to_the_cells(monkeypatch, block, n):
    # neither 7 nor 2^14 is a multiple of the cube's 6 paths, so blocks start
    # inside a box (at n = 14 the second block of 2^14 cells does); each block's
    # coordinates, cut from its vertex range, are the vertices' bits
    m = build_mesh("cube", n)
    vertices = all_vertices(m)
    monkeypatch.setattr(fields, "BLOCK", block)
    blocks = [ids for ids, _ in source_blocks(SourceField.constant(1.0), m)]
    assert max(map(len, blocks)) <= block
    assert np.array_equal(np.concatenate(blocks), cells_by_formula(m))
    for ids in blocks:
        low = ids.min()
        coords = m.coordinates(low, ids.max() + 1)
        assert coords.flags.c_contiguous
        assert coords[:, ids - low].tobytes() == np.moveaxis(vertices[ids], -1, 0).tobytes()


@pytest.mark.parametrize("domain,n", [("interval", 50), ("square", 7), ("cube", 5)])
def test_small_blocks_keep_the_bits_of_one_block(monkeypatch, domain, n):
    # at 2^14 each mesh is one block of cells and one of facets
    m = build_mesh(domain, n)
    f = SourceField.from_expression("1 + x*x/3 - x/7")
    beta = BoundaryField.from_expression("2 + x - x*x/5")
    points = facet_rule(m.dim)[0]
    whole = assemble_load(m, f).tobytes(), eval_boundary(beta, m, points).tobytes()
    monkeypatch.setattr(fields, "BLOCK", 7)
    assert (assemble_load(m, f).tobytes(), eval_boundary(beta, m, points).tobytes()) == whole


def test_source_eval():
    # two triangles; the cell rule's points are the edge midpoints
    m = build_mesh("square", 1)
    assert np.all(_source_table(SourceField.constant(2.0), m) == np.full((2, 3), 2.0))
    f = SourceField.from_function(lambda p: p[0] + p[1])
    assert _source_table(f, m).tolist() == [[0.5, 1.5, 1.0], [0.5, 1.5, 1.0]]
    with pytest.raises(InvalidArgumentError):
        _source_table(SourceField.from_function(lambda p: float("nan")), m)
    with pytest.raises(InvalidArgumentError):
        SourceField.constant(float("inf"))


@pytest.mark.parametrize("domain,n", [("interval", 5), ("square", 5), ("square", 8), ("cube", 3)])
def test_source_points_equal_einsum_oracle(domain, n):
    # the coordinate-major points have the einsum's bits, so an elementwise
    # source takes the same values whatever order the closure sees them in
    m = build_mesh(domain, n)
    coords = np.ascontiguousarray(np.moveaxis(cell_points_by_einsum(m), -1, 0))
    expr = {"interval": "1 + x/3", "square": "1 + x*y - y/7", "cube": "x*y - z/3 + 0.1"}[domain]
    for f in (
        SourceField.from_expression(expr),
        SourceField.from_function(lambda p: (p[0] - 0.3) * p[-1] * p[-1] + 1.0),
    ):
        assert np.array_equal(_source_table(f, m), f.closure(coords))


def test_expression_language():
    fn = compile_expression("x + 2*y - 1/4")
    assert fn(np.array([0.5, 0.25])) == pytest.approx(0.75)
    assert compile_expression("-x")(np.array([0.5])) == pytest.approx(-0.5)
    assert compile_expression("(1 + x) * 2")(np.array([0.5])) == pytest.approx(3.0)
    # the longest accepted expression nests within the interpreter's limits
    assert compile_expression("-" * 498 + "+x")(np.array([0.5])) == pytest.approx(0.5)


def test_expression_rejects_unsupported_syntax():
    too_long = ("-" * 2000 + "x", "x" + "+x" * 1000)
    operators = ("~x", "not x", "x % 2", "x // 2", "x < 1", "x @ y")  # unary, binary, compare
    for bad in ("x**2", "__import__('os')", "max(x, 1)", "x if y else 0", "w + 1", *operators,
                *too_long):
        with pytest.raises(InvalidArgumentError):
            compile_expression(bad)
    with pytest.raises(InvalidArgumentError):
        compile_expression("x +")
    with pytest.raises(InvalidArgumentError, match="division by zero"):
        compile_expression("x + 1/0")


def test_expression_evaluates_arrays_without_warnings():
    fn = compile_expression("1/(x - x) + y")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError):
            _source_table(SourceField.from_function(fn), build_mesh("square", 1))
    assert np.allclose(
        compile_expression("x + 2*y")(np.array([[0.5, 1.0], [0.25, 0.0]])), [1.0, 1.0]
    )


def test_expression_missing_coordinate():
    fn = compile_expression("y + 1")
    with pytest.raises(InvalidArgumentError):
        fn(np.array([0.5]))  # 1-d domain has no y


@pytest.mark.parametrize("expr, dim", [("1 +", 2), ("-" * 3000 + "x", 3)], ids=["syntax", "deep"])
def test_dimension_check_refuses_what_does_not_parse(expr, dim):
    # as compile_expression does, not with SyntaxError or RecursionError
    with pytest.raises(InvalidArgumentError):
        check_expression_dimension(expr, dim)


_PROPERTY_MESHES = [build_mesh("interval", 5), build_mesh("square", 3), build_mesh("cube", 2)]


def _simplices(mesh, kind):
    return all_cells(mesh) if kind == "cells" else mesh.facet_vertices


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(_PROPERTY_MESHES),
    st.sampled_from(["cells", "facets"]),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_interpolate_reproduces_affine_data(mesh, kind, count, seed):
    # a P1 interpolant is exact on affine data, at any barycentric point and
    # for any number of leading axes
    rng = np.random.default_rng(seed)
    ids = _simplices(mesh, kind)
    weights = rng.uniform(0.0, 1.0, (count, ids.shape[1]))
    weights /= weights.sum(axis=1, keepdims=True)
    slopes, offsets = rng.uniform(-5.0, 5.0, (2, mesh.dim)), rng.uniform(-5.0, 5.0, (2, 1))
    nodal = offsets + slopes @ all_vertices(mesh).T  # two affine fields, (2, nv)
    points = np.einsum("kj,cjd->dck", weights, all_vertices(mesh)[ids])  # (dim, len(ids), k)
    exact = offsets[:, :, None] + np.einsum("ad,dck->ack", slopes, points)
    values = interpolate(nodal, ids, weights)
    assert values.shape == (2, len(ids), count)
    assert np.allclose(values, exact, rtol=0.0, atol=1e-12)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(_PROPERTY_MESHES),
    st.sampled_from(["cells", "facets"]),
    st.integers(0, 2**32 - 1),
)
def test_interpolate_at_the_vertices_returns_the_nodal_values(mesh, kind, seed):
    ids = _simplices(mesh, kind)
    nodal = np.random.default_rng(seed).standard_normal((3, mesh.num_vertices)) * 1e3
    values = interpolate(nodal, ids, np.eye(ids.shape[1]))
    assert np.array_equal(values, nodal[:, ids])
    assert np.array_equal(interpolate(nodal[0], ids, np.eye(ids.shape[1])), nodal[0, ids])


def _gap_rows(seed, shapes):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-3.0, 3.0, (6, k)) * rng.choice([1e-3, 1.0, 1e3]) for k in shapes]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from([1, 4]), min_size=0, max_size=6))
def test_sup_gaps_equal_a_double_loop(seed, shapes):
    # rows of shape (nf, 1) (constant and per-facet fields) broadcast against
    # rows of shape (nf, k) (closures), as in boundary_sup_diff
    rows = _gap_rows(seed, shapes)
    table = sup_gaps(rows)
    brute = np.zeros((len(rows), len(rows)))
    for n, m in itertools.product(range(len(rows)), repeat=2):
        if n != m:
            brute[n, m] = np.abs(rows[n] - rows[m]).max()
    assert np.array_equal(table, brute)
    assert np.array_equal(table, table.T) and not np.any(np.diag(table))


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 5),
    st.sampled_from([float("inf"), -float("inf"), float("nan"), "overflow"]),
)
def test_sup_gaps_refuse_a_non_finite_gap(seed, count, bad):
    rows = _gap_rows(seed, [4] * count)
    rng = np.random.default_rng(seed)
    row, facet, point = rng.integers(count), rng.integers(6), rng.integers(4)
    if bad == "overflow":  # finite rows whose difference is beyond the float range
        rows[row][facet, point] = 1.5e308
        rows[(row + 1) % count][facet, point] = -1.5e308
    else:
        rows[row][facet, point] = bad
    with pytest.raises(InvalidArgumentError, match="finite"):
        sup_gaps(rows)
