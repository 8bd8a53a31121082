import itertools
import warnings

import numpy as np
import pytest

from robin_lab.errors import InvalidArgumentError, InvalidCoefficientError
from robin_lab.fields import (
    BoundaryField,
    SourceField,
    _sample_points,
    boundary_sup,
    boundary_sup_diff,
    compile_expression,
    eval_boundary,
    eval_source,
)
from robin_lab.mesh import build_mesh

from oracles import cell_points_by_einsum


def test_eval_constant():
    m = build_mesh("interval", 2)
    values = eval_boundary(BoundaryField.constant(1.0), m, np.ones((1, 1)))
    assert values.shape == (2, 1)
    assert np.all(values == 1.0)


def test_eval_per_facet_lookup():
    m = build_mesh("interval", 2)
    field = BoundaryField.per_facet([0.5, 2.0])
    assert eval_boundary(field, m, np.ones((1, 1))).tolist() == [[0.5], [2.0]]


@pytest.mark.parametrize("count", [7, 9])
def test_per_facet_length_must_match_facet_count(count):
    m = build_mesh("square", 2)  # 8 facets
    with pytest.raises(InvalidArgumentError, match="8 boundary facets"):
        eval_boundary(BoundaryField.per_facet(np.ones(count)), m, np.eye(2))


def test_eval_closure_on_square_edge():
    m = build_mesh("square", 2)
    field = BoundaryField.from_function(lambda p: p[0] + 1.0)
    # bottom edge from (0, 0) to (0.5, 0), evaluated at its midpoint
    corners = m.vertices[m.facet_vertices]  # (nf, 2, 2)
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
    points = _sample_points(m)
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


def test_per_facet_shape_validation():
    with pytest.raises(InvalidArgumentError):
        BoundaryField.per_facet([])
    with pytest.raises(InvalidArgumentError):
        BoundaryField.per_facet([[1.0, 2.0]])


def test_source_eval():
    # two triangles; the cell rule's points are the edge midpoints
    m = build_mesh("square", 1)
    assert np.all(eval_source(SourceField.constant(2.0), m) == np.full((2, 3), 2.0))
    f = SourceField.from_function(lambda p: p[0] + p[1])
    assert eval_source(f, m).tolist() == [[0.5, 1.5, 1.0], [0.5, 1.5, 1.0]]
    with pytest.raises(InvalidArgumentError):
        eval_source(SourceField.from_function(lambda p: float("nan")), m)
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
        assert np.array_equal(eval_source(f, m), f.closure(coords))


def test_expression_language():
    fn = compile_expression("x + 2*y - 1/4")
    assert fn(np.array([0.5, 0.25])) == pytest.approx(0.75)
    assert compile_expression("-x")(np.array([0.5])) == pytest.approx(-0.5)
    assert compile_expression("(1 + x) * 2")(np.array([0.5])) == pytest.approx(3.0)
    # the longest accepted expression nests within the interpreter's limits
    assert compile_expression("-" * 498 + "+x")(np.array([0.5])) == pytest.approx(0.5)


def test_expression_rejects_unsupported_syntax():
    too_long = ("-" * 2000 + "x", "x" + "+x" * 1000)
    for bad in ("x**2", "__import__('os')", "max(x, 1)", "x if y else 0", "w + 1", *too_long):
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
            eval_source(SourceField.from_function(fn), build_mesh("square", 1))
    assert np.allclose(
        compile_expression("x + 2*y")(np.array([[0.5, 1.0], [0.25, 0.0]])), [1.0, 1.0]
    )


def test_expression_missing_coordinate():
    fn = compile_expression("y + 1")
    with pytest.raises(InvalidArgumentError):
        fn(np.array([0.5]))  # 1-d domain has no y
