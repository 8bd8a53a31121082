import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robin_lab.analysis import lp_norm
from robin_lab.assembly import (
    _scatter,
    assemble_boundary_mass,
    assemble_load,
    assemble_mass,
    assemble_operator,
    assemble_stiffness,
    assemble_system,
)
from robin_lab.errors import InvalidArgumentError
from robin_lab.fields import BLOCK, BoundaryField, SourceField, interpolate, source_blocks
from robin_lab.mesh import build_mesh, kuhn_paths, prolongations
from robin_lab.quadrature import cell_rule

from oracles import all_cells, assemble_by_cells, simplex_geometry

# hand-assembled P1 matrices on the 2-cell interval (h = 1/2):
# element stiffness (1/h)[[1,-1],[-1,1]], element mass (h/6)[[2,1],[1,2]]
K_INTERVAL_2 = np.array([[2.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 2.0]])
M_INTERVAL_2 = np.array([[2.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 2.0]]) / 12.0
M_LUMPED_2 = np.diag([0.25, 0.5, 0.25])


def test_interval_stiffness_matches_hand_assembly():
    K = assemble_stiffness(build_mesh("interval", 2))
    assert np.allclose(K.toarray(), K_INTERVAL_2, atol=1e-14)


def test_interval_mass_matches_hand_assembly():
    m = build_mesh("interval", 2)
    M = assemble_mass(m)
    assert np.allclose(M.toarray(), M_INTERVAL_2, atol=1e-15)
    ML = assemble_mass(m, lumped=True)
    assert np.allclose(ML.toarray(), M_LUMPED_2, atol=1e-15)


@pytest.mark.parametrize("domain", ["interval", "square", "cube"])
def test_stiffness_kernel_contains_constants(domain):
    K = assemble_stiffness(build_mesh(domain, 2))
    ones = np.ones(K.shape[0])
    assert np.max(np.abs(K @ ones)) < 1e-12


def test_square_stiffness_row_sums_vanish():
    K = assemble_stiffness(build_mesh("square", 1))
    assert np.max(np.abs(K.toarray().sum(axis=1))) < 1e-12


@pytest.mark.parametrize("domain", ["interval", "square", "cube"])
def test_mass_total_is_domain_volume(domain):
    M = assemble_mass(build_mesh(domain, 2))
    ones = np.ones(M.shape[0])
    assert abs(ones @ (M @ ones) - 1.0) < 1e-12


def test_boundary_mass_interval_is_endpoint_diagonal():
    m = build_mesh("interval", 2)
    B = assemble_boundary_mass(m, BoundaryField.constant(1.0))
    assert np.allclose(B.toarray(), np.diag([1.0, 0.0, 1.0]), atol=1e-15)


def test_boundary_mass_zero_coefficient():
    m = build_mesh("square", 2)
    B = assemble_boundary_mass(m, BoundaryField.constant(0.0))
    assert not B.toarray().any()


def test_boundary_mass_total_is_perimeter():
    m = build_mesh("square", 3)
    B = assemble_boundary_mass(m, BoundaryField.constant(1.0))
    ones = np.ones(B.shape[0])
    assert abs(ones @ (B @ ones) - 4.0) < 1e-12


def test_boundary_mass_rejects_negative_samples():
    m = build_mesh("square", 2)
    from robin_lab.errors import InvalidCoefficientError

    with pytest.raises(InvalidCoefficientError):
        assemble_boundary_mass(m, BoundaryField.from_function(lambda p: p[0] - 0.5))


@pytest.mark.parametrize("domain", ["interval", "square", "cube"])
def test_load_partition_of_unity(domain):
    m = build_mesh(domain, 2)
    F = assemble_load(m, SourceField.constant(1.0))
    assert abs(F.sum() - 1.0) < 1e-12
    assert np.max(np.abs(assemble_load(m, SourceField.constant(0.0)))) == 0.0


@pytest.mark.parametrize("domain", ["interval", "square", "cube"])
def test_constant_load_equals_mass_action(domain):
    m = build_mesh(domain, 2)
    c = 3.5
    F = assemble_load(m, SourceField.constant(c))
    M = assemble_mass(m)
    assert np.max(np.abs(F - c * (M @ np.ones(m.num_vertices)))) < 1e-12


def _sizes_around(cells):
    """(domain, n) of the meshes with the most cells at or below ``cells``
    and the fewest above it: n, 2 n^2 and 6 n^3 cells."""
    square, cube = math.isqrt(cells // 2), round((cells / 6) ** (1 / 3))
    cube -= 6 * cube**3 > cells
    return [("interval", cells), ("interval", cells + 1), ("square", square),
            ("square", square + 1), ("cube", cube), ("cube", cube + 1)]


# on both sides of one and of two sampling blocks (square n = 90/91, 128/129,
# cube n = 13/14, 17/18 for 2^14-cell blocks)
_BLOCK_SIZES = _sizes_around(BLOCK) + _sizes_around(2 * BLOCK)
_BLOCK_EXPRESSIONS = {1: "{c} * x * x - x / 3", 2: "{c} * x * y - y / 7 + 2",
                      3: "{c} * x * y * z - z / 3 + y"}
_block_mesh = functools.cache(build_mesh)


def _whole_mesh_load(mesh, f, p):
    """The source at every cell's rule points, the load and the L^p norm, each
    from one array over every cell: the reference the blocked path must match
    bit for bit.  The norm is None where `lp_norm` refuses it: a nonzero
    source whose integral of |f|^p is subnormal or underflows to 0."""
    rule_points, weights = cell_rule(mesh.dim)
    cells = all_cells(mesh)
    coords = interpolate(mesh.coordinates(0, mesh.num_vertices), cells, rule_points)
    coords = coords.reshape(mesh.dim, -1)
    if f.kind == "constant":
        values = np.full((mesh.num_cells, len(weights)), f.constant_value)
    else:
        values = np.broadcast_to(f.closure(coords), coords.shape[1:]).reshape(mesh.num_cells, -1)
    local = mesh.cell_measure * (values @ (weights[:, None] * rule_points))
    load = np.bincount(cells.ravel(), local.ravel(), minlength=mesh.num_vertices)
    integral = mesh.cell_measure * float(np.sum(np.abs(values) ** p @ weights))
    norm = None if integral < np.finfo(float).tiny and values.any() else integral ** (1 / p)
    return coords, values, load, norm


def _source_table(f, mesh):
    """The source at every cell's rule points, gathered from blocks of at
    most BLOCK cells that come in cell order."""
    blocks = list(source_blocks(f, mesh))
    assert max(len(cells) for cells, _ in blocks) <= BLOCK
    assert np.array_equal(np.concatenate([cells for cells, _ in blocks]), all_cells(mesh))
    return np.concatenate([values for _, values in blocks])


def test_block_sizes_straddle_the_blocks():
    counts = [_block_mesh(*size).num_cells for size in _BLOCK_SIZES]
    for edge, group in ((BLOCK, counts[:6]), (2 * BLOCK, counts[6:])):
        assert all(below <= edge < above for below, above in zip(group[::2], group[1::2]))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(_BLOCK_SIZES),
    st.booleans(),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    st.sampled_from([1.0, 2.0, 4.0, 7.5]),
)
def test_blocked_sampling_and_load_equal_the_whole_mesh_formula(size, expression, c, exponent):
    mesh = _block_mesh(*size)
    if not expression:
        f = SourceField.constant(c)
        coords, values, load, norm = _whole_mesh_load(mesh, f, exponent)
        assert np.array_equal(_source_table(f, mesh), values)
        assert np.array_equal(assemble_load(mesh, f), load)
        if norm is None:
            with pytest.raises(InvalidArgumentError, match="beyond float range"):
                lp_norm(f, exponent, mesh)
        else:
            assert float.hex(lp_norm(f, exponent, mesh)) == float.hex(norm)
        return
    evaluate = SourceField.from_expression(_BLOCK_EXPRESSIONS[mesh.dim].format(c=c)).closure
    seen = []

    def recording(p):
        seen.append(np.array(p))
        return evaluate(p)

    f = SourceField.from_function(recording)
    reference = SourceField.from_function(evaluate)
    coords, values, load, norm = _whole_mesh_load(mesh, reference, exponent)
    points_per_cell = len(cell_rule(mesh.dim)[1])
    for sample, reference in ((lambda: _source_table(f, mesh), values),
                              (lambda: assemble_load(mesh, f), load),
                              (lambda: lp_norm(f, exponent, mesh), norm)):
        seen.clear()
        assert np.array_equal(sample(), reference)
        # at most one block per call, and every (cell, point) once, in cell order
        assert max(p.shape[1] for p in seen) <= BLOCK * points_per_cell
        assert np.array_equal(np.concatenate(seen, axis=1), coords)


@pytest.mark.parametrize("cells", [BLOCK + 1, 2 * BLOCK + 1])
def test_scalar_closure_load_equals_the_constant_load(cells):
    # a closure's scalar fills a contiguous block like a constant's, so even a
    # last block of one cell takes the same matrix product and gives the same bits
    mesh = _block_mesh("interval", cells)
    scalar, constant = SourceField.from_function(lambda p: 3.0), SourceField.constant(3.0)
    assert np.array_equal(assemble_load(mesh, scalar), assemble_load(mesh, constant))


def _member_matrix(operator, mesh, beta):
    """The matrix of the one member of a family of one."""
    ((B, w),) = assemble_system(operator, mesh, [beta]).boundary
    return operator + w * B


def test_system_is_sum_of_parts():
    m = build_mesh("interval", 2)
    operator = assemble_operator(m, 1.0, lumped=True)
    A = _member_matrix(operator, m, BoundaryField.constant(1.0))
    expected = K_INTERVAL_2 + M_LUMPED_2 + np.diag([1.0, 0.0, 1.0])
    assert np.allclose(A.toarray(), expected, atol=1e-14)


def test_system_rejects_negative_lambda():
    # lambda must be finite and > 0: lambda = 0 is rejected even when beta
    # would make the operator definite
    for lam in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError):
            assemble_operator(build_mesh("interval", 2), lam)


def test_random_vectors_see_positive_definiteness():
    m = build_mesh("cube", 2)
    beta = BoundaryField.constant(1.0)
    lam = 1.0
    A = _member_matrix(assemble_operator(m, lam), m, beta)
    K = assemble_stiffness(m)
    M = assemble_mass(m)
    rng = np.random.default_rng(42)
    for _ in range(100):
        v = rng.standard_normal(A.shape[0])
        quad_a = v @ (A @ v)
        quad_km = v @ (K @ v) + lam * (v @ (M @ v))
        assert quad_a >= quad_km - 1e-10 * (v @ v)
        assert quad_a > 0.0


@st.composite
def simplices(draw):
    """Vertices of a random simplex in 1, 2 or 3 dimensions: its edge matrix
    is a strictly diagonally dominant matrix (so invertible, with a bounded
    condition number) with rows and columns permuted, scaled, and shifted by
    a random offset."""
    d = draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0)
    diag = [draw(st.floats(1.0, 10.0)) * draw(st.sampled_from([-1.0, 1.0])) for _ in range(d)]
    edges = np.diag(diag)
    for i, j in zip(*np.nonzero(~np.eye(d, dtype=bool))):
        edges[i, j] = 0.9 * abs(diag[i]) / d * draw(unit)
    edges = edges[draw(st.permutations(range(d)))][:, draw(st.permutations(range(d)))]
    scale = 10.0 ** draw(st.integers(-3, 3))
    offset = np.array([draw(st.floats(-10.0, 10.0)) for _ in range(d)])
    return offset + scale * np.vstack([np.zeros(d), edges])


@settings(max_examples=60, deadline=None)
@given(vertices=simplices())
def test_closed_form_geometry_of_random_simplices(vertices):
    # the oracle's per-cell geometry, which the assembly tests compare against
    d = vertices.shape[1]
    # swapping the first two vertices reverses the orientation
    for corners in (vertices, vertices[[1, 0, *range(2, d + 1)]]):
        grads = simplex_geometry(corners, np.arange(d + 1)[None])[0][..., 0]
        edges = corners[1:] - corners[0]
        # barycentric coordinate i grows by one along edge i and is blind to the others
        assert np.max(np.abs(grads[1:] @ edges.T - np.eye(d))) <= 1e-12
        assert np.max(np.abs(grads.sum(axis=0))) <= 1e-12 * np.max(np.abs(grads))


@pytest.mark.parametrize("domain,dim", [("interval", 1), ("square", 2), ("cube", 3)])
def test_kuhn_reference_gradients_are_exact(domain, dim):
    # in integer coordinates the closed-form geometry of each of the d! Kuhn
    # simplices is exact, and all of them share G G^T, the one stiffness
    # block that assembly gives every cell
    grams = []
    for path in kuhn_paths(dim):
        grads = simplex_geometry(path, np.arange(dim + 1)[None])[0][..., 0]
        assert np.array_equal(grads[1:] @ (path[1:] - path[0]).T, np.eye(dim))
        assert not grads.sum(axis=0).any()
        grams.append(grads @ grads.T)
    assert len(grams) == math.factorial(dim)
    assert all(np.array_equal(gram, grams[0]) for gram in grams)
    # at n = 1 the cells are the reference simplices themselves
    m = build_mesh(domain, 1)
    assert np.array_equal(assemble_stiffness(m).toarray(), assemble_by_cells(m, 0.0, False).toarray())


@pytest.mark.parametrize("domain", ["interval", "square", "cube"])
@pytest.mark.parametrize("n", [1, 2, 3, 12, 17])
def test_assembly_matches_per_cell_geometry(domain, n):
    m = build_mesh(domain, n)
    pairs = [(assemble_stiffness(m), assemble_by_cells(m, 0.0, False))]
    for lumped in (False, True):
        pairs.append((assemble_mass(m, lumped), assemble_by_cells(m, 1.0, lumped, False)))
        for lam in (1e-6, 1.0, 1e6):
            pairs.append((assemble_operator(m, lam, lumped), assemble_by_cells(m, lam, lumped)))
    for A, oracle in pairs:
        assert np.array_equal(A.indptr, oracle.indptr)
        assert np.array_equal(A.indices, oracle.indices)
        assert np.max(np.abs(A.data - oracle.data) / np.abs(oracle.data)) <= 1e-13


@settings(max_examples=30, deadline=None)
@given(
    domain=st.sampled_from(["interval", "square", "cube"]),
    n=st.integers(1, 5),
    lam=st.sampled_from([1e-6, 1.0, 1e6]),
    lumped=st.booleans(),
)
def test_operator_is_stiffness_plus_scaled_mass(domain, n, lam, lumped):
    m = build_mesh(domain, n)
    A = assemble_operator(m, lam, lumped)
    parts = assemble_stiffness(m) + lam * assemble_mass(m, lumped)
    assert np.array_equal(A.indptr, parts.indptr)
    assert np.array_equal(A.indices, parts.indices)
    assert np.max(np.abs(A.data - parts.data) / np.abs(parts.data)) <= 1e-14


@pytest.mark.parametrize("domain,n", [("square", 8), ("cube", 4)])
def test_assembled_matrices_are_canonical_int32(domain, n):
    m = build_mesh(domain, n)
    betas = [
        BoundaryField.constant(2.0),
        BoundaryField.per_facet(np.linspace(0.0, 1.0, m.num_facets)),
        BoundaryField.from_function(lambda p: 1.0 + p[0]),
    ]
    for lumped in (False, True):
        operator = assemble_operator(m, 1.0, lumped)
        system = assemble_system(operator, m, betas)
        for A in [operator] + [B for B, _ in system.boundary]:
            assert A.has_canonical_format
            assert A.indices.dtype == A.indptr.dtype == np.int32
    # the lumped operator stores no entry beyond the sum of its parts
    parts = assemble_stiffness(m) + assemble_mass(m, lumped=True)
    assert operator.nnz == parts.nnz


@pytest.mark.parametrize("domain,n", [("interval", 64), ("square", 64), ("cube", 12)])
def test_transfers_and_galerkin_images_are_int32(domain, n):
    # the multigrid hierarchy keeps assembly's int32 indices on every level
    m = build_mesh(domain, n)
    A = assemble_operator(m, 1.0)
    for P in prolongations(m):
        Pt = P.T.tocsr()
        A = Pt @ A @ P
        for M in (P, Pt, A):
            assert M.indices.dtype == M.indptr.dtype == np.int32


def test_system_is_exactly_symmetric():
    for domain, n in [("square", 2), ("square", 12), ("cube", 17)]:
        m = build_mesh(domain, n)
        for lumped in (False, True):
            operator = assemble_operator(m, 1.0, lumped)
            A = _member_matrix(operator, m, BoundaryField.constant(1.0))
            assert abs(A - A.T).max() == 0.0, (domain, n, lumped)


@pytest.mark.parametrize("n", [3, 12])
@pytest.mark.parametrize("lumped", [False, True])
def test_cube_system_is_symmetric_to_rounding(n, lumped):
    # every cell scatters the same symmetric block, and the duplicates of
    # (i, j) and of (j, i) are summed in the same cell order, so the cube
    # system is symmetric to the last bit, tighter than any rounding bound
    m = build_mesh("cube", n)
    A = _member_matrix(assemble_operator(m, 1.0, lumped), m, BoundaryField.constant(1.0))
    assert abs(A - A.T).max() == 0.0


@pytest.mark.parametrize("domain,n", [("square", 128), ("cube", 24)])
def test_operator_peak_memory_is_a_few_times_its_result(domain, n):
    # written in CSR order from the stencil, K + lam*M needs about twice the
    # matrix it returns; a COO -> CSR scatter of every cell's block needs 7x
    # (square) to 15x (cube)
    m = build_mesh(domain, n)
    tracemalloc.start()
    try:
        A = assemble_operator(m, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


def test_scatter_sums_duplicates():
    # two 2x2 blocks on vertex pairs (0, 1) and (1, 0) land on the same entries
    ids = np.array([[0, 1], [1, 0]])
    local = np.array([[[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 3.0]]])
    A = _scatter(2, ids, local)
    assert A.nnz == 4
    assert np.array_equal(A.toarray(), [[4.0, 3.0], [3.0, 2.0]])
