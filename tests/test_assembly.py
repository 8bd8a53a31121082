import numpy as np
import pytest

from robin_lab.assembly import (
    SymmetricSparseMatrix,
    assemble_boundary_mass,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    assemble_system,
)
from robin_lab.errors import (
    DegenerateMeshError,
    InvalidArgumentError,
    SingularSystemError,
)
from robin_lab.fields import BoundaryField, SourceField
from robin_lab.mesh import (
    Mesh,
    build_interval_mesh,
    build_mesh,
    build_unit_cube_mesh,
    build_unit_square_mesh,
)

# hand-assembled P1 matrices on the 2-cell interval (h = 1/2):
# element stiffness (1/h)[[1,-1],[-1,1]], element mass (h/6)[[2,1],[1,2]]
K_INTERVAL_2 = np.array([[2.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 2.0]])
M_INTERVAL_2 = np.array([[2.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 2.0]]) / 12.0
M_LUMPED_2 = np.diag([0.25, 0.5, 0.25])


def test_interval_stiffness_matches_hand_assembly():
    K = assemble_stiffness(build_interval_mesh(2))
    assert np.allclose(K.toarray(), K_INTERVAL_2, atol=1e-14)


def test_interval_mass_matches_hand_assembly():
    m = build_interval_mesh(2)
    M = assemble_mass(m)
    assert np.allclose(M.toarray(), M_INTERVAL_2, atol=1e-15)
    ML = assemble_mass(m, lumped=True)
    assert np.allclose(ML.toarray(), M_LUMPED_2, atol=1e-15)


@pytest.mark.parametrize("domain", ["interval", "square", "cube"])
def test_stiffness_kernel_contains_constants(domain):
    K = assemble_stiffness(build_mesh(domain, 2))
    ones = np.ones(K.dimension)
    assert np.max(np.abs(K.matvec(ones))) < 1e-12


def test_square_stiffness_row_sums_vanish():
    K = assemble_stiffness(build_unit_square_mesh(1))
    assert np.max(np.abs(K.toarray().sum(axis=1))) < 1e-12


@pytest.mark.parametrize("domain", ["interval", "square", "cube"])
def test_mass_total_is_domain_volume(domain):
    M = assemble_mass(build_mesh(domain, 2))
    ones = np.ones(M.dimension)
    assert abs(ones @ M.matvec(ones) - 1.0) < 1e-12


def test_boundary_mass_interval_is_endpoint_diagonal():
    m = build_interval_mesh(2)
    B = assemble_boundary_mass(m, BoundaryField.constant(1.0))
    assert np.allclose(B.toarray(), np.diag([1.0, 0.0, 1.0]), atol=1e-15)


def test_boundary_mass_zero_coefficient():
    m = build_unit_square_mesh(2)
    B = assemble_boundary_mass(m, BoundaryField.constant(0.0))
    assert B.max_abs() == 0.0


def test_boundary_mass_total_is_perimeter():
    m = build_unit_square_mesh(3)
    B = assemble_boundary_mass(m, BoundaryField.constant(1.0))
    ones = np.ones(B.dimension)
    assert abs(ones @ B.matvec(ones) - 4.0) < 1e-12


def test_boundary_mass_rejects_negative_samples():
    m = build_unit_square_mesh(2)
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
    assert np.max(np.abs(F - c * M.matvec(np.ones(m.num_vertices)))) < 1e-12


def test_system_is_sum_of_parts():
    m = build_interval_mesh(2)
    A = assemble_system(m, 1.0, BoundaryField.constant(1.0), lumped=True)
    expected = K_INTERVAL_2 + M_LUMPED_2 + np.diag([1.0, 0.0, 1.0])
    assert np.allclose(A.toarray(), expected, atol=1e-14)


def test_system_singular_without_mass_and_boundary():
    m = build_interval_mesh(4)
    with pytest.raises(SingularSystemError):
        assemble_system(m, 0.0, BoundaryField.constant(0.0))
    # a nonzero boundary term rescues lambda = 0
    A = assemble_system(m, 0.0, BoundaryField.constant(1.0))
    assert A.dimension == 5


def test_system_rejects_negative_lambda():
    with pytest.raises(InvalidArgumentError):
        assemble_system(build_interval_mesh(2), -1.0, BoundaryField.constant(1.0))


def test_random_vectors_see_positive_definiteness():
    m = build_unit_cube_mesh(2)
    beta = BoundaryField.constant(1.0)
    lam = 1.0
    A = assemble_system(m, lam, beta)
    K = assemble_stiffness(m)
    M = assemble_mass(m)
    rng = np.random.default_rng(42)
    for _ in range(100):
        v = rng.standard_normal(A.dimension)
        quad_a = v @ A.matvec(v)
        quad_km = v @ K.matvec(v) + lam * (v @ M.matvec(v))
        assert quad_a >= quad_km - 1e-10 * (v @ v)
        assert quad_a > 0.0


@pytest.mark.parametrize("domain", ["square", "cube"])
def test_higher_orders_saturate_for_boundary_mass(domain):
    # orders >= 2 share the quadratic-exact rule, so B is bit-identical
    m = build_mesh(domain, 2)
    beta = BoundaryField.per_facet(np.linspace(0.5, 1.5, m.num_facets))
    B2 = assemble_boundary_mass(m, beta, quad_order=2)
    B4 = assemble_boundary_mass(m, beta, quad_order=4)
    assert np.max(np.abs(B2.toarray() - B4.toarray())) < 1e-12


@pytest.mark.parametrize("domain", ["interval", "square", "cube"])
def test_constant_load_insensitive_to_order(domain):
    m = build_mesh(domain, 2)
    f = SourceField.constant(2.0)
    F1 = assemble_load(m, f, quad_order=1)
    F2 = assemble_load(m, f, quad_order=2)
    assert np.max(np.abs(F1 - F2)) < 1e-12


def test_degenerate_cell_detected():
    vertices = np.array([[0.0], [0.0], [1.0]])
    cells = np.array([[0, 1], [1, 2]])
    broken = Mesh(
        dim=1,
        vertices=vertices,
        cells=cells,
        cell_measures=np.array([0.0, 1.0]),
        facet_vertices=np.array([[0], [2]]),
        facet_measures=np.ones(2),
        facet_normals=np.array([[-1.0], [1.0]]),
        facet_cells=np.array([0, 1]),
        h=1.0,
    )
    with pytest.raises(DegenerateMeshError):
        assemble_stiffness(broken)


def test_canonical_upper_triangle_storage():
    m = build_unit_square_mesh(2)
    A = assemble_system(m, 1.0, BoundaryField.constant(1.0))
    assert np.all(A.rows <= A.cols)
    dense = A.toarray()
    assert np.max(np.abs(dense - dense.T)) == 0.0


def test_from_triplets_sums_duplicates():
    A = SymmetricSparseMatrix.from_triplets(
        2, [0, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 0], [1.0, 2.0, 2.0, 1.0, 1.0, 3.0]
    )
    assert np.allclose(A.toarray(), [[4.0, 3.0], [3.0, 0.0]])
