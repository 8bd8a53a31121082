import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robin_lab.errors import InvalidArgumentError
from robin_lab.mesh import (
    boundary_vertex_indices,
    build_interval_mesh,
    build_mesh,
    build_unit_cube_mesh,
    build_unit_square_mesh,
    prolongations,
)

from oracles import boundary_facets_by_count

FAMILIES = [
    ("interval", 1, 2.0),
    ("square", 2, 4.0),
    ("cube", 3, 6.0),
]


def test_interval_counts():
    m = build_interval_mesh(2)
    assert m.num_vertices == 3
    assert m.num_cells == 2
    assert m.num_facets == 2
    assert np.allclose(sorted(v[0] for v in m.vertices), [0.0, 0.5, 1.0])

    m1 = build_interval_mesh(1)
    assert m1.num_vertices == 2
    assert m1.num_cells == 1
    assert m1.cell_measures[0] == pytest.approx(1.0, abs=1e-15)


def test_interval_partition_of_unity():
    m = build_interval_mesh(128)
    assert abs(m.cell_measures.sum() - 1.0) < 1e-12


def test_interval_endpoint_facets():
    m = build_interval_mesh(4)
    # counting measure on the two endpoints
    assert m.facet_measures.tolist() == [1.0, 1.0]
    xs = m.vertices[m.facet_vertices[:, 0], 0]
    assert xs.tolist() == [0.0, 1.0]


def test_square_counts():
    m = build_unit_square_mesh(2)
    assert m.num_vertices == 9
    assert m.num_cells == 8
    assert m.num_facets == 8

    m1 = build_unit_square_mesh(1)
    assert m1.num_vertices == 4
    assert m1.num_cells == 2
    assert m1.num_facets == 4


def test_square_perimeter():
    m = build_unit_square_mesh(4)
    assert abs(m.facet_measures.sum() - 4.0) < 1e-12
    assert np.allclose(m.facet_measures, 0.25, rtol=0.0, atol=1e-15)


def test_cube_counts():
    m1 = build_unit_cube_mesh(1)
    assert m1.num_vertices == 8
    assert m1.num_cells == 6
    assert m1.num_facets == 12

    m2 = build_unit_cube_mesh(2)
    assert m2.num_vertices == 27
    assert m2.num_cells == 48
    assert m2.num_facets == 48


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cube_equal_tet_volumes(n):
    m = build_unit_cube_mesh(n)
    expected = 1.0 / (6 * n**3)
    assert np.max(np.abs(m.cell_measures - expected)) < 1e-12
    assert abs(m.cell_measures.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("domain,dim,surface", FAMILIES)
def test_measure_sums(domain, dim, surface):
    m = build_mesh(domain, 3)
    assert m.dim == dim
    assert abs(m.cell_measures.sum() - 1.0) < 1e-12
    assert abs(m.facet_measures.sum() - surface) < 1e-12
    assert m.h == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("domain", ["interval", "square", "cube"])
def test_facet_sharing(domain):
    # recount faces independently: boundary faces appear once, interior twice
    m = build_mesh(domain, 2)
    counts = {}
    for cell in m.cells:
        for face in itertools.combinations(sorted(int(i) for i in cell), m.dim):
            counts[face] = counts.get(face, 0) + 1
    assert set(counts.values()) <= {1, 2}
    boundary_keys = {face for face, c in counts.items() if c == 1}
    assert {tuple(f) for f in m.facet_vertices.tolist()} == boundary_keys
    assert m.num_facets == len(boundary_keys)
    assert np.all(m.facet_vertices < m.num_vertices)
    assert all(int(i) < m.num_vertices for i in m.cells.ravel())


def test_boundary_vertex_indices_examples():
    assert boundary_vertex_indices(build_interval_mesh(2)) == [0, 2]
    assert boundary_vertex_indices(build_unit_square_mesh(1)) == [0, 1, 2, 3]
    # (n+1)^3 - (n-1)^3 boundary vertices on the cube
    assert len(boundary_vertex_indices(build_unit_cube_mesh(2))) == 26


@pytest.mark.parametrize(
    "builder", [build_interval_mesh, build_unit_square_mesh, build_unit_cube_mesh]
)
def test_zero_subdivisions_rejected(builder):
    with pytest.raises(InvalidArgumentError):
        builder(0)


def test_build_mesh_unknown_domain():
    with pytest.raises(InvalidArgumentError):
        build_mesh("disk", 4)


def test_mesh_is_immutable():
    m = build_interval_mesh(4)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 9.9
    for arr in (m.facet_vertices, m.facet_measures):
        assert not arr.flags.writeable


def _oracle_facets(m):
    """Each face of each cell, in cell order and then in combination order,
    kept when it occurs in exactly one cell, as sorted vertex lists."""
    faces = [
        sorted(face)
        for cell in m.cells.tolist()
        for face in itertools.combinations(cell, m.dim)
    ]
    counts = Counter(tuple(face) for face in faces)
    return [face for face in faces if counts[tuple(face)] == 1]


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(FAMILIES), n=st.integers(min_value=1, max_value=4))
def test_facet_arrays_match_brute_force_oracle(family, n):
    domain, _, surface = family
    m = build_mesh(domain, n)
    assert m.facet_vertices.tolist() == _oracle_facets(m)
    assert abs(m.facet_measures.sum() - surface) < 1e-12


@pytest.mark.parametrize(
    "domain,n",
    [("interval", 7), ("square", 64), ("square", 255), ("cube", 12), ("cube", 16), ("cube", 17)],
)
def test_facet_arrays_match_face_count_oracle_at_benchmark_sizes(domain, n):
    m = build_mesh(domain, n)
    facet_vertices, facet_measures = boundary_facets_by_count(m)
    assert np.array_equal(m.facet_vertices, facet_vertices)
    assert np.array_equal(m.facet_measures, facet_measures)


@pytest.mark.parametrize("domain,n", [(d, n) for d, _, _ in FAMILIES for n in (16, 17)])
def test_prolongations_reproduce_linear_functions(domain, n):
    # every level of the chain n -> ceil(n/2) down to n <= 3, at odd and even n
    fine = build_mesh(domain, n)
    chain = prolongations(fine)
    assert len(chain) == 3  # 16 -> 8 -> 4 -> 2 and 17 -> 9 -> 5 -> 3
    for P in chain:
        coarse = build_mesh(domain, -(-round(1.0 / fine.h) // 2))
        assert P.shape == (fine.num_vertices, coarse.num_vertices)
        assert P.data.min() > 0.0
        slope = np.array([0.7, -1.3, 2.9][: fine.dim])
        exact = 0.25 + fine.vertices @ slope
        assert np.max(np.abs(P @ (0.25 + coarse.vertices @ slope) - exact)) <= 1e-14
        fine = coarse
    assert fine.num_vertices <= 4**fine.dim
