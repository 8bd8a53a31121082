import dataclasses
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robin_lab.errors import InvalidArgumentError
from robin_lab.mesh import Mesh, boundary_vertex_indices, build_mesh, prolongations

from oracles import (
    all_cells,
    all_vertices,
    boundary_facets_by_count,
    cells_by_formula,
    prolongations_by_corners,
)

FAMILIES = [
    ("interval", 1, 2.0),
    ("square", 2, 4.0),
    ("cube", 3, 6.0),
]


def test_interval_counts():
    m = build_mesh("interval", 2)
    assert m.num_vertices == 3
    assert m.num_cells == 2
    assert m.num_facets == 2
    assert np.allclose(sorted(v[0] for v in all_vertices(m)), [0.0, 0.5, 1.0])

    m1 = build_mesh("interval", 1)
    assert m1.num_vertices == 2
    assert m1.num_cells == 1
    assert m1.cell_measure == pytest.approx(1.0, abs=1e-15)


def test_interval_partition_of_unity():
    m = build_mesh("interval", 128)
    assert abs(m.cell_measure * m.num_cells - 1.0) < 1e-12


def test_interval_endpoint_facets():
    m = build_mesh("interval", 4)
    # counting measure on the two endpoints
    assert m.facet_measure == 1.0
    xs = all_vertices(m)[m.facet_vertices[:, 0], 0]
    assert xs.tolist() == [0.0, 1.0]


def test_square_counts():
    m = build_mesh("square", 2)
    assert m.num_vertices == 9
    assert m.num_cells == 8
    assert m.num_facets == 8

    m1 = build_mesh("square", 1)
    assert m1.num_vertices == 4
    assert m1.num_cells == 2
    assert m1.num_facets == 4


def test_square_perimeter():
    m = build_mesh("square", 4)
    assert abs(m.facet_measure * m.num_facets - 4.0) < 1e-12
    assert m.facet_measure == pytest.approx(0.25, rel=0.0, abs=1e-15)


def test_cube_counts():
    m1 = build_mesh("cube", 1)
    assert m1.num_vertices == 8
    assert m1.num_cells == 6
    assert m1.num_facets == 12

    m2 = build_mesh("cube", 2)
    assert m2.num_vertices == 27
    assert m2.num_cells == 48
    assert m2.num_facets == 48


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cube_equal_tet_volumes(n):
    m = build_mesh("cube", n)
    expected = 1.0 / (6 * n**3)
    assert abs(m.cell_measure - expected) < 1e-12
    assert abs(m.cell_measure * m.num_cells - 1.0) < 1e-12


@pytest.mark.parametrize("domain,dim,surface", FAMILIES)
def test_measure_sums(domain, dim, surface):
    m = build_mesh(domain, 3)
    assert m.dim == dim
    assert abs(m.cell_measure * m.num_cells - 1.0) < 1e-12
    assert abs(m.facet_measure * m.num_facets - surface) < 1e-12
    assert m.h == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("domain", ["interval", "square", "cube"])
def test_facet_sharing(domain):
    # recount faces independently: boundary faces appear once, interior twice
    m = build_mesh(domain, 2)
    counts = {}
    for cell in all_cells(m):
        for face in itertools.combinations(sorted(int(i) for i in cell), m.dim):
            counts[face] = counts.get(face, 0) + 1
    assert set(counts.values()) <= {1, 2}
    boundary_keys = {face for face, c in counts.items() if c == 1}
    assert {tuple(f) for f in m.facet_vertices.tolist()} == boundary_keys
    assert m.num_facets == len(boundary_keys)
    assert np.all(m.facet_vertices < m.num_vertices)
    assert all(int(i) < m.num_vertices for i in all_cells(m).ravel())


def test_boundary_vertex_indices_examples():
    assert boundary_vertex_indices(build_mesh("interval", 2)).tolist() == [0, 2]
    assert boundary_vertex_indices(build_mesh("square", 1)).tolist() == [0, 1, 2, 3]
    # (n+1)^3 - (n-1)^3 boundary vertices on the cube
    assert len(boundary_vertex_indices(build_mesh("cube", 2))) == 26


# the ids name the builder aliases these cases once called
@pytest.mark.parametrize(
    "domain",
    ["interval", "square", "cube"],
    ids=["build_interval_mesh", "build_unit_square_mesh", "build_unit_cube_mesh"],
)
def test_zero_subdivisions_rejected(domain):
    with pytest.raises(InvalidArgumentError):
        build_mesh(domain, 0)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: build_mesh("interval", 2.5), id="fractional-n"),
        pytest.param(lambda: build_mesh("cube", True), id="boolean-n"),
        pytest.param(lambda: Mesh(4, 2), id="dim-4"),
        pytest.param(lambda: Mesh(2, 0), id="n-0"),
        pytest.param(lambda: build_mesh("cube", 200), id="above-max-cells"),
        # 6 n^3 wraps around in int64, so the cell count is taken in Python ints
        pytest.param(lambda: Mesh(3, np.int64(3_000_000)), id="numpy-n-overflowing-int64"),
    ],
)
def test_invalid_mesh_parameters_rejected(build):
    with pytest.raises(InvalidArgumentError):
        build()


def test_numpy_integer_n_accepted():
    m = build_mesh("square", np.int64(3))
    assert type(m.n) is int and m.n == 3
    assert np.array_equal(all_cells(m), all_cells(build_mesh("square", 3)))


def test_build_mesh_unknown_domain():
    with pytest.raises(InvalidArgumentError):
        build_mesh("disk", 4)


def test_mesh_is_immutable():
    m = build_mesh("interval", 4)
    with pytest.raises(ValueError):
        m.facet_vertices[0, 0] = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.n = 8


def test_mesh_keeps_no_per_cell_or_per_vertex_array():
    # cells and coordinates are generated when needed, so at cube n = 40 the
    # mesh keeps its facet rows and a few scalars, not 6.1 MB of cells and
    # 1.65 MB of coordinates
    Mesh(3, 2)  # first-call allocations are not the mesh's
    tracemalloc.start()
    try:
        m = Mesh(3, 40)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= m.facet_vertices.nbytes + 2**14


@pytest.mark.parametrize("dim,n", [(1, 5), (2, 6), (3, 3), (3, 14)])
def test_cell_rows_of_any_range_follow_the_formula(dim, n):
    m = Mesh(dim, n)
    cells = cells_by_formula(m)
    whole = m.cell_rows(0, m.num_cells)
    assert np.array_equal(whole, cells) and whole.dtype == np.int32
    last = m.num_cells
    for start, stop in [(0, 1), (1, 2), (4, min(11, last)), (5, last), (last - 1, last)]:
        assert np.array_equal(m.cell_rows(start, stop), cells[start:stop])


def _oracle_facets(m):
    """Each face of each cell, in cell order and then in combination order,
    kept when it occurs in exactly one cell, as sorted vertex lists."""
    faces = [
        sorted(face)
        for cell in all_cells(m).tolist()
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
    assert abs(m.facet_measure * m.num_facets - surface) < 1e-12


@pytest.mark.parametrize(
    "domain,n",
    [("interval", 7), ("square", 64), ("square", 255), ("cube", 12), ("cube", 16), ("cube", 17)],
)
def test_facet_arrays_match_face_count_oracle_at_benchmark_sizes(domain, n):
    m = build_mesh(domain, n)
    facet_vertices, facet_measures = boundary_facets_by_count(m)
    assert np.array_equal(m.facet_vertices, facet_vertices)
    # the oracle measures each facet from its rounded coordinates
    assert m.facet_measure == _closed_form(m)[1]
    assert np.max(np.abs(m.facet_measure - facet_measures) / facet_measures) <= 1e-13


def _closed_form(m):
    """(cell measure, facet measure) of a box mesh: 1/(d! n^d), 1/((d-1)! n^(d-1))."""
    d, n = m.dim, round(1.0 / m.h)
    return 1.0 / (math.factorial(d) * n**d), 1.0 / (math.factorial(d - 1) * n ** (d - 1))


@pytest.mark.parametrize(
    "domain,surface,n",
    [(d, s, n) for d, _, s in FAMILIES for n in range(1, 41)]
    + [("square", 4.0, 255), ("square", 4.0, 256)],
)
def test_measures_are_exact_closed_forms(domain, surface, n):
    m = build_mesh(domain, n)
    cell, facet = _closed_form(m)
    assert m.cell_measure == cell
    assert m.facet_measure == facet
    assert abs(m.cell_measure * m.num_cells - 1.0) <= 1e-12
    assert abs(m.facet_measure * m.num_facets - surface) <= 1e-12


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
        exact = 0.25 + all_vertices(fine) @ slope
        assert np.max(np.abs(P @ (0.25 + all_vertices(coarse) @ slope) - exact)) <= 1e-14
        fine = coarse
    assert fine.num_vertices <= 4**fine.dim


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), n=st.integers(1, 40))
def test_prolongations_equal_corner_oracle(dim, n):
    # the closed-form CSR build stores exactly the arrays of the COO build
    # from the coarse simplex corners, at odd and even n
    chain, oracle = prolongations(Mesh(dim, n)), prolongations_by_corners(Mesh(dim, n))
    assert len(chain) == len(oracle)
    for P, Q in zip(chain, oracle):
        assert P.has_canonical_format
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(P, name), getattr(Q, name)), name


@pytest.mark.parametrize("n", [65_534, 65_535, 70_001])
def test_prolongations_past_int32_products_equal_corner_oracle(n):
    # on the interval the transfers are built from int64 temporaries once
    # n (m + 1) reaches 2^31, from n = 65 535 on, and at n = 70 001 grid * m
    # itself passes 2^31; the int64 oracle agrees on either side, and the
    # stored indices are int32
    chain, oracle = prolongations(Mesh(1, n)), prolongations_by_corners(Mesh(1, n))
    assert len(chain) == len(oracle)
    for P, Q in zip(chain, oracle):
        assert P.indices.dtype == P.indptr.dtype == np.int32
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(P, name), getattr(Q, name)), name


@pytest.mark.parametrize("domain,n", [("interval", 64), ("square", 64), ("cube", 17)])
def test_prolongations_own_exact_size_arrays(domain, n):
    # no transfer keeps a view of a larger array after its zeros are dropped
    for P in prolongations(build_mesh(domain, n)):
        for name in ("data", "indices", "indptr"):
            array = getattr(P, name)
            assert array.base is None or array.base.size == array.size, name
