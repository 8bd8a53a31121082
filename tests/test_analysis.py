import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robin_lab.analysis import (
    level_set_measure,
    lp_norm,
    sup_norm,
    trace_exponent,
)
from robin_lab.errors import InvalidArgumentError, UnsupportedDimensionError
from robin_lab.experiments import level_set_pipeline
from robin_lab.fields import SourceField, interpolate
from robin_lab.mesh import boundary_vertex_indices, build_mesh
from robin_lab.quadrature import cell_rule, facet_rule


@pytest.mark.parametrize("d,q,s", [(3, 6.0, 4.0), (4, 4.0, 3.0), (6, 3.0, 2.5)])
def test_exponent_pairs(d, q, s):
    # s is the trace exponent of the Sobolev embedding exponent q = 2d/(d-2)
    assert s == pytest.approx(q * (d - 1) / d)
    assert trace_exponent(d) == pytest.approx(s)
    assert trace_exponent(d) - 1.0 > 1.0  # the decay iteration needs delta > 1


@pytest.mark.parametrize("d", [0, 1, 2])
def test_exponents_reject_low_dimension(d):
    with pytest.raises(UnsupportedDimensionError):
        trace_exponent(d)


def test_sup_norm_regions():
    m = build_mesh("interval", 2)
    boundary = boundary_vertex_indices(m)
    u = np.array([-1.0, 0.3, 0.7])
    assert sup_norm(u) == 1.0
    assert sup_norm(u[boundary]) == 1.0
    assert sup_norm(u[1:2]) == 0.3  # the interior vertex alone

    const = np.full(3, 0.5)
    assert sup_norm(const) == sup_norm(const[boundary]) == 0.5
    assert sup_norm(np.zeros(3)) == 0.0


def test_lp_norm_of_unit_source_on_cube():
    m = build_mesh("cube", 2)
    f = SourceField.constant(1.0)
    for p in (1.0, 2.0, 4.0, 7.5):
        assert lp_norm(f, p, m) == pytest.approx(1.0, abs=1e-12)


# the ids name the builder aliases these cases once called
@pytest.mark.parametrize(
    "domain", ["square", "cube"], ids=["build_unit_square_mesh", "build_unit_cube_mesh"]
)
def test_lp_norm_of_linear_source(domain):
    # the quadratic-exact cell rule integrates x^2 exactly: ||x||_2 = sqrt(1/3)
    m = build_mesh(domain, 3)
    f = SourceField.from_expression("x")
    assert abs(lp_norm(f, 2.0, m) - np.sqrt(1.0 / 3.0)) <= 1e-14


def test_lp_norm_zero_and_guards():
    m = build_mesh("interval", 4)
    zero = SourceField.constant(0.0)
    assert lp_norm(zero, 2.0, m) == 0.0
    for p in (0.5, float("nan")):
        with pytest.raises(InvalidArgumentError):
            lp_norm(zero, p, m)
    # |f|^p overflows (f = 2) or underflows to zero (f = 0.5) at p = 1100
    for value in (2.0, 0.5):
        with pytest.raises(InvalidArgumentError, match="p = 1100"):
            lp_norm(SourceField.constant(value), 1100.0, m)
    # at p = 1060 the integral of 0.5^p is subnormal and has lost digits
    with pytest.raises(InvalidArgumentError, match="p = 1060"):
        lp_norm(SourceField.constant(0.5), 1060.0, m)


def test_lp_norm_peak_memory_stays_below_a_whole_source_table():
    # the source is sampled one block of cells at a time, so the norm never
    # holds a (cells, points) table of f: at cube n = 32 one such table is
    # 6 MiB, and |f| and |f|^p built from it alongside would take 18 MiB
    m = build_mesh("cube", 32)
    f = SourceField.from_expression("1 + x*y - z/3")
    table = m.num_cells * len(cell_rule(m.dim)[1]) * 8
    tracemalloc.start()
    try:
        lp_norm(f, 2.0, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * table


def test_level_set_constant_cases():
    m = build_mesh("square", 2)
    u = np.full(m.num_vertices, 0.5)
    assert level_set_measure(u, m, 0.4) == pytest.approx(4.0, abs=1e-12)
    assert level_set_measure(u, m, 0.6) == 0.0


def test_level_set_monotone_and_vanishing():
    m = build_mesh("cube", 3)
    rng = np.random.default_rng(8)
    u = rng.standard_normal(m.num_vertices)
    top = sup_norm(u[boundary_vertex_indices(m)])
    ks = np.linspace(0.0, 1.2 * top, 50)
    phis = np.array([level_set_measure(u, m, float(k)) for k in ks])
    assert np.all(np.diff(phis) <= 0.0)
    assert np.all(phis[ks >= top] == 0.0)


_NODAL = [0.0, 0.25, -0.25, 0.5, -1.0, 3.0, np.nan]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(["interval", "square", "cube"]), st.data())
def test_level_set_counts_equal_a_comparison_per_level(domain, data):
    # one search of the sorted samples counts those above every level, with
    # ties at a level and NaN samples (never above) counted as a comparison
    # per level counts them
    m = build_mesh(domain, 2)
    u = np.array(data.draw(st.lists(st.sampled_from(_NODAL), min_size=m.num_vertices,
                                    max_size=m.num_vertices)))
    points, _ = facet_rule(m.dim)
    samples = np.vstack([points, np.full((1, m.dim), 1.0 / m.dim)])
    values = np.abs(interpolate(u, m.facet_vertices, samples))
    candidates = [0.0, 0.125, 1.0, np.inf, *values[np.isfinite(values)].tolist()]
    ks = np.array(data.draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=8)))
    counts = [np.count_nonzero(values > k) for k in ks]
    assert level_set_measure(u, m, ks).tolist() == [
        m.facet_measure * c / len(samples) for c in counts
    ]
    assert level_set_measure(u, m, float(ks[0])) == m.facet_measure * counts[0] / len(samples)


def test_solution_validation():
    m = build_mesh("interval", 2)
    with pytest.raises(InvalidArgumentError):
        level_set_measure(np.ones(4), m, 0.5)
    for level in (-0.5, np.nan, [0.5, np.nan]):
        with pytest.raises(InvalidArgumentError, match="level"):
            level_set_measure(np.ones(3), m, level)
    cube = build_mesh("cube", 1)
    with pytest.raises(InvalidArgumentError):
        level_set_pipeline(np.ones(cube.num_vertices - 1), cube)
    u = np.linspace(0.0, 1.0, cube.num_vertices)
    with pytest.raises(InvalidArgumentError, match="composite constant"):
        level_set_pipeline(u, cube, c2=np.nan)
    # a vanishing difference has a trivial report, but c2 is checked first;
    # a negative c2 must not hide behind the fitted constant either
    cube = build_mesh("cube", 2)
    zero, ramp = np.zeros(cube.num_vertices), np.linspace(0.0, 1.0, cube.num_vertices)
    for u, c2 in ((zero, np.nan), (zero, -5.0), (ramp, -5.0)):
        with pytest.raises(InvalidArgumentError, match="composite constant"):
            level_set_pipeline(u, cube, c2=c2)
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidArgumentError):
            sup_norm(np.array([1.0, bad, 0.0]))
