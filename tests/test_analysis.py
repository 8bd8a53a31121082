import numpy as np
import pytest

from robin_lab.analysis import (
    DiscreteSolution,
    level_set_measure,
    lp_norm,
    sup_norm,
    trace_exponent,
)
from robin_lab.errors import InvalidArgumentError, UnsupportedDimensionError
from robin_lab.fields import SourceField
from robin_lab.mesh import (
    build_interval_mesh,
    build_unit_cube_mesh,
    build_unit_square_mesh,
)


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
    m = build_interval_mesh(2)
    u = DiscreteSolution(m, np.array([-1.0, 0.3, 0.7]))
    assert sup_norm(u, "closure") == 1.0
    assert sup_norm(u, "boundary") == 1.0

    const = DiscreteSolution(m, np.full(3, 0.5))
    for region in ("closure", "boundary"):
        assert sup_norm(const, region) == 0.5
    zero = DiscreteSolution(m, np.zeros(3))
    assert sup_norm(zero, "closure") == 0.0
    with pytest.raises(InvalidArgumentError):
        sup_norm(u, "everywhere")


def test_lp_norm_of_unit_source_on_cube():
    m = build_unit_cube_mesh(2)
    f = SourceField.constant(1.0)
    for p in (1.0, 2.0, 4.0, 7.5):
        assert lp_norm(f, p, m) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("builder", [build_unit_square_mesh, build_unit_cube_mesh])
def test_lp_norm_of_linear_source(builder):
    # the quadratic-exact cell rule integrates x^2 exactly: ||x||_2 = sqrt(1/3)
    m = builder(3)
    f = SourceField.from_expression("x")
    assert abs(lp_norm(f, 2.0, m) - np.sqrt(1.0 / 3.0)) <= 1e-14


def test_lp_norm_zero_and_guards():
    m = build_interval_mesh(4)
    zero = SourceField.constant(0.0)
    assert lp_norm(zero, 2.0, m) == 0.0
    with pytest.raises(InvalidArgumentError):
        lp_norm(zero, 0.5, m)


def test_level_set_constant_cases():
    m = build_unit_square_mesh(2)
    u = DiscreteSolution(m, np.full(m.num_vertices, 0.5))
    assert level_set_measure(u, 0.4) == pytest.approx(4.0, abs=1e-12)
    assert level_set_measure(u, 0.6) == 0.0


def test_level_set_monotone_and_vanishing():
    m = build_unit_cube_mesh(3)
    rng = np.random.default_rng(8)
    u = DiscreteSolution(m, rng.standard_normal(m.num_vertices))
    top = sup_norm(u, "boundary")
    ks = np.linspace(0.0, 1.2 * top, 50)
    phis = np.array([level_set_measure(u, float(k)) for k in ks])
    assert np.all(np.diff(phis) <= 0.0)
    assert np.all(phis[ks >= top] == 0.0)


def test_solution_arithmetic_needs_shared_mesh():
    ma, mb = build_interval_mesh(2), build_interval_mesh(2)
    ua = DiscreteSolution(ma, np.ones(3))
    ub = DiscreteSolution(mb, np.ones(3))
    with pytest.raises(InvalidArgumentError):
        _ = ua - ub
    diff = ua - DiscreteSolution(ma, np.full(3, 0.25))
    assert np.allclose(diff.nodal_values, 0.75)


def test_solution_validation():
    m = build_interval_mesh(2)
    with pytest.raises(InvalidArgumentError):
        DiscreteSolution(m, np.ones(4))
    with pytest.raises(InvalidArgumentError):
        DiscreteSolution(m, np.array([1.0, np.nan, 0.0]))
