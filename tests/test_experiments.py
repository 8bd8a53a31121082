import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robin_lab.analysis import level_set_measure, sup_norm
from robin_lab.assembly import assemble_load, assemble_operator, assemble_system
from robin_lab.errors import (
    InvalidArgumentError,
    NoInformativePairsError,
    NonConvergenceError,
    NumericBreakdownError,
)
from robin_lab.experiments import (
    convergence_study,
    estimate_constant,
    level_set_pipeline,
    solve_robin,
    stability_sweep,
    theorem0_terms,
    StabilityRecord,
)
from robin_lab.fields import BoundaryField, SourceField, boundary_sup, boundary_sup_diff
from robin_lab.linalg import cg_solve
from robin_lab.mesh import boundary_vertex_indices, build_mesh, prolongations

from oracles import analytic_interval_solution

ONE = SourceField.constant(1.0)


def _solve(mesh, lam=1.0, beta=1.0, f=ONE, **kw):
    """The solution for one coefficient; a float beta is a constant."""
    if isinstance(beta, float):
        beta = BoundaryField.constant(beta)
    (u,) = solve_robin(mesh, lam, f, [beta], **kw)
    return u


def _sweep(mesh, f, betas, **kw):
    """The stability records of a family solved with lambda = 1."""
    return stability_sweep(mesh, betas, solve_robin(mesh, 1.0, f, betas, **kw))


def test_problem_requires_positive_lambda():
    m = build_mesh("interval", 4)
    with pytest.raises(InvalidArgumentError):
        _solve(m, lam=0.0)
    with pytest.raises(InvalidArgumentError):
        _solve(m, lam=-1.0)
    with pytest.raises(InvalidArgumentError):
        _solve(m, lam=float("nan"))


@pytest.mark.parametrize("domain,n", [("interval", 8), ("square", 4), ("cube", 2)])
def test_constant_solution_is_exact(domain, n):
    # f = 2, lambda = 4, beta = 0: u = 1/2 solves both the equation and the
    # boundary condition
    m = build_mesh(domain, n)
    u = _solve(m, lam=4.0, beta=0.0, f=SourceField.constant(2.0), tol=1e-12)
    assert np.max(np.abs(u - 0.5)) < 1e-10


def test_zero_source_gives_zero_solution():
    m = build_mesh("interval", 16)
    u = _solve(m, f=SourceField.constant(0.0))
    assert np.max(np.abs(u)) == 0.0


def test_interval_solution_matches_oracle():
    m = build_mesh("interval", 32)
    u = _solve(m, tol=1e-12)
    oracle = analytic_interval_solution(1.0, 1.0, 1.0)
    exact = np.array([oracle(float(x)) for x in m.coordinates(0, m.num_vertices)[0]])
    assert np.max(np.abs(u - exact)) <= 5e-4


def test_oracle_closed_form_values():
    u = analytic_interval_solution(1.0, 1.0, 1.0)
    assert u(0.5) == pytest.approx(1.0 - np.exp(-0.5), abs=1e-12)
    assert u(0.0) == pytest.approx(0.5 - np.exp(-1.0) / 2.0, abs=1e-12)
    assert u(0.0) == pytest.approx(u(1.0), abs=1e-15)  # symmetric data


def test_oracle_neumann_limit():
    u = analytic_interval_solution(2.0, 0.0, 3.0)
    for x in (0.0, 0.3, 1.0):
        assert u(x) == pytest.approx(1.5, abs=1e-15)


def test_oracle_satisfies_equation_and_boundary_conditions():
    lam, beta, f = 2.5, 0.7, 1.3
    u = analytic_interval_solution(lam, beta, f)
    # interior residual -u'' + lam*u - f via second differences, O(step^2)
    step = 1e-5
    for x in (0.2, 0.5, 0.8):
        second = (u(x + step) - 2.0 * u(x) + u(x - step)) / step**2
        assert abs(-second + lam * u(x) - f) < 1e-5
    # Robin conditions via one-sided differences
    du0 = (u(step) - u(0.0)) / step
    du1 = (u(1.0) - u(1.0 - step)) / step
    assert abs(-du0 + beta * u(0.0)) < 1e-4
    assert abs(du1 + beta * u(1.0)) < 1e-4


def test_oracle_rejects_bad_data():
    with pytest.raises(InvalidArgumentError):
        analytic_interval_solution(0.0, 1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        analytic_interval_solution(1.0, -1.0, 1.0)


def test_solver_linearity():
    m = build_mesh("interval", 32)
    tol = 1e-12
    f1 = SourceField.constant(1.0)
    f2 = SourceField.from_expression("x")
    f12 = SourceField.from_function(lambda p: 1.0 + p[0])
    u1 = _solve(m, f=f1, tol=tol)
    u2 = _solve(m, f=f2, tol=tol)
    u12 = _solve(m, f=f12, tol=tol)
    gap = np.max(np.abs(u12 - u1 - u2))
    assert gap <= 10 * tol


def test_monotone_dependence_on_beta_1d():
    # larger beta pulls the boundary values down (lumped mass, f >= 0)
    m = build_mesh("interval", 64)
    previous = None
    for beta in (0.5, 1.0, 2.0, 4.0):
        u = _solve(m, beta=beta, lumped=True, tol=1e-12)
        oracle = analytic_interval_solution(1.0, beta, 1.0)
        assert abs(u[0] - oracle(0.0)) < 1e-3
        if previous is not None:
            assert u[0] < previous
        previous = u[0]


def test_stability_identical_coefficients():
    m = build_mesh("interval", 16)
    tol = 1e-10
    betas = [BoundaryField.constant(1.0)] * 3
    records = _sweep(m, ONE, betas, tol=tol)
    assert len(records) == 6
    for rec in records:
        assert rec.diff_sup_closure <= 2 * tol
        assert rec.ratio is None


def test_stability_two_constants_against_oracle():
    m = build_mesh("interval", 128)
    betas = [BoundaryField.constant(1.0), BoundaryField.constant(1.5)]
    records = _sweep(m, ONE, betas, tol=1e-12)
    u_a = analytic_interval_solution(1.0, 1.0, 1.0)
    u_b = analytic_interval_solution(1.0, 1.5, 1.0)
    gap = max(abs(u_a(float(x)) - u_b(float(x))) for x in m.coordinates(0, m.num_vertices)[0])
    for rec in records:
        assert rec.diff_sup_closure == pytest.approx(gap, abs=1e-3)
        assert rec.beta_diff_sup == pytest.approx(0.5)
        assert rec.ratio is not None


def test_stability_gaps_are_sup_norms_of_row_differences():
    # the sweep's one pairwise table has the bits of sup_norm on each pair
    m = build_mesh("square", 8)
    values = np.random.default_rng(5).uniform(0.0, 2.0, m.num_facets)
    betas = [
        BoundaryField.constant(1.0),
        BoundaryField.per_facet(values),
        BoundaryField.from_expression("1 + x*y"),
        BoundaryField.constant(0.0),
    ]
    rows = solve_robin(m, 1.0, ONE, betas)
    records = stability_sweep(m, betas, rows)
    assert len(records) == 12
    for rec in records:
        assert rec.diff_sup_closure == sup_norm(rows[rec.n] - rows[rec.m])


@pytest.mark.parametrize("domain,n", [("square", 8), ("cube", 6)])
@pytest.mark.parametrize("power", [600, -600])
def test_load_scale_moves_no_bits(domain, n, power):
    # b * b would overflow (2^600) or underflow to 0 (2^-600); the solve
    # scales the load by a power of 2 instead, which is exact
    m = build_mesh(domain, n)
    betas = [BoundaryField.constant(1.0), BoundaryField.from_expression("1 + x*y")]
    rows = solve_robin(m, 1.0, ONE, betas)
    scaled = solve_robin(m, 1.0, SourceField.constant(2.0**power), betas)
    assert np.all(rows > 0.0)
    assert np.array_equal(scaled, np.ldexp(rows, power))


def test_underflowing_denominator_is_uninformative():
    # u_n near 3e-321 times a 1e-11 gap rounds to 0: such a pair has no ratio,
    # and a family of only such pairs has no constant
    m = build_mesh("interval", 4)
    betas = [BoundaryField.constant(1.0), BoundaryField.constant(1.0 + 1e-11)]
    records = _sweep(m, SourceField.constant(1e-320), betas)
    assert all(r.un_sup_boundary > 0.0 and r.beta_diff_sup > 1e-12 for r in records)
    assert [r.ratio for r in records] == [None, None]
    with pytest.raises(NoInformativePairsError):
        estimate_constant(records)


def test_stability_needs_two_coefficients():
    m = build_mesh("interval", 4)
    for count in (0, 1):
        betas = [BoundaryField.constant(1.0)] * count
        with pytest.raises(InvalidArgumentError, match="two or more coefficients"):
            stability_sweep(m, betas, np.ones((count, m.num_vertices)))


@pytest.mark.parametrize("shape", [(3, 5), (2, 4), (5,), (2, 5, 1)])
def test_stability_needs_one_row_per_coefficient_and_vertex(shape):
    m = build_mesh("interval", 4)
    betas = [BoundaryField.constant(1.0), BoundaryField.constant(2.0)]
    with pytest.raises(InvalidArgumentError, match=r"shape \(2, 5\)"):
        stability_sweep(m, betas, np.ones(shape))


def test_stability_reports_failing_index():
    m = build_mesh("interval", 4)
    betas = [BoundaryField.constant(1.0), BoundaryField.from_function(lambda p: -1.0)]
    with pytest.raises(Exception, match="index 1"):
        solve_robin(m, 1.0, ONE, betas)


def test_failing_member_keeps_its_exception():
    # UnicodeDecodeError cannot be rebuilt from a message alone
    def undecodable(p):
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    m = build_mesh("interval", 4)
    betas = [BoundaryField.constant(1.0), BoundaryField.from_function(undecodable)]
    with pytest.raises(UnicodeDecodeError, match="index 1") as info:
        solve_robin(m, 1.0, ONE, [*betas, BoundaryField.constant(1.0)])
    assert info.value.reason == "invalid start byte"


def test_family_members_equal_independent_solves():
    # the shared K + lam M and load must give each member exactly what a
    # problem of its own gives
    m = build_mesh("cube", 3)
    f = SourceField.from_expression("1 + x*y")
    betas = [
        BoundaryField.constant(0.5),
        BoundaryField.per_facet(np.linspace(0.2, 2.0, m.num_facets)),
        BoundaryField.from_expression("1 + x - y*z"),
    ]
    limit = BoundaryField.constant(1.0)
    alone = [_solve(m, beta=b, f=f) for b in betas + [limit]]

    boundary = boundary_vertex_indices(m)
    records = _sweep(m, f, betas)
    for r in records:
        un, um = alone[r.n], alone[r.m]
        assert r.diff_sup_closure == sup_norm(un - um)
        assert r.un_sup_boundary == sup_norm(un[boundary])

    errs = convergence_study(solve_robin(m, 1.0, f, [*betas, limit]))
    assert errs == [sup_norm(u - alone[-1]) for u in alone[:-1]]


def test_family_members_equal_independent_solves_on_a_hierarchy():
    # cube n=8 has two coarse levels, so the shared Galerkin images, the
    # members' Jacobi scales and coarsest inverses are all in play; the
    # repeated members share one B, and the member with beta = 1e3 takes
    # one more iteration, so the others freeze while it goes on
    m = build_mesh("cube", 8)
    f = SourceField.from_expression("1 + x*y")
    facet = BoundaryField.per_facet(np.linspace(0.2, 2.0, m.num_facets))
    betas = [
        BoundaryField.constant(0.5),
        facet,
        BoundaryField.from_expression("1 + x - y*z"),
        BoundaryField.constant(1e3),
        facet,
        BoundaryField.constant(0.0),
        BoundaryField.constant(0.5),
    ]
    operator = assemble_operator(m, 1.0)
    system = assemble_system(operator, m, betas)
    transfers = prolongations(m)
    _, report = cg_solve(operator, assemble_load(m, f), 1e-10, transfers, system.boundary)
    assert len(transfers) == 2
    assert len(set(report.member_iterations)) > 1

    family = solve_robin(m, 1.0, f, betas)
    for i, beta in enumerate(betas):
        assert np.array_equal(family[i], _solve(m, beta=beta, f=f))


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.floats(0.0, 10.0), min_size=2, max_size=5).flatmap(
        lambda values: st.tuples(st.just(values), st.permutations(range(len(values))))
    )
)
def test_permuted_family_permutes_rows(family):
    values, order = family
    m = build_mesh("square", 8)
    betas = [BoundaryField.constant(v) for v in values]
    rows = solve_robin(m, 1.0, ONE, betas)
    permuted = solve_robin(m, 1.0, ONE, [betas[i] for i in order])
    assert np.array_equal(permuted, rows[list(order)])


_MESHES = {"cube": build_mesh("cube", 8), "square": build_mesh("square", 16)}
_EXPRESSIONS = ["1 + x*y", "0.5 + x", "2 - y"]


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(sorted(_MESHES)),
    st.lists(
        st.one_of(
            st.tuples(st.just("shared"), st.integers(0, 1)),
            st.tuples(st.just("constant"), st.floats(0.0, 5.0)),
            st.tuples(st.just("facet"), st.integers(0, 2**32 - 1)),
            st.tuples(st.just("expr"), st.integers(0, len(_EXPRESSIONS) - 1)),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_mixed_family_rows_equal_lone_solves(domain, kinds):
    # shared constant coefficients (repeated objects), per-facet ones with
    # zero facets (their boundary matrices lose entries to eliminate_zeros,
    # so the members' patterns differ) and expressions, on meshes with two
    # or more coarse levels: every row has the bits of its member solved alone
    m = _MESHES[domain]
    shared = [BoundaryField.constant(0.5), BoundaryField.constant(3.0)]
    betas = []
    for kind, value in kinds:
        if kind == "shared":
            betas.append(shared[value])
        elif kind == "constant":
            betas.append(BoundaryField.constant(value))
        elif kind == "facet":
            rng = np.random.default_rng(value)
            values = rng.uniform(0.2, 2.0, m.num_facets) * (rng.random(m.num_facets) < 0.7)
            betas.append(BoundaryField.per_facet(values))
        else:
            betas.append(BoundaryField.from_expression(_EXPRESSIONS[value]))
    assert len(prolongations(m)) >= 2
    family = solve_robin(m, 1.0, ONE, betas)
    for row, beta in zip(family, betas):
        assert np.array_equal(row, _solve(m, beta=beta))


def _reference_sweep(mesh, betas, rows):
    """The sweep as a loop over ordered pairs, one pair's reductions at a time."""
    boundary = boundary_vertex_indices(mesh)
    records = []
    for n, m in itertools.permutations(range(len(betas)), 2):
        diff, un_bd = sup_norm(rows[n] - rows[m]), sup_norm(rows[n][boundary])
        beta_diff = float(boundary_sup_diff([betas[n], betas[m]], mesh)[0, 1])
        informative = beta_diff > 1e-14 * (1.0 + boundary_sup(betas[n], mesh)) and un_bd > 0.0
        ratio = diff / (un_bd * beta_diff) if informative else None
        records.append((n, m, diff, un_bd, beta_diff, ratio))
    return records


def _bits(record):
    """A record's ints as they are, its floats by their bits, None as None."""
    return [v if v is None or type(v) is int else float(v).hex() for v in record]


_SWEEP_MESHES = {
    (d, n): build_mesh(d, n) for d, ns in [("square", range(4, 9)), ("cube", (3, 4))] for n in ns
}


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(sorted(_SWEEP_MESHES)),
    st.booleans(),
    st.lists(
        st.one_of(
            st.tuples(st.just("constant"), st.sampled_from([0.0, 1e-14, 0.5, 2.0])),
            st.tuples(st.just("facet"), st.integers(0, 2)),
            st.tuples(st.just("expr"), st.integers(0, len(_EXPRESSIONS) - 1)),
        ),
        min_size=2,
        max_size=6,
    ),
)
@example(("cube", 3), False, [("constant", 0.0), ("constant", 1e-14), ("facet", 0), ("facet", 0),
                              ("expr", 0), ("constant", 0.0)])
def test_stability_sweep_equals_a_per_pair_loop(key, zero_source, kinds):
    # repeated constants and per-facet fields drawn from three levels (ties
    # within and across members, equal members from one seed) make zero and
    # tied gaps, and 0 against 1e-14 a gap exactly at the informative floor;
    # with f = 0 every u_n vanishes and no pair is informative
    m = _SWEEP_MESHES[key]
    f = SourceField.constant(0.0) if zero_source else ONE
    betas = []
    for kind, value in kinds:
        if kind == "constant":
            betas.append(BoundaryField.constant(value))
        elif kind == "facet":
            levels = np.random.default_rng(value).choice([0.5, 1.0, 2.0], m.num_facets)
            betas.append(BoundaryField.per_facet(levels))
        else:
            betas.append(BoundaryField.from_expression(_EXPRESSIONS[value]))
    rows = solve_robin(m, 1.0, f, betas)
    records = stability_sweep(m, betas, rows)
    assert all(type(r) is StabilityRecord for r in records)
    assert [_bits(r) for r in records] == [_bits(r) for r in _reference_sweep(m, betas, rows)]
    if zero_source:
        assert all(r.ratio is None for r in records)


def test_failing_member_is_named():
    # with lambda = 1e-300 the beta = 0 member is singular in practice and
    # stops unconverged, while its neighbour solves
    m = build_mesh("square", 8)
    good, bad = BoundaryField.constant(1.0), BoundaryField.constant(0.0)
    _solve(m, lam=1e-300, beta=good)
    with pytest.raises(NonConvergenceError) as info:
        solve_robin(m, 1e-300, ONE, [good, bad])
    assert info.value.__notes__ == ["solve failed for coefficient index 1"]
    # a failure of the whole family (here the solution f / lambda of every
    # beta = 0 member overflows) is named at member 0, the first to meet it
    with pytest.raises(NumericBreakdownError) as info:
        solve_robin(m, 1e-10, SourceField.constant(1e300), [bad, bad])
    assert info.value.__notes__ == ["solve failed for coefficient index 0"]


@pytest.mark.parametrize("value", [0.0, 1.0])
def test_empty_family_refused_whatever_the_source(value):
    m = build_mesh("square", 4)
    with pytest.raises(InvalidArgumentError, match="empty") as info:
        solve_robin(m, 1.0, SourceField.constant(value), [])
    # no member to name: the family has none
    assert getattr(info.value, "__notes__", []) == []


def test_estimate_constant():
    mk = lambda ratio: StabilityRecord(0, 1, 1.0, 1.0, 1.0, ratio)
    assert estimate_constant([mk(2.5)]) == 2.5
    assert estimate_constant([mk(1.0), mk(3.0), mk(None)]) == 3.0
    with pytest.raises(NoInformativePairsError):
        estimate_constant([mk(None), mk(None)])


def test_convergence_identical_sequence():
    m = build_mesh("interval", 16)
    tol = 1e-10
    beta = BoundaryField.constant(1.0)
    errs = convergence_study(solve_robin(m, 1.0, ONE, [beta, beta, beta], tol=tol))
    assert len(errs) == 2
    assert all(err <= 2 * tol for err in errs)


def test_convergence_sequence_shrinks():
    m = build_mesh("interval", 64)
    betas = [BoundaryField.constant(1.0 + 1.0 / (k + 1)) for k in range(33)]
    limit = BoundaryField.constant(1.0)
    errs = np.array(convergence_study(solve_robin(m, 1.0, ONE, [*betas, limit], tol=1e-11)))
    assert np.all(np.diff(errs) <= 1e-12)
    assert errs[32] / errs[1] <= 0.1


@pytest.mark.parametrize("shape", [(1, 5), (0, 5), (5,), ()])
def test_convergence_needs_a_row_and_the_limit(shape):
    with pytest.raises(InvalidArgumentError, match="convergence study needs"):
        convergence_study(np.ones(shape))


def test_convergence_gaps_are_to_the_last_row():
    rows = np.array([[1.0, -2.0], [0.5, 0.5], [0.0, 1.0]])
    assert convergence_study(rows) == [3.0, 0.5]
    assert convergence_study(rows.tolist()) == [3.0, 0.5]


def test_theorem0_ratio_unit_source():
    m = build_mesh("cube", 2)
    u = _solve(m, tol=1e-11)
    sup_u, f_norm = theorem0_terms(u, m, ONE, 4.0)
    assert sup_u / f_norm == pytest.approx(sup_norm(u), rel=1e-12)


def test_theorem0_ratio_scaling_invariance():
    m = build_mesh("cube", 2)
    f1 = SourceField.from_expression("1 + x")
    f2 = SourceField.from_function(lambda p: 2.0 * (1.0 + p[0]))
    u1 = _solve(m, f=f1, tol=1e-12)
    u2 = _solve(m, f=f2, tol=1e-12)
    r1 = np.divide(*theorem0_terms(u1, m, f1, 4.0))
    r2 = np.divide(*theorem0_terms(u2, m, f2, 4.0))
    assert abs(r1 - r2) <= 1e-10 * r1


def test_theorem0_rejects_zero_source():
    m = build_mesh("cube", 2)
    u = _solve(m, tol=1e-11)
    with pytest.raises(InvalidArgumentError):
        theorem0_terms(u, m, SourceField.constant(0.0), 4.0)


def test_level_set_pipeline_trivial_for_zero_difference():
    m = build_mesh("cube", 2)
    u = _solve(m, tol=1e-11)
    report = level_set_pipeline(u - u, m)
    assert report.hypothesis_ok
    assert report.predicted_gap == 0.0
    assert report.conclusion_ok
    assert report.samples.ks.tolist() == [0.0]
    assert report.samples.values.tolist() == [0.0]


def test_level_set_pipeline_on_solved_pair():
    m = build_mesh("cube", 4)
    ua = _solve(m, beta=1.0, tol=1e-11)
    ub = _solve(m, beta=1.5, tol=1e-11)
    report = level_set_pipeline(ua - ub, m)
    assert report.hypothesis_ok
    assert report.vanish_point is not None
    # the report carries the sampled curve it checked
    ks = report.samples.ks
    assert ks.size == 64
    assert report.samples.values.tolist() == [
        level_set_measure(ua - ub, m, k) for k in ks
    ]
