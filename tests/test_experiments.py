import numpy as np
import pytest

from robin_lab.analysis import level_set_measure, sup_norm
from robin_lab.errors import (
    InvalidArgumentError,
    NoInformativePairsError,
)
from robin_lab.experiments import (
    analytic_interval_solution,
    convergence_study,
    estimate_constant,
    level_set_pipeline,
    solve_robin,
    stability_sweep,
    theorem0_terms,
    StabilityRecord,
)
from robin_lab.fields import BoundaryField, SourceField
from robin_lab.mesh import (
    boundary_vertex_indices,
    build_interval_mesh,
    build_mesh,
    build_unit_cube_mesh,
)

ONE = SourceField.constant(1.0)


def _solve(mesh, lam=1.0, beta=1.0, f=ONE, **kw):
    """The solution for one coefficient; a float beta is a constant."""
    if isinstance(beta, float):
        beta = BoundaryField.constant(beta)
    (u,) = solve_robin(mesh, lam, f, [beta], **kw)
    return u


def test_problem_requires_positive_lambda():
    m = build_interval_mesh(4)
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
    m = build_interval_mesh(16)
    u = _solve(m, f=SourceField.constant(0.0))
    assert np.max(np.abs(u)) == 0.0


def test_interval_solution_matches_oracle():
    m = build_interval_mesh(32)
    u = _solve(m, tol=1e-12)
    oracle = analytic_interval_solution(1.0, 1.0, 1.0)
    exact = np.array([oracle(float(x[0])) for x in m.vertices])
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
    m = build_interval_mesh(32)
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
    m = build_interval_mesh(64)
    previous = None
    for beta in (0.5, 1.0, 2.0, 4.0):
        u = _solve(m, beta=beta, lumped=True, tol=1e-12)
        oracle = analytic_interval_solution(1.0, beta, 1.0)
        assert abs(u[0] - oracle(0.0)) < 1e-3
        if previous is not None:
            assert u[0] < previous
        previous = u[0]


def test_stability_identical_coefficients():
    m = build_interval_mesh(16)
    tol = 1e-10
    betas = [BoundaryField.constant(1.0)] * 3
    records = stability_sweep(m, 1.0, ONE, betas, tol=tol)
    assert len(records) == 6
    for rec in records:
        assert rec.diff_sup_closure <= 2 * tol
        assert rec.ratio is None


def test_stability_two_constants_against_oracle():
    m = build_interval_mesh(128)
    betas = [BoundaryField.constant(1.0), BoundaryField.constant(1.5)]
    records = stability_sweep(m, 1.0, ONE, betas, tol=1e-12)
    u_a = analytic_interval_solution(1.0, 1.0, 1.0)
    u_b = analytic_interval_solution(1.0, 1.5, 1.0)
    gap = max(abs(u_a(float(x[0])) - u_b(float(x[0]))) for x in m.vertices)
    for rec in records:
        assert rec.diff_sup_closure == pytest.approx(gap, abs=1e-3)
        assert rec.beta_diff_sup == pytest.approx(0.5)
        assert rec.ratio is not None


def test_stability_needs_two_coefficients():
    m = build_interval_mesh(4)
    with pytest.raises(InvalidArgumentError):
        stability_sweep(m, 1.0, ONE, [BoundaryField.constant(1.0)])


def test_stability_reports_failing_index():
    m = build_interval_mesh(4)
    betas = [BoundaryField.constant(1.0), BoundaryField.from_function(lambda p: -1.0)]
    with pytest.raises(Exception, match="index 1"):
        stability_sweep(m, 1.0, ONE, betas)


def test_failing_member_keeps_its_exception():
    # UnicodeDecodeError cannot be rebuilt from a message alone
    def undecodable(p):
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    m = build_interval_mesh(4)
    betas = [BoundaryField.constant(1.0), BoundaryField.from_function(undecodable)]
    with pytest.raises(UnicodeDecodeError, match="index 1") as info:
        convergence_study(m, 1.0, ONE, betas, BoundaryField.constant(1.0))
    assert info.value.reason == "invalid start byte"


def test_family_members_equal_independent_solves():
    # the shared K + lam M and load must give each member exactly what a
    # problem of its own gives
    m = build_unit_cube_mesh(3)
    f = SourceField.from_expression("1 + x*y")
    betas = [
        BoundaryField.constant(0.5),
        BoundaryField.per_facet(np.linspace(0.2, 2.0, m.num_facets)),
        BoundaryField.from_expression("1 + x - y*z"),
    ]
    limit = BoundaryField.constant(1.0)
    alone = [_solve(m, beta=b, f=f) for b in betas + [limit]]

    boundary = boundary_vertex_indices(m)
    records = stability_sweep(m, 1.0, f, betas)
    for r in records:
        un, um = alone[r.n], alone[r.m]
        assert r.diff_sup_closure == sup_norm(un - um)
        assert r.un_sup_boundary == sup_norm(un[boundary])

    errs = convergence_study(m, 1.0, f, betas, limit)
    assert errs == [sup_norm(u - alone[-1]) for u in alone[:-1]]


def test_estimate_constant():
    mk = lambda ratio: StabilityRecord(0, 1, 1.0, 1.0, 1.0, ratio)
    assert estimate_constant([mk(2.5)]) == 2.5
    assert estimate_constant([mk(1.0), mk(3.0), mk(None)]) == 3.0
    with pytest.raises(NoInformativePairsError):
        estimate_constant([mk(None), mk(None)])


def test_convergence_identical_sequence():
    m = build_interval_mesh(16)
    tol = 1e-10
    beta = BoundaryField.constant(1.0)
    errs = convergence_study(m, 1.0, ONE, [beta, beta], beta, tol=tol)
    assert len(errs) == 2
    assert all(err <= 2 * tol for err in errs)


def test_convergence_sequence_shrinks():
    m = build_interval_mesh(64)
    betas = [BoundaryField.constant(1.0 + 1.0 / (k + 1)) for k in range(33)]
    limit = BoundaryField.constant(1.0)
    errs = np.array(convergence_study(m, 1.0, ONE, betas, limit, tol=1e-11))
    assert np.all(np.diff(errs) <= 1e-12)
    assert errs[32] / errs[1] <= 0.1


def test_theorem0_ratio_unit_source():
    m = build_unit_cube_mesh(2)
    u = _solve(m, tol=1e-11)
    sup_u, f_norm = theorem0_terms(u, m, ONE, 4.0)
    assert sup_u / f_norm == pytest.approx(sup_norm(u), rel=1e-12)


def test_theorem0_ratio_scaling_invariance():
    m = build_unit_cube_mesh(2)
    f1 = SourceField.from_expression("1 + x")
    f2 = SourceField.from_function(lambda p: 2.0 * (1.0 + p[0]))
    u1 = _solve(m, f=f1, tol=1e-12)
    u2 = _solve(m, f=f2, tol=1e-12)
    r1 = np.divide(*theorem0_terms(u1, m, f1, 4.0))
    r2 = np.divide(*theorem0_terms(u2, m, f2, 4.0))
    assert abs(r1 - r2) <= 1e-10 * r1


def test_theorem0_rejects_zero_source():
    m = build_unit_cube_mesh(2)
    u = _solve(m, tol=1e-11)
    with pytest.raises(InvalidArgumentError):
        theorem0_terms(u, m, SourceField.constant(0.0), 4.0)


def test_level_set_pipeline_trivial_for_zero_difference():
    m = build_unit_cube_mesh(2)
    u = _solve(m, tol=1e-11)
    report = level_set_pipeline(u - u, m)
    assert report.hypothesis_ok
    assert report.predicted_gap == 0.0
    assert report.conclusion_ok
    assert report.samples.ks.tolist() == [0.0]
    assert report.samples.values.tolist() == [0.0]


def test_level_set_pipeline_on_solved_pair():
    m = build_unit_cube_mesh(4)
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
