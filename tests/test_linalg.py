import numpy as np
import pytest
import scipy.sparse as sp

from robin_lab.assembly import (
    assemble_load,
    assemble_operator,
    assemble_stiffness,
    assemble_system,
)
from robin_lab.errors import InvalidArgumentError
from robin_lab.fields import BoundaryField, SourceField
from robin_lab.linalg import cg_solve, gauss_solve, quadratic_form
from robin_lab.mesh import build_interval_mesh


def _identity(n):
    return sp.eye_array(n, format="csr")


def test_identity_converges_in_one_iteration():
    rng = np.random.default_rng(3)
    b = rng.standard_normal(20)
    x, report = cg_solve(_identity(20), b, tol=1e-12)
    assert report.iterations == 1
    assert report.converged
    assert np.allclose(x, b, atol=1e-14)


def test_zero_rhs_is_immediate():
    x, report = cg_solve(_identity(5), np.zeros(5))
    assert report.iterations == 0
    assert report.converged
    assert report.final_relative_residual == 0.0
    assert np.all(x == 0.0)


def _interval_system(n=128, lam=1.0, beta=1.0, f=1.0):
    m = build_interval_mesh(n)
    A = assemble_system(assemble_operator(m, lam), m, BoundaryField.constant(beta))
    b = assemble_load(m, SourceField.constant(f))
    return A, b


def test_interval_solve_matches_dense_oracle():
    A, b = _interval_system()
    x, report = cg_solve(A, b, tol=1e-12)
    assert report.converged
    assert report.final_relative_residual <= 1e-12
    x_dense = gauss_solve(A.toarray(), b)
    assert np.max(np.abs(x - x_dense)) <= 1e-10


def test_report_invariant():
    A, b = _interval_system(n=32)
    x, report = cg_solve(A, b, tol=1e-10)
    assert report.converged == (report.final_relative_residual <= 1e-10)


def test_preconditioned_and_plain_agree():
    A, b = _interval_system(n=64)
    tol = 1e-10
    x_pc, rep_pc = cg_solve(A, b, tol=tol, precondition=True)
    x_plain, rep_plain = cg_solve(A, b, tol=tol, precondition=False)
    assert rep_pc.converged and rep_plain.converged
    assert np.max(np.abs(x_pc - x_plain)) <= 10 * tol


def test_residual_history_is_roughly_monotone():
    A, b = _interval_system(n=64)
    _, report = cg_solve(A, b, tol=1e-10)
    hist = report.residual_history
    assert len(hist) >= 2
    for prev, cur in zip(hist, hist[1:]):
        assert cur <= 10.0 * prev + 1e-300


def test_singular_system_reports_nonconvergence():
    # pure stiffness matrix with an inconsistent right-hand side
    m = build_interval_mesh(16)
    K = assemble_stiffness(m)
    b = np.zeros(K.shape[0])
    b[0] = 1.0  # not orthogonal to the constant kernel
    x, report = cg_solve(K, b, tol=1e-10, max_iter=200)
    assert not report.converged


def test_max_iter_budget_respected():
    A, b = _interval_system(n=64)
    _, report = cg_solve(A, b, tol=1e-14, max_iter=3)
    assert report.iterations <= 3
    assert not report.converged


def test_rhs_shape_checked():
    with pytest.raises(InvalidArgumentError):
        cg_solve(_identity(4), np.ones(5))
    with pytest.raises(InvalidArgumentError):
        cg_solve(_identity(4), np.ones(4), tol=0.0)
    with pytest.raises(InvalidArgumentError):
        cg_solve(_identity(4), np.ones(4), tol=float("nan"))


def test_quadratic_form_examples():
    ident = _identity(2)
    assert quadratic_form(ident, np.zeros(2)) == 0.0
    assert quadratic_form(ident, np.array([3.0, 4.0])) == pytest.approx(25.0)
    K = assemble_stiffness(build_interval_mesh(2))
    assert quadratic_form(K, np.ones(3)) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(InvalidArgumentError):
        quadratic_form(ident, np.ones(3))


def test_gauss_solve_on_random_spd_systems():
    rng = np.random.default_rng(11)
    for n in (1, 5, 30):
        mat = rng.standard_normal((n, n))
        a = mat @ mat.T + n * np.eye(n)
        b = rng.standard_normal(n)
        x = gauss_solve(a, b)
        assert np.max(np.abs(a @ x - b)) < 1e-10 * max(1.0, np.max(np.abs(b)))


def test_gauss_solve_guards():
    with pytest.raises(InvalidArgumentError):
        gauss_solve(np.ones((2, 3)), np.ones(2))
    big = 2001
    with pytest.raises(InvalidArgumentError):
        gauss_solve(np.eye(big), np.ones(big))
