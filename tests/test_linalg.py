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
from robin_lab.linalg import cg_solve
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
    x_dense = np.linalg.solve(A.toarray(), b)  # LAPACK, independent of CG
    assert np.max(np.abs(x - x_dense)) <= 1e-10


def test_report_invariant():
    A, b = _interval_system(n=32)
    x, report = cg_solve(A, b, tol=1e-10)
    assert report.converged == (report.final_relative_residual <= 1e-10)


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

