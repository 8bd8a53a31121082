import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import robin_lab
from robin_lab.assembly import (
    assemble_boundary_mass,
    assemble_load,
    assemble_operator,
    assemble_stiffness,
)
from robin_lab.errors import InvalidArgumentError
from robin_lab.fields import BoundaryField, SourceField
from robin_lab.linalg import _multigrid, cg_solve
from robin_lab.mesh import build_mesh, prolongations


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
    m = build_mesh("interval", n)
    A = assemble_operator(m, lam) + assemble_boundary_mass(m, BoundaryField.constant(beta))
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
    m = build_mesh("interval", 16)
    K = assemble_stiffness(m)
    b = np.zeros(K.shape[0])
    b[0] = 1.0  # not orthogonal to the constant kernel
    x, report = cg_solve(K, b, tol=1e-10)
    assert not report.converged


def test_max_iter_budget_respected():
    # the singular system stops unconverged within the fixed budget of
    # 10 x the dimension
    K = assemble_stiffness(build_mesh("interval", 16))
    b = np.zeros(K.shape[0])
    b[0] = 1.0
    _, report = cg_solve(K, b, tol=1e-10)
    assert 0 < report.iterations <= 10 * K.shape[0]
    assert not report.converged


def test_rhs_shape_checked():
    with pytest.raises(InvalidArgumentError):
        cg_solve(_identity(4), np.ones(5))
    with pytest.raises(InvalidArgumentError):
        cg_solve(_identity(4), np.ones(4), tol=0.0)
    with pytest.raises(InvalidArgumentError):
        cg_solve(_identity(4), np.ones(4), tol=float("nan"))


def test_boundary_shape_checked_per_member():
    # a boundary matrix of the wrong shape is refused up front, naming its
    # member, instead of failing inside numpy
    with pytest.raises(InvalidArgumentError, match="shape") as info:
        cg_solve(_identity(5), np.ones(5), 1e-10, (), [(sp.identity(4, format="csr"), 1.0)])
    assert info.value.__notes__ == ["solve failed for coefficient index 0"]


@pytest.mark.parametrize("load", [0.0, 1.0])
def test_empty_family_refused_whatever_the_load(load):
    # refused before the zero-load return and before the hierarchy's
    # vstack, so both loads fail alike
    with pytest.raises(InvalidArgumentError, match="empty"):
        cg_solve(_identity(5), np.full(5, load), 1e-10, (), [])


@pytest.mark.parametrize("weight", [float("inf"), float("nan")])
def test_nonfinite_weight_refused_per_member(weight):
    # refused before the hierarchy is built, so no floating-point warning
    # escapes (warnings are errors in this suite)
    boundary = [(_identity(5), 1.0), (_identity(5), weight)]
    with pytest.raises(InvalidArgumentError, match="finite") as info:
        cg_solve(_identity(5), np.ones(5), 1e-10, (), boundary)
    assert info.value.__notes__ == ["solve failed for coefficient index 1"]


def test_apply_makes_one_boundary_product_per_level(monkeypatch):
    # every member's B sits in one CSR per level, so an apply costs two
    # sparse products (A and the boundary terms) whatever the number of
    # distinct B; at the finest level each column has the bits of
    # A x_i + (B_i x_i) w_i
    m = build_mesh("cube", 8)
    A = assemble_operator(m, 1.0)
    transfers = prolongations(m)
    sizes = [A.shape[0]] + [P.shape[1] for P in transfers[:-1]]
    rng = np.random.default_rng(5)
    counts = []
    for size in (2, 9):
        betas = [BoundaryField.per_facet(rng.uniform(0.5, 2.0, m.num_facets)) for _ in range(size)]
        weights = rng.uniform(0.5, 2.0, size)
        boundary = [(assemble_boundary_mass(m, beta), w) for beta, w in zip(betas, weights)]
        apply, _ = _multigrid(A, boundary, transfers)
        x = rng.standard_normal((A.shape[0], size))
        y = apply(x)
        for i, (B, w) in enumerate(boundary):
            assert np.array_equal(y[:, i], (A @ x[:, [i]] + (B @ x[:, [i]]) * w)[:, 0])
        calls = []
        matmul = sp.csr_array.__matmul__
        with monkeypatch.context() as patch:
            patch.setattr(sp.csr_array, "__matmul__", lambda a, b: calls.append(a) or matmul(a, b))
            for level, n in enumerate(sizes):
                apply(rng.standard_normal((n, size)), level)
        counts.append(len(calls))
    assert counts == [2 * len(sizes)] * 2


def test_hierarchy_freed_without_the_cycle_collector():
    # no closure of the multigrid refers to itself, so a family's hierarchy
    # is freed as soon as the solve drops it, not at a later collection
    m = build_mesh("cube", 8)
    A = assemble_operator(m, 1.0)
    B = assemble_boundary_mass(m, BoundaryField.constant(1.0))
    apply, precondition = _multigrid(A, [(B, 1.0)], prolongations(m))
    precondition(np.ones((A.shape[0], 1)))
    alive = weakref.ref(apply)
    gc.disable()
    try:
        del apply, precondition
        assert alive() is None
    finally:
        gc.enable()


def _multigrid_solve(domain, n, lam=1.0):
    m = build_mesh(domain, n)
    A = assemble_operator(m, lam) + assemble_boundary_mass(m, BoundaryField.constant(1.0))
    b = assemble_load(m, SourceField.constant(1.0))
    return cg_solve(A, b, 1e-10, prolongations(m))


# iteration counts of the V-cycle preconditioner, as measured plus 2: they
# must stay flat as n grows
@pytest.mark.parametrize(
    "domain,n,limit",
    [("cube", 4, 12), ("cube", 8, 15), ("cube", 16, 18), ("square", 16, 14), ("square", 64, 15)],
)
def test_multigrid_iterations_bounded(domain, n, limit):
    _, report = _multigrid_solve(domain, n)
    assert report.converged
    assert report.iterations <= limit


def test_multigrid_stiff_mass_converges():
    # with lambda = 1e6 the consistent mass lifts lambda_max(D^-1 A) to 3.48
    # on the smoothed Galerkin level, past 2 / 0.6, where a fixed damping of
    # 0.6 would no longer guarantee a contracting smoother
    _, report = _multigrid_solve("cube", 9, lam=1e6)
    assert report.converged


def test_failed_coarse_factorisation_leaves_other_members_bits():
    # member 0's K - B is indefinite (the constants), so its coarsest
    # Cholesky factorisation fails; member 1 keeps its own factorisation
    m = build_mesh("cube", 8)
    K = assemble_stiffness(m)
    B = assemble_boundary_mass(m, BoundaryField.constant(1.0))
    b = assemble_load(m, SourceField.constant(1.0))
    transfers = prolongations(m)
    family, report = cg_solve(K, b, 1e-10, transfers, [(B, -1.0), (B, 1.0)])
    alone, _ = cg_solve(K, b, 1e-10, transfers, [(B, 1.0)])
    assert not report.member_residuals[0] <= 1e-10
    assert report.member_residuals[1] <= 1e-10
    assert family[1].tobytes() == alone[0].tobytes()


def test_large_system_without_hierarchy_rejected():
    # without the mesh hierarchy the coarsest, dense level is A itself
    with pytest.raises(InvalidArgumentError, match="hierarchy"):
        cg_solve(_identity(1001), np.ones(1001))


def test_bits_do_not_depend_on_blas_threads():
    # square n=190 (36 481 dofs) is past the length at which OpenBLAS
    # splits a dot product across threads, which would reorder its sum
    script = (
        "import hashlib, robin_lab as rl\n"
        "mesh = rl.build_mesh('square', 190)\n"
        "f = rl.SourceField.from_expression('1 + x*y')\n"
        "(u,) = rl.solve_robin(mesh, 1.0, f, [rl.BoundaryField.constant(2.0)])\n"
        "print(hashlib.sha256(u.tobytes()).hexdigest())\n"
    )
    src = str(Path(robin_lab.__file__).resolve().parents[1])
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src),
            stdout=subprocess.PIPE,
            text=True,
        )
        for threads in ("1", "2")
    ]
    digests = [run.communicate(timeout=120)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert digests[0] == digests[1]
