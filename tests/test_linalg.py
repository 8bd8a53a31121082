import gc
import os
import subprocess
import sys
import tracemalloc
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
from robin_lab.errors import InvalidArgumentError, NumericBreakdownError
from robin_lab.fields import BoundaryField, SourceField
from robin_lab import linalg
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_load_breaks_down_with_no_member_named(value):
    # the load is every member's: no note names one of them
    b = np.ones(5)
    b[2] = value
    with pytest.raises(NumericBreakdownError, match="right-hand side") as info:
        cg_solve(_identity(5), b, 1e-10, (), [(_identity(5), 1.0), (_identity(5), 2.0)])
    assert getattr(info.value, "__notes__", []) == []


@pytest.mark.parametrize("load", [0.0, 1.0])
def test_empty_family_refused_whatever_the_load(load):
    # refused before the zero-load return and before the hierarchy is
    # built, so both loads fail alike
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
    # distinct B; at every level each column has the bits of
    # A_l x_i + (B_l x_i) w_i, with B_l the member's own chain P^T B P
    m = build_mesh("cube", 8)
    A = assemble_operator(m, 1.0)
    transfers = [(P, P.T.tocsr()) for P in prolongations(m)]
    rng = np.random.default_rng(5)
    mass = lambda values: assemble_boundary_mass(m, BoundaryField.per_facet(values))
    families = [
        [(mass(rng.uniform(0.5, 2.0, m.num_facets)), w) for w in rng.uniform(0.5, 2.0, size)]
        for size in (2, 9)
    ]
    # one B(1) under two weights, and two B whose beta vanishes on some
    # facets, so that some of their rows are empty
    unit = assemble_boundary_mass(m, BoundaryField.constant(1.0))
    holes = [rng.uniform(0.5, 2.0, m.num_facets) for _ in range(2)]
    holes[0][: m.num_facets // 2] = 0.0
    holes[1][rng.random(m.num_facets) < 0.5] = 0.0
    families.append([(unit, 0.5), (mass(holes[0]), 1.0), (unit, 3.0), (mass(holes[1]), 1.0)])
    counts = []
    for boundary in families:
        apply, _ = _multigrid(A, boundary, [P for P, _ in transfers])
        ops, chains = [A], [[B for B, _ in boundary]]
        for P, Pt in transfers[:-1]:
            ops.append(Pt @ ops[-1] @ P)
            chains.append([Pt @ B @ P for B in chains[-1]])
        for level, (op, chain) in enumerate(zip(ops, chains)):
            x = rng.standard_normal((op.shape[0], len(boundary)))
            y = apply(x, level)
            for i, (B, (_, w)) in enumerate(zip(chain, boundary)):
                expected = op @ x[:, [i]] + (B.sorted_indices() @ x[:, [i]]) * w
                assert np.array_equal(y[:, i], expected[:, 0])
        calls = []
        matmul = sp.csr_array.__matmul__
        with monkeypatch.context() as patch:
            patch.setattr(sp.csr_array, "__matmul__", lambda a, b: calls.append(a) or matmul(a, b))
            for level, op in enumerate(ops):
                apply(rng.standard_normal((op.shape[0], len(boundary))), level)
        counts.append(len(calls))
    assert counts == [2 * len(ops)] * len(families)


def _reversed_rows(B):
    """B in CSR with each row's entries stored in reverse (unsorted) order."""
    order = np.concatenate([np.arange(b - 1, a - 1, -1) for a, b in zip(B.indptr, B.indptr[1:])])
    return sp.csr_array((B.data[order], B.indices[order], B.indptr), shape=B.shape)


@pytest.mark.parametrize(
    "store",
    [sp.coo_array, sp.lil_array, _reversed_rows, lambda B: B],
    ids=["coo", "lil", "unsorted", "csr"],
)
def test_storage_of_B_leaves_the_bits(store):
    # the hierarchy images a sorted CSR copy of each B, so how the caller
    # stores B moves no bit of the solution, and the caller's B is untouched
    m = build_mesh("cube", 8)
    A = assemble_operator(m, 1.0)
    b = assemble_load(m, SourceField.constant(1.0))
    beta = BoundaryField.per_facet(np.random.default_rng(7).uniform(0.5, 2.0, m.num_facets))
    B = assemble_boundary_mass(m, beta)
    stored = store(B)
    before = stored.tocoo(copy=True)  # the entries in their stored order
    canonical, _ = cg_solve(A, b, 1e-10, prolongations(m), [(B, 1.0), (B, 2.0)])
    x, _ = cg_solve(A, b, 1e-10, prolongations(m), [(stored, 1.0), (stored, 2.0)])
    assert x.tobytes() == canonical.tobytes()
    after = stored.tocoo()
    assert all(np.array_equal(u, v) for u, v in zip(before.coords, after.coords))
    assert np.array_equal(before.data, after.data)


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


def test_blocked_row_sums_of_a_keep_the_bits(monkeypatch):
    # _jacobi_scales sums the rows of |A| a block at a time; several blocks,
    # the last one ragged, give the scales of one block of every row
    m = build_mesh("square", 64)  # 4225 rows
    A, beta = assemble_operator(m, 1.0), BoundaryField.per_facet(np.linspace(0.5, 2.0, 256))
    images, member = [assemble_boundary_mass(m, beta)], np.zeros(3, dtype=int)
    scales = []
    for block in (4225, 1000, 4096):
        monkeypatch.setattr(linalg, "BLOCK", block)
        scales.append(linalg._jacobi_scales(A, images, member, np.array([0.5, 1.0, 3.0])))
    assert all(np.array_equal(s, scales[0]) for s in scales[1:])


def _multigrid_setup(m):
    A, P = assemble_operator(m, 1.0), prolongations(m)
    B = assemble_boundary_mass(m, BoundaryField.constant(1.0))
    return lambda: _multigrid(A, [(B, 1.0)], P)


@pytest.mark.parametrize(
    "make,budget",
    [(lambda m: lambda: assemble_operator(m, 1.0), 1.5), (lambda m: lambda: prolongations(m), 2.2),
     (_multigrid_setup, 1.5)],
    ids=["assemble_operator", "prolongations", "multigrid"],
)
def test_setup_peak_stays_near_what_it_keeps(make, budget):
    # at square n = 256 each set-up step's traced peak stays within a small
    # multiple of what it keeps: the operator frees its accumulator before it
    # gathers the columns, the transfers are built from int32 temporaries
    # freed once used, and the |A| row sums go by row blocks (the one-shot
    # forms peaked at 2.0, 3.0 and 1.7 times)
    step = make(build_mesh("square", 256))
    tracemalloc.start()
    try:
        kept = step()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept  # held until the traced memory was read
    assert peak <= budget * current
