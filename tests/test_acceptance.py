"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` or ``-rA`` to
see them).  Heavy artifacts (cube meshes, stability sweeps) are shared
through module-scope fixtures.
"""

import json
import time

import numpy as np
import pytest

import robin_lab as rl
from robin_lab.cli import main as cli_main
from robin_lab.stampacchia import PhiSamples, StampacchiaParams, fit_minimal_c
from robin_lab.stampacchia import stampacchia_gap, verify_decay

ONE = rl.SourceField.constant(1.0)


def _line(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def cube8():
    return rl.build_unit_cube_mesh(8)


@pytest.fixture(scope="module")
def cube12():
    return rl.build_unit_cube_mesh(12)


@pytest.fixture(scope="module")
def sweep_betas():
    return [rl.BoundaryField.constant(1.0 + 1.0 / (k + 1)) for k in range(10)]


@pytest.fixture(scope="module")
def sweep8(cube8, sweep_betas):
    started = time.perf_counter()
    records = rl.stability_sweep(cube8, 1.0, ONE, sweep_betas)
    return records, time.perf_counter() - started


@pytest.fixture(scope="module")
def sweep12(cube12, sweep_betas):
    started = time.perf_counter()
    records = rl.stability_sweep(cube12, 1.0, ONE, sweep_betas)
    return records, time.perf_counter() - started


def test_criterion_1_interval_oracle_accuracy():
    started = time.perf_counter()
    oracle = rl.analytic_interval_solution(1.0, 1.0, 1.0)
    errors = {}
    for n in (128, 256):
        mesh = rl.build_interval_mesh(n)
        (u,) = rl.solve_robin(mesh, 1.0, ONE, [rl.BoundaryField.constant(1.0)])
        exact = np.array([oracle(float(x[0])) for x in mesh.vertices])
        errors[n] = float(np.max(np.abs(u - exact)))
    elapsed = time.perf_counter() - started
    factor = errors[128] / errors[256]
    ok = errors[128] <= 5e-4 and factor >= 3.0 and elapsed < 1.0
    _line(
        1,
        ok,
        f"err(128)={errors[128]:.3e} (<=5e-4), err(128)/err(256)={factor:.2f} "
        f"(>=3), runtime={elapsed:.2f}s (<1s)",
    )


def test_criterion_2_constant_solution_exactness():
    worst = 0.0
    for domain, n in (("interval", 16), ("square", 8), ("cube", 4)):
        mesh = rl.build_mesh(domain, n)
        (u,) = rl.solve_robin(
            mesh, 4.0, rl.SourceField.constant(2.0), [rl.BoundaryField.constant(0.0)], tol=1e-12
        )
        worst = max(worst, float(np.max(np.abs(u - 0.5))))
    _line(2, worst < 1e-9, f"max |u - 1/2| = {worst:.3e} (< 1e-9) on all domains")


def test_criterion_3_coercivity_and_cg():
    mesh = rl.build_unit_cube_mesh(4)
    lam = 1.0
    beta = rl.BoundaryField.constant(1.0)
    A = rl.assemble_system(rl.assemble_operator(mesh, lam), mesh, beta)
    K = rl.assemble_stiffness(mesh)
    M = rl.assemble_mass(mesh)
    rng = np.random.default_rng(2024)
    coercive = True
    positive = True
    for _ in range(100):
        v = rng.standard_normal(A.shape[0])
        qa = v @ (A @ v)
        qkm = v @ (K @ v) + lam * (v @ (M @ v))
        coercive &= qa >= qkm - 1e-10
        positive &= qa > 0.0
    b = rl.assemble_load(mesh, ONE)
    _, report = rl.cg_solve(A, b, tol=1e-10)
    ok = coercive and positive and report.converged
    _line(
        3,
        ok,
        f"100 random vectors coercive={coercive}, positive={positive}; CG "
        f"converged in {report.iterations} iterations at "
        f"{report.final_relative_residual:.2e} (<=1e-10)",
    )


def test_criterion_4_stability_sweep_mesh_stable(sweep8, sweep12):
    records8, time8 = sweep8
    records12, time12 = sweep12
    all_finite = all(
        r.ratio is not None and np.isfinite(r.ratio) and r.ratio > 0.0
        for r in records8 + records12
    )
    c8 = rl.estimate_constant(records8)
    c12 = rl.estimate_constant(records12)
    rel_gap = abs(c8 - c12) / max(c8, c12)
    runtime = time8 + time12
    ok = (
        len(records8) == 90
        and len(records12) == 90
        and all_finite
        and rel_gap <= 0.15
        and runtime < 120.0
    )
    _line(
        4,
        ok,
        f"90+90 finite ratios; C_hat(8)={c8:.4f}, C_hat(12)={c12:.4f}, "
        f"rel gap {rel_gap:.2%} (<=15%); runtime {runtime:.1f}s (<2min)",
    )


def test_criterion_5_corollary_convergence(cube8, sweep8):
    betas = [rl.BoundaryField.constant(1.0 + 1.0 / (k + 1)) for k in range(33)]
    limit = rl.BoundaryField.constant(1.0)
    errs = np.array(rl.convergence_study(cube8, 1.0, ONE, betas, limit, tol=1e-11))
    monotone = bool(np.all(np.diff(errs) <= 1e-12))
    shrink = errs[32] / errs[1]

    # self-consistency: one constant must fit the sweep records and the
    # sequence-vs-limit pairs together (the sweep family alone stops at
    # beta = 1.1 and underestimates the near-limit ratios; see notes)
    solutions = rl.solve_robin(cube8, 1.0, ONE, betas, tol=1e-11)
    boundary = rl.boundary_vertex_indices(cube8)
    pair_records = []
    for k, err in enumerate(errs):
        pair_records.append(
            rl.StabilityRecord(
                n=k,
                m=-1,
                diff_sup_closure=err,
                un_sup_boundary=rl.sup_norm(solutions[k, boundary]),
                beta_diff_sup=rl.boundary_sup_diff(betas[k], limit, cube8),
                ratio=None,
            )
        )
    sweep_records, _ = sweep8
    combined = list(sweep_records)
    for rec in pair_records:
        denom = rec.un_sup_boundary * rec.beta_diff_sup
        combined.append(
            rl.StabilityRecord(
                rec.n, rec.m, rec.diff_sup_closure, rec.un_sup_boundary,
                rec.beta_diff_sup, rec.diff_sup_closure / denom,
            )
        )
    c_hat = rl.estimate_constant(combined)
    bounded = all(
        rec.diff_sup_closure
        <= c_hat * rec.un_sup_boundary * rec.beta_diff_sup + 1e-9
        for rec in pair_records
    )
    ok = monotone and shrink <= 0.1 and bounded
    _line(
        5,
        ok,
        f"monotone={monotone}; err(32)/err(1)={shrink:.4f} (<=0.1); every "
        f"err(n) within C_hat={c_hat:.4f} bound +1e-9: {bounded}",
    )


def test_criterion_6_sup_over_source_norm_monitor(cube8, cube12):
    f = rl.SourceField.from_expression("1 + x")
    ratios = {}
    for mesh in (cube8, cube12):
        (u,) = rl.solve_robin(mesh, 1.0, f, [rl.BoundaryField.constant(1.0)], tol=1e-12)
        sup_u, f_norm = rl.theorem0_terms(u, mesh, f, 4.0)
        ratios[mesh] = sup_u / f_norm
    r8, r12 = ratios[cube8], ratios[cube12]
    rel_gap = abs(r8 - r12) / max(r8, r12)

    f2 = rl.SourceField.from_function(lambda p: 2.0 * (1.0 + p[0]))
    (u2,) = rl.solve_robin(cube8, 1.0, f2, [rl.BoundaryField.constant(1.0)], tol=1e-12)
    sup_u2, f2_norm = rl.theorem0_terms(u2, cube8, f2, 4.0)
    r_scaled = sup_u2 / f2_norm
    scale_drift = abs(r_scaled - r8) / r8
    ok = rel_gap <= 0.10 and scale_drift <= 1e-10
    _line(
        6,
        ok,
        f"ratio(8)={r8:.6f}, ratio(12)={r12:.6f}, rel gap {rel_gap:.2%} "
        f"(<=10%); doubling f drifts the ratio by {scale_drift:.1e} (<=1e-10)",
    )


def test_criterion_7_stampacchia_lemma_suite():
    # (a) fitted power curve concludes
    ks = np.linspace(0.0, 2.0, 101)
    phi = np.maximum(1.0 - ks, 0.0) ** 6
    samples = PhiSamples(ks, phi)
    c = fit_minimal_c(samples, 4.0, 3.0)
    report = verify_decay(
        samples,
        StampacchiaParams(c=c, alpha=4.0, delta=3.0, phi0=1.0, variant="classical"),
    )
    part_a = report.conclusion_ok

    # (b) both gap formulas coincide at (alpha, delta) = (4, 3)
    part_b = True
    for cc in (0.1, 1.0, 10.0):
        for p0 in (0.1, 1.0, 10.0):
            gp = stampacchia_gap(
                StampacchiaParams(c=cc, alpha=4.0, delta=3.0, phi0=p0, variant="alternate")
            )
            gc = stampacchia_gap(
                StampacchiaParams(
                    c=cc, alpha=4.0, delta=3.0, phi0=p0, variant="classical"
                )
            )
            part_b &= abs(gp - gc) <= 1e-12

    # (c) empty start level collapses the gap
    part_c = all(
        stampacchia_gap(
            StampacchiaParams(c=1.0, alpha=4.0, delta=3.0, phi0=0.0, variant=v)
        )
        == 0.0
        for v in ("alternate", "classical")
    )
    ok = part_a and part_b and part_c
    _line(
        7,
        ok,
        f"fitted power curve concludes: {part_a}; variants agree at (4,3): "
        f"{part_b}; zero phi0 gives zero gap: {part_c}",
    )


def test_criterion_8_level_set_diagnostics(cube8):
    beta_a = rl.BoundaryField.constant(1.0)
    beta_b = rl.BoundaryField.constant(1.5)
    u_a, u_b = rl.solve_robin(cube8, 1.0, ONE, [beta_a, beta_b], tol=1e-11)
    u_diff = u_a - u_b
    top = rl.sup_norm(u_diff[rl.boundary_vertex_indices(cube8)])
    ks = np.linspace(0.0, 1.5 * top, 50)
    phis = np.array([rl.level_set_measure(u_diff, cube8, float(k)) for k in ks])
    monotone = bool(np.all(np.diff(phis) <= 0.0))
    vanishes = bool(np.all(phis[ks >= top] == 0.0))
    report = rl.level_set_pipeline(u_diff, cube8)
    ok = monotone and vanishes and report.hypothesis_ok
    _line(
        8,
        ok,
        f"phi nonincreasing over 50 levels: {monotone}; phi=0 beyond "
        f"sup={top:.4f}: {vanishes}; pipeline hypothesis_ok: {report.hypothesis_ok}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    config = {
        "domain": "cube",
        "n": 2,
        "lambda": 1.0,
        "f": {"kind": "constant", "value": 1.0},
        "beta_sequence": {"kind": "one_over_k", "base": 1.0, "count": 3},
        "experiment": "stability",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["stability", "--config", str(path), "--output", str(out_a)]) == 0
    assert cli_main(["stability", "--config", str(path), "--output", str(out_b)]) == 0
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("stability.csv", "stability.svg")
    )
    _line(9, identical, "two identical runs produced byte-identical CSV and SVG")


def _manufactured_source(dim):
    """f = -Δu + u for u = prod_i phi(x_i), phi(t) = 1/2 + t - t^2.

    phi' + 2 phi = 0 outward at t = 0 and t = 1, so u meets the Robin
    condition with beta = 2; -phi'' = 2 gives the Laplacian term.
    """
    phis = [f"(0.5 + {c} - {c}*{c})" for c in "xyz"[:dim]]
    laplacian = " + ".join(
        "*".join(["2"] + [p for j, p in enumerate(phis) if j != i]) for i in range(dim)
    )
    return f"{laplacian} + {'*'.join(phis)}"


@pytest.mark.parametrize(
    "domain,dim,ns", [("square", 2, (8, 16, 32)), ("cube", 3, (4, 8, 16))]
)
def test_criterion_10_manufactured_solution_beyond_1d(tmp_path, domain, dim, ns):
    errors = []
    for n in ns:
        config = {
            "domain": domain,
            "n": n,
            "lambda": 1.0,
            "f": {"kind": "expr", "expr": _manufactured_source(dim)},
            "beta_sequence": [{"kind": "constant", "value": 2.0}],
            "experiment": "solve",
        }
        path = tmp_path / f"{n}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / str(n)
        assert cli_main(["solve", "--config", str(path), "--output", str(out)]) == 0
        table = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
        points, values = table[:, 1 : 1 + dim], table[:, -1]
        exact = np.prod(0.5 + points - points**2, axis=1)
        errors.append(float(np.max(np.abs(values - exact))))
    factors = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    _line(
        10,
        min(factors) >= 2.4,
        f"{domain} n={ns}: nodal sup errors "
        + ", ".join(f"{e:.3e}" for e in errors)
        + ", reduction per halving "
        + ", ".join(f"{q:.2f}" for q in factors)
        + " (>=2.4)",
    )
