"""End-to-end experiments on the Robin solver.

`solve_robin` solves a family of problems that share the mesh, lambda and
f and differ only in the boundary coefficient, into one (len(betas),
num_vertices) array of nodal rows; every experiment reduces its rows.
`stability_sweep` tabulates, for every ordered pair (n, m), the sup-norm
solution gap against the product of the boundary sup of u_n and the sup
difference of the coefficients; `estimate_constant` extracts the smallest
constant consistent with all informative pairs.  `convergence_study`
compares a coefficient sequence against its limit problem on the same
mesh, which isolates coefficient dependence from discretization error.
`level_set_pipeline` turns a solution difference into a sampled boundary
level-set curve and runs the decay check on it; the resulting sup-norm
bound is read as the predicted gap itself (thresholds arbitrarily close to
it from above carry empty level sets).

The 1D problem with constant data has the closed form used as an
independent oracle:

    u(x) = f/lam + A cosh(sqrt(lam) (x - 1/2)),
    A = -(beta f / lam) / (sqrt(lam) sinh(sqrt(lam)/2) + beta cosh(sqrt(lam)/2))
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import check_nodal, level_set_measure, lp_norm, sup_norm, trace_exponent
from .assembly import assemble_load, assemble_operator, assemble_system
from .errors import (
    InvalidArgumentError,
    NonConvergenceError,
    NoInformativePairsError,
)
from .fields import BoundaryField, SourceField, boundary_sup, boundary_sup_diff
from .linalg import cg_solve
from .mesh import Mesh, boundary_vertex_indices
from .stampacchia import (
    DecayReport,
    PhiSamples,
    fit_minimal_c,
    theorem_constants,
    verify_decay,
)

# pairs with a coefficient gap at or below this relative floor carry no
# information about the stability constant
_RATIO_FLOOR = 1e-14


@dataclass
class StabilityRecord:
    """One ordered pair (n, m) of the stability experiment."""

    n: int
    m: int
    diff_sup_closure: float
    un_sup_boundary: float
    beta_diff_sup: float
    ratio: float  # or None when the denominator is degenerate


def analytic_interval_solution(lam: float, beta: float, f_const: float):
    """Closed-form 1D solution for constant data, same beta at both ends."""
    if lam <= 0.0:
        raise InvalidArgumentError(f"lambda must be > 0, got {lam}")
    if beta < 0.0:
        raise InvalidArgumentError(f"beta must be >= 0, got {beta}")
    root = math.sqrt(lam)
    amp = -(beta * f_const / lam) / (
        root * math.sinh(root / 2.0) + beta * math.cosh(root / 2.0)
    )

    def evaluate(x: float) -> float:
        return f_const / lam + amp * math.cosh(root * (x - 0.5))

    return evaluate


def solve_robin(
    mesh: Mesh,
    lam: float,
    f: SourceField,
    betas,
    lumped: bool = False,
    tol: float = 1e-10,
) -> np.ndarray:
    """Galerkin solutions of (K + lam M + B(beta)) U = F, row i for betas[i].

    K + lam M and the load are built once; each member adds only its B.
    A member that fails raises its own exception, with a note naming its
    coefficient index.
    """
    operator = assemble_operator(mesh, lam, lumped)
    load = assemble_load(mesh, f)
    solutions = np.empty((len(betas), mesh.num_vertices))
    for i, beta in enumerate(betas):
        try:
            matrix = assemble_system(operator, mesh, beta)
            x, report = cg_solve(matrix, load, tol=tol)
            if not report.converged:
                raise NonConvergenceError(
                    f"conjugate gradient stopped at relative residual "
                    f"{report.final_relative_residual:.3e} after "
                    f"{report.iterations} iterations (tol {tol:g})"
                )
            solutions[i] = x
        except Exception as exc:
            exc.add_note(f"solve failed for coefficient index {i}")
            raise
    return solutions


def stability_sweep(
    mesh: Mesh,
    lam: float,
    f: SourceField,
    betas,
    lumped: bool = False,
    tol: float = 1e-10,
):
    """One StabilityRecord per ordered pair of coefficients (n != m)."""
    if len(betas) < 2:
        raise InvalidArgumentError("stability sweep needs at least two coefficients")
    solutions = solve_robin(mesh, lam, f, betas, lumped, tol)
    sups = [boundary_sup(beta, mesh) for beta in betas]
    boundary = boundary_vertex_indices(mesh)

    records = []
    for n in range(len(betas)):
        un_bd = sup_norm(solutions[n, boundary])
        for m in range(len(betas)):
            if m == n:
                continue
            diff = sup_norm(solutions[n] - solutions[m])
            beta_diff = boundary_sup_diff(betas[n], betas[m], mesh)
            informative = beta_diff > _RATIO_FLOOR * (1.0 + sups[n]) and un_bd > 0.0
            ratio = diff / (un_bd * beta_diff) if informative else None
            records.append(
                StabilityRecord(
                    n=n,
                    m=m,
                    diff_sup_closure=diff,
                    un_sup_boundary=un_bd,
                    beta_diff_sup=beta_diff,
                    ratio=ratio,
                )
            )
    return records


def estimate_constant(records) -> float:
    """Max of the defined ratios: the smallest constant fitting the data."""
    ratios = [r.ratio for r in records if r.ratio is not None]
    if not ratios:
        raise NoInformativePairsError(
            "every pair had a degenerate denominator; no constant can be estimated"
        )
    return max(ratios)


def convergence_study(
    mesh: Mesh,
    lam: float,
    f: SourceField,
    betas,
    beta_limit: BoundaryField,
    lumped: bool = False,
    tol: float = 1e-10,
):
    """Sup-norm gaps to the limit solution, in sequence order."""
    *solutions, limit = solve_robin(mesh, lam, f, [*betas, beta_limit], lumped, tol)
    return [sup_norm(u - limit) for u in solutions]


def theorem0_terms(u, mesh: Mesh, f: SourceField, p: float) -> tuple:
    """(sup of the solution, p-norm of the source): the monitor's two sides."""
    f_norm = lp_norm(f, p, mesh)
    if f_norm == 0.0:
        raise InvalidArgumentError("the source has zero p-norm")
    return sup_norm(u), f_norm


def level_set_pipeline(u_diff, mesh: Mesh, c2: float = 0.0) -> DecayReport:
    """Sample the boundary level-set curve of u_diff and run the decay check.

    The multiplicative constant fed into the check is the larger of the
    supplied composite c2 and the grid-fitted minimal constant, so the
    hypothesis holds on the samples whenever the data admits it.
    """
    s = trace_exponent(mesh.dim)
    u_diff = check_nodal(u_diff, mesh)
    sup_bd = sup_norm(u_diff[boundary_vertex_indices(mesh)])
    if sup_bd == 0.0:
        return DecayReport(
            hypothesis_ok=True,
            predicted_gap=0.0,
            vanish_point=0.0,
            conclusion_ok=True,
            samples=PhiSamples([0.0], [0.0]),
        )
    ks = np.linspace(0.0, 1.5 * sup_bd, 64)
    values = np.array([level_set_measure(u_diff, mesh, k) for k in ks])
    samples = PhiSamples(ks, values)
    fitted = fit_minimal_c(samples, s, s - 1.0)
    params = theorem_constants(mesh.dim, max(c2, fitted), phi0=float(values[0]))
    return verify_decay(samples, params)
