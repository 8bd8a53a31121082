"""End-to-end experiments on the Robin solver.

`stability_sweep` solves one problem per boundary coefficient in a family
and tabulates, for every ordered pair (n, m), the sup-norm solution gap
against the product of the boundary sup of u_n and the sup difference of
the coefficients; `estimate_constant` extracts the smallest constant
consistent with all informative pairs.  `convergence_study` compares a
coefficient sequence against its limit problem on the same mesh, which
isolates coefficient dependence from discretization error.
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

from .analysis import DiscreteSolution, exponents, level_set_measure, sup_norm, lp_norm
from .assembly import assemble_load, assemble_operator, assemble_system
from .errors import (
    InvalidArgumentError,
    NonConvergenceError,
    NoInformativePairsError,
)
from .fields import BoundaryField, SourceField, boundary_sup, boundary_sup_diff
from .linalg import cg_solve
from .mesh import Mesh
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
class RobinProblem:
    """One discretized Robin boundary value problem."""

    mesh: Mesh
    lam: float
    beta: BoundaryField
    f: SourceField
    quad_order: int = 2
    lumped: bool = False
    tol: float = 1e-10
    max_iter: int = None

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise InvalidArgumentError(f"lambda must be a finite number > 0, got {self.lam}")


@dataclass
class StabilityRecord:
    """One ordered pair (n, m) of the stability experiment."""

    n: int
    m: int
    diff_sup_closure: float
    un_sup_boundary: float
    beta_diff_sup: float
    ratio: float  # or None when the denominator is degenerate


@dataclass
class ConvergenceRecord:
    n: int
    sup_err_closure: float


def solve_robin(problem: RobinProblem) -> DiscreteSolution:
    """Galerkin solution of (K + lam M + B) U = F to the requested tolerance."""
    p = problem
    (solution,) = _solve_family(
        p.mesh, p.lam, p.f, [p.beta], p.quad_order, p.lumped, p.tol, p.max_iter
    )
    return solution


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


def _solve_family(mesh, lam, f, betas, quad_order, lumped, tol, max_iter):
    """One solution per beta of a family sharing the mesh, lam and f.

    K + lam M and the load are built once; each member adds only its B.
    A member that fails raises its own exception, with a note naming its
    coefficient index.
    """
    operator = assemble_operator(mesh, lam, lumped)
    load = assemble_load(mesh, f, quad_order)
    solutions = []
    for i, beta in enumerate(betas):
        try:
            matrix = assemble_system(operator, mesh, beta, quad_order)
            x, report = cg_solve(matrix, load, tol=tol, max_iter=max_iter)
            if not report.converged:
                raise NonConvergenceError(
                    f"conjugate gradient stopped at relative residual "
                    f"{report.final_relative_residual:.3e} after "
                    f"{report.iterations} iterations (tol {tol:g})"
                )
            solutions.append(DiscreteSolution(mesh, x))
        except Exception as exc:
            exc.add_note(f"solve failed for coefficient index {i}")
            raise
    return solutions


def stability_sweep(
    mesh: Mesh,
    lam: float,
    f: SourceField,
    betas,
    quad_order: int = 2,
    lumped: bool = False,
    tol: float = 1e-10,
    max_iter: int = None,
):
    """One StabilityRecord per ordered pair of coefficients (n != m)."""
    if len(betas) < 2:
        raise InvalidArgumentError("stability sweep needs at least two coefficients")
    solutions = _solve_family(mesh, lam, f, betas, quad_order, lumped, tol, max_iter)
    sups = [boundary_sup(beta, mesh, quad_order) for beta in betas]

    records = []
    for n in range(len(betas)):
        un_bd = sup_norm(solutions[n], "boundary")
        for m in range(len(betas)):
            if m == n:
                continue
            diff = sup_norm(solutions[n] - solutions[m], "closure")
            beta_diff = boundary_sup_diff(betas[n], betas[m], mesh, quad_order)
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
    quad_order: int = 2,
    lumped: bool = False,
    tol: float = 1e-10,
    max_iter: int = None,
):
    """Sup-norm gaps between each sequence solution and the limit solution."""
    solutions = _solve_family(
        mesh, lam, f, list(betas) + [beta_limit], quad_order, lumped, tol, max_iter
    )
    limit = solutions.pop()
    return [
        ConvergenceRecord(n=n, sup_err_closure=sup_norm(u - limit, "closure"))
        for n, u in enumerate(solutions)
    ]


def theorem0_ratio(
    u: DiscreteSolution, f: SourceField, p: float, quad_order: int = 2
) -> float:
    """Sup of the solution over the p-norm of the source (a constant monitor)."""
    f_norm = lp_norm(f, p, region="domain", quad_order=quad_order, mesh=u.mesh)
    if f_norm == 0.0:
        raise InvalidArgumentError("the source has zero p-norm")
    return sup_norm(u, "closure") / f_norm


def level_set_pipeline(
    u_diff: DiscreteSolution, d: int, c2: float = 0.0, variant: str = "classical"
) -> DecayReport:
    """Sample the boundary level-set curve of u_diff and run the decay check.

    The multiplicative constant fed into the check is the larger of the
    supplied composite c2 and the grid-fitted minimal constant, so the
    hypothesis holds on the samples whenever the data admits it.
    """
    ex = exponents(d)
    sup_bd = sup_norm(u_diff, "boundary")
    if sup_bd == 0.0:
        return DecayReport(
            hypothesis_ok=True,
            predicted_gap=0.0,
            vanish_point=0.0,
            conclusion_ok=True,
            samples=PhiSamples([0.0], [0.0]),
        )
    ks = np.linspace(0.0, 1.5 * sup_bd, 64)
    values = np.array([level_set_measure(u_diff, k, "boundary") for k in ks])
    samples = PhiSamples(ks, values)
    fitted = fit_minimal_c(samples, ex.s, ex.s - 1.0)
    params = theorem_constants(
        d, max(c2, fitted), phi0=float(values[0]), variant=variant
    )
    return verify_decay(samples, params)
