"""End-to-end experiments on the Robin solver.

`solve_robin` solves a family of problems that share the mesh, lambda and
f and differ only in the boundary coefficient, into one (len(betas),
num_vertices) array of nodal rows, and notes a failing member's index; a
run solves its family once, and the experiments take the solved rows.
`stability_sweep` tabulates, for every ordered pair (n, m), the sup-norm
solution gap against the product of the boundary sup of u_n and the sup
difference of the coefficients (one `fields.sup_gaps` table each, the
latter with beta = 0 appended for each sup beta_n, so each beta is sampled
once), all pairs at once as arrays, into one `StabilityRecord` tuple per pair;
`estimate_constant` extracts the smallest constant consistent with all
informative pairs.  `convergence_study` compares the rows of a coefficient
sequence against the last row, its limit problem's, on the same mesh, which
isolates coefficient dependence from discretization error.
`level_set_pipeline` turns a solution difference into a sampled boundary
level-set curve and runs the decay check on it; the resulting sup-norm
bound is read as the predicted gap itself (thresholds arbitrarily close to
it from above carry empty level sets).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .analysis import check_nodal, level_set_measure, lp_norm, sup_norm, trace_exponent
from .assembly import assemble_load, assemble_operator, assemble_system
from .errors import (
    InvalidArgumentError,
    NonConvergenceError,
    NoInformativePairsError,
    noted_member,
)
from .fields import BoundaryField, SourceField, boundary_sup_diff, sup_gaps
from .linalg import cg_solve
from .mesh import Mesh, boundary_vertex_indices, prolongations
from .stampacchia import (
    DecayReport,
    PhiSamples,
    fit_minimal_c,
    theorem_constants,
    verify_decay,
)

# a pair (n, m) is informative, and has a ratio, when its coefficient gap exceeds this floor
# times 1 + sup beta_n and the boundary sup of u_n and gap * that sup are normal floats
_RATIO_FLOOR = 1e-14


class StabilityRecord(NamedTuple):
    """One ordered pair (n, m) of the stability experiment."""

    n: int
    m: int
    diff_sup_closure: float
    un_sup_boundary: float
    beta_diff_sup: float
    ratio: float  # None when the pair is uninformative


def solve_robin(
    mesh: Mesh,
    lam: float,
    f: SourceField,
    betas,
    lumped: bool = False,
    tol: float = 1e-10,
) -> np.ndarray:
    """Galerkin solutions of (K + lam M + B(beta)) U = F, row i for betas[i].

    The family is one batched solve: K + lam M, the load, the multigrid
    transfers and their Galerkin images are built once.  A member that
    fails raises its own exception, with a note naming its coefficient
    index: 0 for a breakdown of the whole family, none for an input that no
    member owns (an empty family, tol).
    """
    operator = assemble_operator(mesh, lam, lumped)
    load = assemble_load(mesh, f)
    system = assemble_system(operator, mesh, betas)
    solutions, report = cg_solve(operator, load, tol, prolongations(mesh), system.boundary)
    for i, (rel, count) in enumerate(zip(report.member_residuals, report.member_iterations)):
        if not rel <= tol:
            message = f"conjugate gradient stopped at relative residual {rel:.3e}"
            message += f" after {count} iterations (tol {tol:g})"
            raise noted_member(NonConvergenceError(message), i)
    return solutions


def stability_sweep(mesh: Mesh, betas, solutions):
    """One StabilityRecord per ordered pair (n != m) of betas, in ``itertools.permutations``
    order, from the rows `solve_robin` returns for them; only an informative pair has a ratio."""
    solutions, shape = np.asarray(solutions, dtype=float), (len(betas), mesh.num_vertices)
    if shape[0] < 2 or solutions.shape != shape:
        wanted = f"two or more coefficients and solutions of shape {shape}"
        raise InvalidArgumentError(f"stability sweep needs {wanted}, got {solutions.shape}")
    gaps = boundary_sup_diff([*betas, BoundaryField.constant(0.0)], mesh)
    boundary = boundary_vertex_indices(mesh)
    n, m = np.nonzero(~np.eye(len(betas), dtype=bool))  # row-major: permutations order
    un_bd = np.array([sup_norm(u[boundary]) for u in solutions])[n]
    diff, beta_diff = sup_gaps(solutions)[n, m], gaps[n, m]
    tiny = np.finfo(float).tiny
    # gaps[-1, n] = sup |beta_n - 0| is sup beta_n exactly: sampling rejects a negative beta
    informative = (beta_diff > _RATIO_FLOOR * (1.0 + gaps[-1, n])) & (un_bd >= tiny)
    informative &= un_bd * beta_diff >= tiny
    with np.errstate(all="ignore"):  # an uninformative pair's quotient is dropped
        ratio = np.where(informative, diff / (un_bd * beta_diff), None)
    return list(map(StabilityRecord, *(c.tolist() for c in (n, m, diff, un_bd, beta_diff, ratio))))


def estimate_constant(records) -> float:
    """Max of the defined ratios: the smallest constant fitting the data."""
    ratios = [r.ratio for r in records if r.ratio is not None]
    if not ratios:
        raise NoInformativePairsError(
            "every pair had a degenerate denominator; no constant can be estimated"
        )
    return max(ratios)


def convergence_study(solutions):
    """Sup-norm gaps of each row to the last, the limit problem's, in sequence order."""
    solutions = np.asarray(solutions, dtype=float)
    if solutions.ndim != 2 or len(solutions) < 2:
        raise InvalidArgumentError(f"convergence study needs 2 or more rows, got {solutions.shape}")
    *rows, limit = solutions
    return [sup_norm(u - limit) for u in rows]


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
    hypothesis holds on the samples whenever the data admits it.  An
    invalid c2 is rejected even when u_diff vanishes on the boundary.
    """
    if not c2 >= 0.0:  # NaN included
        raise InvalidArgumentError(f"composite constant must be >= 0, got {c2}")
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
    values = level_set_measure(u_diff, mesh, ks)
    samples = PhiSamples(ks, values)
    fitted = fit_minimal_c(samples, s, s - 1.0)
    params = theorem_constants(mesh.dim, max(c2, fitted), phi0=float(values[0]))
    return verify_decay(samples, params)
