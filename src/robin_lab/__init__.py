"""robin_lab: a P1 finite element laboratory for Robin boundary value problems."""

__version__ = "0.1.0"

from .analysis import (
    level_set_measure,
    lp_norm,
    sup_norm,
    trace_exponent,
)
from .assembly import (
    assemble_boundary_mass,
    assemble_load,
    assemble_mass,
    assemble_operator,
    assemble_stiffness,
    assemble_system,
)
from .experiments import (
    StabilityRecord,
    convergence_study,
    estimate_constant,
    level_set_pipeline,
    solve_robin,
    stability_sweep,
    theorem0_terms,
)
from .fields import (
    BoundaryField,
    SourceField,
    boundary_sup,
    boundary_sup_diff,
    eval_boundary,
)
from .linalg import SolveReport, cg_solve
from .mesh import Mesh, boundary_vertex_indices, build_mesh
from .stampacchia import (
    DecayReport,
    PhiSamples,
    StampacchiaParams,
    fit_minimal_c,
    stampacchia_gap,
    theorem_constants,
    verify_decay,
)
