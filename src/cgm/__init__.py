"""Constrained gradient methods for functionally constrained problems.

Velocity-projection solvers for strongly convex minimization and strongly
monotone variational inequalities, with certificate checks of the proven
convergence and feasibility bounds, projection baselines, a high-accuracy
interior-point reference, and a benchmark harness.
"""

from .baselines import eg_run, gda_eg_run, gda_run, project_simplex
from .cgm_min import MinSolverConfig, MinTrace, cgm_min_run, cgm_min_step
from .cgm_vi import VISolverConfig, VITrace, cgm_vi_run, ergodic_average
from .harness import ExperimentConfig, parse_config, run_experiment
from .metrics import BoundsReport, certify_min, certify_vi
from .plots import emit_plots, render_line_chart
from .problems import (
    ConstraintSet,
    MinProblem,
    QuadraticRow,
    VIProblem,
    build_polytope,
    hbg_instantiate,
    rap_generate,
    rap_unconstrained_min,
    violated_set,
)
from .qp import (
    Infeasible,
    ProjectionResult,
    VelocityPolytope,
    brute_force_projection,
    kkt_residual_qp,
    project_velocity,
)
from .reference import solve_rap_reference

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "ConstraintSet",
    "ExperimentConfig",
    "Infeasible",
    "MinProblem",
    "MinSolverConfig",
    "MinTrace",
    "ProjectionResult",
    "QuadraticRow",
    "VelocityPolytope",
    "VIProblem",
    "VISolverConfig",
    "VITrace",
    "brute_force_projection",
    "build_polytope",
    "certify_min",
    "certify_vi",
    "cgm_min_run",
    "cgm_min_step",
    "cgm_vi_run",
    "eg_run",
    "emit_plots",
    "ergodic_average",
    "gda_eg_run",
    "gda_run",
    "hbg_instantiate",
    "kkt_residual_qp",
    "parse_config",
    "project_simplex",
    "project_velocity",
    "rap_generate",
    "rap_unconstrained_min",
    "render_line_chart",
    "run_experiment",
    "solve_rap_reference",
    "violated_set",
]
