"""Constrained gradient methods for functionally constrained problems.

Velocity-projection solvers for strongly convex minimization and strongly
monotone variational inequalities, with certificate checks of the proven
convergence and feasibility bounds, projection baselines, a high-accuracy
interior-point reference, and a benchmark harness.

A submodule is imported on the first lookup of one of its names (PEP 562), so
building an instance loads cgm.problems and nothing else of the package.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports
_EXPORTS = {
    "baselines": ("gda_eg_run",),
    "cgm_min": ("MinSolverConfig", "MinTrace", "build_polytope", "cgm_min_run"),
    "cgm_vi": ("VISolverConfig", "VITrace", "cgm_vi_run", "ergodic_average"),
    "harness": ("ExperimentConfig", "parse_config", "run_experiment"),
    "metrics": ("BoundsReport", "certify_min", "certify_vi"),
    "plots": ("emit_plots", "render_line_chart"),
    "problems": (
        "ConstraintSet", "MinProblem", "QuadraticRow", "VIProblem", "hbg_instantiate",
        "rap_generate", "rap_unconstrained_min", "violated_set",
    ),
    "qp": ("Infeasible", "ProjectionResult", "VelocityPolytope", "project_velocity"),
    "reference": ("solve_rap_reference",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
