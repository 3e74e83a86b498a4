"""Outside-in tracing of cgm's public functions.

The tracer replaces a function at the module attribute its callers look it up
under (``cgm.harness.cgm_min_run``, ``cgm.qp.nonneg_dual_solve``, ...) with a
wrapper that records one span per call: name, start and end in
``perf_counter_ns``, and the index of the enclosing span. Spans stay in memory
until the run ends. Nothing inside ``src/`` is changed.

A listed function that no longer exists is recorded in ``absent`` and skipped,
so a later change that deletes, say, ``nonneg_dual_solve`` reads as an absent
span instead of an error.
"""

import importlib
import time

# (module, attribute) pairs wrapped in a traced experiment; the span is named
# after the module's last component and the attribute
FULL = (
    ("cgm.cli", "run_experiment"),
    ("cgm.cli", "emit_plots"),
    ("cgm.harness", "rap_generate"),
    ("cgm.harness", "hbg_instantiate"),
    ("cgm.harness", "solve_rap_reference"),
    ("cgm.harness", "cgm_min_run"),
    ("cgm.harness", "cgm_vi_run"),
    ("cgm.harness", "certify_min"),
    ("cgm.harness", "certify_vi"),
    ("cgm.harness", "gda_run"),
    ("cgm.harness", "eg_run"),
    ("cgm.cgm_min", "cgm_min_step"),
    ("cgm.cgm_min", "violated_set"),
    ("cgm.cgm_min", "build_polytope"),
    ("cgm.cgm_min", "project_velocity"),
    ("cgm.cgm_vi", "violated_set"),
    ("cgm.cgm_vi", "build_polytope"),
    ("cgm.cgm_vi", "project_velocity"),
    ("cgm.qp", "nonneg_dual_solve"),
    ("cgm.qp", "brute_force_projection"),
    ("cgm.qp", "kkt_residual_qp"),
    ("cgm.metrics", "empirical_grad_bound"),
    ("cgm.baselines", "project_simplex"),
)

# the few once-per-experiment calls timed in untraced runs (solve_s, certify_s)
LIGHT = (
    ("cgm.harness", "solve_rap_reference"),
    ("cgm.harness", "cgm_min_run"),
    ("cgm.harness", "cgm_vi_run"),
    ("cgm.harness", "certify_min"),
    ("cgm.harness", "certify_vi"),
)

ROOT = "cli.main"
SOLVER_RUNS = ("harness.cgm_min_run", "harness.cgm_vi_run")

# span name -> (per-layer metric, denominator): "iteration" divides the metric's
# self time by the solver iterations of the experiment, "call" by its calls
LAYERS = {
    ROOT: ("cli.self_ns", "call"),
    "cli.run_experiment": ("harness.self_ns", "call"),
    "cli.emit_plots": ("plots.emit_ns", "call"),
    "harness.rap_generate": ("problems.generate_ns", "call"),
    "harness.hbg_instantiate": ("problems.generate_ns", "call"),
    "harness.solve_rap_reference": ("reference.solve_ns", "call"),
    "harness.cgm_min_run": ("cgm_min.run_self_ns", "iteration"),
    "harness.cgm_vi_run": ("cgm_vi.run_self_ns", "iteration"),
    "harness.certify_min": ("metrics.certify_ns", "call"),
    "harness.certify_vi": ("metrics.certify_ns", "call"),
    "harness.gda_run": ("baselines.gda_ns", "call"),
    "harness.eg_run": ("baselines.eg_ns", "call"),
    "cgm_min.cgm_min_step": ("cgm_min.step_self_ns", "iteration"),
    "cgm_min.violated_set": ("problems.violated_set_ns", "iteration"),
    "cgm_vi.violated_set": ("problems.violated_set_ns", "iteration"),
    "cgm_min.build_polytope": ("problems.build_polytope_ns", "iteration"),
    "cgm_vi.build_polytope": ("problems.build_polytope_ns", "iteration"),
    "cgm_min.project_velocity": ("qp.project_velocity_self_ns", "iteration"),
    "cgm_vi.project_velocity": ("qp.project_velocity_self_ns", "iteration"),
    "qp.nonneg_dual_solve": ("qp.dual_solve_ns", "iteration"),
    "qp.brute_force_projection": ("qp.oracle_ns", "iteration"),
    "qp.kkt_residual_qp": ("qp.kkt_check_ns", "iteration"),
    "metrics.empirical_grad_bound": ("metrics.grad_bound_ns", "call"),
    "baselines.project_simplex": ("baselines.simplex_ns", "call"),
}
NAME, START, END, PARENT, INFO = range(5)


def _rows(polytope):
    """Row count of a velocity polytope, or None when its shape is unknown."""
    rows = getattr(polytope, "rows", None)
    if rows is not None:
        return len(rows)
    matrix = getattr(polytope, "matrix", None)
    if matrix is not None:
        return int(matrix()[0].shape[0])
    return None


def _index_key(violated):
    """Hashable violated-index set from a (index, value) list or an index array."""
    try:
        return tuple(int(i) for i, _ in violated)
    except (TypeError, ValueError):
        return tuple(int(i) for i in violated)


def _projection_info(args, kwargs, result):
    polytope = args[1] if len(args) > 1 else kwargs.get("polytope")
    return (
        _rows(polytope),
        getattr(result, "iterations", None),
        getattr(result, "kkt_residual", None),
    )


# per-span extras read from the arguments and the returned value
_INFO = {
    "cgm_min.project_velocity": _projection_info,
    "cgm_vi.project_velocity": _projection_info,
    "cgm_min.violated_set": lambda args, kwargs, result: _index_key(result),
    "cgm_vi.violated_set": lambda args, kwargs, result: _index_key(result),
    "harness.cgm_min_run": lambda args, kwargs, result: result,
    "harness.cgm_vi_run": lambda args, kwargs, result: result,
}


class Tracer:
    """Span recorder; install() patches the targets, uninstall() restores them."""

    def __init__(self, targets):
        self.targets = targets
        self.spans = []  # [name, start_ns, end_ns, parent_index, info]
        self.absent = []
        self._stack = []
        self._saved = []

    def install(self):
        self.absent = []
        for module_name, attr in self.targets:
            module = importlib.import_module(module_name)
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        extra = _INFO.get(name)

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                span[INFO] = extra(args, kwargs, result)
            return result

        return traced

    def call_root(self, fn, *args):
        """Run fn(*args) as the root span; returns (span index, result)."""
        index = len(self.spans)
        span = [ROOT, 0, 0, -1, None]
        self._stack.append(index)
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        try:
            return index, fn(*args)
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()


def self_times(spans, first, end):
    """Self time in ns of spans[first:end]: duration minus its children's durations."""
    own = [span[END] - span[START] for span in spans[first:end]]
    for span in spans[first:end]:
        parent = span[PARENT]
        if parent >= first:
            own[parent - first] -= span[END] - span[START]
    return own


def write_spans(path, spans):
    """Write spans as CSV: index, name, start_ns, end_ns, parent."""
    with open(path, "w") as handle:
        handle.write("index,name,start_ns,end_ns,parent\n")
        for i, span in enumerate(spans):
            handle.write(f"{i},{span[NAME]},{span[START]},{span[END]},{span[PARENT]}\n")
