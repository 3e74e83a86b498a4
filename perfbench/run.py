"""Benchmark of cgm-toolkit: whole cgm-bench experiments, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rap-d50 --seed 42 --seconds 50 --trace 0

Each workload is one ``cgm-bench`` command line driven in-process through
``cgm.cli.main(argv)``, one experiment at a time by a single caller (a closed
loop), over a fixed pool of instance seeds. ``--seed`` sets the order in which
the pool is visited. Every experiment writes its CSV/SVG output to a fresh
directory under ``perfbench/out`` that is removed afterwards, and every
experiment is checked: it fails when ``cli.main`` raises or returns nonzero,
when a certificate record fails, when a CSV holds a non-finite value, or when
an expected output file is missing.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates traced
and untraced experiments and prints the per-layer metrics from the spans that
``tracer.py`` records around cgm's public functions.

Times are rescaled to a quiet machine: on a host that shares its cores with
other tenants the same work runs up to twice as slow for tens of seconds. A
fixed numpy calibration loop runs between experiments, and each experiment's
wall time is multiplied by CALIBRATION_S over the mean of the calibration
times measured just before and after it. Raw medians are printed on the
``# info`` line.

The last line of standard output is the result object; the exit code is 0
only when every experiment passed.
"""

import argparse
import contextlib
import ctypes
import glob
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread, set before numpy loads OpenBLAS. On a 2-core Xeon at
# 2.1 GHz shared with other tenants, two threads made d=200 experiments slower
# (4.5 s against 3 s) and, with the other core busy, up to 40 times slower.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import tracer as tr  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# a quiet run of calibrate() takes about this long on a 2-core Xeon at 2.1 GHz
CALIBRATION_S = 0.05
CALIBRATION_STEPS = 1000
CALIBRATION_CALLS = 10000
SETUP_PROBES = 5
# stop starting experiments after this long, so a run ends within 180 s
BUDGET_S = 150.0


@dataclass(frozen=True)
class Workload:
    problem: str
    d: int
    flags: tuple
    horizon: int
    pool: int  # instance seeds 0 .. pool-1
    csv_files: int  # CSV files one experiment writes
    beta: float = 0.8

    def argv(self, seed, out_dir):
        args = ["--problem", self.problem, "--d", str(self.d)]
        if self.problem == "hbg":
            args += ["--beta", repr(self.beta)]
        return args + list(self.flags) + [
            "--iters", str(self.horizon), "--seed", str(seed), "--out", str(out_dir),
        ]


# Why each workload (see README.md for the traced layer shares):
# rap-d50 is QP-bound: about 17 rows per QP and the violated set is unchanged
# in 95% of steps, so a dual-solver rewrite or a warm start shows here.
# hbg-d50 has 2 rows per QP but 105 constraint closures per step, plus the
# certificates and the projection baselines, so fixed per-call cost shows here
# and a dual-solver rewrite should leave it flat.
WORKLOADS = {
    "rap-d50": Workload(
        "rap", 50, ("--schedule", "constant", "--check-bounds", "--plots"),
        horizon=500, pool=8, csv_files=1,
    ),
    "hbg-d50": Workload(
        "hbg", 50, ("--baselines", "--check-bounds", "--plots"),
        horizon=1000, pool=4, csv_files=3,
    ),
}

END_TO_END = {
    "experiment_s": "s",
    "solve_s": "s",
    "certify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_error": "1",
}

# per-layer metrics from LAYERS, then counts and ratios read from the spans
PER_LAYER = {metric: "ns" for metric, _ in tr.LAYERS.values()}
PER_LAYER.update({
    "solver.iterations": "count",
    "qp.calls": "count",
    "qp.dual_iterations": "count",
    "qp.kkt_residual_max": "1",
    "qp.oracle_fallback_ratio": "ratio",
    "problems.rows_per_qp_mean": "rows",
    "problems.rows_per_qp_p99": "rows",
    "problems.same_violated_ratio": "ratio",
    "baselines.simplex_calls": "count",
    "harness.csv_bytes": "bytes",
    "plots.svg_bytes": "bytes",
    "trace.experiment_s": "s",
    "trace.untraced_experiment_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_ratio": "ratio",
})

SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cgm
if sys.argv[2] == "rap":
    cgm.rap_generate(int(sys.argv[3]), seed=int(sys.argv[5]))
else:
    cgm.hbg_instantiate(int(sys.argv[3]), float(sys.argv[4]), seed=int(sys.argv[5]))
print(time.perf_counter() - start)
"""


def import_cgm():
    """Import cgm from this checkout's src/, never from anywhere else."""
    if not (SRC / "cgm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cgm package at {SRC / 'cgm'}")
    for name in ("CGM_WORKERS", "CGM_PURE_NUMPY"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    import cgm.cli

    if Path(cgm.cli.__file__).resolve().parent != SRC / "cgm":
        sys.exit(f"perfbench: imported cgm from {cgm.cli.__file__}, not {SRC}")
    return cgm.cli


def calibrate():
    """Seconds for a fixed mix of the two kinds of interpreter-bound work.

    The first loop steps a 50-vector with small matrix products and 16x16
    eigh calls, like the QP dual solve; the second calls a small function that
    allocates a unit row and takes its norm, like the constraint oracles and
    the certificate checks.
    """
    rng = np.random.default_rng(7)
    m = rng.standard_normal((50, 50))
    gram = m @ m.T / 50.0 + np.eye(50)
    small = gram[:16, :16].copy()
    x = np.zeros(50)
    start = time.perf_counter()
    for i in range(CALIBRATION_STEPS):
        x = x - 0.01 * (gram @ x - 1.0)
        worst = max(float(v) for v in x[:8])
        if i % 4 == 0:
            np.linalg.eigh(small + worst * 1e-9)
    for i in range(CALIBRATION_CALLS):
        worst = max(worst, _unit_row_norm(i % 50, x.size))
    return time.perf_counter() - start


def _unit_row_norm(i, n):
    row = np.zeros(n)
    row[i] = -1.0
    return float(np.linalg.norm(row))


class Clock:
    """Calibration samples taken between measurements."""

    def __init__(self):
        self.samples = [calibrate()]

    def factor(self):
        """Scale for a wall time measured since the last sample; takes a new one."""
        before = self.samples[-1]
        self.samples.append(calibrate())
        return CALIBRATION_S / (0.5 * (before + self.samples[-1]))


def setup_times(workload, seed, clock):
    """Rescaled seconds for a fresh interpreter to import cgm and build the instance."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CGM_")}
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), workload.problem,
             str(workload.d), repr(workload.beta), str(seed)],
            capture_output=True, text=True, env=env, cwd=ROOT, check=True, timeout=60,
        )
        times.append(float(out.stdout.split()[-1]) * clock.factor())
    return times


@dataclass
class Outcome:
    instance: int
    traced: bool
    first_span: int
    error: str = ""
    wall_s: float = 0.0
    solve_s: float = 0.0
    certify_s: float = 0.0
    reference_s: float = 0.0
    final_error: float = float("nan")
    csv_bytes: int = 0
    svg_bytes: int = 0
    factor: float = 1.0


def final_error(trace):
    """RAP: |f(x_T) - f*| + max violation at x_T. HBG: ||x_T - x*|| / ||x*||."""
    if getattr(trace, "f_resid", None) is not None:
        return abs(float(trace.f_resid[-1])) + float(trace.max_violation[-1])
    x_star = np.full(trace.xs.shape[1], 2.0 / trace.xs.shape[1])
    return float(np.linalg.norm(trace.xs[-1] - x_star) / np.linalg.norm(x_star))


def check_outputs(workload, out_dir):
    """Defects in one experiment's output directory, plus CSV and SVG byte counts."""
    defects = []
    csvs = sorted(out_dir.glob("*.csv"))
    if len(csvs) != workload.csv_files:
        defects.append(f"{len(csvs)} CSV files, expected {workload.csv_files}")
    certified = 0
    for path in csvs:
        lines = path.read_text().splitlines()
        try:
            values = np.array([[float(v) for v in line.split(",")]
                               for line in lines[1:workload.horizon + 1]])
        except ValueError:
            values = np.zeros(0)
        if values.shape[0] != workload.horizon:
            defects.append(f"{path.name}: fewer than {workload.horizon} numeric rows")
        elif not np.all(np.isfinite(values)):
            defects.append(f"{path.name}: non-finite value")
        section = lines[workload.horizon + 1:]
        if section:
            certified += 1
            for line in section[1:]:
                name, lhs, rhs, _, passed = line.split(",")
                if name.startswith("const_"):
                    continue
                if passed != "1" or not np.isfinite([float(lhs), float(rhs)]).all():
                    defects.append(f"{path.name}: certificate {name} failed")
    if "--check-bounds" in workload.flags and certified != 1:
        defects.append(f"{certified} certificate sections, expected 1")
    svgs = sorted(out_dir.glob("*.svg"))
    if "--plots" in workload.flags:
        if not svgs:
            defects.append("no SVG written")
        for path in svgs:
            if not path.read_text().startswith("<svg"):
                defects.append(f"{path.name}: not an SVG")
    csv_bytes = sum(p.stat().st_size for p in csvs)
    svg_bytes = sum(p.stat().st_size for p in svgs)
    return defects, csv_bytes, svg_bytes


def experiment(cli, workload, instance, tracer):
    """One cgm-bench experiment on one instance, traced by `tracer`."""
    outcome = Outcome(instance=instance, traced=tracer.targets is tr.FULL,
                      first_span=len(tracer.spans))
    out_dir = Path(tempfile.mkdtemp(prefix="exp-", dir=OUT))
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            _, code = tracer.call_root(cli.main, workload.argv(instance, out_dir))
        if code != 0:
            outcome.error = f"exit code {code}: {err.getvalue().strip()}"
    except (Exception, SystemExit) as exc:  # a failed experiment is a result
        outcome.error = f"{type(exc).__name__}: {exc}"
    finally:
        tracer.uninstall()
    spans = tracer.spans[outcome.first_span:]
    outcome.wall_s = (spans[0][tr.END] - spans[0][tr.START]) * 1e-9
    for span in spans:
        seconds = (span[tr.END] - span[tr.START]) * 1e-9
        if span[tr.NAME] in tr.SOLVER_RUNS:
            outcome.solve_s += seconds
            if span[tr.INFO] is not None:  # None when the solver raised
                outcome.final_error = final_error(span[tr.INFO])
                span[tr.INFO] = None  # drop the trace arrays
        elif span[tr.NAME] in ("harness.certify_min", "harness.certify_vi"):
            outcome.certify_s += seconds
        elif span[tr.NAME] == "harness.solve_rap_reference":
            outcome.reference_s += seconds
    if not outcome.error:
        defects, outcome.csv_bytes, outcome.svg_bytes = check_outputs(workload, out_dir)
        if not np.isfinite(outcome.final_error):
            defects.append("final error is not finite")
        outcome.error = "; ".join(defects)
    shutil.rmtree(out_dir)
    return outcome


def visit_order(workload, seed):
    return [int(i) for i in np.random.default_rng(seed).permutation(workload.pool)]


def measure(cli, workload, seed, seconds, trace, clock):
    """Run experiments until `seconds` have passed and every instance ran once.

    With trace, each traced experiment is followed by an untraced one on the
    same instance. Returns the warm-up outcome, the timed outcomes and the
    tracer that holds the traced spans.
    """
    order = visit_order(workload, seed)
    light = tr.Tracer(tr.LIGHT)
    full = tr.Tracer(tr.FULL)
    warmup = experiment(cli, workload, order[0], light)
    clock.factor()
    outcomes = []
    start = time.perf_counter()
    i = 0
    while i < len(order) or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > BUDGET_S:
            break
        instance = order[i % len(order)]
        runs = [full, light] if trace else [light]
        for tracer in runs:
            outcome = experiment(cli, workload, instance, tracer)
            outcome.factor = clock.factor()
            outcomes.append(outcome)
        i += 1
    return warmup, outcomes, full


def pool_mean(outcomes, field):
    """Mean over instances of the median over each instance's repetitions."""
    by_instance = {}
    for o in outcomes:
        by_instance.setdefault(o.instance, []).append(getattr(o, field) * o.factor)
    return statistics.fmean(statistics.median(v) for v in by_instance.values())


def layer_metrics(workload, outcomes, tracer):
    """Per-layer metrics from the spans of the traced experiments."""
    traced = [o for o in outcomes if o.traced]
    untraced = [o for o in outcomes if not o.traced]
    totals = {metric: 0.0 for metric in PER_LAYER}
    calls = {metric: 0 for metric in PER_LAYER}
    iterations = 0
    spans = tracer.spans
    for k, o in enumerate(traced):
        end = traced[k + 1].first_span if k + 1 < len(traced) else len(spans)
        own = tr.self_times(spans, o.first_span, end)
        for span, ns in zip(spans[o.first_span:end], own):
            metric, _ = tr.LAYERS[span[tr.NAME]]
            totals[metric] += ns * o.factor
            calls[metric] += 1
            if span[tr.NAME] in tr.SOLVER_RUNS:
                iterations += workload.horizon
    denominators = {metric: per for metric, per in tr.LAYERS.values()}
    metrics = {}
    for metric, per in denominators.items():
        base = iterations if per == "iteration" else calls[metric]
        metrics[metric] = totals[metric] / base if base else 0.0

    # counts over the first visit of each instance, so they repeat exactly
    seen = set()
    first_pass = []
    for k, o in enumerate(traced):
        if o.instance not in seen:
            seen.add(o.instance)
            end = traced[k + 1].first_span if k + 1 < len(traced) else len(spans)
            first_pass.append((o, spans[o.first_span:end]))
    rows, residuals = [], [0.0]
    qp_calls = iters = oracle = simplex = runs = same = pairs = 0
    for o, group in first_pass:
        previous = None
        for span in group:
            name, info = span[tr.NAME], span[tr.INFO]
            if name in tr.SOLVER_RUNS:
                runs += 1
                previous = None
            elif name.endswith(".project_velocity"):
                n_rows, n_iterations, residual = info  # None when not readable
                qp_calls += 1
                iters += n_iterations or 0
                if n_rows is not None:
                    rows.append(n_rows)
                if residual is not None:
                    residuals.append(residual)
            elif name.endswith(".violated_set"):
                if previous is not None:
                    pairs += 1
                    same += info == previous
                previous = info
            elif name == "qp.brute_force_projection":
                oracle += 1
            elif name == "baselines.project_simplex":
                simplex += 1
    metrics.update({
        "solver.iterations": runs * workload.horizon,
        "qp.calls": qp_calls,
        "qp.dual_iterations": iters,
        "qp.kkt_residual_max": max(residuals),
        "qp.oracle_fallback_ratio": oracle / qp_calls if qp_calls else 0.0,
        "problems.rows_per_qp_mean": float(np.mean(rows)) if rows else 0.0,
        "problems.rows_per_qp_p99": float(np.percentile(rows, 99)) if rows else 0.0,
        "problems.same_violated_ratio": same / pairs if pairs else 0.0,
        "baselines.simplex_calls": simplex,
        "harness.csv_bytes": sum(o.csv_bytes for o, _ in first_pass),
        "plots.svg_bytes": sum(o.svg_bytes for o, _ in first_pass),
    })
    traced_s = pool_mean(traced, "wall_s")
    untraced_s = pool_mean(untraced, "wall_s")
    wall_ns = sum(o.wall_s * o.factor for o in traced) * 1e9
    metrics.update({
        "trace.experiment_s": traced_s,
        "trace.untraced_experiment_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.self_sum_ratio": sum(totals.values()) / wall_ns,
    })
    return metrics


def repeats_exactly(outcomes):
    """True when every instance gave one bit-identical final error."""
    values = {}
    for o in outcomes:
        values.setdefault(o.instance, set()).add(o.final_error)
    return all(len(v) == 1 for v in values.values())


def blas_threads():
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def environment(seed):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": commit(),
        "seed": seed,
    }


def run(workload_name, seed, seconds, trace, workload=None):
    """Measure one workload; returns the result, run facts and per-experiment rows."""
    cli = import_cgm()
    workload = workload or WORKLOADS[workload_name]
    OUT.mkdir(exist_ok=True)
    clock = Clock()
    setup = setup_times(workload, visit_order(workload, seed)[0], clock) if not trace else []
    warmup, outcomes, full = measure(cli, workload, seed, seconds, trace, clock)
    everything = [warmup] + outcomes
    failures = [f"instance {o.instance}: {o.error}" for o in everything if o.error]
    if not repeats_exactly(everything):
        failures.append("final error differs between repetitions of an instance")
    timed = [o for o in outcomes if not o.traced]
    info = {
        "workload": workload_name,
        "horizon": workload.horizon,
        "pool": visit_order(workload, seed),
        "experiments": len(everything),
        "timed_samples": len(timed),
        "setup_samples": len(setup),
        "failed_ratio": sum(bool(o.error) for o in everything) / len(everything),
        "failures": failures,
        "calibration_s_median": statistics.median(clock.samples),
        "raw_experiment_s_median": statistics.median(o.wall_s for o in timed),
        "reference_s": pool_mean(timed, "reference_s"),
        "absent_spans": full.absent,
        "env": environment(seed),
    }
    if trace:
        values = layer_metrics(workload, outcomes, full)
        units = PER_LAYER
        tr.write_spans(OUT / f"spans-{workload_name}-seed{seed}.csv", full.spans)
    else:
        values = {
            "experiment_s": pool_mean(timed, "wall_s"),
            "solve_s": pool_mean(timed, "solve_s"),
            "certify_s": pool_mean(timed, "certify_s"),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "final_error": statistics.fmean(
                {o.instance: o.final_error for o in timed}.values()),
        }
        units = END_TO_END
    result = {
        "correct": not failures,
        "attempted": len(everything),
        "failed": sum(bool(o.error) for o in everything),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {
        "calibration_s": clock.samples,
        "setup_s": setup,
        "experiments": [
            {"instance": o.instance, "traced": o.traced, "wall_s": o.wall_s,
             "factor": o.factor, "solve_s": o.solve_s, "certify_s": o.certify_s,
             "final_error": o.final_error, "error": o.error}
            for o in outcomes
        ],
    }
    return result, info, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, info, detail = run(args.workload, args.seed, args.seconds, args.trace)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "info": info, **detail}, indent=1) + "\n")
    print("# info " + json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
