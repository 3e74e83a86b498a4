"""Direct wall-time benchmark of the solvers, the reference, the certificates and the CLI.

Run from the root of a checkout:

    python3 benchmarks/bench.py --column change --out BENCH.json
    python3 benchmarks/bench.py --column parent --src ../parent/src --out BENCH.json
    python3 benchmarks/bench.py --src-parent ../parent/src --out BENCH.json

Each entry is the best ``time.perf_counter`` wall time of one call at a fixed
seed, with one BLAS thread, over at least REPEAT = 3 calls repeated until
BUDGET_S = 5 s have passed, so millisecond entries take the best of hundreds of
calls and second-long ones the best of a few. ``setup_s`` follows the same
rule over fresh interpreters that import ``cgm`` and build the d=50 RAP
instance, and ``cli_hbg_d50_T1000_s`` over whole ``cgm-bench`` runs (HBG d=50,
T=1000 with baselines, bound checks and plots, into a temporary directory).
``baselines_hbg_d50_T1000_s`` times GDA and then EG on the HBG d=50 instance.
``--src`` selects the source tree whose ``cgm`` package is timed (default:
this checkout's ``src``), so two commits can be measured by the same script
and settings. Results are merged into --out under the name given by --column,
next to the environment they were taken in.

``--src-parent`` measures the parent tree and --src in PAIRS pairs of fresh
subprocesses of this script, alternating which side runs first, so slow
spells of a shared host fall on both sides. The columns ``parent`` and
``change`` then hold each entry's best over the pairs, and ``paired`` holds,
per entry, the median change/parent ratio, the pairs the change won (ties
count for neither) and every pair's times.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one BLAS thread, set before numpy loads OpenBLAS (as perfbench/run.py does)
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEED = 42
REPEAT = 3
BUDGET_S = 5.0
PAIRS = 10
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cgm
cgm.rap_generate(50, seed=int(sys.argv[2]))
print(time.perf_counter() - start)
"""


def best_over_budget(sample):
    """Min of sample() over at least REPEAT calls that together span BUDGET_S seconds."""
    best, calls, start = float("inf"), 0, time.perf_counter()
    while calls < REPEAT or time.perf_counter() - start < BUDGET_S:
        best, calls = min(best, sample()), calls + 1
    return best


def best_of(fn, *args, **kwargs):
    """(best wall seconds of fn(*args, **kwargs) over the budget, result of the last call)."""
    last = [None]

    def sample():
        tic = time.perf_counter()
        last[0] = fn(*args, **kwargs)
        return time.perf_counter() - tic

    return best_over_budget(sample), last[0]


def setup_seconds(src):
    """Best over the budget of fresh interpreters importing cgm from src and building RAP d=50."""
    probe = [sys.executable, "-c", SETUP_PROBE, str(src), str(SEED)]
    return best_over_budget(
        lambda: float(subprocess.run(probe, capture_output=True, text=True, check=True).stdout)
    )


def measure(cgm, src):
    results = {"setup_s": setup_seconds(src)}
    rap = cgm.rap_generate(50, seed=SEED)
    min_traces = {}
    for schedule in ("constant", "varying"):
        config = cgm.MinSolverConfig(horizon=2000, schedule=schedule)
        results[f"rap_d50_T2000_{schedule}_s"], min_traces[schedule] = best_of(
            cgm.cgm_min_run, rap, config
        )

    rap200 = cgm.rap_generate(200, seed=SEED)
    config = cgm.MinSolverConfig(horizon=20, schedule="varying")
    seconds, _ = best_of(cgm.cgm_min_run, rap200, config)
    results["rap_d200_T20_varying_ms_per_iter"] = seconds / 20 * 1e3

    hbg = cgm.hbg_instantiate(50, 0.8, seed=SEED)
    results["hbg_d50_T3000_s"], vi_trace = best_of(
        cgm.cgm_vi_run, hbg, cgm.VISolverConfig(horizon=3000)
    )

    results["reference_d50_s"], (x_star, f_star, cert) = best_of(
        cgm.solve_rap_reference, rap.data
    )
    if not cert.ok:
        raise RuntimeError("reference certificate failed")
    results["reference_d200_s"], (_, _, cert200) = best_of(
        cgm.solve_rap_reference, rap200.data
    )
    if not cert200.ok:
        raise RuntimeError("reference certificate failed at d=200")
    floor = cgm.rap_unconstrained_min(rap.data)[1]
    results["certify_min_T2000_s"], _ = best_of(
        cgm.certify_min, min_traces["constant"], rap, (x_star, f_star), floor
    )
    results["certify_vi_T3000_s"], _ = best_of(cgm.certify_vi, vi_trace, hbg)
    results["baselines_hbg_d50_T1000_s"], _ = best_of(baselines_hbg, cgm, hbg)

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        argv = ["--problem", "hbg", "--d", "50", "--iters", "1000", "--seed", str(SEED),
                "--baselines", "--check-bounds", "--plots", "--out", tmp]
        results["cli_hbg_d50_T1000_s"] = best_over_budget(lambda: cli_seconds(cgm, argv))
    return results


def baselines_hbg(cgm, problem):
    """GDA and then EG on the HBG instance, T=1000, with the step sizes cgm-bench uses."""
    cgm.gda_run(problem, cgm.harness.GDA_ETA, 1000)
    cgm.eg_run(problem, 1.0 / problem.ell_F, 1000)


def cli_seconds(cgm, argv):
    """Wall seconds of one ``cgm-bench`` run; raises unless it exits 0."""
    tic = time.perf_counter()
    code = cgm.cli.main(argv)
    seconds = time.perf_counter() - tic
    if code != 0:
        raise RuntimeError(f"cgm-bench {' '.join(argv)} exited {code}")
    return seconds


def paired(src, parent_src, out_dir):
    """Columns and paired record of PAIRS alternating subprocess runs of both trees."""
    runs = {"parent": [], "change": []}
    for k in range(PAIRS):
        for side in ("parent", "change")[:: 1 if k % 2 == 0 else -1]:
            path = out_dir / f"{side}-{k}.json"
            tree = parent_src if side == "parent" else src
            command = [sys.executable, __file__, "--column", side, "--src", str(tree)]
            subprocess.run(command + ["--out", str(path)], check=True, capture_output=True)
            runs[side].append(json.loads(path.read_text())["columns"][side])
    record = {}
    for name in runs["change"][0]["results"]:
        parent = [run["results"][name] for run in runs["parent"]]
        change = [run["results"][name] for run in runs["change"]]
        record[name] = {
            "median_ratio": statistics.median(c / p for c, p in zip(change, parent)),
            "wins": sum(c < p for c, p in zip(change, parent)),
            "pairs": PAIRS,
            "parent": parent,
            "change": change,
        }
    columns = {
        side: {"env": runs[side][0]["env"],
               "results": {name: min(run["results"][name] for run in runs[side])
                           for name in record}}
        for side in runs
    }
    return columns, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--column", help="name of this measurement (without --src-parent)")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to merge into")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree holding the cgm package to time")
    parser.add_argument("--src-parent", type=Path,
                        help="parent source tree to measure against --src in alternating pairs")
    args = parser.parse_args(argv)
    if (args.column is None) == (args.src_parent is None):
        parser.error("give exactly one of --column and --src-parent")

    src = args.src.resolve()
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.src_parent is not None:
        with tempfile.TemporaryDirectory() as tmp:
            columns, record = paired(src, args.src_parent.resolve(), Path(tmp))
        data.setdefault("columns", {}).update(columns)
        data["paired"] = record
        args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(json.dumps({name: {k: entry[k] for k in ("median_ratio", "wins", "pairs")}
                          for name, entry in record.items()}, indent=2))
        return 0

    sys.path.insert(0, str(src))
    import cgm
    import cgm.cli

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": SEED,
        "repeat": REPEAT,
        "budget_s": BUDGET_S,
    }
    column = {"env": env, "results": measure(cgm, src)}
    data.setdefault("columns", {})[args.column] = column
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(json.dumps({args.column: column["results"]}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
