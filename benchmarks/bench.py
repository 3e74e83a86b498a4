"""Direct wall-time benchmark of the solvers, the reference and the certificates.

Run from the root of a checkout:

    python3 benchmarks/bench.py --column change --out BENCH.json
    python3 benchmarks/bench.py --column parent --src ../parent/src --out BENCH.json

Each entry is the best of REPEAT = 3 ``time.perf_counter`` wall times of one call
at a fixed seed, with one BLAS thread. ``--src`` selects the source tree whose
``cgm`` package is timed (default: this checkout's ``src``), so two commits can
be measured by the same script and settings. Results are merged into --out
under the name given by --column, next to the environment they were taken in.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

# one BLAS thread, set before numpy loads OpenBLAS (as perfbench/run.py does)
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEED = 42
REPEAT = 3


def best_of(fn, *args, **kwargs):
    """(min wall seconds over REPEAT calls, result of the last call)."""
    best = float("inf")
    for _ in range(REPEAT):
        tic = time.perf_counter()
        out = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - tic)
    return best, out


def measure(cgm):
    rap = cgm.rap_generate(50, seed=SEED)
    results, min_traces = {}, {}
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
    floor = cgm.rap_unconstrained_min(rap.data)[1]
    results["certify_min_T2000_s"], _ = best_of(
        cgm.certify_min, min_traces["constant"], rap, (x_star, f_star), floor
    )
    results["certify_vi_T3000_s"], _ = best_of(cgm.certify_vi, vi_trace, hbg)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--column", required=True, help="name of this measurement")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to merge into")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree holding the cgm package to time")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    import cgm

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": SEED,
        "repeat": REPEAT,
    }
    column = {"env": env, "results": measure(cgm)}
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("columns", {})[args.column] = column
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(json.dumps({args.column: column["results"]}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
