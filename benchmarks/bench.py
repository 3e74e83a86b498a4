"""Direct wall-time benchmark of the solvers, the reference, the certificates and the CLI.

Run from the root of a checkout:

    python3 benchmarks/bench.py --src-parent ../parent/src --out BENCH.json

It loads the parent tree's ``cgm`` (--src-parent) and --src's (default: this
checkout's ``src``) into this one process, under the package names
``cgm_parent`` and ``cgm_change`` (every import inside ``cgm`` is relative),
and interleaves them call by call, with one BLAS thread, so a slow spell of a
shared host or a heap state falls on both sides. Each entry times one call at
a fixed seed. ``setup_s`` starts a fresh interpreter that imports ``cgm`` and
builds the d=50 RAP instance, and ``cli_hbg_d50_T1000_s`` and
``cli_rap_d50_T500_s`` run whole ``cgm-bench`` experiments into a temporary
directory, with the command lines of perfbench's hbg-d50 and rap-d50
workloads at seed 42. ``cli_hbg_d50_T100_1000_3000_s`` times the hbg-d50
command line with the horizons 100, 1000 and 3000, where the cells of one
experiment share runs. ``baselines_hbg_d50_T1000_s`` times GDA and EG on the
HBG d=50 instance the way ``run_experiment`` runs them: in lockstep through
``gda_eg_run``.

Each entry runs PAIRS pairs; a pair runs rounds of one call of each side, back
to back, swapping which goes first every round, for at least PAIR_ROUNDS = 9
rounds and PAIR_BUDGET_S seconds, so a pair's budget scales with the entry's
call time (a pair of a 0.3 s call used to hold 3 rounds, and one slow spell
set its ratio). A pair's ratio is the median over its rounds of the
change/parent time ratio, so host drift slower than one round cancels; it
also keeps each side's best time. The columns ``parent`` and ``change`` of
--out then hold each entry's best over the pairs, next to the environment
they were taken in, and ``paired`` holds, per entry, the median of the pair
ratios, the pairs the change won (ratio below 1), every pair's ratio and
every pair's best times.

A paired entry also gets the two verdicts a gain claim cites, which are
printed with it: whether the quartiles of its pair ratios exclude 1, and
whether they lie wholly outside the entry's own A/A band, the quartiles of
the same entry's pair ratios pooled over the AA_RUNS, interleaved runs of one
tree against a copy of itself in both load orders (20 ratios an entry).
Quartiles, not the lowest to highest ratio, so that one slow pair cannot set
a band. Entries are judged by their own band because
their noise differs: a quiet solver entry and the interpreter start of
``setup_s`` do not share one range. An entry the A/A runs lack reads "no
band". The 9-of-10 wins count alone flags sub-percent load-order effects
on code a change does not touch.
"""

import argparse
import contextlib
import importlib
import importlib.util
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
PAIRS = 10
PAIR_BUDGET_S = 1.0
PAIR_ROUNDS = 9
AA_RUNS = (ROOT / "BENCH_25_AA.json", ROOT / "BENCH_25_AA_SWAPPED.json")
# entries reported in other units than seconds per call
SCALE = {"rap_d200_T20_varying_ms_per_iter": 1e3 / 20}
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cgm
cgm.rap_generate(50, seed=int(sys.argv[2]))
print(time.perf_counter() - start)
"""


def load(src, name):
    """The cgm package of the source tree src, imported as the package `name`."""
    init = Path(src) / "cgm" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def timer(fn, *args):
    """A sample: the wall seconds of one fn(*args) call."""

    def sample():
        tic = time.perf_counter()
        fn(*args)
        return time.perf_counter() - tic

    return sample


def setup_seconds(src):
    """Seconds of one fresh interpreter importing cgm from src and building RAP d=50."""
    probe = [sys.executable, "-c", SETUP_PROBE, str(src), str(SEED)]
    return float(subprocess.run(probe, capture_output=True, text=True, check=True).stdout)


def samples(cgm, src, out_dir):
    """{entry: sample} for the package cgm loaded from src, on inputs it builds once.

    A sample is a zero-argument function returning the wall seconds of one
    call; the CLI entry writes into out_dir.
    """
    rap = cgm.rap_generate(50, seed=SEED)
    rap200 = cgm.rap_generate(200, seed=SEED)
    hbg = cgm.hbg_instantiate(50, 0.8, seed=SEED)
    x_star, f_star, cert = cgm.solve_rap_reference(rap.data)
    if not (cert.ok and cgm.solve_rap_reference(rap200.data)[2].ok):
        raise RuntimeError("reference certificate failed")
    min_trace = cgm.cgm_min_run(rap, cgm.MinSolverConfig(horizon=2000, schedule="constant"))
    vi_config = cgm.VISolverConfig(horizon=3000)
    vi_trace = cgm.cgm_vi_run(hbg, vi_config)
    floor = cgm.rap_unconstrained_min(rap.data)[1]
    hbg_argv = ["--problem", "hbg", "--d", "50", "--beta", "0.8", "--baselines",
                "--check-bounds", "--plots", "--seed", str(SEED), "--out", str(out_dir)]
    rap_argv = ["--problem", "rap", "--d", "50", "--schedule", "constant", "--check-bounds",
                "--plots", "--iters", "500", "--seed", str(SEED), "--out", str(out_dir)]
    return {
        "setup_s": lambda: setup_seconds(src),
        **{f"rap_d50_T2000_{schedule}_s": timer(
            cgm.cgm_min_run, rap, cgm.MinSolverConfig(horizon=2000, schedule=schedule))
           for schedule in ("constant", "varying")},
        "rap_d200_T20_varying_ms_per_iter": timer(
            cgm.cgm_min_run, rap200, cgm.MinSolverConfig(horizon=20, schedule="varying")),
        "hbg_d50_T3000_s": timer(cgm.cgm_vi_run, hbg, vi_config),
        "reference_d50_s": timer(cgm.solve_rap_reference, rap.data),
        "reference_d200_s": timer(cgm.solve_rap_reference, rap200.data),
        "certify_min_T2000_s": timer(cgm.certify_min, min_trace, rap, (x_star, f_star), floor),
        "certify_vi_T3000_s": timer(cgm.certify_vi, vi_trace, hbg),
        "baselines_hbg_d50_T1000_s": timer(baselines_hbg, cgm, hbg),
        "cli_hbg_d50_T1000_s": lambda: cli_seconds(cgm, [*hbg_argv, "--iters", "1000"]),
        "cli_rap_d50_T500_s": lambda: cli_seconds(cgm, rap_argv),
        "cli_hbg_d50_T100_1000_3000_s": lambda: cli_seconds(
            cgm, [*hbg_argv, "--iters", "100,1000,3000"]),
    }


def baselines_hbg(cgm, problem):
    """GDA and EG on the HBG instance, T=1000, with the step sizes and calls cgm-bench uses."""
    x_star = np.full(problem.dim, 1.0 / (problem.dim // 2))
    cgm.gda_eg_run(problem, cgm.harness.GDA_ETA, 1.0 / problem.ell_F, 1000, x_star)


def cli_seconds(cgm, argv):
    """Wall seconds of one ``cgm-bench`` run, its output discarded; raises unless it exits 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        tic = time.perf_counter()
        code = cgm.cli.main(argv)
        seconds = time.perf_counter() - tic
    if code != 0:
        raise RuntimeError(f"cgm-bench {' '.join(argv)} exited {code}")
    return seconds


def pair(parent, change, k):
    """(parent best, change best, median change/parent ratio of back-to-back calls) of a pair."""
    sides, best, ratios = (parent, change), [float("inf"), float("inf")], []
    start = time.perf_counter()
    while len(ratios) < PAIR_ROUNDS or time.perf_counter() - start < PAIR_BUDGET_S:
        seconds = [0.0, 0.0]
        for i in (0, 1)[:: 1 if (k + len(ratios)) % 2 == 0 else -1]:
            seconds[i] = sides[i]()
            best[i] = min(best[i], seconds[i])
        ratios.append(seconds[1] / seconds[0])
    return best[0], best[1], statistics.median(ratios)


def aa_bands(paths=AA_RUNS):
    """{entry: (first, third) quartile of its pair ratios pooled over the A/A paired runs}.

    Runs that do not exist are skipped, so no run gives {}.
    """
    pooled = {}
    for path in paths:
        if path.exists():
            for name, entry in json.loads(path.read_text())["paired"].items():
                pooled.setdefault(name, []).extend(entry["ratios"])
    return {name: tuple(statistics.quantiles(ratios, n=4)[::2])
            for name, ratios in pooled.items()}


def paired(parent_samples, change_samples, bands):
    """Columns and paired record of PAIRS interleaved pairs per entry, judged by its A/A band."""
    record = {}
    for name, change in change_samples.items():
        scale = SCALE.get(name, 1.0)
        pairs = [pair(parent_samples[name], change, k) for k in range(PAIRS)]
        ratios = [ratio for _, _, ratio in pairs]
        low, _, high = statistics.quantiles(ratios, n=4)
        band = bands.get(name)
        record[name] = {
            "median_ratio": statistics.median(ratios),
            "wins": sum(ratio < 1 for ratio in ratios),
            "pairs": PAIRS,
            "aa_band": band,
            "outside_aa_band": "no band" if band is None else high < band[0] or low > band[1],
            "ratio_quartiles": [low, high],
            "quartiles_exclude_1": high < 1 or low > 1,
            "ratios": ratios,
            "parent": [p * scale for p, _, _ in pairs],
            "change": [c * scale for _, c, _ in pairs],
        }
    return {
        side: {name: min(entry[side]) for name, entry in record.items()}
        for side in ("parent", "change")
    }, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="JSON file to merge into")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree holding the cgm package to time")
    parser.add_argument("--src-parent", type=Path, required=True,
                        help="parent source tree to interleave with --src, call by call")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": SEED,
        "pairs": PAIRS,
        "pair_budget_s": PAIR_BUDGET_S,
        "pair_rounds": PAIR_ROUNDS,
        "interleaved": True,
        "aa_runs": [path.name for path in AA_RUNS],
    }
    parent_src = args.src_parent.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        parent = samples(load(parent_src, "cgm_parent"), parent_src, Path(tmp, "parent"))
        change = samples(load(src, "cgm_change"), src, Path(tmp, "change"))
        best, record = paired(parent, change, aa_bands())
    for side in best:
        data.setdefault("columns", {})[side] = {"env": env, "results": best[side]}
    data["paired"] = record
    verdicts = ("median_ratio", "wins", "pairs", "aa_band", "outside_aa_band",
                "ratio_quartiles", "quartiles_exclude_1")
    summary = {name: {k: entry[k] for k in verdicts} for name, entry in record.items()}
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
