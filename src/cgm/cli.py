"""Command line front end for running experiments and rendering plots.

Exit codes: 0 on success, 1 when --check-bounds is set and a certificate fails,
2 on bad input, 3 when the reference solve fails (no CSV is written) and 4 when
a solver cell fails, say on a non-finite iterate.
"""

import argparse
import sys
from pathlib import Path

from .harness import CellFailure, ParseError, ValidationError, parse_config, run_experiment
from .plots import emit_plots
from .reference import BarrierFailure


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cgm-bench",
        description="Run constrained gradient method benchmarks and emit CSV/SVG.",
    )
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--problem", choices=["rap", "hbg"])
    parser.add_argument("--d", type=int, help="problem dimension")
    parser.add_argument("--beta", type=float, help="game parameter in (0, 1)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--iters", help="comma-separated horizons, e.g. 100,1000")
    parser.add_argument("--schedule", choices=["constant", "varying"])
    parser.add_argument("--baselines", action="store_true", default=None)
    parser.add_argument("--check-bounds", action="store_true", default=None)
    parser.add_argument("--out", help="output directory (default: results)")
    parser.add_argument("--plots", action="store_true", help="render SVGs after the run")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items()
                 if key not in ("config", "plots")}
    try:
        config = parse_config(args.config, overrides)
        summary = run_experiment(config)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BarrierFailure as exc:
        print(f"error: reference: {exc}", file=sys.stderr)
        return 3
    except CellFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    for path in summary["files"]:
        print(path)
    for path, report in summary["reports"].items():
        status = "pass" if report.all_pass else "FAIL"
        print(f"bounds[{report.track}] {status}: {path}")
    if args.plots:
        runs = [(Path(path).stem, columns) for path, columns in summary["columns"].items()]
        for path in emit_plots(runs, config.out_dir):
            print(path)
    return summary["exit_code"]


if __name__ == "__main__":
    raise SystemExit(main())
