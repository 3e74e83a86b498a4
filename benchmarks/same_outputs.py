"""Check that two source trees give the same cgm-bench outputs and the same CGM traces.

Run from the root of a checkout:

    python3 benchmarks/same_outputs.py --src-parent ../parent/src

It runs ``cgm.cli.main`` of each tree (--src, default this checkout's ``src``,
and --src-parent) in a fresh interpreter on every command line of COMMANDS,
each into its own output directory, and compares:

- the exit code, and stdout and stderr with the output directory replaced
  by ``<out>``;
- the list of files written, and every SVG byte for byte;
- every CSV with its ``wall_ms`` column dropped (the other columns and the
  certificate section byte for byte).

It then runs each tree's solvers on the TRACES runs, in a fresh interpreter,
and compares a sha256 digest of every ``CgmTrace`` array except ``wall_s``
(and ``vs``, which only older trees hold), and of what the trace drops: every
step's velocity ``v`` (``step_v``), read by wrapping ``cgm.cgm_min.cgm_step``,
and every projection's ``dual`` (``qp_dual``) and ``iterations``
(``qp_iterations``), read by wrapping ``cgm.cgm_min.project_velocity``; the CGM
step of both solvers calls both. No QP of those runs takes the ``gi`` fallback,
so the same interpreter also projects a random target onto each GI_POLYTOPES
polytope, built from seeded ``VelocityPolytope`` inputs that send
``project_velocity`` to the fallback, and compares a digest of each group's
``v`` and ``dual`` and the list of paths taken.
Every difference is printed; the exit code is 1 when there is one, else 0.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMED_COLUMN = "wall_ms"
PERFBENCH_RAP = ["--problem", "rap", "--d", "50", "--schedule", "constant", "--check-bounds",
                 "--plots", "--iters", "500"]
PERFBENCH_HBG = ["--problem", "hbg", "--d", "50", "--beta", "0.8", "--baselines",
                 "--check-bounds", "--plots", "--iters", "1000"]
COMMANDS = [
    *([*PERFBENCH_RAP, "--seed", str(seed)] for seed in (42, 7)),
    *([*PERFBENCH_HBG, "--seed", str(seed)] for seed in (42, 7)),
    ["--problem", "hbg", "--d", "50", "--baselines", "--check-bounds", "--plots",
     "--iters", "100,1000,3000"],
    ["--problem", "rap", "--d", "50", "--schedule", "varying", "--check-bounds", "--plots",
     "--iters", "100,500,2000"],
    # one-row ergodic averages; T=1 has no non-ergodic feasibility record
    ["--problem", "hbg", "--d", "3", "--baselines", "--check-bounds", "--iters", "1,2"],
    # QPs with about 160 bound rows
    ["--problem", "rap", "--d", "200", "--schedule", "varying", "--check-bounds",
     "--iters", "200", "--seed", "3"],
    ["--problem", "rap", "--d", "2", "--seed", "0", "--iters", "10"],  # exit 3: reference
    ["--problem", "rap", "--d", "50", "--schedule", "constant", "--iters", "1"],  # exit 2
]
# (family, d, schedule, seeds, horizon); hbg runs CGM-VI and its one schedule
TRACES = [
    ("rap", 50, "constant", list(range(8)), 500),
    ("rap", 50, "varying", [3, 7], 2000),
    ("rap", 200, "varying", [0, 1], 200),
    ("hbg", 50, "vi", list(range(4)), 1000),
]
# (kind, n, general rows, bound rows, seeds): polytopes whose projection takes the
# gi fallback. "wide" has more rows than coordinates, "duplicate" and
# "near-parallel" repeat the first two rows exactly or to 1e-7.
GI_POLYTOPES = [
    ("wide", 3, 6, 2, [0, 2, 3, 6, 7, 16]),
    ("wide", 10, 14, 4, [2, 4, 5, 6, 8, 9]),
    ("wide", 50, 60, 10, [21, 22, 29, 38, 45, 48]),
    ("duplicate", 5, 3, 2, [0, 1, 2, 3, 4, 5]),
    ("duplicate", 50, 40, 10, [0, 1, 2, 3, 4, 5]),
    ("near-parallel", 5, 3, 0, [0, 4, 5, 7, 11, 16]),
    ("near-parallel", 50, 3, 16, [0, 1, 7, 10, 21, 25]),
]
CLI_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import cgm.cli
raise SystemExit(cgm.cli.main(sys.argv[2:]))
"""
TRACE_CHILD = """
import hashlib, json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import cgm
import cgm.cgm_min
import cgm.qp

def digest(array):
    head = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(head + np.ascontiguousarray(array).tobytes()).hexdigest()

project_velocity, cgm_step = cgm.cgm_min.project_velocity, cgm.cgm_min.cgm_step

def recorded(target, polytope):
    result = project_velocity(target, polytope)
    qp_dual.update(digest(result.dual).encode())
    qp_iterations.append(result.iterations)
    return result

def stepped(*args):
    out = cgm_step(*args)
    step_v.update(digest(out[1]).encode())
    return out

cgm.cgm_min.project_velocity, cgm.cgm_min.cgm_step = recorded, stepped
digests = {}
for family, d, schedule, seeds, horizon in json.loads(sys.argv[2]):
    for seed in seeds:
        step_v, qp_dual, qp_iterations = hashlib.sha256(), hashlib.sha256(), []
        if family == "rap":
            problem = cgm.rap_generate(d, seed=seed)
            trace = cgm.cgm_min_run(problem, cgm.MinSolverConfig(horizon, schedule))
        else:
            problem = cgm.hbg_instantiate(d, 0.8, seed=seed)
            trace = cgm.cgm_vi_run(problem, cgm.VISolverConfig(horizon))
        digests[f"{family} d={d} {schedule} seed={seed} T={horizon}"] = {
            **{name: digest(value) for name, value in vars(trace).items()
               if isinstance(value, np.ndarray) and name not in ("wall_s", "vs")},
            "step_v": step_v.hexdigest(), "qp_dual": qp_dual.hexdigest(),
            "qp_iterations": digest(np.array(qp_iterations)),
        }

def gi_instance(kind, n, m, s, seed):
    rng = np.random.default_rng(seed)
    g, h = rng.standard_normal((m, n)), rng.standard_normal(m)
    if kind == "duplicate":
        g, h = np.vstack((g, g[:2])), np.append(h, h[:2])
    elif kind == "near-parallel":
        g = np.vstack((g, g[:2] + 1e-7 * rng.standard_normal((2, n))))
        h = np.append(h, h[:2] + 1e-7 * rng.standard_normal(2))
    bound_idx = np.sort(rng.choice(n, size=s, replace=False))
    polytope = cgm.qp.VelocityPolytope(g, h, bound_idx, -rng.random(s))
    return 3.0 * rng.standard_normal(n), polytope

for kind, n, m, s, seeds in json.loads(sys.argv[3]):
    v, dual, paths = hashlib.sha256(), hashlib.sha256(), []
    for seed in seeds:
        result = project_velocity(*gi_instance(kind, n, m, s, seed))
        v.update(digest(result.v).encode())
        dual.update(digest(result.dual).encode())
        paths.append(result.path)
    digests[f"gi {kind} n={n} m={m} s={s}"] = {
        "v": v.hexdigest(), "dual": dual.hexdigest(), "path": " ".join(paths)}
print(json.dumps(digests))
"""


def drop_column(text, name=TIMED_COLUMN):
    """The CSV text without column `name` in its header and iteration rows.

    The certificate section after the rows (from its ``certificate,`` header
    on) is kept as it is; a CSV without the column comes back unchanged.
    """
    lines = text.split("\n")
    header = lines[0].split(",")
    if name not in header:
        return text
    column = header.index(name)
    for i, line in enumerate(lines):
        if line.startswith("certificate,"):
            break
        if line:
            fields = line.split(",")
            del fields[column]
            lines[i] = ",".join(fields)
    return "\n".join(lines)


def _child_env():
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def run_cli(src, argv, out_dir):
    """(exit code, stdout, stderr, {file name: comparable content}) of one cgm-bench run."""
    done = subprocess.run(
        [sys.executable, "-c", CLI_CHILD, str(src), *argv, "--out", str(out_dir)],
        capture_output=True, text=True, env=_child_env(),
    )
    files = {}
    for path in sorted(Path(out_dir).iterdir()) if Path(out_dir).is_dir() else ():
        files[path.name] = (drop_column(path.read_text()) if path.suffix == ".csv"
                            else path.read_bytes())
    stdout, stderr = (text.replace(str(out_dir), "<out>") for text in (done.stdout, done.stderr))
    return done.returncode, stdout, stderr, files


def trace_digests(src):
    """{run label: {trace array or QP field name: sha256}} of the TRACES runs of the tree src,
    and {group label: {"v" or "dual": sha256, "path": paths}} of its GI_POLYTOPES projections."""
    done = subprocess.run(
        [sys.executable, "-c", TRACE_CHILD, str(src), json.dumps(TRACES), json.dumps(GI_POLYTOPES)],
        capture_output=True, text=True, env=_child_env(), check=True,
    )
    return json.loads(done.stdout)


def compare_cli(parent_src, src, tmp):
    """The differences, as printable lines, over every command line of COMMANDS."""
    differences = []
    for k, argv in enumerate(COMMANDS):
        parent = run_cli(parent_src, argv, Path(tmp, "parent", str(k)))
        change = run_cli(src, argv, Path(tmp, "change", str(k)))
        line = " ".join(argv)
        for what, old, new in zip(("exit code", "stdout", "stderr"), parent, change):
            if old != new:
                differences.append(f"{line}: {what} differs: {old!r} -> {new!r}")
        old_files, new_files = parent[3], change[3]
        if sorted(old_files) != sorted(new_files):
            differences.append(f"{line}: files {sorted(old_files)} -> {sorted(new_files)}")
        differences.extend(
            f"{line}: {name} differs" for name in sorted(set(old_files) & set(new_files))
            if old_files[name] != new_files[name]
        )
        print(f"exit {change[0]}, {len(new_files)} files: {line}")
    return differences


def compare_traces(parent_src, src):
    """The differences, as printable lines, over every array of every TRACES run
    and every digest of every GI_POLYTOPES group."""
    parent, change = trace_digests(parent_src), trace_digests(src)
    differences = []
    for label in sorted(parent.keys() | change.keys()):
        old, new = parent.get(label, {}), change.get(label, {})
        differences.extend(
            f"trace {label}: {name} differs" for name in sorted(old.keys() | new.keys())
            if old.get(name) != new.get(name)
        )
    groups = sum(label.startswith("gi ") for label in change)
    print(f"{len(change) - groups} traces and {groups} fallback groups, "
          f"{sum(map(len, change.values()))} digests compared")
    return differences


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree holding the changed cgm package")
    parser.add_argument("--src-parent", type=Path, required=True,
                        help="source tree holding the parent's cgm package")
    args = parser.parse_args(argv)
    src, parent_src = args.src.resolve(), args.src_parent.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        differences = compare_cli(parent_src, src, tmp)
    differences += compare_traces(parent_src, src)
    for line in differences:
        print(line)
    print(f"{len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
