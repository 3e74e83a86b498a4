"""Seeded experiment orchestration: config parsing and CSV emission.

A config names one problem family and a list of horizons; running it produces
one CSV per (solver, horizon) cell, each with a fixed column set and one row
per iteration. Certificate reports are appended when bound checking is on.
Cells run serially; files are written via atomic rename. A solver whose step
sizes do not depend on the horizon runs once, at the longest, for every cell.
"""

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import gda_eg_run
from .cgm_min import CONSTANT, VARYING, MinSolverConfig, ScheduleInvalid, cgm_min_run, step_sizes
from .cgm_vi import VISolverConfig, cgm_vi_run
from .metrics import certify_min, certify_vi, simplex_gaps
from .problems import hbg_instantiate, rap_generate, rap_unconstrained_min, row_norms
from .reference import solve_rap_reference

GDA_ETA = 0.005


class ParseError(Exception):
    pass


class ValidationError(Exception):
    pass


class CellFailure(RuntimeError):
    """A (solver, horizon) cell raised; the message names the horizon and the cause."""


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    horizons: tuple
    d: int = 50
    beta: float = 0.8
    seed: int = 42
    schedule: str = CONSTANT
    run_baselines: bool = False
    check_bounds: bool = False
    out_dir: str = "results"

    def __post_init__(self):
        if self.problem not in ("rap", "hbg"):
            raise ValidationError("problem: must be 'rap' or 'hbg'")
        if not self.horizons:
            raise ValidationError("iters: at least one horizon required")
        if any(int(t) < 1 for t in self.horizons):
            raise ValidationError("iters: horizons must be positive")
        object.__setattr__(self, "horizons", tuple(int(t) for t in self.horizons))
        for i, horizon in enumerate(self.horizons):
            if horizon in self.horizons[:i]:
                raise ValidationError(f"iters: horizon {horizon} repeated")
        d_floor = 2 if self.problem == "rap" else 1
        if self.d < d_floor:
            raise ValidationError(f"d: {self.problem} requires d >= {d_floor}")
        if self.seed < 0:
            raise ValidationError("seed: must be non-negative")
        if self.problem == "hbg" and not 0.0 < self.beta < 1.0:
            raise ValidationError("beta: must lie in (0, 1)")
        if self.schedule not in (CONSTANT, VARYING):
            raise ValidationError("schedule: must be 'constant' or 'varying'")


def _flag(raw):
    low = str(raw).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _int_list(raw):
    return tuple(int(part) for part in str(raw).split(",") if part.strip())


# config key -> (ExperimentConfig field, converter, name of a bad value)
_KEYS = {
    "problem": ("problem", str, "value"),
    "d": ("d", int, "value"),
    "beta": ("beta", float, "value"),
    "seed": ("seed", int, "value"),
    "iters": ("horizons", _int_list, "horizon list"),
    "schedule": ("schedule", str, "value"),
    "baselines": ("run_baselines", _flag, "flag value"),
    "check_bounds": ("check_bounds", _flag, "flag value"),
    "out": ("out_dir", str, "value"),
}


def parse_config(path=None, overrides=None):
    """Build a config from a flat key = value file and/or override pairs.

    Overrides (typically CLI flags) win over file entries. Unknown keys are
    rejected; file errors carry the offending line number.
    """
    raw = {}
    if path is not None:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ParseError(f"{path}:{lineno}: expected key = value")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in _KEYS:
                raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
            raw[key] = (value.strip(), f"{path}:{lineno}: ")
    for key, value in (overrides or {}).items():
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}")
        if value is not None:
            raw[key] = (value, "")
    if "problem" not in raw:
        raise ValidationError("problem: required")
    if "iters" not in raw:
        raise ValidationError("iters: required")
    kwargs = {}
    for key, (value, where) in raw.items():
        field, convert, what = _KEYS[key]
        try:
            kwargs[field] = convert(value)
        except ValueError as exc:
            raise ParseError(f"{where}bad {what} for {key!r}: {value!r}") from exc
    try:
        return ExperimentConfig(**kwargs)
    except ValidationError as exc:
        # each message starts with its config key; a value read from a file gets its line
        _, where = raw.get(str(exc).partition(":")[0], (None, ""))
        raise ValidationError(f"{where}{exc}") from exc


def atomic_write(path, text):
    """Write text to a temp file beside path, in a plain write's mode, then rename it over path."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    umask = os.umask(0o022)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            os.fchmod(fd, 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, columns, report=None):
    """Write a header of the column names, one row per iteration, then the report.

    Returns the columns as float arrays: the values written, each of which
    %.17g formats so that it reads back exactly.
    """
    columns = {name: np.asarray(column, dtype=float) for name, column in columns.items()}
    lines = [",".join(columns)]
    row_format = ",".join(["%.17g"] * len(columns))
    values = [column.tolist() for column in columns.values()]
    lines.extend(row_format % row for row in zip(*values, strict=True))
    if report is not None:
        lines.extend(report.csv_lines())
    atomic_write(path, "\n".join(lines) + "\n")
    return columns


def _cell(config, name, wall_s, columns, report=None):
    """Write <name>_T<wall_s.size>.csv: iter, columns, wall_ms, report; (path, columns, report)."""
    horizon = wall_s.size
    path = Path(config.out_dir) / f"{name}_T{horizon}.csv"
    columns = {"iter": range(1, horizon + 1), **columns, "wall_ms": np.cumsum(wall_s) * 1e3}
    return path, _write_csv(path, columns, report), report


def _solve(config, horizon, problem, reference):
    """The CGM run of one horizon: CGM-Min with the reference on rap, CGM-VI on hbg."""
    if config.problem == "rap":
        return cgm_min_run(problem, MinSolverConfig(horizon, config.schedule), reference)
    return cgm_vi_run(problem, VISolverConfig(horizon=horizon))


def _rap_cell(config, trace, problem, reference, f_floor):
    columns = {
        "eta": trace.etas,
        "f_resid": trace.f_resid[1:],
        "abs_f_resid": np.abs(trace.f_resid[1:]),
        "max_violation": trace.max_violation[1:],
        "v_norm": trace.v_norms,
        "dist_x0": trace.dist_x0[1:],
    }
    # certify after the columns: over repeated RAP d=50 runs certify_min took 1.07 ms
    # straight after the solver and 0.79 ms here (glibc heap state; same work)
    report = certify_min(trace, problem, reference, f_floor) if config.check_bounds else None
    return _cell(config, f"rap_cgm_{config.schedule}", trace.wall_s, columns, report)


def _hbg_cell(config, trace, problem, x_star):
    ref_norm = float(np.linalg.norm(x_star))
    columns = {
        "eta": trace.etas,
        "gap": simplex_gaps(problem, trace.xs[1:]),
        "max_violation": trace.max_violation[1:],
        "v_norm": trace.v_norms,
        "dist_x0": trace.dist_x0[1:],
        "rel_err": row_norms(trace.xs[1:], x_star) / ref_norm,
    }
    report = certify_vi(trace, problem) if config.check_bounds else None
    return _cell(config, "hbg_cgm_vi", trace.wall_s, columns, report)


def run_experiment(config):
    """Execute every (solver, horizon) cell; returns a summary dict.

    The output directory is created first; when it names a file, nothing is
    solved and ValidationError is raised.

    Summary fields: files (paths in cell order), columns (per file, the
    values written to it as float arrays by column name, in cell order),
    reports (per file when bound checking was requested), all_pass, exit_code
    (nonzero iff a bound certificate failed while check_bounds was set).
    """
    try:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ValidationError(f"out: {config.out_dir} is not a directory") from exc
    if config.problem == "rap":
        problem = rap_generate(config.d, seed=config.seed)
        try:  # every horizon, before the reference solve and the first cell
            for horizon in config.horizons:
                step_sizes(problem, horizon, config.schedule)
        except ScheduleInvalid as exc:
            raise ValidationError(f"iters: {exc}") from exc
        x_star, f_star, _ = solve_rap_reference(problem.data)  # certified, or it raises
        reference = (x_star, f_star)
        _, f_floor = rap_unconstrained_min(problem.data)
    else:
        problem = hbg_instantiate(config.d, config.beta, seed=config.seed)
        x_star = np.full(problem.dim, 1.0 / (problem.dim // 2))  # the uniform equilibrium
        reference = None

    # CGM-VI's steps and CGM-Min's varying steps do not depend on T, so one run at
    # the longest horizon serves every cell through its prefixes
    share = config.problem == "hbg" or config.schedule == VARYING
    shared = None
    results, baselines = [], ()
    for horizon in config.horizons:
        try:
            if share and shared is None:
                try:
                    shared = _solve(config, max(config.horizons), problem, reference)
                except Exception:  # each cell runs alone, so the failing one names its cause
                    share = False
            trace = shared.prefix(horizon) if share else _solve(config, horizon, problem, reference)
            if horizon == config.horizons[-1]:
                shared = None
            if config.problem == "rap":
                results.append(_rap_cell(config, trace, problem, reference, f_floor))
                continue
            results.append(_hbg_cell(config, trace, problem, x_star))
            trace = None  # frees a single horizon's run before the baselines
            if config.run_baselines and not baselines:
                # one run at the longest horizon serves every cell; it holds a ROW_BLOCK
                # window of iterates and O(T) columns, not its trajectory
                baselines = gda_eg_run(
                    problem, GDA_ETA, 1.0 / problem.ell_F, max(config.horizons), x_star)
            # fixed-step GDA and EG at a shorter horizon are bitwise prefixes of the longest run
            for label, trace in zip(("gda", "eg"), baselines):
                results.append(_cell(config, f"hbg_{label}", trace.wall_s[:horizon],
                                     {"rel_err": trace.rel_err[:horizon]}))
        except Exception as exc:
            raise CellFailure(f"cell {horizon} failed: {exc}") from exc

    files = [str(path) for path, _, _ in results]
    reports = {str(path): report for path, _, report in results if report is not None}
    all_pass = all(report.all_pass for report in reports.values())
    exit_code = 0 if (not config.check_bounds or all_pass) else 1
    return {
        "files": files,
        "columns": {str(path): columns for path, columns, _ in results},
        "reports": reports,
        "all_pass": all_pass,
        "exit_code": exit_code,
    }
