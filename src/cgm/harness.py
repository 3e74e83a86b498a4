"""Seeded experiment orchestration: config parsing and CSV emission.

A config names one problem family and a list of horizons; running it produces
one CSV per (solver, horizon) cell, each with a fixed column set and one row
per iteration. Certificate reports are appended when bound checking is on.
Cells run serially; files are written via atomic rename.
"""

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import eg_run, gda_run
from .cgm_min import MinSolverConfig, cgm_min_run
from .cgm_vi import VISolverConfig, cgm_vi_run
from .metrics import certify_min, certify_vi, hbg_gap_closed_form
from .problems import hbg_instantiate, rap_generate, rap_unconstrained_min
from .reference import solve_rap_reference

GDA_ETA = 0.005


class ParseError(Exception):
    pass


class ValidationError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    horizons: tuple
    d: int = 50
    beta: float = 0.8
    seed: int = 42
    schedule: str = "constant"
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
        if self.problem == "rap" and self.d < 2:
            raise ValidationError("d: rap requires d >= 2")
        if self.problem == "hbg" and not 0.0 < self.beta < 1.0:
            raise ValidationError("beta: must lie in (0, 1)")
        if self.schedule not in ("constant", "varying"):
            raise ValidationError("schedule: must be 'constant' or 'varying'")


_KEYS = {
    "problem": str,
    "d": int,
    "beta": float,
    "seed": int,
    "iters": "int_list",
    "schedule": str,
    "baselines": "flag",
    "check_bounds": "flag",
    "out": str,
}

_FIELD_FOR_KEY = {
    "iters": "horizons",
    "baselines": "run_baselines",
    "out": "out_dir",
}


def _convert(key, raw):
    kind = _KEYS[key]
    if kind == "int_list":
        try:
            return tuple(int(part) for part in str(raw).split(",") if part.strip())
        except ValueError as exc:
            raise ParseError(f"bad horizon list for {key!r}: {raw!r}") from exc
    if kind == "flag":
        if isinstance(raw, bool):
            return raw
        low = str(raw).strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ParseError(f"bad flag value for {key!r}: {raw!r}")
    try:
        return kind(raw)
    except ValueError as exc:
        raise ParseError(f"bad value for {key!r}: {raw!r}") from exc


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
            raw[key] = value.strip()
    for key, value in (overrides or {}).items():
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}")
        if value is not None:
            raw[key] = value
    if "problem" not in raw:
        raise ValidationError("problem: required")
    if "iters" not in raw:
        raise ValidationError("iters: required")
    kwargs = {}
    for key, value in raw.items():
        kwargs[_FIELD_FOR_KEY.get(key, key)] = _convert(key, value)
    return ExperimentConfig(**kwargs)


def _fmt(value):
    return f"{value:.17g}"


def _atomic_write(path, text):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, rows, report=None):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    if report is not None:
        lines.extend(report.csv_lines())
    return "\n".join(lines) + "\n"


def _run_rap_cell(config, horizon, problem, reference, f_floor):
    solver_config = MinSolverConfig(horizon=horizon, schedule=config.schedule)
    trace = cgm_min_run(problem, solver_config, reference=reference)
    header = [
        "iter", "eta", "f_resid", "abs_f_resid", "max_violation",
        "v_norm", "dist_x0", "wall_ms",
    ]
    resid = trace.f_resid
    v_norms = trace.v_norms
    dist = np.linalg.norm(trace.xs - trace.xs[0], axis=1)
    cum_ms = np.cumsum(trace.wall_s) * 1e3
    rows = [
        (
            t, trace.etas[t - 1], resid[t], abs(resid[t]),
            trace.max_violation[t], v_norms[t - 1], dist[t], cum_ms[t - 1],
        )
        for t in range(1, horizon + 1)
    ]
    report = None
    if config.check_bounds:
        report = certify_min(trace, problem, reference, f_floor)
    name = f"rap_cgm_{config.schedule}_T{horizon}.csv"
    path = Path(config.out_dir) / name
    _atomic_write(path, _csv_text(header, rows, report))
    return path, report


def _run_hbg_cell(config, horizon, problem):
    trace = cgm_vi_run(problem, VISolverConfig(horizon=horizon))
    beta = problem.mu / 2.0
    header = [
        "iter", "eta", "gap", "max_violation", "v_norm",
        "dist_x0", "rel_err", "wall_ms",
    ]
    x_star = np.full(problem.dim, 1.0 / (problem.dim // 2))
    ref_norm = float(np.linalg.norm(x_star))
    v_norms = trace.v_norms
    cum_ms = np.cumsum(trace.wall_s) * 1e3
    rows = [
        (
            t, trace.etas[t - 1], hbg_gap_closed_form(trace.xs[t], beta),
            trace.max_violation[t], v_norms[t - 1], trace.dist_x0[t],
            float(np.linalg.norm(trace.xs[t] - x_star)) / ref_norm,
            cum_ms[t - 1],
        )
        for t in range(1, horizon + 1)
    ]
    report = certify_vi(trace, problem) if config.check_bounds else None
    path = Path(config.out_dir) / f"hbg_cgm_vi_T{horizon}.csv"
    _atomic_write(path, _csv_text(header, rows, report))
    return path, report


def _run_baseline_cell(config, horizon, problem, label, runner, eta):
    trace = runner(problem, eta, horizon)
    header = ["iter", "rel_err", "wall_ms"]
    cum_ms = np.cumsum(trace.wall_s) * 1e3
    rows = [
        (t, trace.rel_err[t - 1], cum_ms[t - 1]) for t in range(1, horizon + 1)
    ]
    path = Path(config.out_dir) / f"hbg_{label}_T{horizon}.csv"
    _atomic_write(path, _csv_text(header, rows))
    return path, None


def run_experiment(config):
    """Execute every (solver, horizon) cell; returns a summary dict.

    Summary fields: files (paths in cell order), reports (per file when
    bound checking was requested), all_pass, exit_code (nonzero iff a bound
    certificate failed while check_bounds was set).
    """
    cells = []
    if config.problem == "rap":
        problem = rap_generate(config.d, seed=config.seed)
        x_star, f_star, cert = solve_rap_reference(problem.data)
        if not cert.ok:
            raise RuntimeError("reference solve failed its KKT certificate")
        reference = (x_star, f_star)
        _, f_floor = rap_unconstrained_min(problem.data)
        for horizon in config.horizons:
            cells.append((_run_rap_cell, (config, horizon, problem, reference, f_floor)))
    else:
        problem = hbg_instantiate(config.d, config.beta, seed=config.seed)
        for horizon in config.horizons:
            cells.append((_run_hbg_cell, (config, horizon, problem)))
            if config.run_baselines:
                eg_eta = 1.0 / problem.ell_F
                cells.append(
                    (_run_baseline_cell, (config, horizon, problem, "gda", gda_run, GDA_ETA))
                )
                cells.append(
                    (_run_baseline_cell, (config, horizon, problem, "eg", eg_run, eg_eta))
                )

    results = []
    for fn, args in cells:
        try:
            results.append(fn(*args))
        except Exception as exc:
            raise RuntimeError(f"cell {args[1]} failed: {exc}") from exc

    files = [str(path) for path, _ in results]
    reports = {str(path): report for path, report in results if report is not None}
    all_pass = all(report.all_pass for report in reports.values())
    exit_code = 0 if (not config.check_bounds or all_pass) else 1
    return {
        "files": files,
        "reports": reports,
        "all_pass": all_pass,
        "exit_code": exit_code,
    }
