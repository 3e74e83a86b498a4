"""Config parsing, experiment orchestration, CSV/SVG emission."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cgm
import cgm.cgm_min
import cgm.harness
from cgm.cli import main as cli_main
from cgm.harness import (
    GDA_ETA,
    ExperimentConfig,
    ParseError,
    ValidationError,
    _write_csv,
    parse_config,
    run_experiment,
)
from cgm.metrics import simplex_gaps
from cgm.reference import KktCertificate
from cgm import plots
from cgm.plots import FLOOR, EmptySeries, emit_plots, render_line_chart


def read_csv(path):
    """Column dict of a run CSV; stops at an appended certificate section.

    The round-trip oracle: SVGs drawn from a run's columns in memory must equal
    those drawn from what this reads back from the run's CSVs.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise EmptySeries(f"{path}: no content")
    header = lines[0].split(",")
    columns = {name: [] for name in header}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(header):
            break  # certificate/constants section uses its own layout
        try:
            values = [float(p) for p in parts]
        except ValueError:
            break
        for name, value in zip(header, values):
            columns[name].append(value)
    return columns


def _runs(summary):
    """(file stem, columns) pairs of a run summary, as cgm-bench passes them to emit_plots."""
    return [(Path(path).stem, columns) for path, columns in summary["columns"].items()]


def _polyline_oracle(series):
    """The points of each polyline, scaled and formatted one point at a time."""
    def scale(value, lo, hi, out_lo, out_hi):
        if hi <= lo:
            return 0.5 * (out_lo + out_hi)
        return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)

    logged = [(xs, [math.log10(max(y, FLOOR)) for y in ys]) for _, xs, ys in series]
    all_x = [x for xs, _ in logged for x in xs]
    all_ly = [ly for _, lys in logged for ly in lys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = math.floor(min(all_ly)), math.ceil(max(all_ly))
    if y_hi == y_lo:
        y_hi = y_lo + 1
    left, right = plots.MARGIN_LEFT, plots.WIDTH - plots.MARGIN_RIGHT
    top, bottom = plots.MARGIN_TOP, plots.HEIGHT - plots.MARGIN_BOTTOM
    return [
        " ".join(
            f"{scale(x, x_lo, x_hi, left, right):.1f},{scale(ly, y_lo, y_hi, bottom, top):.1f}"
            for x, ly in zip(xs, lys)
        )
        for xs, lys in logged
    ]


class TestParseConfig:
    def test_file_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# small-horizon sweep\n"
            "problem = rap\n"
            "d = 50\n"
            "seed = 42\n"
            "schedule = constant\n"
            "iters = 100,150,200,250\n"
        )
        config = parse_config(cfg)
        assert config.problem == "rap"
        assert config.horizons == (100, 150, 200, 250)
        assert config.schedule == "constant"

    def test_overrides_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = rap\niters = 10\nd = 50\n")
        config = parse_config(cfg, {"d": 20})
        assert config.d == 20

    def test_unknown_key_rejected_with_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = rap\nbogus = 1\n")
        with pytest.raises(ParseError, match=":2:"):
            parse_config(cfg)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem rap\n")
        with pytest.raises(ParseError, match=":1:"):
            parse_config(cfg)

    def test_beta_out_of_range(self):
        with pytest.raises(ValidationError, match="beta"):
            parse_config(None, {"problem": "hbg", "iters": "10", "beta": 1.5})

    def test_rap_dimension_floor(self):
        with pytest.raises(ValidationError, match="d"):
            parse_config(None, {"problem": "rap", "iters": "10", "d": 1})

    def test_missing_required_keys(self):
        with pytest.raises(ValidationError, match="problem"):
            parse_config(None, {"iters": "10"})
        with pytest.raises(ValidationError, match="iters"):
            parse_config(None, {"problem": "rap"})

    def test_flag_values(self):
        config = parse_config(
            None,
            {"problem": "rap", "iters": "10", "check_bounds": "true"},
        )
        assert config.check_bounds

    def test_empty_horizons_rejected(self):
        with pytest.raises(ValidationError, match="iters"):
            ExperimentConfig(problem="rap", horizons=())

    @pytest.mark.parametrize("line, message", [
        ("d = abc", "bad value for 'd': 'abc'"),
        ("check_bounds = maybe", "bad flag value for 'check_bounds': 'maybe'"),
    ], ids=["int", "flag"])
    def test_bad_file_value_names_its_line(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"problem = rap\niters = 10\n{line}\n")
        assert cli_main(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:3: {message}\n"

    @pytest.mark.parametrize("line, message", [
        ("d = 0", "d: hbg requires d >= 1"),
        ("seed = -1", "seed: must be non-negative"),
        ("beta = 1.5", "beta: must lie in (0, 1)"),
        ("iters = 5,7,5", "iters: horizon 5 repeated"),
    ], ids=["d", "seed", "beta", "iters"])
    def test_out_of_range_file_value_names_its_line(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"problem = hbg\niters = 10\n{line}\n")
        assert cli_main(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:3: {message}\n"


class TestRunExperiment:
    def test_rap_outputs(self, tmp_path):
        config = ExperimentConfig(
            problem="rap", horizons=(20, 30), d=10, seed=1, out_dir=str(tmp_path)
        )
        summary = run_experiment(config)
        assert len(summary["files"]) == 2
        assert summary["exit_code"] == 0
        for path, horizon in zip(sorted(summary["files"]), (20, 30)):
            columns = read_csv(path)
            assert len(columns["iter"]) == horizon

    def test_hbg_with_baselines(self, tmp_path):
        config = ExperimentConfig(
            problem="hbg", horizons=(15,), d=6, beta=0.6, run_baselines=True,
            out_dir=str(tmp_path),
        )
        summary = run_experiment(config)
        names = {Path(p).name for p in summary["files"]}
        assert names == {"hbg_cgm_vi_T15.csv", "hbg_gda_T15.csv", "hbg_eg_T15.csv"}

    def test_check_bounds_appends_report(self, tmp_path):
        config = ExperimentConfig(
            problem="hbg", horizons=(15,), d=6, beta=0.6, check_bounds=True,
            out_dir=str(tmp_path),
        )
        summary = run_experiment(config)
        assert summary["all_pass"]
        text = Path(summary["files"][0]).read_text()
        assert "certificate,lhs,rhs,slack,pass" in text

    def test_determinism_excluding_wall_time(self, tmp_path):
        def run_to(dir_name):
            config = ExperimentConfig(
                problem="rap", horizons=(25,), d=8, seed=3,
                out_dir=str(tmp_path / dir_name),
            )
            return run_experiment(config)["files"][0]

        def strip_wall(path):
            lines = Path(path).read_text().splitlines()
            return ["\n".join(line.split(",")[:-1]) for line in lines]

        assert strip_wall(run_to("a")) == strip_wall(run_to("b"))

    def test_csv_cells_match_the_traces(self, tmp_path):
        def expect_rows(path, columns):
            lines = Path(path).read_text().splitlines()
            assert lines[0].split(",") == [*columns, "wall_ms"]
            horizon = len(columns["iter"])
            for t, line in enumerate(lines[1:horizon + 1], start=1):
                cells = dict(zip(lines[0].split(","), line.split(",")))
                assert cells["iter"] == str(t)
                for name, values in columns.items():
                    assert float(cells[name]) == values[t - 1], (path, name, t)
            assert len(lines) == horizon + 1 or lines[horizon + 1].startswith("certificate")

        horizon = 30
        for schedule in ("constant", "varying"):
            config = ExperimentConfig(
                problem="rap", horizons=(horizon,), d=8, seed=4, schedule=schedule,
                check_bounds=True, out_dir=str(tmp_path),
            )
            (path,) = run_experiment(config)["files"]
            problem = cgm.rap_generate(8, seed=4)
            x_star, f_star, _ = cgm.solve_rap_reference(problem.data)
            trace = cgm.cgm_min_run(
                problem, cgm.MinSolverConfig(horizon=horizon, schedule=schedule),
                reference=(x_star, f_star),
            )
            expect_rows(path, {
                "iter": range(1, horizon + 1),
                "eta": trace.etas,
                "f_resid": trace.f_resid[1:],
                "abs_f_resid": [abs(r) for r in trace.f_resid[1:]],
                "max_violation": trace.max_violation[1:],
                "v_norm": trace.v_norms,
                "dist_x0": [np.linalg.norm(x - trace.xs[0]) for x in trace.xs[1:]],
            })

        config = ExperimentConfig(
            problem="hbg", horizons=(horizon,), d=6, beta=0.7, seed=5,
            run_baselines=True, out_dir=str(tmp_path),
        )
        vi_path, gda_path, eg_path = run_experiment(config)["files"]
        problem = cgm.hbg_instantiate(6, 0.7, seed=5)
        trace = cgm.cgm_vi_run(problem, cgm.VISolverConfig(horizon=horizon))
        x_star = np.full(12, 1.0 / 6)
        expect_rows(vi_path, {
            "iter": range(1, horizon + 1),
            "eta": trace.etas,
            "gap": [simplex_gaps(problem, x[None])[0] for x in trace.xs[1:]],
            "max_violation": trace.max_violation[1:],
            "v_norm": trace.v_norms,
            "dist_x0": trace.dist_x0[1:],
            "rel_err": [
                float(np.linalg.norm(x - x_star)) / float(np.linalg.norm(x_star))
                for x in trace.xs[1:]
            ],
        })
        baselines = cgm.gda_eg_run(problem, GDA_ETA, 1.0 / problem.ell_F, horizon, x_star)
        for path, baseline in zip((gda_path, eg_path), baselines):
            expect_rows(path, {"iter": range(1, horizon + 1), "rel_err": baseline.rel_err})


class TestSharedRuns:
    """CGM-VI and CGM-Min on the varying schedule serve every horizon from one run."""

    @pytest.mark.parametrize("problem, schedule, solver, horizons", [
        ("rap", "constant", "cgm_min_run", [30, 60, 45]),
        ("rap", "varying", "cgm_min_run", [60]),
        ("hbg", "constant", "cgm_vi_run", [60]),
    ])
    def test_cgm_runs_per_experiment(self, tmp_path, monkeypatch, problem, schedule, solver,
                                     horizons):
        ran, real = [], getattr(cgm.harness, solver)

        def counted(problem, config, *args):
            ran.append(config.horizon)
            return real(problem, config, *args)

        monkeypatch.setattr(f"cgm.harness.{solver}", counted)
        config = ExperimentConfig(problem=problem, horizons=(30, 60, 45), d=8, seed=4,
                                  schedule=schedule, out_dir=str(tmp_path))
        run_experiment(config)
        assert ran == horizons

    @pytest.mark.parametrize("problem, schedule", [
        ("rap", "varying"), ("rap", "constant"), ("hbg", "constant")])
    def test_cells_equal_single_horizon_experiments(self, tmp_path, problem, schedule):
        horizons = (30, 130, 1, 45) if schedule == "varying" else (30, 130, 45)
        kwargs = dict(problem=problem, d=8, seed=4, schedule=schedule, check_bounds=True,
                      run_baselines=problem == "hbg")
        together = run_experiment(
            ExperimentConfig(horizons=horizons, out_dir=str(tmp_path / "all"), **kwargs))
        files = []
        for horizon in horizons:
            alone = run_experiment(ExperimentConfig(
                horizons=(horizon,), out_dir=str(tmp_path / str(horizon)), **kwargs))
            for path in alone["files"]:
                files.append(str(tmp_path / "all" / Path(path).name))
                columns = together["columns"][files[-1]]
                assert list(columns) == list(alone["columns"][path])
                for name, values in alone["columns"][path].items():
                    assert columns[name].shape == values.shape
                    if name != "wall_ms":
                        assert columns[name].tobytes() == values.tobytes(), (path, name)
                if path in alone["reports"]:
                    report, expected = together["reports"][files[-1]], alone["reports"][path]
                    assert report.csv_lines() == expected.csv_lines()
        assert together["files"] == files

    def test_failed_shared_run_leaves_the_shorter_cells(self, tmp_path, capsys, monkeypatch):
        # the one run at T=20 turns non-finite at step 15: the T=10 cells are written as
        # when each horizon ran alone, and the T=20 cell reports the step
        problem = cgm.hbg_instantiate(3, 0.8, seed=42)
        kappa = problem.ell_F / problem.mu
        bad_eta = cgm.cgm_min.diminishing_steps(problem.mu, 16.0 * kappa**2, 20)[15]
        real = cgm.cgm_min.cgm_step

        def step(direction, constraints, x, alpha, eta):
            x_next, v, diag = real(direction, constraints, x, alpha, eta)
            return (np.full_like(x_next, np.nan) if eta == bad_eta else x_next), v, diag

        argv = ["--problem", "hbg", "--d", "3", "--baselines", "--check-bounds"]
        assert cli_main([*argv, "--iters", "10", "--out", str(tmp_path / "alone")]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cgm.cgm_min, "cgm_step", step)
        assert cli_main([*argv, "--iters", "10,20", "--out", str(tmp_path / "shared")]) == 4
        captured = capsys.readouterr()
        assert captured.err == "error: cell 20 failed: iteration 15: non-finite iterate\n"
        assert captured.out == ""
        names = ["hbg_cgm_vi_T10.csv", "hbg_eg_T10.csv", "hbg_gda_T10.csv"]
        assert sorted(p.name for p in (tmp_path / "shared").iterdir()) == names
        for name in names:
            shared, alone = (read_csv(tmp_path / d / name) for d in ("shared", "alone"))
            assert shared.keys() == alone.keys()
            for column in set(alone) - {"wall_ms"}:
                np.testing.assert_array_equal(shared[column], alone[column])
            shared, alone = ((tmp_path / d / name).read_text() for d in ("shared", "alone"))
            assert shared.partition("certificate,")[1:] == alone.partition("certificate,")[1:]


def test_outputs_get_the_mode_of_a_plain_write(tmp_path):
    plain = tmp_path / "plain.csv"
    with open(plain, "w") as handle:
        handle.write("x\n")
    old = os.umask(0o027)
    try:
        restricted = tmp_path / "restricted.csv"
        with open(restricted, "w") as handle:
            handle.write("x\n")
        cgm.harness.atomic_write(tmp_path / "restricted_atomic.csv", "x\n")
    finally:
        os.umask(old)
    cgm.harness.atomic_write(tmp_path / "atomic.csv", "x\n")
    mode = lambda name: (tmp_path / name).stat().st_mode & 0o777  # noqa: E731
    assert mode("atomic.csv") == mode("plain.csv")
    assert mode("restricted_atomic.csv") == mode("restricted.csv") == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "atomic.csv", "plain.csv", "restricted.csv", "restricted_atomic.csv"]


class TestPlots:
    def test_render_line_chart_svg(self):
        svg = render_line_chart(
            [("run", [1, 2, 3], [1.0, 0.1, 0.01])],
            title="demo", x_label="iteration", y_label="residual",
        )
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert "</svg>" in svg

    def test_empty_series_rejected(self):
        with pytest.raises(EmptySeries):
            render_line_chart([], title="t", x_label="x", y_label="y")

    def test_emit_plots_from_run(self, tmp_path):
        config = ExperimentConfig(
            problem="rap", horizons=(40,), d=8, seed=2, out_dir=str(tmp_path)
        )
        summary = run_experiment(config)
        written = emit_plots(_runs(summary), tmp_path / "plots")
        assert any(path.endswith("abs_f_resid.svg") for path in written)
        for path in written:
            text = Path(path).read_text()
            assert text.startswith("<svg")
            assert "http" not in text.replace("http://www.w3.org", "")

    @pytest.mark.parametrize("problem", ["rap", "hbg"])
    def test_svgs_from_columns_match_the_csv_round_trip(self, tmp_path, problem):
        config = ExperimentConfig(
            problem=problem, horizons=(25, 40), d=6, beta=0.6, seed=3,
            run_baselines=True, check_bounds=True, out_dir=str(tmp_path),
        )
        summary = run_experiment(config)
        runs = _runs(summary)
        # one more cell with a value below FLOOR, a zero, a negative value and a NaN
        probe = tmp_path / "probe.csv"
        runs.append(("probe", _write_csv(probe, {
            "iter": range(1, 8),
            "rel_err": [0.5, 1e-20, 0.0, -3.0, float("nan"), 2.5e-9, 1.0],
            "max_violation": [0.0, 0.0, 1e-17, 4e-3, 0.0, 1e-300, 0.0],
        })))
        round_trip = [
            (Path(path).stem, read_csv(path)) for path in [*summary["files"], probe]
        ]
        for (name, columns), (_, read_back) in zip(runs, round_trip, strict=True):
            assert list(columns) == list(read_back), name
            for column, values in columns.items():
                assert np.array_equal(values, read_back[column], equal_nan=True), (name, column)
        from_columns = emit_plots(runs, tmp_path / "columns")
        from_csv = emit_plots(round_trip, tmp_path / "csv")
        assert [Path(p).name for p in from_columns] == [Path(p).name for p in from_csv]
        for ours, oracle in zip(from_columns, from_csv):
            assert Path(ours).read_bytes() == Path(oracle).read_bytes(), ours

    def test_polyline_matches_per_point_scaling(self):
        series = [
            ("a", [1.0, 2.0, 3.0, 4.0, 5.0], [0.3, 1e-20, 0.0, -1.0, 7e-5]),
            ("b", [1.0, 2.0, 3.0, 4.0, 5.0], [2.0, float("nan"), 1e-16, 3e-17, 1e3]),
            ("c", [2.0, 4.0], [1e-7, 1e-8]),
        ]
        # x = 114 on 1..201 rounds the other way if _scale multiplies before it divides
        skewed = [("d", [1.0, 114.0, 201.0], [1.0, 0.5, 0.25])]
        for chart in (series, series[1:2], [("one", [7.0], [0.25])], skewed):
            svg = render_line_chart(chart, title="t", x_label="x", y_label="y")
            assert re.findall(r'<polyline points="([^"]*)"', svg) == _polyline_oracle(chart)

    def test_svg_is_replaced_whole_or_not_at_all(self, tmp_path, monkeypatch):
        config = ExperimentConfig(
            problem="hbg", horizons=(10,), d=4, beta=0.5, out_dir=str(tmp_path)
        )
        summary = run_experiment(config)
        plots = tmp_path / "plots"
        plots.mkdir()
        (plots / "gap.svg").write_text("old")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("cgm.harness.os.replace", fail)
        with pytest.raises(OSError, match="disk full"):
            emit_plots(_runs(summary), plots)
        assert (plots / "gap.svg").read_text() == "old"
        assert [p.name for p in plots.iterdir()] == ["gap.svg"]

    def test_read_csv_stops_at_certificate_section(self, tmp_path):
        config = ExperimentConfig(
            problem="hbg", horizons=(10,), d=5, beta=0.5, check_bounds=True,
            out_dir=str(tmp_path),
        )
        summary = run_experiment(config)
        columns = read_csv(summary["files"][0])
        assert len(columns["iter"]) == 10


class TestCli:
    def test_cli_run(self, tmp_path, capsys):
        code = cli_main(
            [
                "--problem", "rap", "--d", "8", "--iters", "10",
                "--out", str(tmp_path), "--check-bounds",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rap_cgm_constant_T10.csv" in out
        assert "bounds[min] pass" in out

    def test_cli_validation_error_exit_code(self, tmp_path, capsys):
        code = cli_main(["--problem", "hbg", "--beta", "2.0", "--iters", "10"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--problem", "hbg", "--d", "0"], "error: d: hbg requires d >= 1\n"),
        (["--problem", "rap", "--seed", "-1"], "error: seed: must be non-negative\n"),
    ], ids=["hbg_d0", "negative_seed"])
    def test_cli_invalid_d_or_seed_exit_code(self, tmp_path, capsys, argv, message):
        assert cli_main([*argv, "--iters", "10", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == message

    def test_cli_out_is_a_file(self, tmp_path, capsys, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("")

        def no_solve(*args, **kwargs):
            raise AssertionError("solver ran before the output directory was checked")

        monkeypatch.setattr("cgm.harness.hbg_instantiate", no_solve)
        argv = ["--problem", "hbg", "--d", "3", "--iters", "5", "--out", str(taken)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"error: out: {taken} is not a directory\n"
        assert taken.read_text() == ""

    def test_repeated_horizon_rejected(self, tmp_path, capsys):
        argv = ["--problem", "hbg", "--d", "3", "--baselines", "--iters", "10,10",
                "--out", str(tmp_path)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == "error: iters: horizon 10 repeated\n"
        assert list(tmp_path.iterdir()) == []

    def test_varying_schedule_certifies_a_single_step(self, tmp_path, capsys):
        # certify_min's varying-step record needs two iterates; at T=1 it is left out
        argv = ["--problem", "rap", "--schedule", "varying", "--check-bounds", "--iters", "1",
                "--out", str(tmp_path)]
        assert cli_main(argv) == 0
        assert "bounds[min] pass" in capsys.readouterr().out
        text = (tmp_path / "rap_cgm_varying_T1.csv").read_text()
        assert "\ncertificate,lhs,rhs,slack,pass\n" in text
        assert "feasibility_varying_step" not in text

    @pytest.mark.parametrize("iters, message", [
        ("1", "constant schedule needs T >= 2"),
        ("100,3", "T=3 violates T >= kappa*log(T) with kappa=4.49"),
    ], ids=["T1", "T3"])
    def test_bad_constant_horizon_rejected_before_any_solve(
            self, tmp_path, capsys, monkeypatch, iters, message):
        def no_reference(*args, **kwargs):
            raise AssertionError("reference solved before the horizons were checked")

        monkeypatch.setattr("cgm.harness.solve_rap_reference", no_reference)
        argv = ["--problem", "rap", "--d", "10", "--iters", iters, "--out", str(tmp_path)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"error: iters: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_failed_reference_exits_3_with_its_cause(self, tmp_path):
        # at d=2 seed 0 the optimum is degenerate and no polish certifies it
        package_root = str(Path(cgm.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        argv = ["--problem", "rap", "--d", "2", "--seed", "0", "--iters", "10",
                "--out", str(tmp_path)]
        out = subprocess.run(
            [sys.executable, "-m", "cgm.cli", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert out.returncode == 3
        cause = r"no active-set polish certified [^\n]*"
        assert re.fullmatch(f"error: reference: {cause}\n", out.stderr)
        assert out.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_uncertified_reference_exits_3_with_its_residual(
        self, tmp_path, capsys, caplog, monkeypatch
    ):
        # solve_rap_reference returns only a certified point: each polish whose
        # certificate fails is logged with its residual, and then the solve raises
        certificate = KktCertificate(3e-7, 0.0, 0.0, 0.0)
        monkeypatch.setattr("cgm.reference.kkt_residual", lambda data, x, pair: certificate)
        argv = ["--problem", "rap", "--d", "8", "--iters", "10", "--out", str(tmp_path)]
        with caplog.at_level("DEBUG", logger="cgm.reference"):
            assert cli_main(argv) == 3
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: reference: no active-set polish certified [^\n]*\n",
                            captured.err)
        assert "polish rejected (certificate residual 3.0e-07)" in caplog.text
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_failed_cell_exits_4_with_its_cause(self, tmp_path, capsys, monkeypatch):
        # exit 1 stays reserved for a failed certificate
        def blow_up(problem, config):
            raise RuntimeError("iteration 5: non-finite iterate")

        monkeypatch.setattr("cgm.harness.cgm_vi_run", blow_up)
        argv = ["--problem", "hbg", "--d", "3", "--iters", "10", "--out", str(tmp_path)]
        assert cli_main(argv) == 4
        captured = capsys.readouterr()
        assert captured.err == "error: cell 10 failed: iteration 5: non-finite iterate\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_console_script_installed(self):
        # the subprocess imports the same cgm package, installed or not
        package_root = str(Path(cgm.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "cgm.cli", "--help"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert out.returncode == 0
        assert "--check-bounds" in out.stdout
