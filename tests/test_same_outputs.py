"""The output comparison script: its CSV normalisation drops wall_ms and nothing else."""

import importlib.util
from pathlib import Path

from cgm.harness import ExperimentConfig, run_experiment

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "same_outputs.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_drop_column_keeps_every_other_column_and_the_certificates(tmp_path):
    drop_column = _load_script().drop_column
    config = ExperimentConfig(problem="hbg", horizons=(20,), d=3, run_baselines=True,
                              check_bounds=True, out_dir=str(tmp_path))
    summary = run_experiment(config)
    for path in summary["files"]:
        text = Path(path).read_text()
        lines = text.split("\n")
        header = lines[0].split(",")
        column = header.index("wall_ms")
        dropped = drop_column(text).split("\n")
        assert len(dropped) == len(lines)
        rows = 21  # the header and one row per iteration
        for line, kept in zip(lines[:rows], dropped[:rows]):
            fields = line.split(",")
            assert kept.split(",") == fields[:column] + fields[column + 1:]
        assert dropped[rows:] == lines[rows:]
        if path in summary["reports"]:
            assert dropped[rows].startswith("certificate,") and len(dropped) > rows + 5
    no_timing = "a,b\n1,2\n"
    assert drop_column(no_timing) == no_timing
