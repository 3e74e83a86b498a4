"""The output comparison script: its CSV normalisation drops wall_ms and nothing else,
and its trace check also reads the QP results the traces drop."""

import importlib.util
import shutil
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


def test_trace_check_reads_the_qp_results_the_trace_drops(tmp_path):
    # a tree whose projections report other iteration counts and duals, with the
    # same iterates, differs from this one in the two QP digests and nowhere else
    script = _load_script()
    script.TRACES = [("hbg", 3, "vi", [0], 50), ("rap", 5, "varying", [0], 50)]
    changed = tmp_path / "src"
    shutil.copytree(script.ROOT / "src" / "cgm", changed / "cgm",
                    ignore=shutil.ignore_patterns("__pycache__"))
    qp = changed / "cgm" / "qp.py"
    text = qp.read_text()
    for old, new in (('"dual", iteration,', '"dual", iteration + 1,'),
                     ("v=v, dual=dual,", "v=v, dual=dual * (1.0 + 2.0**-52),")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    qp.write_text(text)
    differences = script.compare_traces(script.ROOT / "src", changed)
    labels = ["hbg d=3 vi seed=0 T=50", "rap d=5 varying seed=0 T=50"]
    assert differences == [f"trace {label}: {name} differs"
                           for label in labels for name in ("qp_dual", "qp_iterations")]
