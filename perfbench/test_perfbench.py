"""Checks of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

The exact-repeat check runs every workload twice at a short horizon and
requires every count and the final error to be bit-identical, so later
changes may cite them as counts. The gate check runs one experiment of every
workload at its full horizon on instance seeds 0 and 42.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import tracer as tr  # noqa: E402

SHORT = {"rap-d50": 200, "hbg-d50": 200}
EXACT_UNITS = ("count", "rows", "ratio", "1")
TIMING = ("trace.",)


@pytest.fixture(scope="module")
def cli():
    return bench.import_cgm()


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_counts_and_final_error_repeat_exactly(name, cli):
    workload = dataclasses.replace(bench.WORKLOADS[name], horizon=SHORT[name], pool=2)
    runs = [bench.run(name, 42, 0, 1, workload) for _ in range(2)]
    for result, info, _ in runs:
        assert result["correct"], info["failures"]
    exact = [
        metric for metric, unit in bench.PER_LAYER.items()
        if unit in EXACT_UNITS and not metric.startswith(TIMING)
    ]
    first, second = (result["metrics"] for result, _, _ in runs)
    for metric in exact:
        assert first[metric]["value"] == second[metric]["value"], metric
    errors = [
        sorted((e["instance"], e["final_error"]) for e in detail["experiments"])
        for _, _, detail in runs
    ]
    assert errors[0] == errors[1]


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_gate_passes_on_seed(name, seed, cli):
    bench.OUT.mkdir(exist_ok=True)
    outcome = bench.experiment(cli, bench.WORKLOADS[name], seed, tr.Tracer(tr.LIGHT))
    assert outcome.error == ""
    assert outcome.final_error > 0


def test_gate_catches_a_failed_certificate(cli, monkeypatch):
    import cgm.metrics

    original = cgm.metrics._check

    def failing(name, lhs, rhs):
        record = original(name, lhs, rhs)
        return dataclasses.replace(record, passed=False)

    monkeypatch.setattr(cgm.metrics, "_check", failing)
    bench.OUT.mkdir(exist_ok=True)
    workload = dataclasses.replace(bench.WORKLOADS["rap-d50"], horizon=200)
    outcome = bench.experiment(cli, workload, 0, tr.Tracer(tr.LIGHT))
    assert outcome.error


def test_absent_function_is_reported(cli):
    tracer = tr.Tracer((("cgm.qp", "no_such_function"), ("cgm.qp", "kkt_residual_qp")))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["qp.no_such_function"]


# The barrier reference raises BarrierFailure at these seeds, outside the
# rap-d50 pool (seeds 0 .. pool-1). When the reference is fixed these pass,
# and the pool may grow.
@pytest.mark.xfail(strict=True, reason="barrier reference does not converge")
@pytest.mark.parametrize("seed", [214, 221])
def test_reference_outside_the_pool(seed, cli):
    import cgm

    problem = cgm.rap_generate(50, seed=seed)
    _, _, cert = cgm.solve_rap_reference(problem.data)
    assert cert.ok


def test_benchmark_json_matches_the_runner():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
