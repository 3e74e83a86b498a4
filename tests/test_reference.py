"""Primal-dual reference solve: certificate quality, hard instances, failures."""

import logging
import re

import numpy as np
import pytest

from cgm.problems import rap_constraints, rap_generate
import cgm.reference
from cgm.reference import BarrierFailure, kkt_residual, solve_rap_reference


class TestSolve:
    def test_certificate_quality(self, rap_reference):
        cert = rap_reference["cert"]
        assert cert.stationarity_norm <= 1e-8
        assert cert.max_primal_violation <= 1e-8
        assert cert.max_complementarity <= 1e-8
        assert cert.equality_residual <= 1e-8
        assert cert.ok

    def test_objective_below_start(self, rap_problem, rap_reference):
        f0 = rap_problem.value_f(np.array(rap_problem.x0))
        assert rap_reference["f_star"] < f0

    def test_above_unconstrained_floor(self, rap_reference, rap_floor):
        assert rap_reference["f_star"] >= rap_floor

    def test_agrees_with_trust_constr(self, rap_reference, rap_trust_constr):
        assert abs(rap_trust_constr - rap_reference["f_star"]) <= 1e-7

    def test_smaller_instance(self):
        problem = rap_generate(8, seed=11)
        x, f_star, cert = solve_rap_reference(problem.data)
        assert cert.ok
        assert np.all(problem.constraints.values(x) <= 1e-10)

    @pytest.mark.parametrize(
        "d, seed", [(50, 214), (50, 221), (200, 9), (400, 0), (500, 0), (500, 42)]
    )
    def test_certifies_where_the_log_barrier_failed(self, d, seed):
        # the log-barrier solve this one replaced stalled in its last
        # central-path stages on the first three and raised BarrierFailure
        # before gap 1e-6 on the last three
        problem = rap_generate(d, seed=seed)
        x, _, cert = solve_rap_reference(problem.data)
        assert cert.ok
        assert np.all(problem.constraints.values(x) <= 1e-10)

    @pytest.mark.parametrize("d, seed", [(50, 295), (300, 0), (200, 19)])
    def test_certifies_where_the_polish_needs_a_small_gap(self, d, seed):
        # the first two certify only below gap 1e-9; at d=200 seed 19 a weakly
        # active bound defeats a primal-dual (x_i < z_i) active-set guess
        problem = rap_generate(d, seed=seed)
        x, _, cert = solve_rap_reference(problem.data)
        assert cert.ok
        assert np.all(problem.constraints.values(x) <= 1e-10)

    def test_no_certified_polish_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(cgm.reference, "_polish_active_set", lambda data, x: None)
        with pytest.raises(BarrierFailure, match="no active-set polish certified"):
            solve_rap_reference(rap_generate(8, seed=11).data)

    def test_rejected_polishes_are_logged(self, monkeypatch, caplog):
        monkeypatch.setattr(cgm.reference, "_polish_active_set", lambda data, x: None)
        with caplog.at_level(logging.DEBUG, logger="cgm.reference"):
            with pytest.raises(BarrierFailure) as failure:
                solve_rap_reference(rap_generate(8, seed=11).data)
        iterations = re.search(r"after (\d+) iterations", str(failure.value)).group(1)
        records = [r for r in caplog.records if r.name == "cgm.reference"]
        assert records and all(r.levelno == logging.DEBUG for r in records)
        messages = [r.getMessage() for r in records]
        assert all(m.endswith("polish rejected (polish returned None)") for m in messages)
        # the last rejection is at the iteration the failure names
        assert messages[-1].startswith(f"iteration {iterations}, mu ")

    def test_rejected_certificates_are_logged(self, monkeypatch, caplog):
        polish = cgm.reference._polish_active_set

        def shifted(data, x):
            # shift the equality multiplier so stationarity misses by 1e-6
            polished = polish(data, x)
            if polished is None:
                return None
            x_star, (lam, nu) = polished
            return x_star, (lam, nu + 1e-6)

        monkeypatch.setattr(cgm.reference, "_polish_active_set", shifted)
        with caplog.at_level(logging.DEBUG, logger="cgm.reference"):
            with pytest.raises(BarrierFailure):
                solve_rap_reference(rap_generate(8, seed=11).data)
        messages = [r.getMessage() for r in caplog.records if r.name == "cgm.reference"]
        assert any("polish rejected (certificate residual" in m for m in messages)

    def test_kkt_residual_rejects_bad_multiplier_shape(self, rap_problem):
        x = np.array(rap_problem.x0)
        with pytest.raises(ValueError):
            kkt_residual(rap_problem.data, x, (np.zeros(3), 0.0))


def test_rows_match_the_constraint_set():
    # the reference and CGM share one feasible set: the sum, budget and risk
    # rows are rows d, d + 2 and d + 3 of rap_constraints
    data = rap_generate(50, seed=3).data
    constraints = rap_constraints(data)
    rows = [50, 52, 53]
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.random(50) * rng.choice([1e-3, 1.0, 10.0])
        values, jac = cgm.reference._rows(data, x)
        expected = constraints.values(x)[rows]
        scale = np.array([np.sum(x) + 1.0, data.r @ x + data.Rmax, x @ data.E @ x + data.Emax])
        assert np.all(np.abs(values - expected) <= 1e-14 * scale)
        assert np.array_equal(jac, constraints.gradients(x, rows))
