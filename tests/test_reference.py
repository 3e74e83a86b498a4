"""Interior-point reference solve: start point and certificate quality."""

import numpy as np
import pytest

from cgm.problems import rap_generate
import cgm.reference
from cgm.reference import (
    BarrierFailure,
    StartInfeasible,
    _interior_start,
    kkt_residual,
    solve_rap_reference,
)


class TestInteriorStart:
    def test_strictly_feasible(self, rap_problem):
        data = rap_problem.data
        x = _interior_start(data)
        assert float(np.min(x)) > 0.0
        assert float(data.r @ x) < data.Rmax
        assert float(x @ data.E @ x) < data.Emax
        assert float(np.sum(x)) == pytest.approx(1.0)


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

    def test_barrier_paths_agree(self, rap_problem, rap_reference):
        _, f_alt, cert_alt = solve_rap_reference(
            rap_problem.data, barrier_decrease=5.0
        )
        assert cert_alt.ok
        assert abs(f_alt - rap_reference["f_star"]) <= 1e-7

    def test_smaller_instance(self):
        problem = rap_generate(8, seed=11)
        x, f_star, cert = solve_rap_reference(problem.data)
        assert cert.ok
        assert np.all(problem.constraints.values(x) <= 1e-10)

    @pytest.mark.parametrize("d, seed", [(50, 214), (50, 221), (200, 9)])
    def test_certifies_where_the_last_stages_stall(self, d, seed):
        # Newton fails in the last central-path stages here; the active set is
        # right well before them, so an earlier polish certifies
        problem = rap_generate(d, seed=seed)
        x, _, cert = solve_rap_reference(problem.data)
        assert cert.ok
        assert np.all(problem.constraints.values(x) <= 1e-10)

    def test_no_certified_polish_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(cgm.reference, "_polish_active_set", lambda data, x: None)
        with pytest.raises(BarrierFailure, match="no active-set polish certified"):
            solve_rap_reference(rap_generate(8, seed=11).data)

    def test_kkt_residual_rejects_bad_multiplier_shape(self, rap_problem):
        x = np.array(rap_problem.x0)
        with pytest.raises(ValueError):
            kkt_residual(rap_problem.data, x, (np.zeros(3), 0.0))
