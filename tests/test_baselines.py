"""Projection baselines: simplex projection, GDA and EG dynamics."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cgm.harness
from cgm.baselines import SimplexProjector, UnsupportedConstraintSet, _lockstep, gda_eg_run
from cgm.harness import GDA_ETA, ExperimentConfig, run_experiment
from cgm.problems import ROW_BLOCK, VIProblem, hbg_constraints, hbg_instantiate, rap_generate
from conftest import lockstep_iterates


def project_simplex(y):
    return SimplexProjector((y.size,))(y)  # the one-block case


def _equilibrium(problem):
    # the uniform point of both simplices, the bilinear game's equilibrium
    return np.full(problem.dim, 1.0 / (problem.dim // 2))


def _per_block_projection(x, block_sizes):
    # the per-block sort and threshold that SimplexProjector replaced, kept as its oracle
    out = np.empty_like(x)
    start = 0
    for size in block_sizes:
        y = x[start : start + size]
        u = np.sort(y)[::-1]
        css = np.cumsum(u)
        rho = np.nonzero(u > (css - 1.0) / np.arange(1.0, size + 1.0))[0][-1]
        tau = (css[rho] - 1.0) / (rho + 1.0)
        out[start : start + size] = np.maximum(y - tau, 0.0)
        start += size
    return out


def _per_block_run(problem, eta, T, extragradient, x_star=None):
    # GDA or EG through the per-block oracle, rel_err from np.linalg.norm per iterate
    if x_star is None:
        x_star = _equilibrium(problem)
    ref_norm = float(np.linalg.norm(x_star))

    def proj(y):
        return _per_block_projection(y, problem.simplex_blocks)

    xs, rel = [np.array(problem.x0, dtype=float)], []
    for _ in range(T):
        x = xs[-1]
        if extragradient:
            x = proj(x - eta * problem.op_F(proj(x - eta * problem.op_F(x))))
        else:
            x = proj(x - eta * problem.op_F(x))
        xs.append(x)
        rel.append(float(np.linalg.norm(x - x_star)) / ref_norm)
    return np.array(xs), np.array(rel)


def _assert_matches_per_block_runs(problem, etas, T, x_star):
    # every iterate of each method in the lockstep loop, and its trace, equal its
    # per-block loop run alone
    traces = gda_eg_run(problem, *etas, T, x_star)
    iterates = lockstep_iterates(problem, *etas, T)
    for method, (eta, trace) in enumerate(zip(etas, traces)):
        xs, rel = _per_block_run(problem, eta, T, extragradient=method == 1, x_star=x_star)
        assert np.array_equal(iterates[:, method], xs)
        assert np.array_equal(trace.x, xs[-1])
        assert np.array_equal(trace.rel_err, rel)
        assert trace.wall_s.shape == (T,)


def _simplex_oracle(y):
    # brute-force the KKT threshold by scanning supports of the largest entries
    n = y.size
    order = np.argsort(y)[::-1]
    best = None
    for k in range(1, n + 1):
        support = order[:k]
        tau = (np.sum(y[support]) - 1.0) / k
        x = np.maximum(y - tau, 0.0)
        if np.all(x[support] >= -1e-15) and abs(np.sum(x) - 1.0) <= 1e-9:
            cand = x
            if best is None or np.linalg.norm(cand - y) < np.linalg.norm(best - y):
                best = cand
    return best


class TestProjectSimplex:
    @settings(max_examples=150, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=1, max_value=12),
            elements=st.floats(min_value=-50, max_value=50),
        )
    )
    def test_simplex_projection_matches_oracle(self, y):
        x = project_simplex(y)
        oracle = _simplex_oracle(y)
        assert abs(float(np.sum(x)) - 1.0) <= 1e-9
        assert float(np.min(x)) >= 0.0
        np.testing.assert_allclose(x, oracle, atol=1e-9)

    def test_simplex_projection_idempotent_on_vertices(self):
        e = np.zeros(5)
        e[2] = 1.0
        np.testing.assert_allclose(project_simplex(e.copy()), e, atol=1e-12)

    def test_already_on_simplex(self):
        x = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_simplex(x), x, atol=1e-12)

    def test_uniform_shift_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(7)
        np.testing.assert_allclose(
            project_simplex(y), project_simplex(y + 3.7), atol=1e-10
        )

    def test_output_feasible(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = project_simplex(rng.standard_normal(9) * 10)
            assert float(np.min(x)) >= 0.0
            assert float(np.sum(x)) == pytest.approx(1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([np.inf, 0.0]))


class TestSimplexProjector:
    def test_blockwise_application(self):
        proj = SimplexProjector(block_sizes=(2, 3))
        rng = np.random.default_rng(2)
        x = rng.standard_normal(5)
        out = proj(x)
        np.testing.assert_allclose(out[:2], project_simplex(x[:2]))
        np.testing.assert_allclose(out[2:], project_simplex(x[2:]))

    @pytest.mark.parametrize("block_sizes", [(50, 50), (3, 3, 3), (2, 3), (1, 7, 4), (6, 1)])
    def test_matches_per_block_loop_bitwise(self, block_sizes):
        proj = SimplexProjector(block_sizes=block_sizes)
        rng = np.random.default_rng(len(block_sizes) + sum(block_sizes))
        n = sum(block_sizes)
        draws = [np.full(n, 0.3), np.zeros(n), np.arange(float(n))]
        draws += [np.eye(n)[i] * peak for i in range(n) for peak in (1.0, 0.5, 2.0, -1.0)]
        starts, sizes = np.cumsum((0, *block_sizes[:-1])), np.array(block_sizes)
        for slot in range(sizes.max()):  # a vertex of every block at once
            x = np.zeros(n)
            x[starts + np.minimum(slot, sizes - 1)] = 1.0
            draws.append(x)
        for scale in (0.01, 1.0, 30.0, 1e4):
            for _ in range(40):
                x = rng.standard_normal(n) * scale
                # rounding leaves exact ties within and across blocks
                draws += [x, np.round(x, 1), np.round(x)]
        for _ in range(40):
            # magnitudes from 1e-12 to 1e12 side by side
            draws.append(rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n))
        for x in draws:
            assert np.array_equal(proj(x), _per_block_projection(x, block_sizes))
            head = x[: block_sizes[0]]  # project_simplex is the one-block case
            oracle = _per_block_projection(head, block_sizes[:1])
            assert np.array_equal(project_simplex(head), oracle)

    def test_nonfinite_rejected(self):
        for block_sizes in ((2, 2), (1, 3)):
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="finite"):
                    SimplexProjector(block_sizes=block_sizes)(np.array([0.1, bad, 0.2, 0.3]))
                with pytest.raises(ValueError, match="finite"):
                    SimplexProjector(block_sizes=block_sizes)(np.array([1e200, bad, 0.2, 0.3]))

    def test_point_whose_squares_overflow_is_projected(self):
        # x . x overflows at 1e200, but every entry is finite
        x = np.array([[-1e200, 0.0, 0.3, 0.2], [0.5, -1e200, -1e200, 0.1]])
        out = SimplexProjector(block_sizes=(2, 2, 2, 2))(x)
        np.testing.assert_array_equal(out[:, :2], [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(out[1, 2:], [0.0, 1.0])
        for row in (0, 1):
            assert np.array_equal(out[row], _per_block_projection(x[row], (2, 2)))


@pytest.fixture(scope="module")
def problem():
    return hbg_instantiate(10, 0.8, seed=1)


class TestRuns:
    def test_gda_converges(self, problem):
        trace = gda_eg_run(problem, 0.005, 1.0 / problem.ell_F, 3000, _equilibrium(problem))[0]
        assert trace.rel_err[-1] < trace.rel_err[0]
        assert trace.rel_err[-1] < 0.05

    def test_eg_converges_fast(self, problem):
        trace = gda_eg_run(problem, 0.005, 1.0 / problem.ell_F, 1000, _equilibrium(problem))[1]
        assert trace.rel_err[-1] < 1e-4

    def test_iterates_stay_feasible(self, problem):
        d = problem.dim // 2
        xs = lockstep_iterates(problem, 0.005, 0.1, 100)
        for method in (0, 1):
            for x in xs[1:, method]:
                assert float(np.min(x)) >= -1e-12
                assert float(np.sum(x[:d])) == pytest.approx(1.0)
                assert float(np.sum(x[d:])) == pytest.approx(1.0)

    def test_trace_shapes(self, problem):
        for trace in gda_eg_run(problem, 0.005, 0.1, 25, _equilibrium(problem)):
            assert trace.x.shape == (problem.dim,)
            assert trace.rel_err.shape == (25,)
            assert trace.horizon == 25

    def test_custom_reference_point(self, problem):
        x_star = np.array(problem.x0)
        for trace in gda_eg_run(problem, 0.005, 0.1, 5, x_star):
            assert trace.rel_err[0] >= 0.0

    @pytest.mark.parametrize("d, beta, seed", [
        (50, 0.8, 0), (50, 0.8, 1), (50, 0.8, 2), (50, 0.8, 3), (10, 0.6, 0),
    ], ids=["0", "1", "2", "3", "d10-beta0.6"])
    def test_runs_match_per_block_loop_bitwise(self, d, beta, seed):
        # each method's iterates and trace in the lockstep loop equal its per-block loop alone
        problem = hbg_instantiate(d, beta, seed=seed)
        _assert_matches_per_block_runs(problem, (GDA_ETA, 1.0 / problem.ell_F), 1000,
                                       _equilibrium(problem))

    @pytest.mark.parametrize("T", [0, 1, 127, 128, 129, 257])
    def test_horizons_at_the_window_edges(self, T):
        # no step, short runs, a full window, one step past it, two windows and a step
        problem = hbg_instantiate(50, 0.8, seed=0)
        _assert_matches_per_block_runs(problem, (GDA_ETA, 1.0 / problem.ell_F), T,
                                       _equilibrium(problem))

    def test_lockstep_on_padded_blocks(self):
        # blocks (1, 3) doubled are (1, 3, 1, 3): the -inf padded layout on a stack
        weights, shift = np.array([1.5, 2.0, 3.0, 2.5]), np.array([0.3, -0.2, 0.7, 0.1])
        fake = VIProblem(
            op_F=lambda x: weights * x - shift,
            mu=1.5,
            ell_F=3.0,
            B=0.0,
            constraints=hbg_constraints(2),
            x0=np.array([1.0, 0.6, 0.3, 0.1]),
            diameter_D=2.0,
            dim=4,
            simplex_blocks=(1, 3),
        )
        _assert_matches_per_block_runs(fake, (0.05, 0.3), 200, np.array([1.0, 0.2, 0.5, 0.3]))

    def test_lockstep_wall_times(self, problem):
        gda, eg = gda_eg_run(problem, GDA_ETA, 1.0 / problem.ell_F, 300, _equilibrium(problem))
        for trace in (gda, eg):
            assert trace.wall_s.shape == (300,)
            assert (trace.wall_s >= 0.0).all()
        # EG's step is the shared half step plus its own full step
        assert (eg.wall_s >= gda.wall_s).all()

    def test_lockstep_blocks_are_views_of_one_window(self, problem):
        # every block is a view of one (ROW_BLOCK + 1, 2, n) buffer, whatever T is
        for T in (0, 1, 50, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 5):
            buffers, sizes = [], []
            for rows, stamps in _lockstep(problem, GDA_ETA, 1.0 / problem.ell_F, T):
                assert rows.base is not None and np.shares_memory(rows, rows.base)
                assert rows.base.shape == (ROW_BLOCK + 1, 2, problem.dim)
                assert rows.shape == (len(stamps) + 1, 2, problem.dim)
                buffers.append(rows.base)
                sizes.append(len(stamps))
            assert all(buffer is buffers[0] for buffer in buffers)
            # full blocks, then the remainder: T = 0 yields none
            assert sizes == [ROW_BLOCK] * (T // ROW_BLOCK) + [T % ROW_BLOCK] * (T % ROW_BLOCK > 0)

    def test_shorter_horizons_are_prefixes(self, problem):
        args = (GDA_ETA, 1.0 / problem.ell_F)
        short_xs, long_xs = (lockstep_iterates(problem, *args, T) for T in (300, 1000))
        assert np.array_equal(short_xs, long_xs[:301])
        runs = (gda_eg_run(problem, *args, T, _equilibrium(problem)) for T in (300, 1000))
        for method, (short, long) in enumerate(zip(*runs)):
            assert np.array_equal(short.x, long_xs[300, method])
            assert np.array_equal(short.rel_err, long.rel_err[:300])

    def test_experiment_runs_the_baselines_once(self, tmp_path, monkeypatch):
        calls = []

        def spy(problem, eta_gda, eta_eg, T, x_star):
            calls.append(T)
            return gda_eg_run(problem, eta_gda, eta_eg, T, x_star)

        monkeypatch.setattr(cgm.harness, "gda_eg_run", spy)
        config = ExperimentConfig(
            problem="hbg", horizons=(17, 40, 5), d=6, beta=0.6, seed=2, run_baselines=True,
            out_dir=str(tmp_path),
        )
        columns = run_experiment(config)["columns"]
        assert calls == [40]
        problem = hbg_instantiate(6, 0.6, seed=2)
        x_star = _equilibrium(problem)
        for horizon in (17, 40, 5):
            alone = gda_eg_run(problem, GDA_ETA, 1.0 / problem.ell_F, horizon, x_star)
            for label, trace in zip(("gda", "eg"), alone):
                cell = columns[str(tmp_path / f"hbg_{label}_T{horizon}.csv")]
                assert np.array_equal(cell["rel_err"], trace.rel_err)
                assert cell["wall_ms"].shape == (horizon,)

    @pytest.mark.parametrize("method", [0, 1], ids=["gda", "eg"])
    def test_rel_err_is_the_per_step_norm(self, problem, method):
        x_star = np.random.default_rng(4).dirichlet(np.ones(problem.dim))
        trace = gda_eg_run(problem, 0.05, 0.05, 200, x_star=x_star)[method]
        xs = lockstep_iterates(problem, 0.05, 0.05, 200)[1:, method]
        expected = [np.linalg.norm(x - x_star) / np.linalg.norm(x_star) for x in xs]
        assert np.array_equal(trace.rel_err, expected)

    def test_memory_is_bounded_by_the_window(self):
        # the run holds a ROW_BLOCK window of iterates, not its (T+1, 2, n) trajectory
        # (4.6 MiB here): it peaks below 1 MiB and keeps below 0.5 MiB
        problem = hbg_instantiate(50, 0.8, seed=0)
        x_star = _equilibrium(problem)
        gda_eg_run(problem, GDA_ETA, 1.0 / problem.ell_F, 5, x_star)  # warm the imports
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traces = gda_eg_run(problem, GDA_ETA, 1.0 / problem.ell_F, 3000, x_star)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traces[1].horizon == 3000
        assert peak - before < 2**20
        assert current - before < 2**19

    @pytest.mark.parametrize("x_star, match", [
        (np.full(20, np.nan), "finite"),
        (np.r_[np.inf, np.full(19, 0.1)], "finite"),
        (np.zeros(20), "nonzero"),
        (np.full(20, 1e200), "finite norm"),
        (np.full(19, 0.1), "shape"),
        (np.full((1, 20), 0.1), "shape"),
    ], ids=["nan", "inf", "zero", "norm-overflow", "short", "2-d"])
    def test_bad_x_star_rejected_before_any_step(self, problem, x_star, match):
        def no_step(x):
            raise AssertionError("op_F called")

        with pytest.raises(ValueError, match=match):
            gda_eg_run(replace(problem, op_F=no_step), 0.005, 0.1, 5, x_star)

    def test_non_simplex_problem_rejected(self):
        rap = rap_generate(6, seed=0)
        from cgm.problems import VIProblem

        fake = VIProblem(
            op_F=lambda x: x,
            mu=1.0,
            ell_F=1.0,
            B=0.0,
            constraints=rap.constraints,
            x0=np.array(rap.x0),
            diameter_D=1.0,
            dim=6,
            simplex_blocks=None,
        )
        with pytest.raises(UnsupportedConstraintSet):
            gda_eg_run(fake, 0.01, 0.01, 5, fake.x0)
