from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlessdoa import mlesolve
from gridlessdoa import numerics as nx
from gridlessdoa.experiments import parse_config, run_one_trial
from gridlessdoa.geometry import ArrayGeometry, coarray, structured_matrix, toeplitz_embed
from gridlessdoa.mlesolve import (
    _BarrierProblem,
    _Resume,
    CompletionPlan,
    MleConfig,
    SolverError,
    SubproblemWeights,
    em_estep,
    em_gridless,
    em_majorized_cost,
    ml_cost,
    ml_gradient,
    observed_majorized_cost,
    pack_lags,
    solve_subproblem,
    structcov_mle,
    subproblem_objective,
    unpack_lags,
)
from gridlessdoa.sigmodel import SnapshotMatrix, SourceScene, manifold, scm, simulate

GEOMETRIES = {
    "ula4": ArrayGeometry.ula(4),
    "nested": ArrayGeometry((0, 1, 2, 3, 7, 11)),
    "nula": ArrayGeometry((0, 1, 5, 6, 10, 11)),
}


def random_feasible_lags(rng, g, scale=0.15):
    """A lag vector with strictly PD Toeplitz embedding."""
    ap = coarray(g).aperture
    x = scale * rng.standard_normal(2 * ap - 1)
    x[0] = 2.0 + abs(x[0])
    return unpack_lags(x)


def random_psd(rng, n, load=0.0):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return b @ b.conj().T + load * np.eye(n)


class TestMlCost:
    def test_identity_fit_near_zero_noise(self):
        g = ArrayGeometry.ula(5)
        v = np.zeros(5, dtype=complex)
        v[0] = 1.0
        assert abs(ml_cost(v, 1e-12, np.eye(5), g) - 5.0) < 1e-9

    def test_zero_model_unit_noise(self):
        g = ArrayGeometry.ula(5)
        assert abs(ml_cost(np.zeros(5, dtype=complex), 1.0, np.eye(5), g) - 5.0) < 1e-12

    def test_scalar_formula(self):
        g = ArrayGeometry((0,))
        for a, lam, r in [(0.5, 0.1, 2.0), (3.0, 1.0, 0.4)]:
            got = ml_cost(np.array([a], dtype=complex), lam, np.array([[r]]), g)
            assert abs(got - (np.log(a + lam) + r / (a + lam))) < 1e-12

    def test_rejects_infeasible(self):
        g = ArrayGeometry.ula(3)
        v = np.array([1.0, 0.0, 2.0], dtype=complex)  # Toeplitz indefinite
        with pytest.raises(SolverError):
            ml_cost(v, 0.5, np.eye(3), g)


class TestMlGradient:
    def test_scalar_stationary_point(self):
        g = ArrayGeometry((0,))
        r, lam = 2.0, 0.5
        grad = ml_gradient(np.array([r - lam], dtype=complex), lam, np.array([[r]]), g)
        assert abs(grad[0]) < 1e-12

    def test_zero_at_exact_model(self, rng):
        g = ArrayGeometry((0, 1, 4))
        v = random_feasible_lags(rng, g)
        lam = 0.3
        r = structured_matrix(v, g) + lam * np.eye(3)
        assert np.abs(ml_gradient(v, lam, r, g)).max() < 1e-10

    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_finite_difference_agreement(self, name, rng):
        g = GEOMETRIES[name]
        lam = 0.6
        for _ in range(5):
            v = random_feasible_lags(rng, g)
            r = random_psd(rng, g.m, load=0.1)
            grad = ml_gradient(v, lam, r, g)
            x = pack_lags(v)
            fd = np.empty_like(grad)
            h = 1e-5
            for i in range(x.size):
                xp = x.copy()
                xp[i] += h
                xm = x.copy()
                xm[i] -= h
                fd[i] = (ml_cost(unpack_lags(xp), lam, r, g) - ml_cost(unpack_lags(xm), lam, r, g)) / (2 * h)
            rel = np.abs(fd - grad) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() < 1e-5


class TestSolveSubproblem:
    def test_scalar_closed_form(self):
        g = ArrayGeometry((0,))
        for w, r, lam in [(1.0, 4.0, 0.5), (2.0, 0.1, 1.0), (0.5, 9.0, 0.2)]:
            weights = SubproblemWeights(
                weight=np.array([[w]], dtype=complex),
                noise_diag=np.array([lam]),
                data_matrix=np.array([[r]], dtype=complex),
                geometry=g,
            )
            v = solve_subproblem(weights, np.array([1.0 + 0j]), MleConfig(lam=lam))
            assert v[0].real == pytest.approx(max(0.0, np.sqrt(r / w) - lam), abs=1e-7)

    def test_identity_fit(self):
        # weight from the unit start against identity data: the unit vector
        # region is already optimal, the model reproduces the identity
        g = ArrayGeometry.ula(4)
        lam = 1e-3
        e1 = np.zeros(4, dtype=complex)
        e1[0] = 1.0
        w = nx.inv_pd(structured_matrix(e1, g) + lam * np.eye(4))
        weights = SubproblemWeights(
            weight=w, noise_diag=np.full(4, lam), data_matrix=np.eye(4, dtype=complex), geometry=g
        )
        v = solve_subproblem(weights, e1, MleConfig(lam=lam))
        assert np.linalg.norm(structured_matrix(v, g) + lam * np.eye(4) - np.eye(4)) < 5e-3
        assert np.abs(v[1:]).max() < 1e-3

    def test_never_worse_than_start(self, rng):
        g = ArrayGeometry((0, 1, 3))
        for _ in range(10):
            weights = SubproblemWeights(
                weight=random_psd(rng, 3, load=0.05),
                noise_diag=np.full(3, 0.4),
                data_matrix=random_psd(rng, 3, load=0.05),
                geometry=g,
            )
            start = random_feasible_lags(rng, g)
            v = solve_subproblem(weights, start, MleConfig(lam=0.4))
            assert subproblem_objective(weights, v) <= subproblem_objective(weights, start) + 1e-10

    def test_first_order_optimality(self, rng):
        # gradient of the smooth objective at the solution, projected onto
        # feasible directions, is tiny for an interior optimum
        g = ArrayGeometry((0, 1))
        weights = SubproblemWeights(
            weight=np.eye(2, dtype=complex) / 1.1,
            noise_diag=np.full(2, 0.1),
            data_matrix=toeplitz_embed(np.array([2.0, 1.0])) + 0.1 * np.eye(2),
            geometry=g,
        )
        v = solve_subproblem(weights, np.array([1.0, 0.0], dtype=complex), MleConfig(lam=0.1))
        x = pack_lags(v)
        h = 1e-6
        grad = np.empty(3)
        for i in range(3):
            xp = x.copy()
            xp[i] += h
            xm = x.copy()
            xm[i] -= h
            grad[i] = (
                subproblem_objective(weights, unpack_lags(xp))
                - subproblem_objective(weights, unpack_lags(xm))
            ) / (2 * h)
        cost = subproblem_objective(weights, v)
        assert np.linalg.norm(grad) <= 1e-5 * (1.0 + abs(cost))

    def test_toeplitz_indefinite_start(self, rng):
        # Toep([1, 0, 2]) has eigenvalues -1, 1, 3, and T(v) + 0.4 I is
        # indefinite too; the path starts at the unit lag vector whatever
        # the start, and an infeasible start is never returned
        g = ArrayGeometry.ula(3)
        lam = 0.4
        r = random_psd(rng, 3, load=0.1)
        start = np.array([1.0, 0.0, 2.0], dtype=complex)
        weights = SubproblemWeights(
            weight=random_psd(rng, 3, load=0.05), noise_diag=np.full(3, lam),
            data_matrix=r, geometry=g,
        )
        v = solve_subproblem(weights, start, MleConfig(lam=lam))
        assert np.isfinite(ml_cost(v, lam, r, g))


def _dense_lag_basis(positions):
    """Images T(e_a) of the real unit vectors of pack_lags, (2A-1, n, n)."""
    p = np.asarray(positions)
    n = p.size
    lag = np.abs(p[:, None] - p[None, :])
    conj_mask = p[:, None] > p[None, :]
    i, j = np.indices((n, n))
    out = np.zeros((2 * (p[-1] + 1) - 1, n, n), dtype=np.complex128)
    out[np.maximum(2 * lag - 1, 0), i, j] = 1.0
    off = lag > 0
    out[2 * lag[off], i[off], j[off]] = np.where(conj_mask[off], -1j, 1j)
    return out


def _dense_barrier_hessian(positions, v, noise, data, mu):
    """Newton Hessian of the barrier subproblem by dense products over the
    lag basis: tr(B_a P B_b G) + tr(B_b P B_a G) + mu tr(C_a Ti C_b Ti)."""
    basis = _dense_lag_basis(positions)
    toep_basis = _dense_lag_basis(tuple(range(positions[-1] + 1)))
    nb = basis.shape[0]
    p = np.linalg.inv(structured_matrix(v, ArrayGeometry(positions)) + np.diag(noise))
    g2 = p @ data @ p
    tinv = np.linalg.inv(toeplitz_embed(v))
    z = np.matmul(np.matmul(p[None], basis), g2[None])
    term = z.transpose(0, 2, 1).reshape(nb, -1) @ basis.reshape(nb, -1).T
    q = np.matmul(tinv[None], toep_basis)
    h_barrier = q.reshape(nb, -1) @ q.transpose(0, 2, 1).reshape(nb, -1).T
    return np.real(term + term.T) + mu * np.real(h_barrier)


def _barrier_problem(rng, positions, data_scale=1.0):
    g = ArrayGeometry(positions)
    v = random_feasible_lags(rng, g)
    v[0] = 0.5 + 2.0 * np.abs(v[1:]).sum()  # diagonally dominant Toeplitz embedding
    weights = SubproblemWeights(
        weight=random_psd(rng, g.m, load=0.1),
        noise_diag=0.2 + rng.random(g.m),
        data_matrix=data_scale * random_psd(rng, g.m, load=0.1),
        geometry=g,
    )
    problem = _BarrierProblem(weights)
    x = pack_lags(v)
    return problem, x, problem.factor(x)


short_aperture_positions = st.sets(st.integers(1, 15), max_size=8).map(
    lambda rest: (0,) + tuple(sorted(rest))
)


class TestBarrierNewtonSystem:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        short_aperture_positions,
        st.floats(-10.0, 0.0).map(lambda e: 10.0**e),
        st.integers(0, 2**32 - 1),
    )
    def test_hessian_matches_dense_lag_basis(self, positions, mu, seed):
        # zero data isolates the barrier block, which small mu would hide
        for data_scale in (1.0, 0.0):
            problem, x, factors = _barrier_problem(
                np.random.default_rng(seed), positions, data_scale
            )
            hess = problem.grad_hess(x, mu, factors)[1]
            want = _dense_barrier_hessian(
                positions, unpack_lags(x), problem.noise.diagonal(), problem.data, mu
            )
            assert np.abs(hess - want).max() <= 1e-10 * np.abs(want).max()

    def test_central_differences_of_value(self, rng):
        problem, x, factors = _barrier_problem(rng, (0, 1, 2, 3, 7, 11))
        mu = 1e-2
        grad, hess, _ = problem.grad_hess(x, mu, factors)
        h = 1e-5
        fd_grad = np.empty_like(grad)
        fd_hess = np.empty_like(hess)
        for i in range(x.size):
            xp = x.copy()
            xp[i] += h
            xm = x.copy()
            xm[i] -= h
            fp, fm = problem.factor(xp), problem.factor(xm)
            fd_grad[i] = (problem.value(xp, mu, fp)[1] - problem.value(xm, mu, fm)[1]) / (2 * h)
            fd_hess[:, i] = (
                problem.grad_hess(xp, mu, fp)[0] - problem.grad_hess(xm, mu, fm)[0]
            ) / (2 * h)
        assert np.abs(fd_grad - grad).max() <= 1e-7 * np.abs(grad).max()
        assert np.abs(fd_hess - hess).max() <= 1e-7 * np.abs(hess).max()


class TestBarrierFactor:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        short_aperture_positions,
        st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
        st.floats(-7.0, 0.0).map(lambda e: 10.0**e),
        st.sampled_from([-1.0, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_none_exactly_off_the_toeplitz_cone(self, positions, lag_scale, margin, side, seed):
        # the zero lag shifts Toep's spectrum exactly, so the point lands a
        # relative distance ``margin`` inside (side +1) or outside (side -1)
        # the PSD cone; Sigma = T(v) + D is PD whenever Toep(v) is
        rng = np.random.default_rng(seed)
        g = ArrayGeometry(positions)
        weights = SubproblemWeights(
            weight=random_psd(rng, g.m, load=0.1), noise_diag=0.2 + rng.random(g.m),
            data_matrix=random_psd(rng, g.m, load=0.1), geometry=g,
        )
        x = lag_scale * rng.standard_normal(2 * coarray(g).aperture - 1)
        eig = np.linalg.eigvalsh(toeplitz_embed(unpack_lags(x)))
        x[0] += side * margin * max(np.abs(eig).max(), lag_scale) - eig[0]
        least = np.linalg.eigvalsh(toeplitz_embed(unpack_lags(x)))[0]
        assert np.sign(least) == side
        factors = _BarrierProblem(weights).factor(x)
        assert (factors is None) == (least <= 0)
        if factors is not None:
            p, low_t = factors
            v = unpack_lags(x)
            want = np.linalg.inv(structured_matrix(v, g) + np.diag(weights.noise_diag))
            assert np.abs(p - want).max() <= 1e-12 * np.abs(want).max()
            np.testing.assert_allclose(low_t @ low_t.conj().T, toeplitz_embed(v), atol=1e-12 * np.abs(v).max())

    def test_p_is_the_inverse_of_sigma(self, rng):
        positions = (0, 1, 2, 3, 7, 11)
        problem, x, (p, _) = _barrier_problem(rng, positions)
        sigma = structured_matrix(unpack_lags(x), ArrayGeometry(positions)) + problem.noise
        want = nx.inv_pd(sigma)
        assert np.abs(p - want).max() <= 1e-12 * np.abs(want).max()

    def test_negative_zero_lag_is_infeasible(self, rng):
        problem, x, _ = _barrier_problem(rng, (0, 1, 2, 3, 7, 11))
        x[0] = -x[0]
        assert problem.factor(x) is None

    def test_nan_is_an_error_not_an_infeasible_point(self, rng):
        # a NaN candidate must not be backtracked away as merely infeasible
        problem, x, _ = _barrier_problem(rng, (0, 1, 2, 3, 7, 11))
        x[3] = np.nan
        with pytest.raises(nx.NumericsError) as exc:
            problem.factor(x)
        assert not isinstance(exc.value, nx.NotPositiveDefiniteError)


class TestSolveSubproblemResult:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        short_aperture_positions,
        st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
        st.integers(0, 2**32 - 1),
    )
    def test_result_passes_factor(self, positions, lag_scale, seed):
        # the MM loop starts each solve at the last result, under new weights
        # and data but the same geometry and noise; that start is returned
        # whenever the path ends higher, which is safe only if it passes factor()
        rng = np.random.default_rng(seed)
        g = ArrayGeometry(positions)
        noise = 0.2 + rng.random(g.m)

        def weights():
            return SubproblemWeights(
                weight=random_psd(rng, g.m, load=0.1), noise_diag=noise,
                data_matrix=random_psd(rng, g.m, load=0.1), geometry=g,
            )

        start = unpack_lags(lag_scale * rng.standard_normal(2 * coarray(g).aperture - 1))
        v = solve_subproblem(weights(), start, MleConfig())
        assert _BarrierProblem(weights()).factor(pack_lags(v)) is not None


class TestResumedSolve:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        short_aperture_positions,
        st.floats(-3.0, -1.0).map(lambda e: 10.0**e),
        st.integers(0, 2**32 - 1),
    )
    def test_resumed_solve_matches_cold_solve(self, positions, shift, seed):
        # the second of two MM-like solves: same geometry and noise, weights
        # and data moved by a relative ``shift``; resuming from the first
        # solve's first-stage point reaches the objective of the cold solve,
        # whose path starts at the unit lag vector.  The first subproblem's
        # minimizer is a drawn v* with v*_0 >= 2 (data S W S, S = T(v*) + D,
        # so W = P R P at v*), far enough from the unit start that its first
        # stage moves even under the loose centring of BARRIER_STAGES
        rng = np.random.default_rng(seed)
        g = ArrayGeometry(positions)
        noise = 0.2 + rng.random(g.m)
        weight = random_psd(rng, g.m, load=0.1)
        sigma = structured_matrix(random_feasible_lags(rng, g), g) + np.diag(noise)
        data = sigma @ weight @ sigma

        def weights(w, r):
            return SubproblemWeights(weight=w, noise_diag=noise, data_matrix=r, geometry=g)

        unit = pack_lags(mlesolve._unit_lags(g))
        resume = _Resume(unit)
        start = random_feasible_lags(rng, g)
        v1 = solve_subproblem(weights(weight, data), start, MleConfig(), resume)
        assert not np.array_equal(resume.x, unit)
        second = weights(
            weight + shift * random_psd(rng, g.m), data + shift * random_psd(rng, g.m)
        )
        cold = subproblem_objective(second, solve_subproblem(second, v1, MleConfig()))
        warm = subproblem_objective(second, solve_subproblem(second, v1, MleConfig(), resume))
        assert abs(warm - cold) <= 1e-7 * abs(cold)
        f_start = subproblem_objective(second, v1)
        assert warm <= f_start + 1e-12 * abs(f_start)


class TestNewtonWork:
    @pytest.mark.parametrize("name", ["fig_resolution", "fig_nula_em"])
    def test_newton_steps_per_solve(self, name):
        # trial 0 of the bundled config; cold-starting every solve takes 64.3
        # and 52.5 steps per solve here on a 10x mu schedule, 54.6 and 40.2
        # on the 100x one; the carried first stage gives 47.4 and 35.0, the
        # tangent start of each later stage 32.0 and 22.4, stages ended on
        # their Newton decrement on a 10x table 19.4 and 19.7, MM/EM solves
        # ended at mu <= 1e-6 on the gap bound 15.0 and 15.2, and stages
        # centred to lambda^2 <= 1/4 with the gap stop from mu <= 1e-4 9.5
        # and 9.77
        budget = {"fig_resolution": 12.0, "fig_nula_em": 12.0}[name]
        cfg = parse_config((resources.files("gridlessdoa") / "configs" / f"{name}.cfg").read_text())
        records = run_one_trial(cfg, 0, 0)["results"]
        steps = sum(rec["newton_steps"] for rec in records.values())
        assert steps / (cfg.solver_iter * len(records)) <= budget
        assert all(rec["newton_cap_hits"] == 0 for rec in records.values())

    def test_counts_are_output_only(self):
        g = ArrayGeometry((0, 1, 5, 6, 10, 11))
        y = simulate(SourceScene.from_snr((-0.5, 0.0, 0.5), 15.0), g, 100, seed=13)
        fresh = MleConfig(lam=1.0, outer_iters=4)
        used = MleConfig(lam=1.0, outer_iters=4)
        used.newton.steps, used.newton.fallbacks = 10**6, 10**6
        r = scm(y)
        np.testing.assert_array_equal(structcov_mle(r, g, fresh), structcov_mle(r, g, used))
        assert fresh.newton.steps > 0 and used.newton.steps == 10**6 + fresh.newton.steps


class TestStagePredictor:
    @staticmethod
    def weights(rng, g):
        return SubproblemWeights(
            weight=random_psd(rng, g.m, load=0.05),
            noise_diag=np.full(g.m, 0.4),
            data_matrix=random_psd(rng, g.m, load=0.05),
            geometry=g,
        )

    @staticmethod
    def record_stages(monkeypatch):
        """Record (start x, end x) of every barrier stage; ``busy[0]`` is True
        while a stage runs."""
        stages, busy = [], [False]
        stage = mlesolve._newton_stage

        def recorded(problem, x, factors, mu, tol, work):
            busy[0] = True
            try:
                out = stage(problem, x, factors, mu, tol, work)
            finally:
                busy[0] = False
            stages.append((x, out[0]))
            return out

        monkeypatch.setattr(mlesolve, "_newton_stage", recorded)
        return stages, busy

    def test_tangent_start_saves_newton_steps(self, monkeypatch):
        # over random solves on two geometries, the tangent hand-off takes at
        # least a quarter fewer Newton steps than starting each later stage
        # where the last one ended, and the tangent with its sign flipped
        # saves none
        predict = mlesolve._predict
        hand_offs = {
            "tangent": predict,
            "none": lambda problem, x, factors, *_: (x, factors),
            "flipped": lambda problem, x, factors, tangent, dmu, work: predict(
                problem, x, factors, tangent, -dmu, work
            ),
        }
        steps = {}
        for name, hand_off in hand_offs.items():
            monkeypatch.setattr(mlesolve, "_predict", hand_off)
            rng = np.random.default_rng(5)
            cfg = MleConfig(lam=0.4)
            for g in 15 * [ArrayGeometry((0, 1, 5, 6, 10, 11)), ArrayGeometry((0, 1, 3))]:
                solve_subproblem(self.weights(rng, g), random_feasible_lags(rng, g), cfg)
            assert cfg.newton.cap_hits == cfg.newton.line_search_failures == 0
            steps[name] = cfg.newton.steps
        assert steps["tangent"] <= 0.75 * steps["none"] <= 0.75 * steps["flipped"]

    def test_centred_start_makes_no_trial_point(self, monkeypatch, rng):
        # a stage rerun from its own end point passes the decrement test at
        # once: one Newton step, and no line-search factor call
        g = ArrayGeometry((0, 1, 5, 6, 10, 11))
        problem = _BarrierProblem(self.weights(rng, g))
        x = pack_lags(random_feasible_lags(rng, g))
        mu, tol = mlesolve.BARRIER_STAGES[0]
        work = mlesolve.NewtonWork()
        x, factors, tangent, failed = mlesolve._newton_stage(problem, x, problem.factor(x), mu, tol, work)
        assert tangent.shape == x.shape and not failed and work.steps > 1
        calls = []
        factor = mlesolve._BarrierProblem.factor
        monkeypatch.setattr(
            mlesolve._BarrierProblem, "factor", lambda self, x: calls.append(x) or factor(self, x)
        )
        rerun = mlesolve.NewtonWork()
        again = mlesolve._newton_stage(problem, x, factors, mu, tol, rerun)
        np.testing.assert_array_equal(again[0], x)
        assert calls == [] and rerun.steps == 1

    def test_infeasible_prediction_keeps_the_stage_end(self, monkeypatch, rng):
        # factor refuses every point tried between stages, so each later stage
        # starts where the previous one ended and every hand-off is a miss
        stages, busy = self.record_stages(monkeypatch)
        factor = mlesolve._BarrierProblem.factor
        monkeypatch.setattr(
            mlesolve._BarrierProblem, "factor",
            lambda self, x: None if stages and not busy[0] else factor(self, x),
        )
        g = ArrayGeometry((0, 1, 3))
        weights, start = self.weights(rng, g), random_feasible_lags(rng, g)
        cfg = MleConfig(lam=0.4)
        v = solve_subproblem(weights, start, cfg)
        n = len(mlesolve.BARRIER_STAGES)
        assert len(stages) == n and cfg.newton.predictor_misses == n - 1
        for (_, prev_end), (next_start, _) in zip(stages, stages[1:]):
            np.testing.assert_array_equal(next_start, prev_end)
        assert subproblem_objective(weights, v) <= subproblem_objective(weights, start)


class TestFactorizations:
    def test_every_cholesky_in_a_solve_is_a_trial_point(self, monkeypatch, rng):
        # perfbench's solve_subproblem.factorizations counts the chol_factor
        # calls made inside each solve: each one is a barrier trial point
        # (_BarrierProblem.factor), none a Newton Hessian
        counts, inside = [], [False]
        solve = mlesolve.solve_subproblem

        def counted_solve(*args):
            counts.append([0, 0])
            inside[0] = True
            try:
                return solve(*args)
            finally:
                inside[0] = False

        def counted(fn, i):
            def wrapper(*args):
                if inside[0]:
                    counts[-1][i] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(mlesolve, "solve_subproblem", counted_solve)
        monkeypatch.setattr(nx, "chol_factor", counted(nx.chol_factor, 0))
        monkeypatch.setattr(_BarrierProblem, "factor", counted(_BarrierProblem.factor, 1))
        g = ArrayGeometry((0, 1, 5, 6, 10, 11))
        weights = TestStagePredictor.weights(rng, g)
        mlesolve.solve_subproblem(weights, random_feasible_lags(rng, g), MleConfig(lam=0.4))
        y = simulate(SourceScene.from_snr((-0.6, -0.1, 0.4), 15.0), g, 60, seed=21)
        structcov_mle(scm(y), g, MleConfig(lam=1.0, outer_iters=3))
        assert len(counts) == 4
        assert all(chol == factor > 0 for chol, factor in counts), counts


class TestSolveDirection:
    @staticmethod
    def solve(hess, grad, neg_grad_phi):
        work = mlesolve.NewtonWork()
        step, tangent = mlesolve._solve_direction(hess, grad, neg_grad_phi, work)
        return step, tangent, work.fallbacks

    @staticmethod
    def symmetric(eigenvalues, rng):
        q = np.linalg.qr(rng.standard_normal((len(eigenvalues),) * 2))[0]
        return (q * eigenvalues) @ q.T, q

    def assert_falls_back_and_descends(self, hess, grad, neg_grad_phi):
        step, tangent, fallbacks = self.solve(hess, grad, neg_grad_phi)
        assert fallbacks == 1
        assert np.isfinite(step).all() and np.isfinite(tangent).all()
        assert float(grad @ step) < 0

    def test_positive_definite_takes_the_real_solve(self, rng):
        hess, _ = self.symmetric(np.array([0.5, 1.0, 2.0, 4.0, 8.0]), rng)
        grad, neg_grad_phi = rng.standard_normal((2, 5))
        step, tangent, fallbacks = self.solve(hess, grad, neg_grad_phi)
        want = np.linalg.solve(hess, np.column_stack((grad, neg_grad_phi)))
        np.testing.assert_allclose(step, -want[:, 0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(tangent, -want[:, 1], rtol=1e-12, atol=0)
        assert fallbacks == 0

    def test_ascending_step_falls_back(self, rng):
        # the gradient lies along the negative curvature, so the solved step
        # -H^-1 grad ascends
        hess, q = self.symmetric(np.array([-1.0, 1.0, 2.0, 3.0, 4.0]), rng)
        grad = q[:, 0] + 1e-3 * q[:, 1]
        assert float(grad @ np.linalg.solve(hess, grad)) < 0
        self.assert_falls_back_and_descends(hess, grad, rng.standard_normal(5))

    def test_singular_solve_falls_back(self, rng):
        hess = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(hess, np.ones(3))
        self.assert_falls_back_and_descends(hess, *rng.standard_normal((2, 3)))


class TestLineSearchFailure:
    def test_failure_is_counted_and_ends_the_path(self, monkeypatch, rng):
        # factor refuses every point tried inside the third stage, so its
        # first line search fails: the path ends where that stage started,
        # and the result is the better of that point and the start
        stages, busy = TestStagePredictor.record_stages(monkeypatch)
        factor = mlesolve._BarrierProblem.factor
        monkeypatch.setattr(
            mlesolve._BarrierProblem, "factor",
            lambda self, x: None if busy[0] and len(stages) == 2 else factor(self, x),
        )
        g = ArrayGeometry((0, 1, 3))
        weights, start = TestStagePredictor.weights(rng, g), random_feasible_lags(rng, g)
        cfg = MleConfig(lam=0.4)
        v = solve_subproblem(weights, start, cfg)
        assert len(stages) == 3 and cfg.newton.line_search_failures == 1
        end = stages[-1][1]
        np.testing.assert_array_equal(end, stages[-1][0])
        assert any(np.array_equal(v, w) for w in (start, unpack_lags(end)))
        assert subproblem_objective(weights, v) <= subproblem_objective(weights, start)


class TestCarriedStart:
    def test_standalone_solve_starts_at_the_unit_lags(self, rng):
        # a standalone solve walks the path of an MM/EM run's first solve
        g = ArrayGeometry((0, 1, 5, 6, 10, 11))
        weights = TestStagePredictor.weights(rng, g)
        unit = np.zeros(coarray(g).aperture, dtype=complex)
        unit[0] = 1.0
        standalone, resumed = MleConfig(lam=0.4), MleConfig(lam=0.4)
        want = solve_subproblem(weights, unit, standalone)
        got = solve_subproblem(weights, unit, resumed, _Resume(pack_lags(unit)))
        np.testing.assert_array_equal(got, want)
        assert resumed.newton == standalone.newton and standalone.newton.steps > 0

    def test_runs_in_one_process_match_a_single_run(self):
        # the first-stage point is carried within one MM/EM run only
        g = ArrayGeometry((0, 1, 5, 6, 10, 11))
        plan = CompletionPlan.from_geometry(g)
        y = simulate(SourceScene.from_snr((-0.6, -0.1, 0.4), 15.0), g, 60, seed=21)

        def mle():
            return structcov_mle(scm(y), g, MleConfig(lam=1.0, outer_iters=6))

        single = mle()
        np.testing.assert_array_equal(mle(), single)
        em_gridless(y, g, plan, MleConfig(lam=1.0, outer_iters=6))
        np.testing.assert_array_equal(mle(), single)


class TestGapStop:
    @staticmethod
    def config(name):
        return parse_config((resources.files("gridlessdoa") / "configs" / f"{name}.cfg").read_text())

    def test_run_ends_on_full_solves(self, monkeypatch):
        # fig_snr trial 0: the early solves stop on the gap bound, and once
        # the decrease falls below it every solve runs the full table, the
        # run's last among them
        stopped = []
        solve = mlesolve.solve_subproblem

        def recorded(*args):
            before = args[2].newton.gap_stops
            out = solve(*args)
            stopped.append(args[2].newton.gap_stops > before)
            return out

        monkeypatch.setattr(mlesolve, "solve_subproblem", recorded)
        cfg = self.config("fig_snr")
        run_one_trial(cfg, 0, 0)
        assert len(stopped) == cfg.solver_iter and stopped[0] and not stopped[-1]
        assert stopped == sorted(stopped, reverse=True)

    @pytest.mark.parametrize("name", ["fig_snr", "fig_correlation"])
    def test_estimates_match_full_solves(self, monkeypatch, name):
        # trial 0 at every sweep value; with the rule off (no stage is at or
        # below a floor of 0) every solve walks the full table
        cfg = self.config(name)
        for axis_index in range(len(cfg.sweep_values)):
            early = run_one_trial(cfg, axis_index, 0)["results"]["structcovmle"]
            with monkeypatch.context() as patch:
                patch.setattr(mlesolve, "GAP_STOP_MU", 0.0)
                full = run_one_trial(cfg, axis_index, 0)["results"]["structcovmle"]
            assert early["newton_gap_stops"] > 0 and full["newton_gap_stops"] == 0
            np.testing.assert_allclose(early["u_hat"], full["u_hat"], rtol=0, atol=1e-8)

    def test_only_an_mm_resume_stops_early(self, rng):
        # the same solve stops on the gap bound when its _Resume asks for it,
        # and walks the full table standalone or with a bare _Resume
        g = ArrayGeometry((0, 1, 5, 6, 10, 11))
        weights, start = TestStagePredictor.weights(rng, g), random_feasible_lags(rng, g)
        unit = pack_lags(mlesolve._unit_lags(g))
        work = {}
        for name, resume in [("standalone", None), ("bare", _Resume(unit)), ("mm", _Resume(unit, True))]:
            cfg = MleConfig(lam=0.4)
            solve_subproblem(weights, start, cfg, resume)
            work[name] = cfg.newton
        assert work["standalone"] == work["bare"] and work["bare"].gap_stops == 0
        assert work["mm"].gap_stops == 1 and work["mm"].steps < work["bare"].steps


class TestStructcovMle:
    def test_identity_data(self):
        g = ArrayGeometry.ula(4)
        # the MM fixed point is approached linearly (rate ~1/2), so reaching
        # 1e-6 takes ~25 outer iterations
        for lam in (0.3, 0.9):
            costs: list[float] = []
            cfg = MleConfig(lam=lam, outer_iters=25, callback=lambda k, v, c: costs.append(c))
            v = structcov_mle(np.eye(4, dtype=complex), g, cfg)
            assert v[0].real == pytest.approx(1.0 - lam, abs=1e-6)
            assert np.abs(v[1:]).max() < 1e-6
            assert costs[-1] == pytest.approx(4.0, abs=1e-6)

    def test_exact_single_source_fit(self):
        # data already in the model class is reproduced; the recovered lags
        # carry the +j pi m u phase progression of the upper-triangle
        # structured-matrix convention
        g = ArrayGeometry.ula(6)
        lam, p, u = 0.01, 5.0, 0.3
        phi = manifold(u, g)
        r = p * np.outer(phi, phi.conj()) + lam * np.eye(6)
        v = structcov_mle(r, g, MleConfig(lam=lam, outer_iters=30))
        fit = structured_matrix(v, g) + lam * np.eye(6)
        assert np.linalg.norm(fit - r) <= 1e-6 * np.linalg.norm(r)
        expect = p * np.exp(1j * np.pi * np.arange(6) * u)
        np.testing.assert_allclose(v, expect, atol=1e-5)

    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_monotone_descent_and_feasibility(self, name):
        g = GEOMETRIES[name]
        scene = SourceScene.from_snr((-0.62, -0.11, 0.48), 15.0)
        iterates: list[np.ndarray] = []
        costs: list[float] = []

        def record(_k, v, c):
            iterates.append(v)
            costs.append(c)

        for trial in range(3):
            iterates.clear()
            costs.clear()
            y = simulate(scene, g, 30, seed=1234, trial=trial)
            structcov_mle(scm(y), g, MleConfig(lam=1.0, outer_iters=12, callback=record))
            assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))
            for v in iterates:
                eig = nx.herm_eig(toeplitz_embed(v))
                assert eig.values[0] >= -1e-8 * max(abs(v[0]), 1.0)


class TestRandomRuns:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        short_aperture_positions,
        st.integers(1, 12),
        st.floats(-1.0, 2.0).map(lambda e: 10.0**e),
        st.floats(-1.0, 0.5).map(lambda e: 10.0**e),
        st.integers(0, 2**32 - 1),
    )
    def test_iterates_feasible_and_descending(self, positions, snapshots, power, lam, seed):
        # MM and EM runs on random on-grid geometries and random SCMs: every
        # iterate passes ml_cost's feasibility check and the ML cost never rises
        rng = np.random.default_rng(seed)
        g = ArrayGeometry(positions)
        shape = (g.m, snapshots)
        y = SnapshotMatrix(np.sqrt(power) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
        runs = (
            lambda cfg: structcov_mle(scm(y), g, cfg),
            lambda cfg: em_gridless(y, g, CompletionPlan.from_geometry(g), cfg),
        )
        for run in runs:
            costs: list[float] = []

            def record(_k, v, cost):
                mlesolve._check_toeplitz_feasible(v)
                costs.append(cost)

            run(MleConfig(lam=lam, outer_iters=4, callback=record))
            assert len(costs) == 5
            assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(costs, costs[1:]))


class TestEmEstep:
    def test_empty_missing_set(self, rng):
        g = ArrayGeometry((0, 1, 2, 3, 7, 11))
        plan = CompletionPlan.from_geometry(g)
        assert plan.missing_idx == ()
        y = simulate(SourceScene.from_snr((0.1,), 10.0), g, 8, seed=1)
        np.testing.assert_allclose(em_estep(random_feasible_lags(rng, g), y, plan, 1.0, 10.0), scm(y))

    def test_empty_missing_set_is_exactly_hermitian(self, rng):
        # the raw SCM is Hermitian only to rounding; structcov_mle fits its
        # Hermitian part, and so must the empty-plan E-step
        g = ArrayGeometry((0, 1, 2, 3, 7, 11))
        plan = CompletionPlan.from_geometry(g)
        y = simulate(SourceScene.from_snr((-0.4, 0.1), 10.0), g, 8, seed=1)
        rt = em_estep(random_feasible_lags(rng, g), y, plan, 1.0, 10.0)
        assert np.array_equal(rt, rt.conj().T)

    def test_zero_cross_lags_block_diagonal(self):
        g = ArrayGeometry((0, 1, 5, 6, 10, 11))
        plan = CompletionPlan.from_geometry(g)
        y = simulate(SourceScene.from_snr((0.1,), 10.0), g, 16, seed=6)
        ap = coarray(plan.complete_geometry).aperture
        v = np.zeros(ap, dtype=complex)
        v[0] = 3.0  # only the zero lag: all cross covariances vanish
        rt = em_estep(v, y, plan, 1.0, 2.0)
        o, m = list(plan.observed_idx), list(plan.missing_idx)
        np.testing.assert_allclose(rt[np.ix_(o, m)], 0.0, atol=1e-14)
        np.testing.assert_allclose(
            rt[np.ix_(m, m)], (3.0 + 2.0) * np.eye(plan.n_missing), atol=1e-12
        )

    def test_hermitian_psd(self, rng):
        g = ArrayGeometry((0, 1, 5, 6, 10, 11))
        plan = CompletionPlan.from_geometry(g)
        y = simulate(SourceScene.from_snr((-0.4, 0.3), 10.0), g, 32, seed=8)
        for _ in range(5):
            v = random_feasible_lags(rng, plan.complete_geometry)
            rt = em_estep(v, y, plan, 0.7, 70.0)
            assert np.linalg.norm(rt - rt.conj().T) <= 1e-12 * np.linalg.norm(rt)
            assert nx.herm_eig(rt).values[0] >= -1e-10 * np.linalg.norm(rt)


class TestEmGridless:
    def test_reduces_to_structcov_with_no_missing(self):
        g = ArrayGeometry((0, 1, 2, 3, 7, 11))
        plan = CompletionPlan.from_geometry(g)
        scene = SourceScene.from_snr(tuple(np.linspace(-0.875, 0.875, 8)), 20.0)
        y = simulate(scene, g, 4, seed=2)
        traj_a: list[np.ndarray] = []
        traj_b: list[np.ndarray] = []
        structcov_mle(
            scm(y), g, MleConfig(lam=1.0, outer_iters=5, callback=lambda k, v, c: traj_a.append(v))
        )
        em_gridless(
            y, g, plan, MleConfig(lam=1.0, outer_iters=5, callback=lambda k, v, c: traj_b.append(v))
        )
        diff = max(np.abs(a - b).max() for a, b in zip(traj_a, traj_b))
        assert diff <= 1e-8

    def test_limit_matches_observed_majorization(self, rng):
        # with a huge latent noise the EM majorized cost collapses to the
        # observed-only majorized cost plus the number of latent sensors
        g = ArrayGeometry((0, 1, 5, 6, 10, 11))
        plan = CompletionPlan.from_geometry(g)
        scene = SourceScene.from_snr((-0.7, -0.2, 0.3, 0.8), 15.0)
        y = simulate(scene, g, 64, seed=77)
        lam_o = 1.0
        lam_m = 1e6 * lam_o
        v_ref = random_feasible_lags(rng, plan.complete_geometry)
        r_tilde = em_estep(v_ref, y, plan, lam_o, lam_m)
        for _ in range(3):
            v = random_feasible_lags(rng, plan.complete_geometry)
            em_val = em_majorized_cost(v, v_ref, r_tilde, plan, lam_o, lam_m)
            obs_val = observed_majorized_cost(v, v_ref, scm(y), g, lam_o) + plan.n_missing
            assert abs(em_val - obs_val) / abs(obs_val) < 1e-3

    def test_observed_cost_monotone(self):
        g = ArrayGeometry((0, 1, 5, 6, 10, 11))
        plan = CompletionPlan.from_geometry(g)
        scene = SourceScene.from_snr((-0.5, 0.0, 0.5), 15.0)
        y = simulate(scene, g, 100, seed=13)
        costs: list[float] = []
        em_gridless(
            y,
            g,
            plan,
            MleConfig(lam=1.0, lam_m=1e3, outer_iters=10, callback=lambda k, v, c: costs.append(c)),
        )
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_finite_latent_noise_interpolates_holes(self):
        # paired seeds on the holey array with more sources than sensors.
        # A finite latent noise pulls the hole lags toward their conditional
        # estimates given the data (the recovered vectors differ from the
        # infinite-noise run at the hole lags), and the resulting DoA
        # accuracy matches the infinite-noise run, whose hole lags come from
        # the solver's centered (maximum-entropy flavored) completion.
        from gridlessdoa.estimate import root_music

        g = ArrayGeometry((0, 1, 5, 6, 10, 11))
        plan = CompletionPlan.from_geometry(g)
        theta = np.linspace(-60, 60, 7)
        scene = SourceScene.from_snr(tuple(np.sin(np.deg2rad(theta))), 20.0)
        truth = np.array(scene.u)
        holes = list(coarray(g).holes)
        sq = {1e3: [], 1e8: []}
        hole_gap = 0.0
        for trial in range(10):
            y = simulate(scene, g, 200, seed=4242, trial=trial)
            recovered = {}
            for lam_m in (1e3, 1e8):
                v = em_gridless(y, g, plan, MleConfig(lam=1.0, lam_m=lam_m, outer_iters=15))
                recovered[lam_m] = v
                est = root_music(toeplitz_embed(v), 7)
                sq[lam_m].append(np.mean((est.u - truth) ** 2))
            diff = np.abs(recovered[1e3][holes] - recovered[1e8][holes])
            hole_gap = max(hole_gap, float(diff.max() / max(abs(recovered[1e3][0]), 1.0)))
        rmse_fin = float(np.sqrt(np.mean(sq[1e3])))
        rmse_inf = float(np.sqrt(np.mean(sq[1e8])))
        assert hole_gap > 1e-4  # the data genuinely moves the hole lags
        assert rmse_fin <= 1.1 * rmse_inf

    @pytest.mark.parametrize("trial", [0, 1])
    @pytest.mark.parametrize(
        "u, snr_db, n_snap",
        [
            ((-0.6, -0.2, 0.1, 0.4, 0.75), 0.0, 200),
            ((-0.6, -0.2, 0.1, 0.4, 0.75), 20.0, 10),
            ((-0.3, 0.2, 0.26), 10.0, 200),
        ],
    )
    def test_reaches_the_structcov_ml_point(self, u, snr_db, n_snap, trial):
        # EM's observed marginal T_oo(v) + lam I holds no lam_m, so an EM fixed
        # point is a stationary point of the observed likelihood: lam_m sets
        # how fast EM gets there, not where (Dempster, Laird & Rubin 1977)
        g = ArrayGeometry((0, 1, 5, 6, 10, 11))
        plan = CompletionPlan.from_geometry(g)
        y = simulate(SourceScene.from_snr(u, snr_db), g, n_snap, seed=7, trial=trial)
        r = scm(y)
        v_mm = structcov_mle(r, g, MleConfig(lam=1.0, outer_iters=100))
        v_em = em_gridless(y, g, plan, MleConfig(lam=1.0, lam_m=1000.0, outer_iters=100))
        cost_mm, cost_em = ml_cost(v_mm, 1.0, r, g), ml_cost(v_em, 1.0, r, g)
        assert abs(cost_em - cost_mm) <= 1e-8 * abs(cost_mm)

    def test_plan_validation(self):
        g = ArrayGeometry((0, 1, 5, 6, 10, 11))
        with pytest.raises(SolverError):
            CompletionPlan(
                complete_geometry=ArrayGeometry((0, 1, 2)), observed_idx=(0, 1), missing_idx=(1, 2)
            )
        plan = CompletionPlan.from_geometry(g)
        assert sorted(plan.observed_idx + plan.missing_idx) == list(
            range(plan.complete_geometry.m)
        )
        # observed indices point back at the physical sensors
        pos = plan.complete_geometry.grid_positions()
        assert tuple(pos[i] for i in plan.observed_idx) == g.grid_positions()


class TestMleConfig:
    def test_validation(self):
        with pytest.raises(SolverError):
            MleConfig(lam=0.0)
        with pytest.raises(SolverError):
            MleConfig(lam=1.0, outer_iters=0)
        with pytest.raises(SolverError):
            MleConfig(lam=1.0, lam_m=-1.0)
        # nan <= 0 is false: a NaN or inf variance must not wait for the
        # run's first Cholesky to fail
        for bad in (np.nan, np.inf):
            with pytest.raises(SolverError, match="lam must be positive and finite"):
                MleConfig(lam=bad)
            with pytest.raises(SolverError, match="lam_m must be positive and finite"):
                MleConfig(lam=1.0, lam_m=bad)

    def test_lam_missing_default(self):
        assert MleConfig(lam=2.0).lam_missing == pytest.approx(2000.0)
        assert MleConfig(lam=2.0, lam_m=5.0).lam_missing == 5.0
