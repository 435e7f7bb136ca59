import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlessdoa import numerics as nx
from gridlessdoa.geometry import ArrayGeometry, coarray, structured_matrix, toeplitz_embed
from gridlessdoa.mlesolve import (
    BARRIER_START,
    _BarrierProblem,
    _center_start,
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
from gridlessdoa.sigmodel import SourceScene, manifold, scm, simulate

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
        # indefinite too; the centred start alone must restore feasibility
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
            _, hess = problem.grad_hess(x, mu, factors)
            want = _dense_barrier_hessian(
                positions, unpack_lags(x), problem.noise, problem.data, mu
            )
            assert np.abs(hess - want).max() <= 1e-10 * np.abs(want).max()

    def test_central_differences_of_value(self, rng):
        problem, x, factors = _barrier_problem(rng, (0, 1, 2, 3, 7, 11))
        mu = 1e-2
        grad, hess = problem.grad_hess(x, mu, factors)
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


class TestCenterStart:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        short_aperture_positions,
        st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
        st.floats(-8.0, 2.0).map(lambda e: 10.0**e),
        st.integers(0, 2**32 - 1),
    )
    def test_centred_start_is_feasible(self, positions, lag_scale, noise, seed):
        # any lag vector, Toeplitz-indefinite ones included, comes out strictly
        # feasible for both Cholesky factors the barrier needs
        rng = np.random.default_rng(seed)
        g = ArrayGeometry(positions)
        weights = SubproblemWeights(
            weight=random_psd(rng, g.m, load=0.1), noise_diag=np.full(g.m, noise),
            data_matrix=random_psd(rng, g.m, load=0.1), geometry=g,
        )
        x = lag_scale * rng.standard_normal(2 * coarray(g).aperture - 1)
        assert _BarrierProblem(weights).factor(_center_start(x, BARRIER_START)) is not None


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


class TestEmEstep:
    def test_empty_missing_set(self, rng):
        g = ArrayGeometry((0, 1, 2, 3, 7, 11))
        plan = CompletionPlan.from_geometry(g)
        assert plan.missing_idx == ()
        y = simulate(SourceScene.from_snr((0.1,), 10.0), g, 8, seed=1)
        np.testing.assert_allclose(em_estep(random_feasible_lags(rng, g), y, plan, 1.0, 10.0), scm(y))

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

    def test_lam_missing_default(self):
        assert MleConfig(lam=2.0).lam_missing == pytest.approx(2000.0)
        assert MleConfig(lam=2.0, lam_m=5.0).lam_missing == 5.0
