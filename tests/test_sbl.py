import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlessdoa import numerics as nx
from gridlessdoa.geometry import ArrayGeometry
from gridlessdoa.sbl import (
    SblError,
    SblState,
    covariance,
    outer_products,
    qs_columns,
    sbl_cost,
    sbl_run,
    top_peaks,
)
from gridlessdoa.sigmodel import SnapshotMatrix, SourceScene, manifold, scm, simulate


def make_state(g, grid, gamma, lam):
    return SblState.initialize(g, np.asarray(grid), lam).with_gamma(np.asarray(gamma, float))


def q_s(state, r):
    """``q`` and ``s`` of every grid point from ``qs_columns`` on the
    outer products of the state's dictionary."""
    cinv = nx.inv_from_factor(nx.chol_factor(state.model_covariance()))
    return qs_columns(outer_products(state.dictionary), cinv, r)


def reference_run(g, grid, y, lam, max_iters, tol, cost_trace):
    """``sbl_run`` as a per-iteration loop over validated states: a new
    ``SblState`` per trial and its cost from ``sbl_cost``.  Each trial is
    ``gamma q / s`` of the last accepted state; the run stops at that state
    when a trial raises the cost, or when a trial lowers the cost by less
    than ``tol`` times the decrease since the start."""
    r = scm(y)
    state = trial = SblState.initialize(g, grid, lam)
    cost, start = np.inf, None
    for it in range(1, max_iters + 1):
        trial_cost = sbl_cost(trial, r)
        if trial_cost > cost:
            cost_trace.append(cost)
            return state, it, False
        drop, state, cost = cost - trial_cost, trial, trial_cost
        start = cost if start is None else start
        cost_trace.append(cost)
        if drop < tol * (start - cost):
            return state, it, False
        q, s = q_s(state, r)
        trial = state.with_gamma(state.gamma * q / s)
    return state, max_iters, True


on_grid_positions = st.sets(st.integers(1, 11), max_size=5).map(
    lambda rest: (0,) + tuple(sorted(rest))
)
off_grid_positions = st.lists(st.floats(0.3, 3.0), max_size=5).map(
    lambda steps: (0.0,) + tuple(np.cumsum(steps).tolist())
)
random_problems = st.tuples(
    st.one_of(on_grid_positions, off_grid_positions),
    st.integers(5, 80),                              # grid size
    st.integers(1, 60),                              # snapshots
    st.floats(-1.3, 0.7).map(lambda e: 10.0**e),     # lam
    st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=3, unique=True).map(sorted),
    st.floats(-5.0, 20.0),                           # SNR in dB
    st.integers(0, 2**32 - 1),
)


# Few sensors, a handful of grid points, tiny lam and loud snapshots: the
# model covariance is ill-conditioned enough that rounding in the cost can
# make a fixed-point step appear to raise it, which ends the run.
ill_conditioned_problems = st.tuples(
    st.lists(st.floats(0.3, 3.0), min_size=1, max_size=4),  # sensor gaps
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=7),  # grid
    st.floats(-5.0, 1.0).map(lambda e: 10.0**e),             # lam
    st.integers(1, 5),                                       # snapshots
    st.floats(0.0, 3.0).map(lambda e: 10.0**e),              # amplitude
    st.integers(0, 2**32 - 1),
)


def draw_problem(problem):
    positions, grid_size, n_snap, lam, u, snr_db, seed = problem
    g = ArrayGeometry(positions)
    grid = -1.0 + 2.0 * np.arange(grid_size) / grid_size
    y = simulate(SourceScene.from_snr(tuple(u), snr_db), g, n_snap, seed=seed)
    return g, grid, y, lam


outer_product_problems = st.tuples(
    off_grid_positions,
    st.lists(st.floats(-1.0, 0.999), min_size=1, max_size=40),  # grid
    st.floats(-1.3, 0.7).map(lambda e: 10.0**e),                 # lam
    st.integers(1, 8),                                           # snapshots
    st.integers(0, 2**32 - 1),
)


class TestOuterProductKernel:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(outer_product_problems)
    def test_matches_the_dense_formulas(self, problem):
        positions, grid, lam, n_snap, seed = problem
        g = ArrayGeometry(positions)
        rng = np.random.default_rng(seed)
        phi = manifold(np.array(grid), g)
        gamma = rng.uniform(0.0, 3.0, len(grid))
        psi = outer_products(phi)
        c = covariance(psi, gamma, lam)
        dense = (phi * gamma) @ phi.conj().T + lam * np.eye(g.m)
        assert np.abs(c - dense).max() <= 1e-12 * np.abs(dense).max()
        x = rng.standard_normal((g.m, n_snap)) + 1j * rng.standard_normal((g.m, n_snap))
        r = x @ x.conj().T / n_snap
        cinv = np.linalg.inv(dense)
        a = cinv @ phi
        q_ref = np.einsum("mg,mg->g", a.conj(), r @ a).real
        s_ref = np.einsum("mg,mg->g", phi.conj(), a).real
        q, s = qs_columns(psi, cinv, r)
        np.testing.assert_allclose(q, q_ref, rtol=1e-12, atol=1e-12 * np.abs(q_ref).max())
        np.testing.assert_allclose(s, s_ref, rtol=1e-12, atol=0)


class TestSblCost:
    def test_zero_gamma_unit_noise(self):
        g = ArrayGeometry.ula(4)
        state = make_state(g, np.linspace(-1, 0.9, 12), np.zeros(12), 1.0)
        assert abs(sbl_cost(state, np.eye(4)) - 4.0) < 1e-12

    def test_zero_gamma_scaled_noise(self, rng):
        g = ArrayGeometry.ula(5)
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        r = b @ b.conj().T
        for c in (0.3, 2.0):
            state = make_state(g, np.linspace(-1, 0.9, 8), np.zeros(8), c)
            expect = 5 * np.log(c) + np.trace(r).real / c
            assert abs(sbl_cost(state, r) - expect) < 1e-10 * max(1, abs(expect))

    def test_duplicate_column_invariance(self, rng):
        # the cost depends on gamma only through Phi Gamma Phi^H, so moving
        # mass between duplicated grid points changes nothing
        g = ArrayGeometry((0, 1, 4))
        base = np.linspace(-1, 0.9, 10)
        grid = np.concatenate([[0.37, 0.37], base])
        for _ in range(100):
            r = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            r = r @ r.conj().T
            rest = rng.uniform(0, 2, 10)
            a, b = rng.uniform(0, 3, 2)
            c1 = sbl_cost(make_state(g, grid, np.concatenate([[a, b], rest]), 0.5), r)
            c2 = sbl_cost(make_state(g, grid, np.concatenate([[b, a], rest]), 0.5), r)
            assert abs(c1 - c2) <= 1e-12 * max(1.0, abs(c1))


class TestSblRun:
    def test_noiseless_on_grid_source(self):
        g = ArrayGeometry.ula(5)
        grid = np.linspace(-1, 1, 41)[:-1]  # contains -0.5 exactly
        scene = SourceScene((-0.5,), (4.0,), noise_var=1e-12)
        y = simulate(scene, g, 50, seed=2)
        state = sbl_run(g, grid, y, lam=1e-6, max_iters=300, tol=1e-8)
        assert grid[int(np.argmax(state.gamma))] == pytest.approx(-0.5, abs=1e-12)

    def test_zero_snapshots_drive_gamma_down(self):
        # with no signal q = 0, so the fixed-point step gamma q / s reaches
        # the zero fixed point in one step
        g = ArrayGeometry.ula(4)
        grid = np.linspace(-1, 0.9, 12)
        y = SnapshotMatrix(data=np.zeros((4, 3), dtype=complex))
        run = sbl_run(g, grid, y, lam=1.0, max_iters=200)
        assert np.all(run.gamma == 0.0)
        assert not run.capped and run.iters < 200

    def test_cost_monotone(self):
        g = ArrayGeometry((0, 1, 2, 3, 7, 11))
        grid = np.linspace(-1, 1, 101)[:-1]
        scene = SourceScene.from_snr((-0.42, 0.13), 10.0)
        y = simulate(scene, g, 64, seed=9)
        costs: list[float] = []
        sbl_run(g, grid, y, lam=1.0, max_iters=150, tol=0.0, cost_trace=costs)
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_fixed_point_recovers_power(self):
        # single on-grid source at high snapshot count: gamma peak ~ power
        g = ArrayGeometry.ula(6)
        grid = np.linspace(-1, 1, 41)[:-1]
        scene = SourceScene((0.2,), (5.0,), noise_var=1.0)
        y = simulate(scene, g, 10_000, seed=21)
        state = sbl_run(g, grid, y, lam=1.0, max_iters=2000, tol=1e-9)
        peak = int(np.argmax(state.gamma))
        assert grid[peak] == pytest.approx(0.2, abs=1e-12)
        assert abs(state.gamma[peak] - 5.0) / 5.0 < 0.05

    def test_nested_three_sources_many_trials(self):
        # acceptance-style oracle: top-3 peaks land on the true grid indices
        # in at least 95% of 50 seeded trials
        g = ArrayGeometry((0, 1, 2, 3, 7, 11))
        grid = np.linspace(-1, 1, 201)[:-1]
        scene = SourceScene.from_snr((-0.1, 0.0, 0.1), 20.0)
        true_idx = {np.flatnonzero(np.isclose(grid, u))[0] for u in scene.u}
        hits = 0
        for trial in range(50):
            y = simulate(scene, g, 500, seed=314, trial=trial)
            state = sbl_run(g, grid, y, lam=1.0, max_iters=800, tol=1e-6)
            if set(top_peaks(state.grid, state.gamma, 3)) == true_idx:
                hits += 1
        assert hits >= 48  # 96%

    def test_reports_iterations_and_cap(self):
        g = ArrayGeometry.ula(4)
        grid = np.linspace(-1, 0.9, 12)
        y = SnapshotMatrix(data=np.zeros((4, 3), dtype=complex))
        capped = sbl_run(g, grid, y, lam=1.0, max_iters=7, tol=0.0)
        assert (capped.iters, capped.capped) == (7, True)
        # one iteration is one factorization: the first evaluates the start,
        # and the drop at the second is below an infinite tolerance
        done = sbl_run(g, grid, y, lam=1.0, max_iters=7, tol=np.inf)
        assert (done.iters, done.capped) == (2, False)
        np.testing.assert_array_equal(
            done.gamma, sbl_run(g, grid, y, lam=1.0, max_iters=2, tol=0.0).gamma
        )

    def test_one_factorization_per_iteration(self, monkeypatch):
        # the benchmark counts SBL iterations as chol_factor calls; the third
        # factorization here is of a blown-up covariance, so its trial's cost
        # rises and the run ends there
        g = ArrayGeometry((0, 1, 2, 3, 7, 11))
        grid = np.linspace(-1, 1, 101)[:-1]
        y = simulate(SourceScene.from_snr((-0.42, 0.13), 10.0), g, 64, seed=9)
        real = nx.chol_factor

        def count_calls(blow_up_call):
            calls: list[np.ndarray] = []

            def chol(a):
                calls.append(a)
                return real(1e6 * a if len(calls) == blow_up_call else a)

            monkeypatch.setattr(nx, "chol_factor", chol)
            return calls

        calls = count_calls(None)
        capped = sbl_run(g, grid, y, lam=1.0, max_iters=25, tol=0.0)
        assert capped.capped and len(calls) == capped.iters == 25
        calls = count_calls(3)
        costs: list[float] = []
        run = sbl_run(g, grid, y, lam=1.0, max_iters=1000, cost_trace=costs)
        assert costs[2] == costs[1]  # the rise is not accepted
        assert (run.iters, run.capped) == (3, False) and len(calls) == len(costs) == 3

    def test_unfactorable_trial_ends_the_run(self, monkeypatch):
        # a trial covariance that rounding leaves not positive definite ends
        # the run like a rise: the last accepted gamma comes back
        g = ArrayGeometry((0, 1, 2, 3, 7, 11))
        grid = np.linspace(-1, 1, 101)[:-1]
        y = simulate(SourceScene.from_snr((-0.42, 0.13), 10.0), g, 64, seed=9)
        real = nx.chol_factor
        calls: list[np.ndarray] = []

        def chol(a):
            calls.append(a)
            if len(calls) == 3:
                raise nx.NotPositiveDefiniteError("matrix not positive definite")
            return real(a)

        monkeypatch.setattr(nx, "chol_factor", chol)
        costs: list[float] = []
        run = sbl_run(g, grid, y, lam=1.0, max_iters=1000, cost_trace=costs)
        assert (run.iters, run.capped) == (3, False) and len(calls) == len(costs) == 3
        assert costs[2] == costs[1]
        monkeypatch.setattr(nx, "chol_factor", real)
        np.testing.assert_array_equal(run.gamma, sbl_run(g, grid, y, lam=1.0, max_iters=2, tol=0.0).gamma)
        assert sbl_cost(run, scm(y)) == costs[-1]

    def test_converged_run_is_stationary(self):
        # a stationary point of the SBL cost has q_i = s_i where gamma_i > 0
        # and q_i <= s_i where gamma_i = 0
        g = ArrayGeometry((0, 1, 2, 3, 7, 11))
        grid = -1.0 + 2.0 * np.arange(100) / 100
        y = simulate(SourceScene.from_snr((-0.42, 0.13), 10.0), g, 64, seed=9)
        state = sbl_run(g, grid, y, lam=1.0, max_iters=5000, tol=1e-6)
        assert not state.capped
        q, s = q_s(state, scm(y))
        active = state.gamma > 1e-3 * state.gamma.max()
        assert np.abs(q[active] / s[active] - 1.0).max() < 1e-4
        assert (q / s).max() < 1.03

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(random_problems, st.sampled_from([0.0, 1e-6, 1e-2]))
    def test_keeps_the_reference_trajectory(self, problem, tol):
        g, grid, y, lam = draw_problem(problem)
        want_costs: list[float] = []
        want, iters, capped = reference_run(g, grid, y, lam, 150, tol, want_costs)
        costs: list[float] = []
        got = sbl_run(g, grid, y, lam, max_iters=150, tol=tol, cost_trace=costs)
        assert (got.iters, got.capped) == (iters, capped)
        assert np.abs(got.gamma - want.gamma).max() <= 1e-9 * want.gamma.max()
        np.testing.assert_allclose(costs, want_costs, rtol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(random_problems)
    def test_cost_never_rises(self, problem):
        g, grid, y, lam = draw_problem(problem)
        costs: list[float] = []
        sbl_run(g, grid, y, lam, max_iters=100, tol=0.0, cost_trace=costs)
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ill_conditioned_problems)
    def test_returns_the_least_cost_state(self, problem):
        gaps, grid, lam, n_snap, amp, seed = problem
        g = ArrayGeometry((0.0,) + tuple(np.cumsum(gaps).tolist()))
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((g.m, n_snap)) + 1j * rng.standard_normal((g.m, n_snap))
        y = SnapshotMatrix(data=amp * noise)
        costs: list[float] = []
        state = sbl_run(g, np.array(grid), y, lam, cost_trace=costs)
        assert all(b <= a + 1e-9 * abs(a) for a, b in zip(costs, costs[1:]))
        assert sbl_cost(state, scm(y)) == pytest.approx(min(costs), rel=1e-12)

    def test_last_traced_cost_is_the_returned_state_cost(self):
        # multires_refine reports a round's cost as the trace's last entry;
        # it is the cost of the returned gamma, bitwise, however the run ends
        g = ArrayGeometry((0, 1, 2, 3, 7, 11))
        grid = -1.0 + 2.0 * np.arange(100) / 100
        y = simulate(SourceScene.from_snr((-0.42, 0.13), 10.0), g, 64, seed=9)
        rng = np.random.default_rng(8)
        loud = SnapshotMatrix(data=100.0 * (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))))
        runs = {
            "converged": (g, grid, y, 1.0, 5000, 1e-6),
            "capped": (g, grid, y, 1.0, 25, 0.0),
            # rounding in the cost of an ill-conditioned C makes a step rise
            "rise": (ArrayGeometry((0, 1, 2.5)), np.array([-0.7, -0.2, 0.3, 0.8]), loud, 1e-4, 300, 0.0),
        }
        for name, (geo, grd, snaps, lam, cap, tol) in runs.items():
            costs: list[float] = []
            state = sbl_run(geo, grd, snaps, lam, cap, tol, cost_trace=costs)
            ended = {"converged": costs[-1] < costs[-2], "capped": state.capped, "rise": costs[-1] == costs[-2]}
            assert ended[name] and state.capped == (name == "capped"), name
            assert costs[-1] == sbl_cost(state, scm(snaps)), name

    def test_validation(self):
        g = ArrayGeometry.ula(3)
        y = SnapshotMatrix(data=np.zeros((3, 1), complex))
        with pytest.raises(SblError):
            sbl_run(g, np.linspace(-1, 0.9, 5), y, 1.0, max_iters=0)
        with pytest.raises(SblError, match="grid must not be empty"):
            sbl_run(g, np.array([]), y, 1.0)
        with pytest.raises(SblError):
            make_state(g, [0.0, 0.1], [-1.0, 0.0], 1.0)
        good = SblState.initialize(g, np.linspace(-1, 0.9, 5), 1.0)
        for bad in (0.0, np.nan, np.inf):  # nan <= 0 is false
            with pytest.raises(SblError, match="lam must be positive and finite"):
                SblState(good.grid, good.gamma, bad, good.dictionary)

    def test_refuses_a_mismatched_dictionary(self):
        # the outer products and (q, s) are indexed by the dictionary's
        # columns, so they must be the grid's points
        good = SblState.initialize(ArrayGeometry.ula(3), np.linspace(-1, 0.9, 5), 1.0)
        for bad in (good.dictionary[:, :4], good.dictionary.T, good.dictionary[:, 0], good.dictionary[None]):
            with pytest.raises(SblError, match="one column per grid point"):
                SblState(good.grid, good.gamma, good.lam, bad)


class TestTopPeaks:
    def test_local_maxima_ranked(self):
        gamma = np.array([0.1, 5.0, 0.2, 3.0, 0.1, 4.0, 0.2])
        grid = np.linspace(-1, 0.8, 7)
        assert top_peaks(grid, gamma, 3) == [1, 5, 3]

    def test_boundary_and_padding(self):
        gamma = np.array([5.0, 1.0, 0.5])
        grid = np.array([-0.5, 0.0, 0.5])
        assert top_peaks(grid, gamma, 1) == [0]
        # monotone gamma has one local max; padding fills by value
        assert top_peaks(grid, np.array([3.0, 2.0, 1.0]), 2) == [0, 1]

    def test_tie_breaks_to_lower_index(self):
        gamma = np.array([0.0, 2.0, 0.0, 2.0, 0.0])
        grid = np.linspace(-1, 0.6, 5)
        assert top_peaks(grid, gamma, 1) == [1]
