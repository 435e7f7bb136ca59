from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlessdoa import numerics as nx
from gridlessdoa import refine
from gridlessdoa.geometry import ArrayGeometry
from gridlessdoa.refine import (
    FINISH_SWEEPS,
    RefineError,
    gamma_opt,
    multires_refine,
    peak_adjust,
)
from gridlessdoa.sbl import SblState, outer_products, qs_columns, sbl_run, top_peaks
from gridlessdoa.sigmodel import SourceScene, manifold, scm, simulate

OFFGRID = ArrayGeometry((0, 1, 2.1, 3.5, 4.7, 10))


def make_state(g, grid, gamma, lam):
    return SblState.initialize(g, np.asarray(grid), lam).with_gamma(np.asarray(gamma, float))


def leave_one_out_qs(u, state, exclude, r, g):
    """(q, s) of directions ``u`` against the state's C with point ``exclude``
    removed, from ``qs_columns`` on an inverse built here."""
    gamma = state.gamma.copy()
    gamma[exclude] = 0.0
    cinv = nx.inv_pd(state.with_gamma(gamma).model_covariance())
    return qs_columns(outer_products(manifold(np.asarray(u), g)), cinv, np.asarray(r, dtype=np.complex128))


class TestQsValues:
    def test_identity_model(self):
        # with nothing else in the model and unit-noise identity data,
        # q and s both reduce to the squared manifold norm M
        g = ArrayGeometry.ula(5)
        state = make_state(g, [-0.5, 0.0, 0.5], [0.0, 0.0, 0.0], 1.0)
        q, s = leave_one_out_qs([0.23], state, 1, np.eye(5), g)
        assert q[0] == pytest.approx(5.0, abs=1e-12)
        assert s[0] == pytest.approx(5.0, abs=1e-12)

    def test_scaled_identity_data(self):
        g = ArrayGeometry.ula(4)
        state = make_state(g, [-0.5, 0.0, 0.5], [0.0, 0.0, 0.0], 1.0)
        q, s = leave_one_out_qs([-0.37], state, 0, 3.0 * np.eye(4), g)
        assert q[0] == pytest.approx(3.0 * 4.0, abs=1e-12)
        assert s[0] == pytest.approx(4.0, abs=1e-12)

    def test_matches_dense_formulas(self, rng):
        # independent dense evaluation of the quoted expressions
        g = OFFGRID
        grid = np.linspace(-1, 0.9, 12)
        gamma = rng.uniform(0.0, 2.0, 12)
        lam = 0.8
        state = make_state(g, grid, gamma, lam)
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        r = b @ b.conj().T
        i = 4
        phi_minus = np.delete(state.dictionary, i, axis=1)
        gamma_minus = np.delete(gamma, i)
        c_minus = (phi_minus * gamma_minus) @ phi_minus.conj().T + lam * np.eye(6)
        cinv = np.linalg.inv(c_minus)
        for u in (-0.61, 0.07, 0.52):
            phi = manifold(u, g)
            q_ref = float(np.real(phi.conj() @ cinv @ r @ cinv @ phi))
            s_ref = float(np.real(phi.conj() @ cinv @ phi))
            q, s = leave_one_out_qs([u], state, i, r, g)
            assert q[0] == pytest.approx(q_ref, rel=1e-10)
            assert s[0] == pytest.approx(s_ref, rel=1e-10)
            assert s[0] > 0 and q[0] >= 0


class TestGammaOpt:
    def test_equal_ratio_is_zero(self):
        assert gamma_opt(3.0, 3.0) == 0.0

    def test_closed_form_point(self):
        assert gamma_opt(2.0, 1.0) == pytest.approx(1.0)

    def test_clipped_branch(self):
        assert gamma_opt(0.5, 1.0) == 0.0


def atom_cost(u, powers, lam, r, g):
    """``gaussian_nll(C_k, R)`` of the k-atom model ``C_k = Phi diag(p) Phi^H + lam I``."""
    phi = manifold(np.asarray(u), g)
    return nx.gaussian_nll((phi * powers) @ phi.conj().T + lam * np.eye(g.m), r)


class TestPeakAdjust:
    def test_on_peak_source_stays_put(self):
        # against the exact covariance of a source on a grid point, that
        # point maximizes q/s and its power is the source's
        g = ArrayGeometry.ula(6)
        grid = np.linspace(-1, 1, 41)[:-1]
        state = make_state(g, grid, np.where(grid == -0.5, 4.0, 0.0), 1e-6)
        phi = manifold(-0.5, g)
        r = 4.0 * np.outer(phi, phi.conj()) + 1e-6 * np.eye(6)
        est, _ = peak_adjust(state, r, g, 1)
        # q/s is flat to rounding within about sqrt(eps) of its maximum
        assert abs(est.u[0] - (-0.5)) < 1e-8
        assert est.powers[0] == pytest.approx(4.0, rel=1e-9)

    def test_off_grid_source_moves_and_cost_drops(self):
        g = OFFGRID
        grid = np.linspace(-1, 1, 60, endpoint=False)  # truth not on the grid
        scene = SourceScene((0.123456,), (100.0,), noise_var=1.0)
        y = simulate(scene, g, 500, seed=31)
        r = scm(y)
        state = sbl_run(g, grid, y, lam=1.0, max_iters=600, tol=1e-8)
        peak = top_peaks(state.grid, state.gamma, 1)
        cost_before = atom_cost(state.grid[peak], state.gamma[peak], 1.0, r, g)
        est, _ = peak_adjust(state, r, g, 1)
        cost_after = atom_cost(est.u, est.powers, 1.0, r, g)
        # far inside one grid spacing of the truth
        assert abs(est.u[0] - 0.123456) < (2.0 / 60) / 25
        assert cost_after < cost_before - 1e-6  # strictly better off-grid

    def test_unsupported_peak_gets_zero_power(self):
        # with nothing else in the model and R = I, q = s exactly in every
        # direction, so the atom's cost-minimizing power is 0
        g = ArrayGeometry.ula(4)
        state = make_state(g, [-0.5, 0.0, 0.5], [0.0, 5.0, 0.0], 1.0)
        r = np.eye(4)
        est, _ = peak_adjust(state, r, g, 1)
        assert est.powers[0] == 0.0
        assert atom_cost([0.0], [5.0], 1.0, r, g) == pytest.approx(np.log(21.0) + 3.0 + 1.0 / 21.0)
        assert atom_cost(est.u, est.powers, 1.0, r, g) == pytest.approx(4.0)

    def test_input_state_unchanged(self):
        g = OFFGRID
        grid = np.linspace(-1, 1, 60, endpoint=False)
        scene = SourceScene((0.123456,), (100.0,), noise_var=1.0)
        y = simulate(scene, g, 500, seed=31)
        state = sbl_run(g, grid, y, lam=1.0, max_iters=600, tol=1e-8)
        before = [a.copy() for a in (state.grid, state.gamma, state.dictionary)]
        est, _ = peak_adjust(state, scm(y), g, 1)
        assert est.u[0] not in before[0]  # the atom moved off the grid
        for a, b in zip((state.grid, state.gamma, state.dictionary), before):
            np.testing.assert_array_equal(a, b)


finish_problems = st.tuples(
    st.lists(st.floats(0.3, 3.0), min_size=1, max_size=5),  # sensor gaps
    st.integers(5, 80),                                      # grid size
    st.integers(1, 60),                                      # snapshots
    st.floats(-1.3, 0.7).map(lambda e: 10.0**e),             # lam
    st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=3, unique=True).map(sorted),
    st.floats(-5.0, 20.0),                                   # SNR in dB
    st.integers(1, 3),                                       # k
    st.integers(0, 2**32 - 1),
)


def finish_problem(problem):
    """The geometry, SCM, SBL state (30 iterations), lam and k of a drawn problem."""
    gaps, grid_size, n_snap, lam, u, snr_db, k, seed = problem
    g = ArrayGeometry((0.0,) + tuple(np.cumsum(gaps).tolist()))
    grid = -1.0 + 2.0 * np.arange(grid_size) / grid_size
    y = simulate(SourceScene.from_snr(tuple(u), snr_db), g, n_snap, seed=seed)
    return g, scm(y), sbl_run(g, grid, y, lam, max_iters=30), lam, k


class TestAtomFinish:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(finish_problems)
    def test_k_atom_cost_never_rises(self, problem):
        g, r, state, lam, k = finish_problem(problem)
        peaks = top_peaks(state.grid, state.gamma, k)
        before = atom_cost(state.grid[peaks], state.gamma[peaks], lam, r, g)
        est, _ = peak_adjust(state, r, g, k)
        assert est.k == k
        assert atom_cost(est.u, est.powers, lam, r, g) <= before + 1e-9 * abs(before)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(finish_problems)
    def test_stationary_when_it_stops_before_its_cap(self, problem):
        # a finish that stops on its step tolerance leaves every atom at the
        # largest q/s (against C without it) of a fine scan of +-0.04 around it
        g, r, state, lam, k = finish_problem(problem)
        est, capped = peak_adjust(state, r, g, k)
        if capped:
            return
        atoms = SblState(est.u, est.powers, lam, manifold(est.u, g))
        for j, u in enumerate(est.u):
            scan = np.linspace(u - 0.04, u + 0.04, 2001)
            scan = scan[(scan >= -1.0) & (scan < 1.0)]
            q, s = leave_one_out_qs(np.append(scan, u), atoms, j, r, g)
            ratio = q / s
            assert ratio[-1] >= ratio[:-1].max() * (1.0 - 1e-12), (j, u)


class TestMultiresRefine:
    def test_zero_rounds_semantics(self):
        g = OFFGRID
        scene = SourceScene.from_snr((-0.54, 0.4802), 20.0)
        y = simulate(scene, g, 500, seed=3)
        logs: list[dict] = []
        est = multires_refine(
            y, g, 2, lam=1.0, grid_size=80, rounds=0, sbl_iters=400, on_round=logs.append
        )
        assert len(logs) == 1 and logs[0]["round"] == 0
        assert est.k == 2
        assert logs[0]["sbl_stop"] == "drop" and logs[0]["sbl_iters"] < 400

    def test_refinement_improves_on_plain_grid(self):
        g = OFFGRID
        scene = SourceScene.from_snr((-0.54, 0.4802), 20.0)
        truth = np.array(scene.u)
        y = simulate(scene, g, 500, seed=42)
        est = multires_refine(y, g, 2, lam=1.0, grid_size=150, g_factor=3, rounds=4, sbl_iters=2000)
        plain = sbl_run(g, -1.0 + 2.0 * np.arange(150) / 150, y, lam=1.0, max_iters=2000)
        first = np.abs(np.sort(plain.grid[top_peaks(plain.grid, plain.gamma, 2)]) - truth).max()
        final = np.abs(est.u - truth).max()
        assert final < first
        assert final < 5e-4

    def test_grid_size_bounded_and_resolution_schedule(self):
        # the grid-size bound relies on SBL driving the noise-floor gammas
        # below the pruning threshold before it stops
        g = OFFGRID
        scene = SourceScene.from_snr((-0.54, 0.4802), 20.0)
        y = simulate(scene, g, 500, seed=9)
        logs: list[dict] = []
        multires_refine(
            y, g, 2, lam=1.0, grid_size=60, g_factor=3, rounds=2, sbl_iters=5000,
            on_round=logs.append,
        )
        bound = 60 + (4 * 3 + 1) * 2
        assert all(rec["grid_size"] <= bound for rec in logs)

    def test_three_close_sources_no_gross_miss(self):
        # ROADMAP item 1's three close sources, at the trials where two atoms
        # can end in one source's basin and leave another 0.5-0.7 away
        g = OFFGRID
        scenes = [
            ((-0.6, 0.1, 0.16), 10.0, 5, (1, 14, 17, 23, 27)),
            ((-0.3, 0.2, 0.27), 15.0, 11, (20,)),
        ]
        for u, snr_db, seed, trials in scenes:
            for trial in trials:
                y = simulate(SourceScene.from_snr(u, snr_db), g, 500, seed=seed, trial=trial)
                est = multires_refine(y, g, 3, lam=1.0, grid_size=150, g_factor=3, rounds=5)
                assert np.abs(np.sort(est.u) - np.array(u)).max() < 0.02, (seed, trial, est.u)

    def test_later_rounds_keep_round_zero_rmse(self):
        # three close sources: as the local grid gets finer, each source's SBL
        # power spreads over split peaks, and the finish from them must still
        # reach round 0's estimate
        u = np.array((-0.6, 0.1, 0.16))
        rounds: list[list[np.ndarray]] = [[] for _ in range(6)]
        for trial in range(8):
            y = simulate(SourceScene.from_snr(tuple(u), 10.0), OFFGRID, 500, seed=5, trial=trial)
            logs: list[dict] = []
            multires_refine(y, OFFGRID, 3, rounds=5, on_round=logs.append)
            for rec in logs:
                rounds[rec["round"]].append(np.sort(rec["u_hat"]) - u)
        rmse = [np.sqrt(np.mean(np.square(errs))) for errs in rounds]
        assert all(abs(x / rmse[0] - 1.0) <= 0.01 for x in rmse), rmse
        assert np.abs(np.array(rounds)).max() <= 0.02

    def test_round_zero_is_the_estimate_on_the_bundled_scene(self):
        # the fig_refine_arbitrary cells: five refinement rounds after round 0
        # return the default estimate within 1e-8 in u (8.2e-10 measured), and
        # its k-atom ML cost to 1e-12 relative
        scene = SourceScene.from_snr((-0.54, 0.4802), 20.0)
        for trial in range(10):
            y = simulate(scene, OFFGRID, 500, seed=61007, trial=trial)
            est = multires_refine(y, OFFGRID, 2)
            five = multires_refine(y, OFFGRID, 2, rounds=5)
            assert np.abs(est.u - five.u).max() <= 1e-8, (trial, est.u, five.u)
            cost = atom_cost(est.u, est.powers, 1.0, scm(y), OFFGRID)
            five_cost = atom_cost(five.u, five.powers, 1.0, scm(y), OFFGRID)
            assert cost == pytest.approx(five_cost, rel=1e-12, abs=0.0), trial

    def test_finish_cap_hits_are_reported(self):
        # scene A: 18 of 30 finishes stop at the sweep cap with an atom still
        # moving more than FINISH_TOL.  A finish that stopped on its tolerance
        # is unchanged when one more sweep is allowed; in 13 of the capped
        # ones a 12th sweep still moves u, by at most 5.8e-10
        scene = SourceScene.from_snr((-0.6, 0.1, 0.16), 10.0)
        capped = 0
        for trial in range(30):
            y = simulate(scene, OFFGRID, 500, seed=5, trial=trial)
            logs: list[dict] = []
            est = multires_refine(y, OFFGRID, 3, on_round=logs.append)
            with mock.patch.object(refine, "FINISH_SWEEPS", FINISH_SWEEPS + 1):
                more = multires_refine(y, OFFGRID, 3)
            if not logs[0]["finish_capped"]:
                np.testing.assert_array_equal(more.u, est.u)
            capped += logs[0]["finish_capped"]
        assert capped == 18

    def test_round_zero_sbl_ends_on_its_relative_stop(self):
        # the fig_refine_arbitrary scene: every round-0 SBL run at the default
        # tol descends strictly and stops on its relative drop, so neither the
        # cap nor a cost rise ends it
        grid = -1.0 + 2.0 * np.arange(150) / 150
        scene = SourceScene.from_snr((-0.54, 0.4802), 20.0)
        for trial in range(7):
            y = simulate(scene, OFFGRID, 500, seed=61007, trial=trial)
            costs: list[float] = []
            state = sbl_run(OFFGRID, grid, y, 1.0, 5000, cost_trace=costs)
            assert state.stop != "cap" and len(costs) == state.iters
            assert all(b < a for a, b in zip(costs, costs[1:])), trial

    def test_best_cost_guard_keeps_the_lowest_cost_round(self):
        # at an SBL stop of 1e-5, round 5's finish on these trials lands one
        # atom 0.70 off at a k-atom cost about 3 nat above round 0's; the
        # guard keeps round 0's estimate
        u = np.array((-0.6, 0.1, 0.16))
        with mock.patch.object(refine, "ROUND_TOL", 1e-5):
            for trial in (17, 29):
                y = simulate(SourceScene.from_snr(tuple(u), 10.0), OFFGRID, 500, seed=5, trial=trial)
                logs: list[dict] = []
                est = multires_refine(y, OFFGRID, 3, rounds=5, on_round=logs.append)
                assert np.abs(est.u - u).max() < 0.02, (trial, est.u)
                costs = [rec["atom_cost"] for rec in logs]
                assert all(b <= a for a, b in zip(costs, costs[1:])), (trial, costs)
                assert costs[-1] == atom_cost(est.u, est.powers, 1.0, scm(y), OFFGRID), trial

    def test_round_stop_is_slack_on_the_bundled_scene(self):
        # the looser in-refinement SBL stop still drives the noise-floor
        # gammas below the pruning threshold, never meets the cap, and
        # returns what a 1e-6 stop returns.  The last round's SBL cost (the
        # sweep's reported fit) stays within 1e-3 relative of the 1e-6
        # stop's: 5.7e-4 at most here, 2.1e-3 with ROUND_TOL at 1e-3
        scene = SourceScene.from_snr((-0.54, 0.4802), 20.0)
        bound = 150 + (4 * 3 + 1) * 2
        for trial in range(7):
            y = simulate(scene, OFFGRID, 500, seed=61007, trial=trial)
            logs: list[dict] = []
            est = multires_refine(y, OFFGRID, 2, on_round=logs.append)
            assert all(rec["sbl_stop"] == "drop" for rec in logs), trial
            assert all(rec["grid_size"] <= bound for rec in logs), trial
            tight_logs: list[dict] = []
            with mock.patch.object(refine, "ROUND_TOL", 1e-6):
                tight = multires_refine(y, OFFGRID, 2, on_round=tight_logs.append)
            assert np.abs(est.u - tight.u).max() <= 1e-8, trial
            cost, tight_cost = logs[-1]["sbl_cost"], tight_logs[-1]["sbl_cost"]
            assert abs(cost - tight_cost) <= 1e-3 * abs(tight_cost), (trial, cost, tight_cost)

    def test_validation(self):
        g = OFFGRID
        y = simulate(SourceScene.from_snr((0.1,), 10.0), g, 8, seed=1)
        with pytest.raises(RefineError):
            multires_refine(y, g, 1, rounds=-1)
        with pytest.raises(RefineError):
            multires_refine(y, g, 1, g_factor=1)
        with pytest.raises(RefineError):
            multires_refine(y, g, 0)
        with pytest.raises(RefineError):
            multires_refine(y, g, 1, grid_size=0)
