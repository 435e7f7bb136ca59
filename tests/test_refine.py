import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlessdoa import numerics as nx
from gridlessdoa.geometry import ArrayGeometry
from gridlessdoa.refine import (
    RefineError,
    gamma_opt,
    multires_refine,
    peak_adjust,
    qs_values,
)
from gridlessdoa.sbl import SblState, sbl_run, top_peaks
from gridlessdoa.sigmodel import SourceScene, manifold, scm, simulate

OFFGRID = ArrayGeometry((0, 1, 2.1, 3.5, 4.7, 10))


def make_state(g, grid, gamma, lam):
    return SblState.initialize(g, np.asarray(grid), lam).with_gamma(np.asarray(gamma, float))


class TestQsValues:
    def test_identity_model(self):
        # with nothing else in the model and unit-noise identity data,
        # q and s both reduce to the squared manifold norm M
        g = ArrayGeometry.ula(5)
        state = make_state(g, [-0.5, 0.0, 0.5], [0.0, 0.0, 0.0], 1.0)
        q, s = qs_values(np.array([0.23]), state, 1, np.eye(5), g)
        assert q[0] == pytest.approx(5.0, abs=1e-12)
        assert s[0] == pytest.approx(5.0, abs=1e-12)

    def test_scaled_identity_data(self):
        g = ArrayGeometry.ula(4)
        state = make_state(g, [-0.5, 0.0, 0.5], [0.0, 0.0, 0.0], 1.0)
        q, s = qs_values(np.array([-0.37]), state, 0, 3.0 * np.eye(4), g)
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
            q, s = qs_values(np.array([u]), state, i, r, g)
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
        est = peak_adjust(state, r, g, 1)
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
        est = peak_adjust(state, r, g, 1)
        cost_after = atom_cost(est.u, est.powers, 1.0, r, g)
        # within the fine-search resolution of the first window
        assert abs(est.u[0] - 0.123456) < (2.0 / 60) / 25
        assert cost_after < cost_before - 1e-6  # strictly better off-grid

    def test_unsupported_peak_gets_zero_power(self):
        # with nothing else in the model and R = I, q = s exactly over the
        # whole window, so the atom's cost-minimizing power is 0
        g = ArrayGeometry.ula(4)
        state = make_state(g, [-0.5, 0.0, 0.5], [0.0, 5.0, 0.0], 1.0)
        r = np.eye(4)
        est = peak_adjust(state, r, g, 1)
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
        est = peak_adjust(state, scm(y), g, 1)
        assert est.u[0] not in before[0]  # the atom moved off the grid
        for a, b in zip((state.grid, state.gamma, state.dictionary), before):
            np.testing.assert_array_equal(a, b)


class TestAtomFinish:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(0.3, 3.0), min_size=1, max_size=5),  # sensor gaps
        st.integers(5, 80),                                      # grid size
        st.integers(1, 60),                                      # snapshots
        st.floats(-1.3, 0.7).map(lambda e: 10.0**e),             # lam
        st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=3, unique=True).map(sorted),
        st.floats(-5.0, 20.0),                                   # SNR in dB
        st.integers(1, 3),                                       # k
        st.integers(0, 2**32 - 1),
    )
    def test_k_atom_cost_never_rises(self, gaps, grid_size, n_snap, lam, u, snr_db, k, seed):
        g = ArrayGeometry((0.0,) + tuple(np.cumsum(gaps).tolist()))
        grid = -1.0 + 2.0 * np.arange(grid_size) / grid_size
        y = simulate(SourceScene.from_snr(tuple(u), snr_db), g, n_snap, seed=seed)
        r = scm(y)
        state = sbl_run(g, grid, y, lam, max_iters=30)
        peaks = top_peaks(state.grid, state.gamma, k)
        before = atom_cost(state.grid[peaks], state.gamma[peaks], lam, r, g)
        est = peak_adjust(state, r, g, k)
        assert est.k == k
        assert atom_cost(est.u, est.powers, lam, r, g) <= before + 1e-9 * abs(before)


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
        assert logs[0]["sbl_cap_hit"] is False and logs[0]["sbl_iters"] < 400

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
            assert not state.capped and len(costs) == state.iters
            assert all(b < a for a, b in zip(costs, costs[1:])), trial

    def test_validation(self):
        g = OFFGRID
        y = simulate(SourceScene.from_snr((0.1,), 10.0), g, 8, seed=1)
        with pytest.raises(RefineError):
            multires_refine(y, g, 1, rounds=-1)
        with pytest.raises(RefineError):
            multires_refine(y, g, 1, g_factor=1)
        with pytest.raises(RefineError):
            multires_refine(y, g, 0)
