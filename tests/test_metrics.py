from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridlessdoa import numerics as nx
from gridlessdoa.estimate import DoaEstimate
from gridlessdoa.experiments import axis_scene, parse_config
from gridlessdoa.geometry import ArrayGeometry, toeplitz_embed
from gridlessdoa.metrics import (
    MetricsError,
    crb_rmse,
    crb_stochastic,
    empirical_bias,
    rmse_u,
    success_rate,
)
from gridlessdoa.mlesolve import MleConfig, structcov_mle, unpack_lags
from gridlessdoa.sigmodel import SourceScene, manifold, model_covariance


def est(*u):
    return DoaEstimate(u=np.asarray(u, dtype=float))


class TestRmse:
    def test_perfect(self):
        scene = SourceScene((-0.5, 0.5), (1.0, 1.0))
        assert rmse_u([est(-0.5, 0.5)], scene) == 0.0

    def test_single_error(self):
        scene = SourceScene((0.2,), (1.0,))
        assert rmse_u([est(0.21)], scene) == pytest.approx(0.01)

    def test_two_trial_formula(self):
        # sqrt((0 + 0 + 4e-4 + 4e-4) / 4) = 0.014142...
        scene = SourceScene((-0.5, 0.5), (1.0, 1.0))
        trials = [est(-0.5, 0.5), est(-0.48, 0.52)]
        assert rmse_u(trials, scene) == pytest.approx(np.sqrt(2e-4), abs=1e-12)
        assert rmse_u(trials, scene) == pytest.approx(0.014142135623730951, abs=1e-12)

    def test_order_invariance(self):
        # DoaEstimate sorts on construction, so the assignment cannot depend
        # on the order estimates were produced in
        scene = SourceScene((-0.5, 0.5), (1.0, 1.0))
        a = rmse_u([DoaEstimate(u=np.array([0.51, -0.52]))], scene)
        b = rmse_u([DoaEstimate(u=np.array([-0.52, 0.51]))], scene)
        assert a == b

    def test_count_mismatch(self):
        scene = SourceScene((-0.5, 0.5), (1.0, 1.0))
        with pytest.raises(MetricsError):
            rmse_u([est(0.0)], scene)


class TestBias:
    def test_symmetric_errors_cancel(self):
        scene = SourceScene((0.0,), (1.0,))
        assert empirical_bias([est(0.01), est(-0.01)], scene, 0) == pytest.approx(0.0)

    def test_constant_offset(self):
        scene = SourceScene((0.0,), (1.0,))
        assert empirical_bias([est(0.02), est(0.02)], scene, 0) == pytest.approx(0.02)


class TestSuccessRate:
    def test_half_gap_caps(self):
        scene = SourceScene((-0.5, 0.5), (1.0, 1.0))  # gap 1.0, cap 0.5
        assert success_rate([est(-0.2, 0.3)], scene) == 1.0
        assert success_rate([est(0.1, 0.3)], scene) == 0.0


def kl(r_true: np.ndarray, sigma_model: np.ndarray) -> float:
    """KL divergence of zero-mean complex Gaussians, from the Gaussian NLL."""
    return nx.gaussian_nll(sigma_model, r_true) - nx.gaussian_nll(r_true, r_true)


class TestKlGaussian:
    def test_zero_at_equality(self, rng):
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        r = b @ b.conj().T + 4 * np.eye(4)
        assert abs(kl(r, r)) <= 1e-12

    def test_scalar_value(self):
        got = kl(np.eye(1, dtype=complex), np.e * np.eye(1, dtype=complex))
        assert got == pytest.approx(1.0 / np.e, abs=1e-12)
        assert got == pytest.approx(0.36787944117144233, abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            r = a @ a.conj().T + 0.1 * np.eye(n)
            s = b @ b.conj().T + 0.1 * np.eye(n)
            assert kl(r, s) >= -1e-10

    def test_structured_fit_minimizes_kl(self, rng):
        # the recovered Toeplitz model is a local KL minimizer: random
        # feasible perturbations of its lag vector never do better
        g = ArrayGeometry.ula(5)
        scene = SourceScene((-0.4, 0.35), (4.0, 2.0), rho=0.6 * np.exp(0.5j), noise_var=1.0)
        r_true = model_covariance(scene, g)
        v = structcov_mle(r_true, g, MleConfig(lam=1.0, outer_iters=40))
        base = kl(r_true, toeplitz_embed(v) + np.eye(5))
        # probe scale large enough that curvature dominates the solver's
        # interior-point offset from the exact stationary point
        for _ in range(20):
            dx = 3e-3 * rng.standard_normal(9)
            v_pert = v + unpack_lags(dx)
            perturbed = kl(r_true, toeplitz_embed(v_pert) + np.eye(5))
            assert base <= perturbed + 1e-9


def fisher_crb_reference(scene: SourceScene, g: ArrayGeometry, n_snapshots: int) -> np.ndarray:
    """Reference for the closed-form bound: the Fisher matrix by central differences.

    Parameters are (u, diag R_x, Re/Im of the upper triangle of R_x,
    noise_var); the information is ``L tr(R^{-1} dR_a R^{-1} dR_b)`` with
    derivatives taken at step 1e-6.  Returns the direction block's diagonal
    of the inverse, or raises ``MetricsError`` when that inverse fails.
    """
    k = scene.k
    rows, cols = np.triu_indices(k, k=1)

    def covariance(theta: np.ndarray) -> np.ndarray:
        u, diag, off, noise = theta[:k], theta[k : 2 * k], theta[2 * k : -1], theta[-1]
        rx = np.diag(diag.astype(np.complex128))
        rx[rows, cols] = off[0::2] + 1j * off[1::2]
        rx[cols, rows] = np.conj(rx[rows, cols])
        a = manifold(u, g)
        return a @ rx @ a.conj().T + noise * np.eye(g.m)

    rx = scene.source_covariance()
    off = np.stack([rx[rows, cols].real, rx[rows, cols].imag], axis=1).ravel()
    theta = np.concatenate([scene.u, np.real(np.diag(rx)), off, [scene.noise_var]])
    step = 1e-6
    rinv = nx.inv_pd(covariance(theta))
    sandwich = []
    for a in range(theta.size):
        dt = np.zeros(theta.size)
        dt[a] = step
        sandwich.append(rinv @ (covariance(theta + dt) - covariance(theta - dt)) / (2 * step))
    fim = np.empty((theta.size, theta.size))
    for a in range(theta.size):
        for b in range(a, theta.size):
            fim[a, b] = fim[b, a] = np.trace(sandwich[a] @ sandwich[b]).real
    try:
        return np.real(np.diag(nx.inv_pd(n_snapshots * fim)))[:k]
    except nx.NotPositiveDefiniteError:
        raise MetricsError("Fisher information is singular") from None


def assert_matches_reference(scene: SourceScene, g: ArrayGeometry, n_snapshots: int, rtol: float):
    """The closed form and the reference agree, or both raise ``MetricsError``."""
    try:
        want = fisher_crb_reference(scene, g, n_snapshots)
    except MetricsError:
        with pytest.raises(MetricsError):
            crb_stochastic(scene, g, n_snapshots)
        return
    np.testing.assert_allclose(crb_stochastic(scene, g, n_snapshots), want, rtol=rtol)


@st.composite
def separated_scenes(draw):
    """Scenes on 3-10 sensors, on or off grid, with u gaps >= 0.1 and |rho| <= 0.9."""
    m = draw(st.integers(3, 10))
    if draw(st.booleans()):
        rest = draw(st.sets(st.integers(2, 2 * m), min_size=m - 2, max_size=m - 2))
        positions = (0, 1) + tuple(sorted(rest))
    else:
        gaps = draw(st.lists(st.floats(0.3, 1.0), min_size=m - 1, max_size=m - 1))
        positions = tuple(np.concatenate([[0.0], np.cumsum(gaps)]))
    k = draw(st.integers(1, min(4, m - 1)))
    u = sorted(draw(st.lists(st.floats(-1.0, 0.99), min_size=k, max_size=k)))
    assume(all(b - a >= 0.1 for a, b in zip(u, u[1:])))
    snr = tuple(draw(st.lists(st.floats(0.0, 20.0), min_size=k, max_size=k)))
    rho = 0.0
    if k > 1:
        rho = draw(st.floats(0.0, 0.9)) * np.exp(1j * draw(st.floats(-np.pi, np.pi)))
    return SourceScene.from_snr(tuple(u), snr, rho=rho), ArrayGeometry(positions)


class TestCrb:
    def test_exact_snapshot_scaling(self):
        g = ArrayGeometry.ula(6)
        scene = SourceScene.from_snr((-0.5, 0.5), 20.0)
        c1 = crb_stochastic(scene, g, 100)
        c2 = crb_stochastic(scene, g, 200)
        np.testing.assert_allclose(c1 / c2, 2.0, rtol=1e-12)

    def test_monotone_in_snr(self):
        g = ArrayGeometry.ula(6)
        values = [crb_rmse(SourceScene.from_snr((-0.5, 0.5), snr), g, 500) for snr in range(0, 31, 5)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_arbitrary_geometry_grid_size_anchor(self):
        # the refinement study's reference point: 1/CRB ~ 7632 (within 15%)
        g = ArrayGeometry((0, 1, 2.1, 3.5, 4.7, 10))
        scene = SourceScene.from_snr((-0.5400, 0.4802), 20.0)
        inv_crb = 1.0 / crb_rmse(scene, g, 500)
        assert 7632 * 0.85 <= inv_crb <= 7632 * 1.15

    def test_symmetric_scene_symmetric_bounds(self):
        g = ArrayGeometry.ula(6)
        bound = crb_stochastic(SourceScene.from_snr((-0.3, 0.3), 15.0), g, 100)
        assert bound[0] == pytest.approx(bound[1], rel=1e-6)

    def test_phase_reference_invariance(self):
        # the bound only sees the covariance, so a global sensor reordering
        # of the same ULA (a relabeling) leaves per-source bounds unchanged
        scene = SourceScene.from_snr((-0.2, 0.4), 10.0)
        a = crb_stochastic(scene, ArrayGeometry.ula(5), 64)
        b = crb_stochastic(scene, ArrayGeometry((0, 1, 2, 3, 4)), 64)
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_unidentifiable_scene_rejected(self):
        g = ArrayGeometry.ula(3)
        with pytest.raises(MetricsError):
            crb_stochastic(SourceScene.from_snr((-0.1, 0.0, 0.1), 10.0), g, 10)

    def test_matches_fisher_reference_on_bundled_configs(self):
        for path in sorted((resources.files("gridlessdoa") / "configs").iterdir()):
            cfg = parse_config(path.read_text())
            for a in range(len(cfg.sweep_values)):
                scene, n_snap = axis_scene(cfg, a)
                assert_matches_reference(scene, cfg.geometry, n_snap, rtol=1e-6)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(separated_scenes(), st.integers(1, 1000))
    def test_matches_fisher_reference(self, scene_and_geometry, n_snapshots):
        scene, g = scene_and_geometry
        assert_matches_reference(scene, g, n_snapshots, rtol=1e-5)

    def test_grating_lobe_pair_rejected(self):
        # sensors two half-wavelengths apart see u = -0.5 and 0.5 as one direction
        g = ArrayGeometry((0, 2, 4))
        scene = SourceScene.from_snr((-0.5, 0.5), 10.0)
        with pytest.raises(MetricsError):
            fisher_crb_reference(scene, g, 100)
        with pytest.raises(MetricsError):
            crb_stochastic(scene, g, 100)
