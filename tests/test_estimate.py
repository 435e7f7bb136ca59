import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlessdoa import experiments
from gridlessdoa.estimate import EstimateError, music_spectrum, root_music, vandermonde_decompose
from gridlessdoa.experiments import ExperimentConfig, run_estimator
from gridlessdoa.geometry import ArrayGeometry, coarray, toeplitz_embed
from gridlessdoa.mlesolve import CompletionPlan, MleConfig, em_gridless, structcov_mle
from gridlessdoa.sigmodel import ContiguousLagError, SourceScene, simulate, scm, spatial_smooth

from conftest import scene_covariance, toeplitz_scene


# Reference forms of the two sparse-array pipelines as standalone functions:
# ``experiments.run_estimator`` must match them bit for bit.
def method1(v: np.ndarray, g: ArrayGeometry, k: int):
    """Root-MUSIC on the Toeplitz matrix of the contiguous-lag run of v."""
    mc = coarray(g).contiguous
    if k >= mc:
        raise ContiguousLagError(f"need k < contiguous lag run, got k={k}, run={mc}")
    v = np.asarray(v, dtype=np.complex128).ravel()
    return root_music(toeplitz_embed(v[:mc]), k)


def method2(r: np.ndarray, g: ArrayGeometry, k: int, cfg: MleConfig):
    """Spatial smoothing onto the contiguous-lag virtual ULA, then the solver."""
    mc = coarray(g).contiguous
    if k >= mc:
        raise ContiguousLagError(f"need k < contiguous lag run, got k={k}, run={mc}")
    v = structcov_mle(spatial_smooth(r, g), ArrayGeometry.ula(mc), cfg)
    return root_music(toeplitz_embed(v), k)


class TestRootMusic:
    def test_single_source_exact(self):
        g = ArrayGeometry.ula(4)
        est = root_music(scene_covariance([0.3], [1.0], g), 1)
        assert abs(est.u[0] - 0.3) < 1e-10

    def test_two_sources_diagonal_loading(self):
        g = ArrayGeometry.ula(6)
        r = scene_covariance([-0.5, 0.5], [1.0, 2.0], g, noise=0.01)
        est = root_music(r, 2)
        np.testing.assert_allclose(est.u, [-0.5, 0.5], atol=1e-3)

    def test_exact_double_roots_on_circle(self):
        # noiseless data puts double roots exactly on the unit circle; the
        # reciprocal-pair resolution must still find both distinct sources
        g = ArrayGeometry.ula(6)
        r = scene_covariance([-0.5, 0.2], [1.0, 1.0], g)
        est = root_music(r, 2)
        np.testing.assert_allclose(est.u, [-0.5, 0.2], atol=1e-9)

    def test_full_rank_returns_k_roots(self, rng):
        # residuals of the selected roots obey the root-finder contract
        n = 6
        v = 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        v[0] = 3.0
        t = toeplitz_embed(v)
        est = root_music(t, n - 1)
        assert est.k == n - 1
        assert np.all((est.u >= -1.0) & (est.u < 1.0))

    def test_scaling_and_shift_invariance(self, rng):
        g = ArrayGeometry.ula(8)
        r = scene_covariance([-0.4, 0.1, 0.55], [1.0, 2.0, 0.5], g, noise=0.3)
        a = root_music(r, 3)
        b = root_music(5.0 * r + 2.0 * np.eye(8), 3)
        assert np.abs(a.u - b.u).max() <= 1e-12

    def test_rejects_k_not_less_than_order(self):
        with pytest.raises(EstimateError):
            root_music(np.eye(3, dtype=complex), 3)


@st.composite
def separated_ula_scenes(draw):
    """A ULA order, k <= order/2 directions at least 2.5/order apart (also
    across u = +-1, which alias), their powers and a noise floor."""
    order = draw(st.integers(4, 16))
    k = draw(st.integers(1, order // 2))
    sep = 2.5 / order
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    gaps = sep + (2.0 - k * sep) * weights / weights.sum()  # the last one wraps round
    start = -1.0 + gaps[-1] * draw(st.floats(0.25, 0.75))
    u = start + np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    powers = draw(st.lists(st.floats(0.5, 3.0), min_size=k, max_size=k))
    noise = draw(st.floats(-3.0, 0.0).map(lambda e: 10.0**e))
    return order, u, powers, noise


class TestRootMusicRoundTrip:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(separated_ula_scenes())
    def test_exact_covariance_gives_the_directions(self, scene):
        order, u, powers, noise = scene
        r = scene_covariance(u, powers, ArrayGeometry.ula(order), noise)
        np.testing.assert_allclose(root_music(r, len(u)).u, u, rtol=0, atol=1e-9)


class TestMusicSpectrum:
    def test_peak_at_source(self):
        g = ArrayGeometry.ula(5)
        grid = np.linspace(-1, 1, 401)[:-1]  # contains 0.25
        spec = music_spectrum(scene_covariance([0.25], [1.0], g), 1, grid)
        assert grid[int(np.argmax(spec))] == pytest.approx(0.25, abs=1e-12)
        assert spec.max() == 1.0

    def test_identity_covariance_flat(self):
        grid = np.linspace(-1, 1, 100, endpoint=False)
        spec = music_spectrum(np.eye(5, dtype=complex), 2, grid)
        assert spec.max() - spec.min() <= 1e-10

    def test_peaks_match_root_music(self):
        g = ArrayGeometry.ula(7)
        r = scene_covariance([-0.52, 0.18], [2.0, 1.0], g)
        grid = np.linspace(-1, 1, 1001)[:-1]
        spec = music_spectrum(r, 2, grid)
        est = root_music(r, 2)
        # every estimated direction has a spectrum sample within one grid cell
        order = np.argsort(spec)[::-1]
        peak_us = np.sort(grid[order[:2]])
        np.testing.assert_allclose(peak_us, est.u, atol=2.0 / 1000)


class TestVandermonde:
    def test_single_source(self):
        t = toeplitz_scene([0.25], [2.0], 5)
        est = vandermonde_decompose(t, 1e-8)
        assert est.k == 1
        assert abs(est.u[0] - 0.25) < 1e-8
        assert abs(est.powers[0] - 2.0) < 1e-8

    def test_two_equal_power_roundtrip(self):
        t = toeplitz_scene([-0.3, 0.4], [1.5, 1.5], 6)
        est = vandermonde_decompose(t, 1e-8)
        g6 = ArrayGeometry.ula(6)
        rec = scene_covariance(est.u, est.powers, g6)
        assert np.linalg.norm(rec - t) <= 1e-8 * np.linalg.norm(t)

    def test_full_rank_requires_noise_split(self):
        t = toeplitz_scene([-0.3, 0.4], [1.0, 1.0], 5, noise=0.5)
        with pytest.raises(EstimateError):
            vandermonde_decompose(t, 1e-8)

    def test_batch_roundtrip(self, rng):
        # acceptance-grade randomized round trip, orders <= 16, K <= order/2
        worst = 0.0
        for _ in range(100):
            order = int(rng.integers(4, 17))
            k = int(rng.integers(1, max(2, order // 2 + 1)))
            us = np.sort(rng.uniform(-1, 0.98, k))
            while k > 1 and np.any(np.diff(us) < 2.5 / order):
                us = np.sort(rng.uniform(-1, 0.98, k))
            ps = rng.uniform(0.5, 3.0, k)
            t = toeplitz_scene(us, ps, order)
            est = vandermonde_decompose(t, 1e-8)
            rec = scene_covariance(est.u, est.powers, ArrayGeometry.ula(order))
            worst = max(worst, np.linalg.norm(rec - t) / np.linalg.norm(t))
        assert worst < 1e-8


class TestMethod1:
    def test_hole_free_equals_direct_root_music(self, rng):
        g = ArrayGeometry((0, 1, 3))  # hole-free coarray, aperture 4
        m = np.arange(4)
        v = sum(
            p * np.exp(1j * np.pi * m * u)
            for p, u in [(2.0, -0.35), (1.0, 0.44)]
        ) + 0.05 * (np.arange(4) == 0)
        direct = root_music(toeplitz_embed(v), 2)
        np.testing.assert_allclose(method1(v, g, 2).u, direct.u, atol=0)

    def test_more_sources_than_sensors(self):
        g = ArrayGeometry((0, 1, 2, 3, 7, 11))
        scene = SourceScene.from_snr(tuple(np.linspace(-0.875, 0.875, 8)), 20.0)
        y = simulate(scene, g, 200, seed=52, trial=0)
        v = structcov_mle(scm(y), g, MleConfig(lam=1.0, outer_iters=20))
        est = method1(v, g, 8)
        assert est.k == 8
        assert np.abs(est.u - np.array(scene.u)).max() < 0.03

    def test_insufficient_contiguous_lags(self):
        g = ArrayGeometry((0, 1, 5, 6, 10, 11))  # contiguous run stops at 2
        v = np.zeros(12, dtype=complex)
        v[0] = 1.0
        with pytest.raises(ContiguousLagError):
            method1(v, g, 2)


class TestMethod2:
    def test_exact_toeplitz_pipeline_consistency(self):
        # ULA input whose SCM is exactly in the model class: both the direct
        # solver and the smoothed pipeline recover the same directions
        g = ArrayGeometry.ula(6)
        us, ps = (-0.45, 0.3), (2.0, 1.0)
        r = scene_covariance(us, ps, g, noise=0.1)
        cfg = MleConfig(lam=0.1, outer_iters=20)
        direct_v = structcov_mle(r, g, cfg)
        direct = root_music(toeplitz_embed(direct_v), 2)
        smoothed = method2(r, g, 2, MleConfig(lam=0.1, outer_iters=20))
        np.testing.assert_allclose(direct.u, us, atol=1e-4)
        np.testing.assert_allclose(smoothed.u, us, atol=1e-3)

    def test_rejects_k_beyond_run(self):
        g = ArrayGeometry((0, 1, 5, 6, 10, 11))
        with pytest.raises(ContiguousLagError):
            method2(np.eye(6, dtype=complex), g, 2, MleConfig(lam=1.0))

    def test_sharper_peaks_than_method1_golden_seed(self):
        # single realization at the sparse-array working point: the smoothed
        # pipeline yields narrower half-power peaks than the augmented lags
        g = ArrayGeometry((0, 1, 2, 3, 7, 11))
        u = tuple(np.sin(np.deg2rad(np.linspace(-70, 70, 8))))
        scene = SourceScene.from_snr(u, 20.0)
        y = simulate(scene, g, 200, seed=7600, trial=0)
        r = scm(y)
        grid = np.linspace(-1, 1, 2000, endpoint=False)

        v1 = structcov_mle(r, g, MleConfig(lam=1.0, outer_iters=20))
        spec1 = music_spectrum(toeplitz_embed(v1[:12]), 8, grid)
        v2 = structcov_mle(
            spatial_smooth(r, g), ArrayGeometry.ula(12), MleConfig(lam=1.0, outer_iters=20)
        )
        spec2 = music_spectrum(toeplitz_embed(v2), 8, grid)

        def mean_half_power_width(spec):
            widths = []
            for u_true in scene.u:
                i = int(np.argmin(np.abs(grid - u_true)))
                while 0 < i < grid.size - 1 and (spec[i + 1] > spec[i] or spec[i - 1] > spec[i]):
                    i = i + 1 if spec[i + 1] > spec[i] else i - 1
                half = spec[i] / 2
                lo = i
                while lo > 0 and spec[lo] > half:
                    lo -= 1
                hi = i
                while hi < grid.size - 1 and spec[hi] > half:
                    hi += 1
                widths.append(grid[hi] - grid[lo])
            return float(np.mean(widths))

        assert mean_half_power_width(spec2) < mean_half_power_width(spec1)


def dispatch_config(positions, u) -> ExperimentConfig:
    return ExperimentConfig(
        geometry=ArrayGeometry(positions), scene_u=u, scene_snr_db=(10.0,) * len(u),
        rho_abs=0.0, rho_phase=0.0, snapshots=40, estimators=("method1", "method2", "em"),
        sweep_axis="none", sweep_values=(math.nan,), trials=1, seed=0, solver_iter=4,
    )


class TestEstimatorDispatch:
    # k < Mc on each: the ULA and the nested array are hole-free, the NULA's
    # contiguous lag run is 2 long
    @pytest.mark.parametrize(
        "positions, u",
        [((0, 1, 2, 3, 4), (-0.3, 0.4)), ((0, 1, 2, 3, 7, 11), (-0.3, 0.1, 0.5)),
         ((0, 1, 5, 6, 10, 11), (0.2,))],
        ids=["ula", "nested", "nula"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_pipelines(self, positions, u, seed):
        cfg = dispatch_config(positions, u)
        g, k = cfg.geometry, cfg.k
        y = simulate(SourceScene.from_snr(u, 10.0), g, cfg.snapshots, seed=seed)
        mle = MleConfig(lam=1.0, lam_m=1000.0, outer_iters=cfg.solver_iter)
        plan = CompletionPlan.from_geometry(g)
        want = {
            "method1": method1(structcov_mle(scm(y), g, mle), g, k),
            "method2": method2(scm(y), g, k, mle),
            "em": root_music(toeplitz_embed(em_gridless(y, g, plan, mle)), k),
        }
        for name, est in want.items():
            got = run_estimator(name, y, cfg, {})
            assert np.array_equal(got.u, est.u), name

    @pytest.mark.parametrize("name", ["method1", "method2"])
    def test_short_contiguous_run_rejected_before_solving(self, monkeypatch, name):
        calls = []
        solve = experiments.structcov_mle

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(experiments, "structcov_mle", counted)
        cfg = dispatch_config((0, 1, 5, 6, 10, 11), (-0.3, 0.4))  # k = 2 = Mc
        y = simulate(SourceScene.from_snr(cfg.scene_u, 10.0), cfg.geometry, cfg.snapshots, seed=0)
        with pytest.raises(ContiguousLagError):
            run_estimator(name, y, cfg, {})
        assert calls == []
