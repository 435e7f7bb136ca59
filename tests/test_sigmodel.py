import math

import numpy as np
import pytest

from gridlessdoa import numerics as nx
from gridlessdoa.geometry import ArrayGeometry
from gridlessdoa.sigmodel import (
    ContiguousLagError,
    ModelError,
    SnapshotMatrix,
    SourceScene,
    fb_average,
    manifold,
    model_covariance,
    scm,
    simulate,
    spatial_smooth,
)


class TestManifold:
    def test_broadside(self):
        g = ArrayGeometry((0, 1, 3))
        np.testing.assert_allclose(manifold(0.0, g), np.ones(3))

    def test_endfire_ula2(self):
        g = ArrayGeometry.ula(2)
        np.testing.assert_allclose(manifold(1.0 - 1e-16, g), [1.0, -1.0], atol=1e-12)

    def test_example_013(self):
        g = ArrayGeometry((0, 1, 3))
        got = manifold(0.5, g)
        np.testing.assert_allclose(got, [1.0, -1j, 1j], atol=1e-14)


class TestSourceScene:
    def test_validation(self):
        with pytest.raises(ModelError):
            SourceScene((0.5, -0.5), (1.0, 1.0))  # not increasing
        with pytest.raises(ModelError):
            SourceScene((0.0,), (0.0,))  # zero power
        with pytest.raises(ModelError):
            SourceScene((0.0, 0.5), (1.0, 1.0), rho=1.5)

    @pytest.mark.parametrize(
        "u, powers, rho, noise_var",
        [
            ((math.nan,), (1.0,), 0.0, 1.0),
            ((0.0,), (math.inf,), 0.0, 1.0),
            ((0.0, 0.5), (1.0, 1.0), complex(math.nan, math.nan), 1.0),
            ((0.0,), (1.0,), 0.0, math.nan),
        ],
        ids=["u", "powers", "rho", "noise_var"],
    )
    def test_rejects_non_finite(self, u, powers, rho, noise_var):
        with pytest.raises(ModelError, match="finite"):
            SourceScene(u, powers, rho=rho, noise_var=noise_var)

    def test_from_snr(self):
        scene = SourceScene.from_snr((-0.5, 0.5), 20.0)
        assert scene.noise_var == 1.0
        np.testing.assert_allclose(scene.powers, [100.0, 100.0])

    def test_source_covariance_psd(self):
        scene = SourceScene((-0.5, 0.5), (1.0, 4.0), rho=0.99 * np.exp(1j))
        e = nx.herm_eig(scene.source_covariance())
        assert e.values[0] >= -1e-12


class TestSimulate:
    def test_bit_reproducible(self):
        scene = SourceScene.from_snr((-0.3, 0.4), 10.0)
        g = ArrayGeometry.ula(4)
        a = simulate(scene, g, 16, seed=7, trial=3)
        b = simulate(scene, g, 16, seed=7, trial=3)
        assert np.array_equal(a.data, b.data)
        c = simulate(scene, g, 16, seed=7, trial=4)
        assert not np.array_equal(a.data, c.data)

    def test_noiseless_single_source_rank_one(self):
        scene = SourceScene((0.3,), (4.0,), noise_var=1e-20)
        g = ArrayGeometry.ula(5)
        y = simulate(scene, g, 1, seed=1)
        gram = y.data @ y.data.conj().T
        e = nx.herm_eig(gram)
        assert (e.values > 1e-8 * e.values[-1]).sum() == 1
        # the single snapshot is proportional to the manifold
        ratio = y.data[:, 0] / manifold(0.3, g)
        assert np.abs(ratio - ratio[0]).max() < 1e-8

    def test_uncorrelated_sources_monte_carlo(self):
        # sample cross-correlation of the two source signals vanishes; recover
        # them through the (noise-free) 2x2 manifold
        scene = SourceScene((-0.4, 0.4), (1.0, 1.0), noise_var=1e-18)
        g = ArrayGeometry.ula(2)
        y = simulate(scene, g, 100_000, seed=5)
        phi = manifold(np.array(scene.u), g)
        x_hat = np.linalg.solve(phi, y.data)
        num = np.mean(x_hat[0] * np.conj(x_hat[1]))
        den = np.sqrt(np.mean(np.abs(x_hat[0]) ** 2) * np.mean(np.abs(x_hat[1]) ** 2))
        assert abs(num / den) < 0.02

    def test_correlated_pair_monte_carlo(self):
        # the generator reproduces E[x1 conj(x2)] = rho sqrt(p1 p2); recover the
        # source pair by inverting the 2x2 manifold on a noise-free simulation
        rho = 0.7 * (0.5010 + 0.8654j)
        scene = SourceScene((-0.4, 0.4), (4.0, 9.0), rho=rho, noise_var=1e-18)
        g = ArrayGeometry.ula(2)
        y = simulate(scene, g, 100_000, seed=11)
        phi = manifold(np.array(scene.u), g)
        x_hat = np.linalg.solve(phi, y.data)
        got = np.mean(x_hat[0] * np.conj(x_hat[1]))
        expect = rho * np.sqrt(4.0 * 9.0)
        assert abs(got - expect) / abs(expect) < 0.03


class TestScm:
    def test_single_column(self, rng):
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = scm(SnapshotMatrix(data=y[:, None]))
        np.testing.assert_allclose(got, np.outer(y, y.conj()))

    def test_identity_snapshots(self):
        got = scm(SnapshotMatrix(data=np.eye(4, dtype=complex)))
        np.testing.assert_allclose(got, np.eye(4) / 4.0)

    def test_psd(self, rng):
        y = rng.standard_normal((5, 20)) + 1j * rng.standard_normal((5, 20))
        e = nx.herm_eig(scm(SnapshotMatrix(data=y)))
        assert e.values[0] >= -1e-12

    def test_converges_to_model_covariance(self):
        scene = SourceScene.from_snr((-0.5, 0.2), 10.0)
        g = ArrayGeometry((0, 1, 4))
        y = simulate(scene, g, 100_000, seed=3)
        r_model = model_covariance(scene, g)
        rel = np.linalg.norm(scm(y) - r_model) / np.linalg.norm(r_model)
        assert rel < 0.05


class TestFbAverage:
    def test_toeplitz_fixed_point(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v[0] = abs(v[0])
        from gridlessdoa.geometry import toeplitz_embed

        t = toeplitz_embed(v)
        np.testing.assert_allclose(fb_average(t), t, atol=1e-14)

    def test_rank_one_projector(self):
        r = np.zeros((2, 2), dtype=complex)
        r[0, 0] = 1.0
        np.testing.assert_allclose(fb_average(r), 0.5 * np.eye(2))

    def test_rank_at_most_two(self):
        g = ArrayGeometry.ula(5)
        phi = manifold(0.37, g)
        r_fb = fb_average(np.outer(phi, phi.conj()))
        e = nx.herm_eig(r_fb)
        assert (np.abs(e.values) > 1e-10 * abs(e.values[-1])).sum() <= 2

    def test_persymmetric_and_psd(self, rng):
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        r = b @ b.conj().T
        r_fb = fb_average(r)
        np.testing.assert_allclose(r_fb[::-1, ::-1].T, r_fb, atol=1e-12)
        assert nx.herm_eig(r_fb).values[0] >= -1e-10


class TestSpatialSmooth:
    def test_window_formula_mc2(self):
        # geometry {0,1}: lag estimates are a = lag 1, b = mean diagonal,
        # c = conj(a); the smoothed matrix averages the windows (b,a), (c,b)
        a = 0.3 - 0.7j
        b = 2.0
        r = np.array([[b, np.conj(a)], [a, b]])
        got = spatial_smooth(r, ArrayGeometry((0, 1)))
        w1 = np.array([b, a])
        w2 = np.array([np.conj(a), b])
        expect = 0.5 * (np.outer(w1, w1.conj()) + np.outer(w2, w2.conj()))
        np.testing.assert_allclose(got, expect, atol=1e-14)

    def test_exact_toeplitz_consistency(self):
        # on an exact model covariance the smoothed matrix stays consistent
        # with the same source directions (checked through its lag structure)
        g = ArrayGeometry.ula(5)
        scene_u, scene_p = (-0.35, 0.2), (2.0, 1.0)
        r = sum(
            p * np.outer(manifold(u, g), manifold(u, g).conj())
            for u, p in zip(scene_u, scene_p)
        )
        rz = spatial_smooth(r, g)
        assert rz.shape == (5, 5)
        assert nx.herm_eig(rz).values[0] >= -1e-10
        # signal subspace of rz matches the manifolds of the true sources
        e = nx.herm_eig(rz)
        en = e.vectors[:, :3]
        for u in scene_u:
            phi = manifold(u, g)
            assert np.linalg.norm(en.conj().T @ phi) < 1e-8 * np.linalg.norm(phi)

    def test_nested_order_is_contiguous_run(self, rng):
        g = ArrayGeometry((0, 1, 2, 3, 7, 11))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        got = spatial_smooth(b @ b.conj().T, g)
        assert got.shape == (12, 12)  # six sensors, twelve contiguous lags

    def test_too_few_contiguous_lags(self):
        g = ArrayGeometry((0, 2))  # coarray {0, 2}: run stops at lag 1
        with pytest.raises(ContiguousLagError):
            spatial_smooth(np.eye(2, dtype=complex), g)
