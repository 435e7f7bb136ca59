import numpy as np
import pytest

from gridlessdoa import numerics as nx
from gridlessdoa.geometry import ArrayGeometry
from gridlessdoa.sigmodel import manifold


def random_hermitian(rng, n, psd=False):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return b @ b.conj().T if psd else 0.5 * (b + b.conj().T)


class TestHermEig:
    def test_identity(self):
        e = nx.herm_eig(np.eye(3, dtype=complex))
        np.testing.assert_allclose(e.values, [1.0, 1.0, 1.0], atol=1e-14)

    def test_diagonal(self):
        e = nx.herm_eig(np.diag([1.0, 2.0, 3.0]).astype(complex))
        np.testing.assert_allclose(e.values, [1.0, 2.0, 3.0], atol=1e-14)
        # columns match coordinate axes up to phase
        for j in range(3):
            assert abs(abs(e.vectors[j, j]) - 1.0) < 1e-12

    def test_rank_one_manifold(self):
        # trace equals M and the construction is rank one, so the spectrum
        # is (0, 0, 0, M)
        g = ArrayGeometry.ula(4)
        phi = manifold(0.3, g)
        e = nx.herm_eig(np.outer(phi, phi.conj()))
        np.testing.assert_allclose(e.values, [0.0, 0.0, 0.0, 4.0], atol=1e-12)

    def test_reconstruction_and_unitarity(self, rng):
        for n in (2, 3, 8, 17, 33, 64):
            a = random_hermitian(rng, n, psd=True)
            e = nx.herm_eig(a)
            scale = np.linalg.norm(a)
            rec = e.vectors @ np.diag(e.values) @ e.vectors.conj().T
            assert np.linalg.norm(rec - a) <= 1e-10 * scale
            assert np.linalg.norm(e.vectors.conj().T @ e.vectors - np.eye(n)) <= 1e-10
            assert np.all(np.diff(e.values) >= -1e-14 * scale)

    def test_trace_and_shift_identities(self, rng):
        a = random_hermitian(rng, 9)
        e = nx.herm_eig(a)
        scale = np.linalg.norm(a)
        assert abs(e.values.sum() - np.trace(a).real) <= 1e-10 * scale
        shifted = nx.herm_eig(a + 2.5 * np.eye(9))
        np.testing.assert_allclose(shifted.values, e.values + 2.5, atol=1e-10 * scale)

    def test_rejects_asymmetric(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(nx.NumericsError):
            nx.herm_eig(a)

    def test_rejects_nonfinite(self):
        a = np.eye(3, dtype=complex)
        a[0, 0] = np.nan
        with pytest.raises(nx.NumericsError):
            nx.herm_eig(a)


class TestCholSolve:
    """Solves against a positive definite matrix, through ``inv_pd``."""

    def test_identity(self, rng):
        b = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        np.testing.assert_allclose(nx.inv_pd(np.eye(4, dtype=complex)) @ b, b, atol=1e-14)

    def test_scaled_identity(self):
        x = nx.inv_pd(2.0 * np.eye(3, dtype=complex))
        np.testing.assert_allclose(x, 0.5 * np.eye(3), atol=1e-14)

    def test_self_solve_gives_identity(self, rng):
        a = random_hermitian(rng, 8, psd=True) + 8 * np.eye(8)
        x = nx.inv_pd(a) @ a
        assert np.linalg.norm(x - np.eye(8)) <= 1e-9

    def test_roundtrip_up_to_64(self, rng):
        for n in (2, 16, 64):
            a = random_hermitian(rng, n, psd=True) + n * np.eye(n)
            b = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
            x = nx.inv_pd(a) @ b
            assert np.linalg.norm(a @ x - b) <= 1e-9 * np.linalg.norm(b)

    def test_not_positive_definite(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(nx.NotPositiveDefiniteError):
            nx.inv_pd(a)

    def test_logdet(self, rng):
        a = random_hermitian(rng, 6, psd=True) + 6 * np.eye(6)
        e = nx.herm_eig(a)
        assert abs(nx.logdet_from_factor(nx.chol_factor(a)) - np.log(e.values).sum()) < 1e-10


class TestInvFromFactor:
    def test_matches_identity_solves(self, rng):
        # independent reference: LAPACK's general inverse of the unfactored matrix
        for n in (1, 4, 12, 30):
            a = random_hermitian(rng, n, psd=True) + n * np.eye(n)
            got = nx.inv_from_factor(nx.chol_factor(a))
            want = np.linalg.inv(a)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            assert np.linalg.norm(a @ got - np.eye(n)) <= 1e-12 * n

    def test_exactly_hermitian_and_inv_pd_agrees(self, rng):
        a = random_hermitian(rng, 10, psd=True) + np.eye(10)
        got = nx.inv_from_factor(nx.chol_factor(a))
        assert np.array_equal(got, got.conj().T)
        assert np.array_equal(nx.inv_pd(a), got)

    def test_scalar(self):
        low = nx.chol_factor(np.array([[4.0 + 0j]]))
        assert nx.inv_from_factor(low)[0, 0] == pytest.approx(0.25, abs=1e-16)


class TestPolyRoots:
    def test_z2_minus_1(self):
        r = np.sort_complex(nx.poly_roots([-1.0, 0.0, 1.0]))
        np.testing.assert_allclose(r, [-1.0, 1.0], atol=1e-12)

    def test_z2_plus_1(self):
        r = nx.poly_roots([1.0, 0.0, 1.0])
        np.testing.assert_allclose(np.sort(r.imag), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(r.real, [0.0, 0.0], atol=1e-12)

    def test_forward_expansion(self):
        # expand (z - 0.5 e^{j pi 0.3})(z - 2 e^{j pi 0.3}) directly and
        # verify both factors are recovered
        r1 = 0.5 * np.exp(1j * np.pi * 0.3)
        r2 = 2.0 * np.exp(1j * np.pi * 0.3)
        coeffs = np.convolve([-r1, 1.0], [-r2, 1.0])
        roots = nx.poly_roots(coeffs)
        got = sorted(roots, key=abs)
        assert abs(got[0] - r1) < 1e-8
        assert abs(got[1] - r2) < 1e-8

    def test_residual_bound(self, rng):
        for deg in (3, 7, 12, 22):
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            roots = nx.poly_roots(c)
            assert roots.size == deg
            vals = np.polyval(c[::-1], roots)
            bound = 1e-8 * np.abs(c).max() * np.maximum(1.0, np.abs(roots)) ** deg
            assert np.all(np.abs(vals) <= bound)

    def test_product_of_roots(self, rng):
        for deg in (2, 5, 9):
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            c[0] += 3.0  # keep the constant term well away from zero
            roots = nx.poly_roots(c)
            expect = (-1.0) ** deg * c[0] / c[-1]
            assert abs(np.prod(roots) - expect) <= 1e-7 * abs(expect)

    def test_degenerate_inputs(self):
        with pytest.raises(nx.NumericsError):
            nx.poly_roots([1.0])
        with pytest.raises(nx.NumericsError):
            nx.poly_roots([1.0, 2.0, 0.0])
