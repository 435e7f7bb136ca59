import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlessdoa import numerics as nx
from gridlessdoa.geometry import (
    ArrayGeometry,
    GeometryError,
    adjoint_structured,
    coarray,
    nested_completion,
    nested_two_level,
    structured_matrix,
    toeplitz_embed,
)
from gridlessdoa.mlesolve import unpack_lags
from gridlessdoa.sigmodel import coarray_lag_estimates


def brute_coarray(positions):
    """Independent enumeration of all pairwise differences."""
    return sorted({a - b for a in positions for b in positions})


class TestCoarray:
    def test_example_013(self):
        lag = coarray(ArrayGeometry((0, 1, 3)))
        assert lag.lags == tuple(range(-3, 4))
        assert lag.aperture == 4
        assert lag.holes == ()

    def test_example_014_has_hole(self):
        lag = coarray(ArrayGeometry((0, 1, 4)))
        assert lag.holes == (2,)
        assert lag.aperture == 5
        assert lag.contiguous == 2

    def test_single_sensor(self):
        lag = coarray(ArrayGeometry((0,)))
        assert lag.lags == (0,)
        assert lag.aperture == 1

    def test_nested_vs_enumeration(self):
        positions = (0, 1, 2, 3, 7, 11)
        lag = coarray(ArrayGeometry(positions))
        assert list(lag.lags) == brute_coarray(positions)
        assert lag.holes == ()
        assert lag.aperture == 12

    def test_symmetry_and_oddness(self):
        for positions in [(0, 2, 5), (0, 1, 5, 6, 10, 11), (0, 3, 4, 9)]:
            lag = coarray(ArrayGeometry(positions))
            assert list(lag.lags) == brute_coarray(positions)
            assert set(lag.lags) == {-d for d in lag.lags}
            assert 0 in lag.lags
            assert len(lag.lags) % 2 == 1

    def test_off_grid_rejected(self):
        with pytest.raises(GeometryError):
            coarray(ArrayGeometry((0, 1.5, 3)))


class TestStructuredMatrix:
    def test_symbolic_entries(self):
        # tag each lag with a distinct value and read the layout back
        g = ArrayGeometry((0, 1, 3))
        v = np.array([1.0, 2.0 + 1j, 3.0 + 2j, 4.0 + 3j])
        t = structured_matrix(v, g)
        expect = np.array(
            [
                [v[0], v[1], v[3]],
                [np.conj(v[1]), v[0], v[2]],
                [np.conj(v[3]), np.conj(v[2]), v[0]],
            ]
        )
        np.testing.assert_allclose(t, expect)

    def test_unit_vector_gives_identity(self):
        g = ArrayGeometry((0, 1, 4))
        v = np.zeros(5, dtype=complex)
        v[0] = 1.0
        np.testing.assert_allclose(structured_matrix(v, g), np.eye(3))

    def test_single_source_rank_one_psd(self):
        g = ArrayGeometry((0, 1, 3))
        m = np.arange(4)
        v = 2.0 * np.exp(-1j * np.pi * m * 0.4)
        t = structured_matrix(v, g)
        e = nx.herm_eig(t)
        assert e.values[0] >= -1e-12
        assert (e.values > 1e-10).sum() == 1

    def test_equals_sampled_toeplitz(self, rng):
        for positions in [(0, 1, 3), (0, 1, 4), (0, 1, 5, 6, 10, 11)]:
            g = ArrayGeometry(positions)
            ap = coarray(g).aperture
            v = rng.standard_normal(ap) + 1j * rng.standard_normal(ap)
            v[0] = v[0].real
            t = structured_matrix(v, g)
            big = toeplitz_embed(v)
            idx = [int(p) for p in positions]
            np.testing.assert_allclose(t, big[np.ix_(idx, idx)], atol=0)

    def test_length_mismatch(self):
        with pytest.raises(GeometryError):
            structured_matrix(np.ones(3), ArrayGeometry((0, 1, 3)))


class TestToeplitzEmbed:
    def test_unit(self):
        np.testing.assert_allclose(toeplitz_embed([1.0, 0.0, 0.0]), np.eye(3))

    def test_tridiagonal_spectrum(self):
        # closed form for tridiag(1, 2, 1) of order 3: 2 + 2 cos(k pi / 4)
        e = nx.herm_eig(toeplitz_embed([2.0, 1.0, 0.0]))
        np.testing.assert_allclose(e.values, [2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)], atol=1e-12)

    def test_first_row(self, rng):
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v[0] = v[0].real
        t = toeplitz_embed(v)
        np.testing.assert_allclose(t[0, :], v)
        np.testing.assert_allclose(t, t.conj().T)

    def test_psd_embedding_implies_psd_sampling(self, rng):
        # principal submatrix of a PSD matrix stays PSD
        g = ArrayGeometry((0, 1, 4))
        for _ in range(20):
            us = rng.uniform(-1, 1, 2)
            ps = rng.uniform(0.1, 2.0, 2)
            m = np.arange(5)
            v = sum(p * np.exp(1j * np.pi * m * u) for p, u in zip(ps, us))
            assert nx.herm_eig(toeplitz_embed(v)).values[0] >= -1e-10
            assert nx.herm_eig(structured_matrix(v, g)).values[0] >= -1e-10


class TestAdjoint:
    def test_identity_matrix(self):
        g = ArrayGeometry.ula(3)
        adj = adjoint_structured(np.eye(3, dtype=complex), g)
        np.testing.assert_allclose(adj, [3.0, 0.0, 0.0], atol=1e-14)

    def test_adjoint_identity_random(self, rng):
        for positions in [(0, 1, 2), (0, 1, 4), (0, 1, 5, 6, 10, 11)]:
            g = ArrayGeometry(positions)
            ap = coarray(g).aperture
            for _ in range(100):
                b = rng.standard_normal((g.m, g.m)) + 1j * rng.standard_normal((g.m, g.m))
                a = 0.5 * (b + b.conj().T)
                v = rng.standard_normal(ap) + 1j * rng.standard_normal(ap)
                v[0] = v[0].real
                lhs = np.trace(a @ structured_matrix(v, g)).real
                rhs = np.real(np.vdot(v, adjoint_structured(a, g)))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_absent_lag_is_zero(self, rng):
        g = ArrayGeometry((0, 1, 4))
        for _ in range(10):
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            adj = adjoint_structured(0.5 * (b + b.conj().T), g)
            assert adj[2] == 0.0


def brute_nested_completion(positions):
    """Enumerate every nested pair with matching aperture; minimal addition wins."""
    aperture = max(positions) + 1
    best = None
    for s1 in range(1, aperture):
        for s2 in range(1, aperture + 1):
            if (s1 + 1) * s2 != aperture:
                continue
            missing = tuple(sorted(set(nested_two_level(s1, s2)) - set(positions)))
            key = (len(missing), s1)
            if best is None or key < best[0]:
                best = (key, missing)
    return best[1]


class TestNestedCompletion:
    def test_full_ula(self):
        assert nested_completion(ArrayGeometry.ula(6)) == ()

    def test_nested_array_matches_enumeration(self):
        positions = (0, 1, 2, 3, 7, 11)
        got = nested_completion(ArrayGeometry(positions))
        assert got == brute_nested_completion(positions)
        assert got == ()  # the array is itself a nested geometry

    def test_nula_covers_holes(self):
        positions = (0, 1, 5, 6, 10, 11)
        got = nested_completion(ArrayGeometry(positions))
        assert got == brute_nested_completion(positions)
        complete = ArrayGeometry(tuple(sorted(set(positions) | set(got))))
        lag = coarray(complete)
        assert lag.holes == ()
        # the completion supplies the lags absent from the physical coarray
        assert set(coarray(ArrayGeometry(positions)).holes) == {2, 3, 7, 8}


class TestArrayGeometry:
    def test_validation(self):
        with pytest.raises(GeometryError):
            ArrayGeometry((1, 2, 3))  # must start at 0
        with pytest.raises(GeometryError):
            ArrayGeometry((0, 2, 2))  # strictly increasing
        with pytest.raises(GeometryError):
            ArrayGeometry(())

    def test_parse_literal(self):
        g = ArrayGeometry.parse("0,1,2,3,7,11")
        assert g.grid_positions() == (0, 1, 2, 3, 7, 11)
        assert g.on_grid

    def test_off_grid_flag(self):
        g = ArrayGeometry((0, 1, 2.1, 3.5, 4.7, 10))
        assert not g.on_grid
        with pytest.raises(GeometryError):
            g.grid_positions()


def test_pack_unpack_roundtrip(rng):
    x = rng.standard_normal(9)
    np.testing.assert_allclose(unpack_lags(x)[0].imag, 0.0)
    v = unpack_lags(x)
    from gridlessdoa.mlesolve import pack_lags

    np.testing.assert_allclose(pack_lags(v), x)


# -- properties of the one lag map over random on-grid geometries -------------

on_grid_positions = st.sets(st.integers(1, 40), max_size=9).map(
    lambda rest: (0,) + tuple(sorted(rest))
)
seeds = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)


def _random_lags(rng, aperture):
    v = rng.standard_normal(aperture) + 1j * rng.standard_normal(aperture)
    v[0] = v[0].real
    return v


def _dict_loop_lag_estimates(r, positions):
    """The pairwise dict-loop definition of the per-lag averages."""
    sums: dict[int, complex] = {}
    counts: dict[int, int] = {}
    for a, pa in enumerate(positions):
        for b, pb in enumerate(positions):
            sums[pa - pb] = sums.get(pa - pb, 0.0) + r[a, b]
            counts[pa - pb] = counts.get(pa - pb, 0) + 1
    return {lag: sums[lag] / counts[lag] for lag in sums}


class TestLagMapProperties:
    @PROPERTY
    @given(on_grid_positions, seeds)
    def test_adjoint_identity(self, positions, seed):
        rng = np.random.default_rng(seed)
        g = ArrayGeometry(positions)
        b = rng.standard_normal((g.m, g.m)) + 1j * rng.standard_normal((g.m, g.m))
        a = 0.5 * (b + b.conj().T)
        v = _random_lags(rng, coarray(g).aperture)
        lhs = np.trace(a @ structured_matrix(v, g)).real
        rhs = np.real(np.vdot(v, adjoint_structured(a, g)))
        scale = np.linalg.norm(a) * np.linalg.norm(v) * g.m
        assert abs(lhs - rhs) <= 1e-13 * scale

    @PROPERTY
    @given(on_grid_positions, seeds)
    def test_lag_estimates_match_dict_loop(self, positions, seed):
        rng = np.random.default_rng(seed)
        g = ArrayGeometry(positions)
        r = rng.standard_normal((g.m, g.m)) + 1j * rng.standard_normal((g.m, g.m))
        got = coarray_lag_estimates(r, g)
        want = _dict_loop_lag_estimates(r, positions)
        assert got.keys() == want.keys()
        for lag, value in want.items():
            assert abs(got[lag] - value) <= 1e-14 * g.m * np.abs(r).max()
