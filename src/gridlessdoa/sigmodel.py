"""Synthetic narrowband snapshot generation and second-order preprocessing.

Sources ride on plane waves parameterized by u = sin(theta) in [-1, 1); the
array response to a unit source at u is ``exp(-j pi p_m u)`` per sensor.
Snapshots are i.i.d. circular complex Gaussian in both signal and noise.
Randomness comes from a counter-based Philox stream keyed by
(seed, trial, stream) with Box-Muller sampling, so trials are reproducible
and independent under any parallel schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, coarray, lag_map
from .numerics import chol_factor, herm_eig, NotPositiveDefiniteError


class ModelError(Exception):
    pass


class ContiguousLagError(ModelError):
    """The coarray's contiguous lag run is too short for the operation."""


@dataclass(frozen=True)
class SourceScene:
    """True source configuration: directions, powers, pair correlation, noise.

    ``rho`` is the complex correlation coefficient of sources 0 and 1; all
    other pairs are uncorrelated.  Powers are linear; per-source SNR is
    ``10 log10(p_k / noise_var)``.
    """

    u: tuple[float, ...]
    powers: tuple[float, ...]
    rho: complex = 0.0 + 0.0j
    noise_var: float = 1.0

    def __post_init__(self) -> None:
        u = tuple(float(x) for x in self.u)
        p = tuple(float(x) for x in self.powers)
        if len(u) != len(p):
            raise ModelError("u and powers must have matching length")
        if not np.all(np.isfinite(u + p + (self.rho, self.noise_var))):
            raise ModelError("u, powers, rho and noise_var must be finite")
        if any(b - a <= 0 for a, b in zip(u, u[1:])):
            raise ModelError("u must be strictly increasing")
        if any(x < -1.0 or x >= 1.0 for x in u):
            raise ModelError("u values must lie in [-1, 1)")
        if any(x <= 0 for x in p):
            raise ModelError("powers must be positive")
        if self.noise_var <= 0:
            raise ModelError("noise_var must be positive")
        if abs(self.rho) > 1.0 + 1e-12:
            raise ModelError("|rho| must be at most 1")
        if abs(self.rho) > 0 and len(u) < 2:
            raise ModelError("correlation needs at least two sources")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "powers", p)
        object.__setattr__(self, "rho", complex(self.rho))

    @classmethod
    def from_snr(
        cls,
        u: tuple[float, ...],
        snr_db: tuple[float, ...] | float,
        rho: complex = 0.0,
    ) -> "SourceScene":
        """Scene with unit noise variance and powers set from per-source SNR."""
        if np.isscalar(snr_db):
            snr_db = tuple(float(snr_db) for _ in u)
        try:
            powers = tuple(10.0 ** (s / 10.0) for s in snr_db)
        except OverflowError:
            raise ModelError("snr_db is too large: the source power overflows") from None
        return cls(u=tuple(u), powers=powers, rho=rho, noise_var=1.0)

    @property
    def k(self) -> int:
        return len(self.u)

    def source_covariance(self) -> np.ndarray:
        r = np.diag(np.asarray(self.powers, dtype=np.complex128))
        if abs(self.rho) > 0:
            c = self.rho * np.sqrt(self.powers[0] * self.powers[1])
            r[0, 1] = c
            r[1, 0] = np.conj(c)
        return r


@dataclass(frozen=True)
class SnapshotMatrix:
    """Complex snapshot block: one row per sensor, one column per snapshot."""

    data: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.data, dtype=np.complex128)
        if d.ndim != 2:
            raise ModelError("snapshot data must be a 2-D array")
        if not np.all(np.isfinite(d)):
            raise ModelError("snapshot data has non-finite entries")
        object.__setattr__(self, "data", d)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n_snapshots(self) -> int:
        return self.data.shape[1]


def manifold(u, g: ArrayGeometry) -> np.ndarray:
    """Array response phi(u); columns over u when u is an array."""
    pos = np.asarray(g.positions, dtype=np.float64)
    u_arr = np.asarray(u, dtype=np.float64)
    phase = np.exp(-1j * np.pi * np.multiply.outer(pos, u_arr))
    return phase


def _complex_normal(shape: tuple[int, ...], seed: int, trial: int, stream: int) -> np.ndarray:
    """CN(0, 1) draws via Box-Muller over a Philox counter stream."""
    # Philox-4x64 takes a 128-bit key: seed in one word, (trial, stream) in the other.
    gen = np.random.Generator(
        np.random.Philox(key=(seed & 0xFFFFFFFFFFFFFFFF, ((trial & 0xFFFFFFFFFFFFFF) << 8) | (stream & 0xFF)))
    )
    u1 = 1.0 - gen.random(shape)  # in (0, 1]
    u2 = gen.random(shape)
    radius = np.sqrt(-np.log(u1))  # sqrt(-2 ln u1) / sqrt(2)
    return radius * np.exp(2j * np.pi * u2)


def _psd_coloring(r: np.ndarray) -> np.ndarray:
    """Factor F with F F^H = r; Cholesky, eigenvalue fallback when singular."""
    try:
        return chol_factor(r)
    except NotPositiveDefiniteError:
        eig = herm_eig(r)
        if eig.values.min() < -1e-10 * max(1.0, eig.values.max()):
            raise ModelError("source covariance is not positive semidefinite")
        return eig.vectors * np.sqrt(np.clip(eig.values, 0.0, None))


def simulate(
    scene: SourceScene,
    g: ArrayGeometry,
    n_snapshots: int,
    seed: int,
    trial: int = 0,
) -> SnapshotMatrix:
    """Draw Y = Phi X + N with X ~ CN(0, R_x) and N ~ CN(0, noise_var I)."""
    if n_snapshots < 1:
        raise ModelError("need at least one snapshot")
    phi = manifold(np.asarray(scene.u), g)
    factor = _psd_coloring(scene.source_covariance())
    x = factor @ _complex_normal((scene.k, n_snapshots), seed, trial, stream=0)
    n = np.sqrt(scene.noise_var) * _complex_normal((g.m, n_snapshots), seed, trial, stream=1)
    return SnapshotMatrix(data=phi @ x + n)


def model_covariance(scene: SourceScene, g: ArrayGeometry) -> np.ndarray:
    """Ensemble covariance Phi R_x Phi^H + noise_var I."""
    phi = manifold(np.asarray(scene.u), g)
    return phi @ scene.source_covariance() @ phi.conj().T + scene.noise_var * np.eye(g.m)


def scm(y: SnapshotMatrix) -> np.ndarray:
    """Sample covariance (1/L) Y Y^H over the L snapshot columns."""
    return (y.data @ y.data.conj().T) / y.n_snapshots


def fb_average(r: np.ndarray) -> np.ndarray:
    """Forward-backward average (R + J R^T J) / 2 with J the exchange matrix."""
    r = np.asarray(r, dtype=np.complex128)
    return 0.5 * (r + r[::-1, ::-1].T)


def coarray_lag_estimates(r: np.ndarray, g: ArrayGeometry) -> dict[int, complex]:
    """Per-lag correlation estimates averaged over all sensor pairs sharing a lag.

    The lag-l value averages entries ``r[a, b]`` over pairs with
    ``p_a - p_b = l``; negative lags come out conjugate-symmetric by
    construction when r is Hermitian.
    """
    lm = lag_map(g.grid_positions())
    r = np.asarray(r, dtype=np.complex128)
    below = lm.lag_sums(r[lm.cols, lm.rows])  # p_a - p_b > 0
    above = lm.lag_sums(r[lm.rows, lm.cols])  # p_a - p_b < 0
    out = {0: np.trace(r) / g.m}
    for lag in np.flatnonzero(lm.counts):
        out[int(lag)] = below[lag] / lm.counts[lag]
        out[-int(lag)] = above[lag] / lm.counts[lag]
    return out


def spatial_smooth(r: np.ndarray, g: ArrayGeometry) -> np.ndarray:
    """Coarray spatial smoothing onto the contiguous-lag virtual ULA.

    Assembles the lag-domain vector z over the run of contiguous lags
    -(Mc-1)..(Mc-1), slides length-Mc windows ``w_s[m] = z[s + m]`` for
    s = -(Mc-1)..0, and averages their outer products.  The result is an
    Mc x Mc PSD matrix whose signal subspace matches the true manifolds.
    """
    mc = coarray(g).contiguous
    if mc < 2:
        raise ContiguousLagError("spatial smoothing needs a contiguous lag run of at least 2")
    z = coarray_lag_estimates(np.asarray(r, dtype=np.complex128), g)
    out = np.zeros((mc, mc), dtype=np.complex128)
    for s in range(-(mc - 1), 1):
        w = np.array([z[s + m] for m in range(mc)], dtype=np.complex128)
        out += np.outer(w, w.conj())
    return out / mc
