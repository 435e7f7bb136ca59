"""Sensor geometries, difference coarrays, and the structured-matrix mapping.

A linear array is a strictly increasing list of sensor positions in units of
the half-wavelength grid, with the first sensor pinned at 0.  On-grid arrays
(integer positions) have a difference coarray: the set of pairwise position
differences, which determines which correlation lags the array observes.

The central object is the linear map from a lag vector ``v`` (one complex
entry per nonnegative lag up to the aperture) to the Hermitian sensor-domain
covariance ``T(v)`` with ``T(v)[i, j] = v[|p_i - p_j|]`` on the upper
triangle and conjugates below.  ``T(v)`` is the principal submatrix of the
full Hermitian Toeplitz embedding ``Toep(v)`` at the sensor positions.
``LagMap`` is the one implementation of that map and its adjoint;
``Toep`` is the map of ``range(aperture)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

_GRID_TOL = 1e-9


class GeometryError(Exception):
    pass


@dataclass(frozen=True)
class ArrayGeometry:
    """Sensor positions in units of d = half wavelength.

    Positions must be finite, strictly increasing, and start at 0.
    ``on_grid`` is true when every position is an integer, in which case the
    coarray machinery applies.
    """

    positions: tuple[float, ...]
    on_grid: bool = field(init=False)

    def __post_init__(self) -> None:
        try:
            pos = tuple(float(p) for p in self.positions)
        except (TypeError, ValueError) as exc:
            raise GeometryError(f"positions must be numbers: {exc}") from None
        if len(pos) == 0:
            raise GeometryError("geometry needs at least one sensor")
        if not all(np.isfinite(pos)):
            raise GeometryError("positions must be finite")
        if abs(pos[0]) > _GRID_TOL:
            raise GeometryError("first sensor position must be 0")
        if any(b - a <= 0 for a, b in zip(pos, pos[1:])):
            raise GeometryError("positions must be strictly increasing")
        object.__setattr__(self, "positions", pos)
        on_grid = all(abs(p - round(p)) <= _GRID_TOL for p in pos)
        object.__setattr__(self, "on_grid", on_grid)

    @classmethod
    def parse(cls, text: str) -> "ArrayGeometry":
        """Parse the config literal form, e.g. ``"0,1,2,3,7,11"``."""
        return cls(tuple(tok for tok in text.split(",") if tok.strip()))

    @classmethod
    def ula(cls, m: int) -> "ArrayGeometry":
        return cls(tuple(float(i) for i in range(m)))

    @property
    def m(self) -> int:
        return len(self.positions)

    def grid_positions(self) -> tuple[int, ...]:
        if not self.on_grid:
            raise GeometryError("geometry is not on the integer grid")
        return tuple(int(round(p)) for p in self.positions)


@dataclass(frozen=True)
class LagStructure:
    """Difference coarray of an on-grid geometry."""

    lags: tuple[int, ...]            # full symmetric coarray, sorted
    nonneg: tuple[int, ...]          # nonnegative part, sorted
    aperture: int                    # max lag + 1
    contiguous: int                  # smallest missing nonnegative lag
    holes: tuple[int, ...]           # missing lags in {0, ..., aperture-1}


def coarray(g: ArrayGeometry) -> LagStructure:
    """Difference coarray of an on-grid geometry, read off its lag map."""
    counts = lag_map(g.grid_positions()).counts
    nonneg = (0,) + tuple(int(k) for k in np.flatnonzero(counts))
    holes = tuple(int(k) for k in np.flatnonzero(counts == 0)[1:])
    return LagStructure(
        lags=tuple(-k for k in reversed(nonneg[1:])) + nonneg,
        nonneg=nonneg,
        aperture=counts.size,
        contiguous=holes[0] if holes else counts.size,
        holes=holes,
    )


class LagMap:
    """The structured map ``v -> T(v)`` of one on-grid geometry, with its adjoint.

    Keyed by the integer positions through ``lag_map``, which caches one
    instance per geometry.  The upper-triangle pairs (i < j) are kept in
    row-major order together with their lags ``p_j - p_i``; the adjoint and
    the per-lag averages are ``np.bincount`` sums over them.
    """

    def __init__(self, positions: tuple[int, ...]):
        p = np.asarray(positions, dtype=np.int64)
        self.positions = p
        self.n = p.size
        self.aperture = int(p[-1] - p[0]) + 1
        self.lag_idx = np.abs(p[:, None] - p[None, :])
        self.conj_mask = p[:, None] > p[None, :]
        self.rows, self.cols = np.triu_indices(self.n, k=1)
        self.lags = self.lag_idx[self.rows, self.cols]
        self.counts = np.bincount(self.lags, minlength=self.aperture)  # pairs per lag; [0] is 0

    def assemble(self, v: np.ndarray) -> np.ndarray:
        """T(v): ``v[|p_i - p_j|]`` on and above the diagonal, conjugates below."""
        out = v[self.lag_idx]
        out[self.conj_mask] = np.conj(out[self.conj_mask])
        return out

    def lag_sums(self, upper: np.ndarray) -> np.ndarray:
        """Per-lag sums of entries listed in upper-pair order (index 0 stays 0)."""
        return np.bincount(self.lags, upper.real, self.aperture) + 1j * np.bincount(
            self.lags, upper.imag, self.aperture
        )

    def adjoint(self, a: np.ndarray) -> np.ndarray:
        """Adjoint under the real trace inner product, for Hermitian ``a``.

        ``Re tr(A T(v)) == Re <v, adjoint(A)>`` for every lag vector v, with
        ``<x, y> = sum conj(x) * y``.
        """
        out = 2.0 * self.lag_sums(a[self.rows, self.cols])
        out[0] = np.trace(a).real
        return out

    @cached_property
    def dft(self) -> np.ndarray:
        """``exp(-2 pi i w p / N)``, (N, n), N = 2A-1: ``dft @ X @ dft.T`` is the 2-D DFT of
        X placed on the aperture grid, long enough that lag correlations do not wrap."""
        n_fft = 2 * self.aperture - 1
        return np.exp(-2j * np.pi * (np.outer(np.arange(n_fft), self.positions) % n_fft) / n_fft)


@lru_cache(maxsize=None)
def lag_map(positions: tuple[int, ...]) -> LagMap:
    return LagMap(positions)


def structured_matrix(v: np.ndarray, g: ArrayGeometry) -> np.ndarray:
    """Realize the lag vector as the M x M structured Hermitian matrix T(v)."""
    v = np.asarray(v, dtype=np.complex128).ravel()
    lm = lag_map(g.grid_positions())
    if v.size != lm.aperture:
        raise GeometryError(f"lag vector length {v.size} != aperture {lm.aperture}")
    return lm.assemble(v)


def toeplitz_embed(v: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrix with first row v."""
    v = np.asarray(v, dtype=np.complex128).ravel()
    return lag_map(tuple(range(v.size))).assemble(v)


def adjoint_structured(a: np.ndarray, g: ArrayGeometry) -> np.ndarray:
    """Adjoint of the map v -> T(v) under the real trace inner product.

    For Hermitian A, ``Re tr(A T(v)) == Re <v, adjoint(A)>`` holds for every
    lag vector v, with ``<x, y> = sum conj(x) * y``.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (g.m, g.m):
        raise GeometryError(f"matrix shape {a.shape} does not match geometry size {g.m}")
    return lag_map(g.grid_positions()).adjoint(a)


# -- real parameterization -------------------------------------------------
#
# A lag vector v (v[0] real) is handled as the real vector
# x = [v0, Re v1, Im v1, ..., Re v_{A-1}, Im v_{A-1}] of length 2A - 1.


def pack_lags(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128).ravel()
    x = np.empty(2 * v.size - 1)
    x[0] = v[0].real
    x[1::2] = v[1:].real
    x[2::2] = v[1:].imag
    return x


@lru_cache(maxsize=None)
def lag_projections(aperture: int) -> tuple[np.ndarray, np.ndarray]:
    """``(E J, conj(E) J) / N`` (both real), N = 2A-1, ``E[w, k] = exp(2 pi i w k / N)``.

    J maps ``pack_lags`` coordinates to signed lags k mod N.  For A x A
    Hermitian X, Y with 2-D DFTs ``X^``, ``Y^`` (``LagMap.dft``), entry (a, b)
    of ``V1.T @ (X^ * conj(Y^)) @ V2`` is ``tr(B_a X B_b Y)``, B_a the Toeplitz
    image of unit vector a: their 2-D correlation read at every pair of lags.
    """
    n_fft = 2 * aperture - 1
    k = np.arange(1, aperture)
    lags = np.zeros((n_fft, n_fft), dtype=np.complex128)
    lags[0, 0] = 1.0
    lags[k, 2 * k - 1] = lags[-k, 2 * k - 1] = 1.0
    lags[k, 2 * k], lags[-k, 2 * k] = 1j, -1j
    e = np.exp(2j * np.pi * (np.outer(np.arange(n_fft), np.arange(n_fft)) % n_fft) / n_fft)
    v1, v2 = (e @ lags).real / n_fft, (e.conj() @ lags).real / n_fft
    v1.flags.writeable = v2.flags.writeable = False
    return v1, v2


def unpack_lags(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).ravel()
    ap = (x.size + 1) // 2
    v = np.empty(ap, dtype=np.complex128)
    v[0] = x[0]
    v[1:] = x[1::2] + 1j * x[2::2]
    return v


def nested_two_level(s1: int, s2: int) -> tuple[int, ...]:
    """Two-level nested array positions {0..s1-1} U {s1 + i(s1+1)}, aperture (s1+1)s2."""
    first = list(range(s1))
    second = [s1 + i * (s1 + 1) for i in range(s2)]
    return tuple(sorted(set(first + second)))


def nested_completion(g: ArrayGeometry) -> tuple[int, ...]:
    """Missing sensor positions that complete ``g`` to a hole-free geometry.

    Candidate completions are two-level nested arrays whose aperture matches
    the aperture of ``g``; among all factorizations (s1+1)*s2 == aperture the
    one minimizing the number of added sensors wins, ties broken by smaller
    s1.  Falls back to completing to the full ULA when no factorization
    exists.
    """
    pos = set(g.grid_positions())
    aperture = coarray(g).aperture
    best: tuple[int, int, tuple[int, ...]] | None = None
    for s1 in range(1, aperture):
        if aperture % (s1 + 1):
            continue
        s2 = aperture // (s1 + 1)
        missing = tuple(sorted(set(nested_two_level(s1, s2)) - pos))
        key = (len(missing), s1)
        if best is None or key < (best[0], best[1]):
            best = (len(missing), s1, missing)
    if best is None:
        return tuple(sorted(set(range(aperture)) - pos))
    return best[2]
