"""Turn recovered covariance matrices into direction estimates.

Root-MUSIC factors the noise-subspace projector polynomial; a PSD Toeplitz
matrix of rank D decomposes uniquely into D manifold outer products, which
recovers directions and powers.  The covariances come from
``experiments.covariance_estimate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nx


class EstimateError(Exception):
    pass


@dataclass(frozen=True)
class DoaEstimate:
    """Estimated directions in u-space (ascending), optionally with powers."""

    u: np.ndarray
    powers: np.ndarray | None = None

    def __post_init__(self) -> None:
        u = np.atleast_1d(np.asarray(self.u, dtype=np.float64))
        order = np.argsort(u, kind="stable")
        object.__setattr__(self, "u", u[order])
        if self.powers is not None:
            p = np.atleast_1d(np.asarray(self.powers, dtype=np.float64))
            object.__setattr__(self, "powers", p[order])

    @property
    def k(self) -> int:
        return self.u.size


def _noise_projector(r: np.ndarray, k: int) -> np.ndarray:
    """E_n E_n^H from the n-k smallest eigenvalues (by value, not magnitude)."""
    r = np.asarray(r, dtype=np.complex128)
    n = r.shape[0]
    if k >= n:
        raise EstimateError(f"need k < order, got k={k}, order={n}")
    eig = nx.herm_eig(nx.hermitian_part(r))
    en = eig.vectors[:, : n - k]
    return en @ en.conj().T


def _select_roots(roots: np.ndarray, k: int) -> np.ndarray:
    """Pick k physical roots from the conjugate-reciprocal root set.

    Roots of the MUSIC polynomial come in (z, 1/conj(z)) pairs.  Each pair is
    collapsed to one representative, resolved toward the inside of the unit
    disk, then the k representatives nearest the unit circle win.
    """
    pool = list(roots)
    reps: list[complex] = []
    while len(pool) >= 2:
        z = pool.pop(0)
        if abs(z) < 1e-12:
            continue  # partner is at infinity after coefficient trimming
        target = 1.0 / np.conj(z)
        j = int(np.argmin([abs(w - target) for w in pool]))
        partner = pool.pop(j)
        inside = z if abs(z) <= abs(partner) else partner
        if abs(inside) > 1.0:
            # Numerical splitting can push both members outside; the same-angle
            # reciprocal is the inside resolution of the pair.
            inside = 1.0 / np.conj(inside)
        reps.append(inside)
    reps.extend(pool)
    reps_arr = np.array(reps)
    closed = reps_arr[np.abs(reps_arr) <= 1.0 + 1e-9]
    if closed.size < k:
        closed = reps_arr
    order = np.argsort(np.abs(1.0 - np.abs(closed)), kind="stable")
    return closed[order[:k]]


def _polish_directions(c_diag_sums: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Newton refinement of each u on the null function f(u) = phi^H C phi.

    ``f(u) = sum_d c_d exp(-j pi d u)`` is smooth with a quadratic minimum at
    each direction; a few safeguarded Newton steps on f' sharpen the root
    estimates to machine precision.
    """
    n_side = (c_diag_sums.size + 1) // 2
    d = np.arange(-(n_side - 1), n_side)

    def f_d1_d2(x: float) -> tuple[float, float, float]:
        e = np.exp(-1j * np.pi * d * x)
        f = float(np.real(c_diag_sums @ e))
        d1 = float(np.real(c_diag_sums @ (-1j * np.pi * d * e)))
        d2 = float(np.real(c_diag_sums @ (-(np.pi * d) ** 2 * e)))
        return f, d1, d2

    out = u.copy()
    for i, x in enumerate(out):
        prev_step = np.inf
        for _ in range(50):
            _, d1, d2 = f_d1_d2(x)
            if d2 <= 0 or not np.isfinite(d2):
                break
            step = d1 / d2
            if not np.isfinite(step) or abs(step) >= prev_step:
                break  # leaving the quadratic basin; keep the last iterate
            x -= step
            prev_step = abs(step)
            if prev_step < 1e-15:
                break
        out[i] = ((x + 1.0) % 2.0) - 1.0
    return out


def root_music(r: np.ndarray, k: int) -> DoaEstimate:
    """Root-MUSIC on a (Toeplitz-compatible) covariance of order n, k < n.

    The polynomial sums the diagonals of the noise projector; roots map to
    directions via u = -arg(z)/pi, matching the manifold phase convention.
    The input need not be PSD: eigenvectors of the n-k smallest eigenvalues
    by value form the noise subspace.
    """
    c = _noise_projector(r, k)
    n = c.shape[0]
    coeffs = np.array([np.trace(c, offset=d) for d in range(-(n - 1), n)], dtype=np.complex128)
    # Trim (conjugate-symmetric) numerically-zero end coefficients.
    scale = np.abs(coeffs).max()
    trimmed = coeffs
    while trimmed.size > 2 * k + 1 and abs(trimmed[-1]) <= 1e-12 * scale:
        trimmed = trimmed[1:-1]
    roots = nx.poly_roots(trimmed)
    picked = _select_roots(roots, k)
    u = _polish_directions(coeffs, -np.angle(picked) / np.pi)
    return DoaEstimate(u=np.sort(u))


def music_spectrum(r: np.ndarray, k: int, grid: np.ndarray) -> np.ndarray:
    """MUSIC pseudospectrum 1/(phi^H E_n E_n^H phi) on a u grid, max-normalized."""
    c = _noise_projector(r, k)
    n = c.shape[0]
    pos = np.arange(n, dtype=np.float64)
    phi = np.exp(-1j * np.pi * np.outer(pos, np.asarray(grid, dtype=np.float64)))
    denom = np.real(np.einsum("ig,ij,jg->g", phi.conj(), c, phi, optimize=True))
    vals = 1.0 / np.maximum(denom, 1e-300)
    return vals / vals.max()


def _nonneg_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least squares with nonnegative solution by clipping and re-solving."""
    active = list(range(a.shape[1]))
    x = np.zeros(a.shape[1])
    for _ in range(a.shape[1] + 1):
        if not active:
            break
        sol, *_ = np.linalg.lstsq(a[:, active], b, rcond=None)
        if np.all(sol >= -1e-12):
            x[:] = 0.0
            x[active] = np.clip(sol, 0.0, None)
            return x
        worst = int(np.argmin(sol))
        active.pop(worst)
    x[:] = 0.0
    return x


def vandermonde_decompose(t: np.ndarray, rank_tol: float = 1e-8) -> DoaEstimate:
    """Decompose a rank-deficient PSD Toeplitz matrix into manifold outer products.

    The numerical rank D (eigenvalues above ``rank_tol`` times the largest)
    fixes the number of components; directions come from root-MUSIC with
    k = D and powers from nonnegative least squares of the first-row lag
    vector on the component basis.  The input is a noise-free ``Toep(v)``,
    such as an MM iterate on the PSD boundary; a full-rank input has no
    noise subspace and is an error.
    """
    t = nx.hermitian_part(np.asarray(t, dtype=np.complex128))
    n = t.shape[0]
    eig = nx.herm_eig(t)
    if eig.values[0] < -rank_tol * max(1.0, abs(eig.values[-1])):
        raise EstimateError("input is not positive semidefinite within rank_tol")
    rank = int(np.sum(eig.values > rank_tol * max(eig.values.max(), 1e-300)))
    if rank >= n:
        raise EstimateError("input has full numerical rank: no noise subspace to split off")
    if rank == 0:
        return DoaEstimate(u=np.empty(0), powers=np.empty(0))
    est = root_music(t, rank)
    # First-row lags of sum_i p_i phi(u_i) phi(u_i)^H are sum_i p_i e^{+j pi m u_i}.
    lags = t[0, :]
    basis = np.exp(1j * np.pi * np.outer(np.arange(n), est.u))
    a = np.vstack([basis.real, basis.imag])
    b = np.concatenate([lags.real, lags.imag])
    powers = _nonneg_lstsq(a, b)
    return DoaEstimate(u=est.u, powers=powers)

