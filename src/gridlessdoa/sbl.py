"""Grid-based sparse Bayesian learning for source-power spectra.

Per-grid-point source variances gamma are fit by maximum likelihood: the
cost ``log det(C) + tr(C^{-1} R)`` with ``C = Phi diag(gamma) Phi^H +
lam I`` is minimized by the multi-snapshot EM fixed point (M-SBL, Wipf &
Rao 2007), ``gamma_i = ||xhat_i||^2 / L + tau_i`` with posterior means
``xhat = Gamma Phi^H C^{-1} Y`` and variances ``tau``.  The update touches
the data only through R: ``gamma_i + gamma_i^2 phi_i^H K phi_i`` with the
m x m core ``K = C^{-1} (R - C) C^{-1}`` from one Cholesky factor of C.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nx
from .geometry import ArrayGeometry
from .sigmodel import SnapshotMatrix, manifold, scm


class SblError(Exception):
    pass


@dataclass(frozen=True)
class SblState:
    """Grid, hyperparameters, the cached dictionary, and the iterations of the
    ``sbl_run`` that produced it (``capped``: it stopped at its cap)."""

    grid: np.ndarray
    gamma: np.ndarray
    lam: float
    dictionary: np.ndarray
    iters: int = 0
    capped: bool = False

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=np.float64)
        gamma = np.asarray(self.gamma, dtype=np.float64)
        if grid.size != gamma.size:
            raise SblError("grid and gamma must have matching length")
        if np.any(gamma < 0):
            raise SblError("gamma must be nonnegative")
        if self.lam <= 0:
            raise SblError("lam must be positive")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "gamma", gamma)

    @classmethod
    def initialize(cls, g: ArrayGeometry, grid: np.ndarray, lam: float) -> "SblState":
        grid = np.asarray(grid, dtype=np.float64)
        return cls(
            grid=grid,
            gamma=np.ones(grid.size),
            lam=float(lam),
            dictionary=manifold(grid, g),
        )

    def with_gamma(self, gamma: np.ndarray) -> "SblState":
        return replace(self, gamma=np.asarray(gamma, dtype=np.float64))

    def model_covariance(self) -> np.ndarray:
        phi = self.dictionary
        return (phi * self.gamma) @ phi.conj().T + self.lam * np.eye(phi.shape[0])


def sbl_cost(state: SblState, r: np.ndarray) -> float:
    """log det(C) + tr(C^{-1} R) for the state's model covariance C."""
    return nx.gaussian_nll(state.model_covariance(), r)


def _em_gamma(phi, phi_h, lam_eye, gamma, r) -> np.ndarray:
    """The EM step on arrays, with ``phi_h = Phi^H`` and ``lam_eye = lam I``."""
    c = (phi * gamma) @ phi_h + lam_eye
    cinv = nx.inv_from_factor(nx.chol_factor(c))
    core = cinv @ (r - c) @ cinv
    q_minus_s = np.einsum("gm,mg->g", phi_h, core @ phi).real
    return np.maximum(gamma + gamma**2 * q_minus_s, 0.0)


def sbl_em_update(state: SblState, r: np.ndarray) -> np.ndarray:
    """One EM iteration: the updated gamma from the SCM ``r``.

    ``||xhat_i||^2 / L = gamma_i^2 phi_i^H C^{-1} R C^{-1} phi_i`` and
    ``tau_i = gamma_i - gamma_i^2 phi_i^H C^{-1} phi_i`` sum to the
    difference-core step, as ``C^{-1} C C^{-1} = C^{-1}``.  Zero entries of
    gamma are absorbing.
    """
    phi = state.dictionary
    lam_eye = state.lam * np.eye(phi.shape[0])
    return _em_gamma(phi, phi.conj().T, lam_eye, state.gamma, np.asarray(r))


def sbl_run(
    g: ArrayGeometry,
    grid: np.ndarray,
    y: SnapshotMatrix,
    lam: float,
    max_iters: int = 1000,
    tol: float = 1e-6,
    cost_trace: list[float] | None = None,
) -> SblState:
    """Run EM-SBL to convergence or the iteration cap.

    Convergence is a relative gamma change below ``tol``.  The cost is
    non-increasing along the trajectory (EM guarantee); pass ``cost_trace``
    to record it per iteration.  The state records whether the cap stopped it.
    """
    if max_iters < 1:
        raise SblError("max_iters must be at least 1")
    state = SblState.initialize(g, grid, lam)
    r = scm(y)
    phi, gamma = state.dictionary, state.gamma
    phi_h, lam_eye = phi.conj().T, state.lam * np.eye(phi.shape[0])
    if cost_trace is not None:
        cost_trace.append(sbl_cost(state, r))
    for it in range(1, max_iters + 1):
        gamma_new = _em_gamma(phi, phi_h, lam_eye, gamma, r)
        change = np.max(np.abs(gamma_new - gamma) / np.maximum(gamma, 1e-12))
        gamma = gamma_new
        if cost_trace is not None:
            cost_trace.append(sbl_cost(state.with_gamma(gamma), r))
        if change < tol:
            return replace(state, gamma=gamma, iters=it)
    return replace(state, gamma=gamma, iters=max_iters, capped=True)


def top_peaks(grid: np.ndarray, gamma: np.ndarray, k: int) -> list[int]:
    """Indices of the k largest local maxima of gamma over the grid.

    Boundary points count as peaks against their single neighbor.  When
    fewer than k local maxima exist, the largest remaining values fill in.
    Ties break toward the lower index.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    n = gamma.size
    is_peak = np.ones(n, dtype=bool)
    if n > 1:
        is_peak[1:] &= gamma[1:] > gamma[:-1]
        is_peak[:-1] &= gamma[:-1] >= gamma[1:]
    order = np.lexsort((np.arange(n), -gamma))
    peaks = [i for i in order if is_peak[i]][:k]
    if len(peaks) < k:
        peaks.extend([i for i in order if i not in set(peaks)][: k - len(peaks)])
    return peaks
