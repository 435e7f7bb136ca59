"""Grid-based sparse Bayesian learning for source-power spectra.

Per-grid-point source variances gamma are fit by maximum likelihood: the
cost ``log det(C) + tr(C^{-1} R)`` with ``C = Phi diag(gamma) Phi^H +
lam I`` is minimized by the multi-snapshot fixed point ``gamma_i <- gamma_i
q_i / s_i`` (M-SBL, Wipf & Rao 2007), with ``q_i = phi_i^H C^{-1} R C^{-1}
phi_i`` and ``s_i = phi_i^H C^{-1} phi_i`` from one Cholesky factor of C.
That step is the only one.  A run stops on a small relative drop in the
cost, on a rise (in every run measured, only rounding in the cost of an
ill-conditioned C brought one), or at its iteration cap.
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


def qs_columns(phi: np.ndarray, cinv: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``q_i = phi_i^H C^{-1} R C^{-1} phi_i`` and ``s_i = phi_i^H C^{-1} phi_i``
    for each column ``phi_i`` of ``phi``."""
    a = cinv @ phi
    return np.einsum("mg,mg->g", a.conj(), r @ a).real, np.einsum("mg,mg->g", phi.conj(), a).real


def sbl_run(
    g: ArrayGeometry,
    grid: np.ndarray,
    y: SnapshotMatrix,
    lam: float,
    max_iters: int = 1000,
    tol: float = 1e-6,
    cost_trace: list[float] | None = None,
) -> SblState:
    """Run fixed-point SBL to a cost stop or the cap.

    Each iteration factors the model covariance of a trial gamma once and
    reads the trial's cost from that factor; the next trial is ``gamma * q /
    s`` of the last accepted one.  The run stops when a trial lowers the
    cost by less than ``tol`` times the decrease since the start (a data
    scale shifts the cost, not its decreases), or when a trial raises the
    cost, which in every run measured came only from rounding in the cost
    of an ill-conditioned C.  Either way it returns the last accepted
    gamma.  ``iters`` counts iterations and ``capped`` says the cap stopped
    the run; ``cost_trace`` gets each iteration's accepted cost, which never
    rises.
    """
    if max_iters < 1:
        raise SblError("max_iters must be at least 1")
    state = SblState.initialize(g, grid, lam)
    r = scm(y)
    phi, phi_h = state.dictionary, state.dictionary.conj().T
    lam_eye = state.lam * np.eye(phi.shape[0])
    trial, cost = state.gamma, np.inf
    for it in range(1, max_iters + 1):
        low = nx.chol_factor((phi * trial) @ phi_h + lam_eye)
        cinv = nx.inv_from_factor(low)
        trial_cost = nx.logdet_from_factor(low) + float(np.vdot(cinv, r).real)
        rose = trial_cost > cost
        if not rose:
            drop, gamma, cost = cost - trial_cost, trial, trial_cost
            start = cost if it == 1 else start
        if cost_trace is not None:
            cost_trace.append(cost)
        if rose or drop < tol * (start - cost):
            return replace(state, gamma=gamma, iters=it)
        q, s = qs_columns(phi, cinv, r)
        trial = gamma * q / s
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
