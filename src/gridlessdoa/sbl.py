"""Grid-based sparse Bayesian learning for source-power spectra.

Per-grid-point source variances gamma are fit by maximum likelihood: the
cost ``log det(C) + tr(C^{-1} R)`` with ``C = Phi diag(gamma) Phi^H +
lam I`` is minimized by the multi-snapshot fixed point ``gamma_i <- gamma_i
q_i / s_i`` (M-SBL, Wipf & Rao 2007), with ``q_i = phi_i^H C^{-1} R C^{-1}
phi_i`` and ``s_i = phi_i^H C^{-1} phi_i`` from one Cholesky factor of C.
Both C and (q, s) are linear in the outer products ``phi_i phi_i^H``, so a
run forms those once (``outer_products``) and each step reads C and (q, s)
from them with one real matrix product each.  That step is the only one.
A run stops on a small relative drop in the cost, on a rise (in every run
measured, only rounding on an ill-conditioned C brought one), or at its
iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isqrt

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
        if np.ndim(self.dictionary) != 2 or np.shape(self.dictionary)[1] != grid.size:
            raise SblError("dictionary must be 2-D with one column per grid point")
        if np.any(gamma < 0):
            raise SblError("gamma must be nonnegative")
        if not 0 < self.lam < np.inf:
            raise SblError("lam must be positive and finite")
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
        return covariance(outer_products(self.dictionary), self.gamma, self.lam)


def sbl_cost(state: SblState, r: np.ndarray) -> float:
    """log det(C) + tr(C^{-1} R) for the state's model covariance C."""
    return nx.gaussian_nll(state.model_covariance(), r)


def outer_products(phi: np.ndarray) -> np.ndarray:
    """``Psi``: row i is ``phi_i phi_i^H`` of column i of ``phi``, its m^2
    entries in row-major order."""
    cols = np.ascontiguousarray(np.asarray(phi, dtype=np.complex128).T)
    return (cols[:, :, None] * cols[:, None, :].conj()).reshape(cols.shape[0], -1)


def covariance(psi: np.ndarray, gamma: np.ndarray, lam: float) -> np.ndarray:
    """``C = Phi diag(gamma) Phi^H + lam I`` from the outer products ``Psi``.

    Real weights act on the (re, im) pairs of ``Psi``'s entries alike, so
    ``gamma Psi`` is one real product.
    """
    m = isqrt(psi.shape[1])
    c = (gamma @ psi.view(np.float64)).view(np.complex128).reshape(m, m)
    c.flat[:: m + 1] += lam
    return c


def qs_columns(psi: np.ndarray, cinv: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``q_i = phi_i^H C^{-1} R C^{-1} phi_i`` and ``s_i = phi_i^H C^{-1} phi_i``
    for each row ``psi_i = phi_i phi_i^H`` of ``psi``.

    For Hermitian A and X, ``tr(A X)`` is the real dot product of their
    entries' (re, im) pairs, and ``phi^H A phi = tr(A phi phi^H)``.  So both
    come from one real product of the stacked ``[C^{-1} R C^{-1}; C^{-1}]``
    with ``psi^T``.  A row may hold any Hermitian X: ``refine.peak_adjust``
    gets the u-derivatives of q and s from those of ``phi(u) phi(u)^H``.
    """
    stacked = np.concatenate((cinv @ r @ cinv, cinv)).reshape(2, -1)
    q, s = stacked.view(np.float64) @ psi.view(np.float64).T
    return q, s


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

    The dictionary's outer products are formed once.  Each iteration builds
    the model covariance of a trial gamma from them, factors it once and
    reads the trial's cost from that factor; the next trial is ``gamma * q /
    s`` of the last accepted one (q is nonnegative, but the real product
    can round it below 0 on an ill-conditioned C; it counts as 0 then).  The
    run stops when a trial lowers the cost by less than ``tol`` times the
    decrease since the start (a data scale shifts the cost, not its
    decreases), or when a trial raises the cost or its covariance cannot be
    factored, which in every run measured came only from rounding on an
    ill-conditioned C.  Either way it returns the last accepted gamma.
    ``iters`` counts iterations and ``capped`` says the cap stopped the run;
    ``cost_trace`` gets each iteration's accepted cost, which never rises,
    so its last entry is the returned gamma's cost.
    """
    if max_iters < 1:
        raise SblError("max_iters must be at least 1")
    if np.size(grid) < 1:
        raise SblError("grid must not be empty")
    state = SblState.initialize(g, grid, lam)
    r = scm(y)
    psi = outer_products(state.dictionary)
    trial, cost = state.gamma, np.inf
    for it in range(1, max_iters + 1):
        try:
            low = nx.chol_factor(covariance(psi, trial, state.lam))
        except nx.NotPositiveDefiniteError:
            if it == 1:
                raise
            trial_cost = np.inf  # rounding in an ill-conditioned step: a rise
        else:
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
        q, s = qs_columns(psi, cinv, r)
        trial = gamma * np.maximum(q, 0.0) / s
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
