"""Likelihood-driven grid refinement for arbitrary (off-grid) geometries.

Arbitrary sensor placements leave no Toeplitz structure to exploit, so the
grid-based SBL spectrum is refined instead: the grid is iteratively pruned
and locally subdivided around the SBL peaks.  Per-round cost stays bounded
because pruning keeps the grid near its original size while the local
resolution multiplies by the subdivision factor every round.  A round's
estimate is its top-k peak atoms, each re-optimized jointly in (gamma, u)
against the k-atom likelihood with the atom removed from the model (the
classic sequential update).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import numerics as nx
from .estimate import DoaEstimate
from .geometry import ArrayGeometry
from .sbl import SblState, qs_columns, sbl_run, top_peaks
from .sigmodel import SnapshotMatrix, manifold, scm


class RefineError(Exception):
    pass


# peak_adjust: candidate directions per window.
FINE_POINTS = 101
# peak_adjust: first half-window in u, its shrink per sweep, last half-window.
# q/s is flat to rounding within about 2e-9 of its maximum, so narrower
# windows would only move atoms within rounding noise.
FINISH_WINDOW = 0.04
FINISH_SHRINK = 4.0
FINISH_STOP = 1e-8


def gamma_opt(q: float, s: float) -> float:
    """Closed-form per-point variance: ``(q - s)/s^2`` when q > s, else 0.

    It minimizes the SBL cost over one point's variance, all else fixed.
    """
    return float((q - s) / max(s, 1e-300) ** 2) if q > s else 0.0


def peak_adjust(state: SblState, r: np.ndarray, g: ArrayGeometry, k: int) -> DoaEstimate:
    """The k-source estimate of an SBL state: its top-k peak atoms, with the
    rest of the grid dropped and ``lam`` kept, refined on the k-atom likelihood.

    The atoms are directions u, powers gamma and dictionary columns phi.  Each
    sweep moves every atom j in turn by the sequential update of Tipping &
    Faul (2003).  The candidates are ``FINE_POINTS`` directions over ``[u_j -
    half, u_j + half]`` and the incumbent u_j, clipped to [-1, 1).  The one
    with the largest q/s against C without atom j takes the atom, with its
    ``gamma_opt`` power and its column; with q <= s on the whole window the
    power is 0.  The incumbent is a candidate and the power is the exact 1-D
    minimizer, so the k-atom cost never rises.  The incumbent comes last, so
    a tie in q/s (flat to rounding in narrow windows) goes to the scan.  The
    half-window shrinks from ``FINISH_WINDOW`` by ``FINISH_SHRINK`` per sweep
    to ``FINISH_STOP``.
    """
    peaks = top_peaks(state.grid, state.gamma, k)
    u, gamma, phi = state.grid[peaks], state.gamma[peaks], state.dictionary[:, peaks]
    r = np.asarray(r, dtype=np.complex128)
    lam_eye = state.lam * np.eye(phi.shape[0])
    half = FINISH_WINDOW
    while half >= FINISH_STOP:
        for j in range(u.size):
            rest = gamma.copy()
            rest[j] = 0.0
            cinv = nx.inv_pd((phi * rest) @ phi.conj().T + lam_eye)
            cand = np.append(np.linspace(u[j] - half, u[j] + half, FINE_POINTS), u[j])
            cand = cand[(cand >= -1.0) & (cand < 1.0)]
            cols = manifold(cand, g)
            q, s = qs_columns(cols, cinv, r)
            best = int(np.argmax(q / s))
            u[j], gamma[j], phi[:, j] = cand[best], gamma_opt(q[best], s[best]), cols[:, best]
        half /= FINISH_SHRINK
    return DoaEstimate(u=u, powers=gamma)


def _dedupe_sorted(values: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    values = np.sort(values)
    if values.size == 0:
        return values
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = np.diff(values) > tol
    return values[keep]


def multires_refine(
    y: SnapshotMatrix,
    g: ArrayGeometry,
    k: int,
    lam: float = 1.0,
    grid_size: int = 150,
    g_factor: int = 3,
    gamma_thresh: float = 1e-3,
    rounds: int = 5,
    sbl_iters: int = 5000,
    on_round: Callable[[dict], None] | None = None,
) -> DoaEstimate:
    """Multi-resolution SBL: prune, subdivide around peaks, re-run, adjust.

    Round 0 runs SBL on a uniform grid of ``grid_size`` points.  Each later
    round prunes points with gamma below ``gamma_thresh`` (never a current
    top-k peak), inserts ``4*g_factor + 1`` points per peak spanning two
    local grid spacings per side at ``g_factor``-times finer resolution, and
    re-runs SBL from scratch.  After r rounds the local resolution is
    ``(2/grid_size) / g_factor**r``.  Each round's estimate, reported to
    ``on_round`` as ``u_hat`` and returned after the last round, is
    ``peak_adjust`` of its SBL state; the next round's grid is built from
    that state's peaks, not from the estimate.
    """
    if rounds < 0 or g_factor <= 1 or k < 1 or grid_size < 1:
        raise RefineError("rounds must be >= 0, g_factor > 1, k >= 1 and grid_size >= 1")
    r_hat = scm(y)
    grid = -1.0 + 2.0 * np.arange(grid_size) / grid_size
    for rnd in range(rounds + 1):
        if rnd > 0:
            peaks = top_peaks(state.grid, state.gamma, k)
            keep = state.gamma >= gamma_thresh
            keep[peaks] = True
            step = (2.0 / grid_size) / g_factor ** (rnd - 1) / g_factor
            offsets = step * np.arange(-2 * g_factor, 2 * g_factor + 1)
            grid = np.concatenate([state.grid[keep]] + [state.grid[i] + offsets for i in peaks])
            grid = _dedupe_sorted(grid[(grid >= -1.0) & (grid < 1.0)])
        costs: list[float] = []
        state = sbl_run(g, grid, y, lam, sbl_iters, cost_trace=costs)
        est = peak_adjust(state, r_hat, g, k)
        if on_round is not None:
            on_round(
                {
                    "round": rnd,
                    "grid_size": int(state.grid.size),
                    "sbl_cost": costs[-1],
                    "sbl_iters": state.iters,
                    "sbl_cap_hit": state.capped,
                    "u_hat": est.u.tolist(),
                }
            )
    return est
