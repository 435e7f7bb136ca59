"""Likelihood-driven grid refinement for arbitrary (off-grid) geometries.

Arbitrary sensor placements leave no Toeplitz structure to exploit, so the
grid-based SBL spectrum is refined instead: each top peak's grid point is
re-optimized jointly in (gamma, u) against the likelihood with the point
removed from the model (the classic sequential update), and the grid is
iteratively pruned and locally subdivided around the peaks.  Per-round cost
stays bounded because pruning keeps the grid near its original size while
the local resolution multiplies by the subdivision factor every round.
A round's estimate is its top-k peak atoms refined on the k-atom likelihood.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from . import numerics as nx
from .estimate import DoaEstimate
from .geometry import ArrayGeometry
from .sbl import SblState, qs_columns, sbl_cost, sbl_run, top_peaks
from .sigmodel import SnapshotMatrix, manifold, scm


class RefineError(Exception):
    pass


# peak_adjust: candidate directions per peak neighborhood, and its sweep cap.
FINE_POINTS = 101
MAX_SWEEPS = 30
# atom_finish: first half-window in u, its shrink per sweep, last half-window.
FINISH_WINDOW = 0.04
FINISH_SHRINK = 4.0
FINISH_STOP = 1e-10


def qs_values(
    u,
    state: SblState,
    exclude: int,
    r: np.ndarray,
    g: ArrayGeometry,
) -> tuple[np.ndarray, np.ndarray]:
    """The (q, s) statistics of candidate directions against C without point i.

    ``q(u) = phi^H C_{-i}^{-1} R C_{-i}^{-1} phi`` and
    ``s(u) = phi^H C_{-i}^{-1} phi``; s is positive for lam > 0 and q is
    nonnegative for PSD R.  Scalar u gives scalar outputs.
    """
    gamma = state.gamma.copy()
    gamma[exclude] = 0.0
    cinv = nx.inv_pd(state.with_gamma(gamma).model_covariance())
    phi = manifold(np.atleast_1d(np.asarray(u, dtype=np.float64)), g)
    q, s = qs_columns(phi, cinv, np.asarray(r, dtype=np.complex128))
    if np.ndim(u) == 0:
        return float(q[0]), float(s[0])
    return q, s


def gamma_opt(q, s):
    """Closed-form per-point variance and its likelihood contribution.

    ``gamma = (q - s)/s^2`` when q > s else 0, and the objective value
    ``L = log(q/s) - q/s + 1`` (nonpositive, zero iff q <= s).
    """
    q = np.asarray(q, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    active = q > s
    gam = np.where(active, (q - s) / np.maximum(s, 1e-300) ** 2, 0.0)
    ratio = np.where(active, q / np.maximum(s, 1e-300), 1.0)
    lval = np.where(active, np.log(ratio) - ratio + 1.0, 0.0)
    if gam.ndim == 0:
        return float(gam), float(lval)
    return gam, lval


def _neighbor_delta(grid: np.ndarray, i: int) -> float:
    gaps = []
    if i > 0:
        gaps.append(grid[i] - grid[i - 1])
    if i + 1 < grid.size:
        gaps.append(grid[i + 1] - grid[i])
    if not gaps:
        gaps.append(2.0 / max(grid.size, 1))
    return 0.49 * min(gaps)


def peak_adjust(state: SblState, r: np.ndarray, g: ArrayGeometry, k: int) -> SblState:
    """Sequentially re-optimize the top-k peaks' grid points in (gamma, u).

    For each peak, ``FINE_POINTS`` candidates over the neighborhood (bounded
    away from the adjacent grid points) score the ratio q/s; the maximizer
    with q > s replaces the point with its closed-form optimal gamma.  The
    incumbent point is always in the candidate set, so the SBL cost never
    increases.  Sweeps repeat, at most ``MAX_SWEEPS`` times, until no peak
    moves more than 1e-9.  The input state is not modified; SBL run counts
    carry over.
    """
    if k < 1:
        raise RefineError("need at least one peak")
    work = replace(
        state, grid=state.grid.copy(), gamma=state.gamma.copy(), dictionary=state.dictionary.copy()
    )
    grid, gamma = work.grid, work.gamma
    peaks = top_peaks(grid, gamma, k)
    for _ in range(MAX_SWEEPS):
        moved = 0.0
        for i in peaks:
            delta = _neighbor_delta(grid, i)
            cand = np.linspace(grid[i] - delta, grid[i] + delta, FINE_POINTS)
            cand = cand[(cand >= -1.0) & (cand < 1.0)]
            if cand.size == 0 or not np.any(np.isclose(cand, grid[i], atol=1e-15)):
                cand = np.append(cand, grid[i])
            q, s = qs_values(cand, work, i, r, g)
            active = q > s
            if not np.any(active):
                continue
            ratio = np.where(active, q / s, -np.inf)
            j = int(np.argmax(ratio))
            gam_new, _ = gamma_opt(q[j], s[j])
            moved = max(moved, abs(cand[j] - grid[i]))
            grid[i] = cand[j]
            gamma[i] = gam_new
            work.dictionary[:, i] = manifold(cand[j], g)
        if moved <= 1e-9:
            break
    return work


def atom_finish(state: SblState, r: np.ndarray, g: ArrayGeometry, k: int) -> DoaEstimate:
    """The k-source estimate of an SBL state: its top-k peak atoms, with the
    rest of the grid dropped and ``lam`` kept, refined on the k-atom likelihood.

    Each sweep moves every atom in turn to the best q/s of ``FINE_POINTS``
    candidates over a window around it, with its power from ``gamma_opt``;
    the half-window shrinks from ``FINISH_WINDOW`` by ``FINISH_SHRINK`` per
    sweep to ``FINISH_STOP``.  The incumbent is always a candidate, so the
    k-atom cost never rises.
    """
    peaks = top_peaks(state.grid, state.gamma, k)
    atoms = SblState(state.grid[peaks], state.gamma[peaks], state.lam, state.dictionary[:, peaks])
    half = FINISH_WINDOW
    while half >= FINISH_STOP:
        for j, u in enumerate(atoms.grid):
            cand = np.append(np.linspace(u - half, u + half, FINE_POINTS), u)
            cand = cand[(cand >= -1.0) & (cand < 1.0)]
            q, s = qs_values(cand, atoms, j, r, g)
            best = int(np.argmax(q / s))
            atoms.grid[j] = cand[best]
            atoms.gamma[j], _ = gamma_opt(q[best], s[best])
            atoms.dictionary[:, j] = manifold(cand[best], g)
        half /= FINISH_SHRINK
    return DoaEstimate(u=atoms.grid, powers=atoms.gamma)


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

    Round 0 runs SBL on a uniform grid of ``grid_size`` points plus one peak
    adjustment pass.  Each later round prunes points with gamma below
    ``gamma_thresh`` (never a current top-k peak), inserts ``4*g_factor + 1``
    points per peak spanning two local grid spacings per side at
    ``g_factor``-times finer resolution, re-runs SBL from scratch, and
    adjusts the peaks again.  After r rounds the local resolution is
    ``(2/grid_size) / g_factor**r``.  Each round's estimate, reported to
    ``on_round`` as ``u_hat`` and returned after the last round, is
    ``atom_finish`` of its adjusted state; the next round starts from that
    state, not from the estimate.
    """
    if rounds < 0 or g_factor <= 1:
        raise RefineError("rounds must be >= 0 and g_factor > 1")
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
        state = peak_adjust(sbl_run(g, grid, y, lam, sbl_iters), r_hat, g, k)
        est = atom_finish(state, r_hat, g, k)
        if on_round is not None:
            on_round(
                {
                    "round": rnd,
                    "grid_size": int(state.grid.size),
                    "sbl_cost": sbl_cost(state, r_hat),
                    "sbl_iters": state.iters,
                    "sbl_cap_hit": state.capped,
                    "u_hat": est.u.tolist(),
                }
            )
    return est
