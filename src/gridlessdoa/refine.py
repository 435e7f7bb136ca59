"""Likelihood-driven grid SBL for arbitrary (off-grid) geometries.

Arbitrary sensor placements leave no Toeplitz structure to exploit, so the
estimate is grid SBL with a continuous finish: by default one SBL run on a
150-point grid, stopped at the relative drop ``ROUND_TOL``, then
``peak_adjust``, which re-optimizes each of the top-k peak atoms jointly in
(gamma, u) against the k-atom likelihood with the atom removed (the classic
sequential update) by a Newton ascent on q/s.  Moving atoms off the grid
replaces grid refinement, as in off-grid SBL (Yang, Xie & Zhang, IEEE TSP
2013) and root-SBL (Dai, Bao, Xu & Chang, IEEE SPL 2017); the experiment
runner takes that default.  A library call with ``rounds > 0`` adds
refinement rounds: the grid is pruned and subdivided around the SBL peaks,
and the estimate with the lowest k-atom ML cost so far is kept.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import numerics as nx
from .estimate import DoaEstimate
from .geometry import ArrayGeometry
from .sbl import SblState, outer_products, qs_columns, sbl_run, top_peaks
from .sigmodel import SnapshotMatrix, manifold, scm


class RefineError(Exception):
    pass


# peak_adjust: the sweep cap, and the atom move in u below which a sweep
# counts as still.
FINISH_SWEEPS = 11
FINISH_TOL = 1e-10
_BELOW_ONE = float(np.nextafter(1.0, 0.0))

# The relative-drop stop of each round's SBL run (``sbl_run``'s default is
# 1e-6).  The round's estimate is the k-atom finish, not the SBL state, and
# the best-cost guard keeps a worse round from replacing a better one.
ROUND_TOL = 1e-4


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
    Faul (2003): with C without atom j inverted once, one safeguarded Newton
    step raises f(u) = q(u)/s(u).  The step is ``f'/|f''|`` (the Newton step
    where f is concave, uphill where it is not), clipped to [-1, 1) and
    halved until f rises; while it is above ``FINISH_TOL`` and f does not
    rise, the atom stays.  The atom then takes its direction's column and
    ``gamma_opt`` power (0 where q <= s).  The best power's cost falls as f
    rises, so the ascent is monotone and the k-atom cost never rises.  The
    sweeps stop when no atom moves more than ``FINISH_TOL``, or after
    ``FINISH_SWEEPS``.
    """
    peaks = top_peaks(state.grid, state.gamma, k)
    u, gamma, phi = state.grid[peaks], state.gamma[peaks], state.dictionary[:, peaks]
    r = np.asarray(r, dtype=np.complex128)
    lam_eye = state.lam * np.eye(phi.shape[0])
    # The n-th u-derivative of phi(u) phi(u)^H is its entrywise product with
    # (-j pi (p_a - p_b))^n, and q, s are linear in it.
    pos = np.asarray(g.positions, dtype=np.float64)
    lags = (-1j * np.pi * np.subtract.outer(pos, pos)).ravel()
    derivs = np.stack([np.ones_like(lags), lags, lags**2])

    def ratio(x: float, cinv: np.ndarray) -> tuple[float, float, float, float, float]:
        """q and s at direction x, and f = q/s with its first two u-derivatives."""
        rows = outer_products(manifold([x], g)) * derivs
        (q, q1, q2), (s, s1, s2) = (v.tolist() for v in qs_columns(rows, cinv, r))
        f = q / s
        f1 = (q1 - f * s1) / s
        return q, s, f, f1, (q2 - 2.0 * f1 * s1 - f * s2) / s

    for _ in range(FINISH_SWEEPS):
        moved = 0.0
        for j in range(u.size):
            rest = gamma.copy()
            rest[j] = 0.0
            cinv = nx.inv_pd((phi * rest) @ phi.conj().T + lam_eye)
            x = u[j]
            q, s, f, f1, f2 = ratio(x, cinv)
            step = min(max(x + f1 / abs(f2), -1.0), _BELOW_ONE) - x if f2 != 0.0 else 0.0
            while abs(step) > FINISH_TOL:
                q_new, s_new, f_new, _, _ = ratio(x + step, cinv)
                if f_new > f:
                    x, q, s = x + step, q_new, s_new
                    break
                step /= 2.0
            moved = max(moved, abs(x - u[j]))
            u[j], gamma[j], phi[:, j] = x, gamma_opt(q, s), manifold(x, g)
        if moved <= FINISH_TOL:
            break
    return DoaEstimate(u=u, powers=gamma)


def atom_cost(est: DoaEstimate, lam: float, r: np.ndarray, g: ArrayGeometry) -> float:
    """The k-atom ML cost ``gaussian_nll(Phi(u) diag(p) Phi(u)^H + lam I, R)``."""
    phi = manifold(est.u, g)
    return nx.gaussian_nll((phi * est.powers) @ phi.conj().T + lam * np.eye(g.m), r)


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
    rounds: int = 0,
    sbl_iters: int = 5000,
    on_round: Callable[[dict], None] | None = None,
) -> DoaEstimate:
    """Grid SBL with a Newton finish, then optional multi-resolution rounds.

    ``lam`` is the known noise variance (default 1.0, the unit noise variance
    ``SourceScene.from_snr`` draws).  Round 0 runs SBL on a uniform grid of
    ``grid_size`` points, stopped at a relative drop of ``ROUND_TOL``; its
    estimate is ``peak_adjust`` of the SBL state, scored by its k-atom ML cost
    (``atom_cost``).  At the default ``rounds=0``, which every experiment
    runs, that is all.  Each later round prunes points with gamma below
    ``gamma_thresh`` (never a current top-k peak), inserts ``4*g_factor + 1``
    points per peak spanning two local grid spacings per side at
    ``g_factor``-times finer resolution, and re-runs SBL and the finish;
    after r rounds the local resolution is ``(2/grid_size) / g_factor**r``.
    Each round's record goes to ``on_round`` as soon as its SBL run ends
    (grid size, SBL cost, iterations, cap hit), so a round whose finish
    raises is still reported; the finish then adds, in place, the
    lowest-cost estimate so far, the earlier one on ties, as ``u_hat`` with
    its ``atom_cost``.  That estimate is returned after the last round, so
    the reported cost never rises.  The next round's grid is built from the
    SBL state's peaks, not from the estimate.
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
        state = sbl_run(g, grid, y, lam, sbl_iters, tol=ROUND_TOL, cost_trace=costs)
        record = {
            "round": rnd,
            "grid_size": int(state.grid.size),
            "sbl_cost": costs[-1],
            "sbl_iters": state.iters,
            "sbl_cap_hit": state.capped,
        }
        if on_round is not None:
            on_round(record)
        cand = peak_adjust(state, r_hat, g, k)
        cand_cost = atom_cost(cand, state.lam, r_hat, g)
        if rnd == 0 or cand_cost < cost:
            est, cost = cand, cand_cost
        record.update(u_hat=est.u.tolist(), atom_cost=cost)
    return est
