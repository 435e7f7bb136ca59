"""Error metrics and the stochastic Cramer-Rao bound.

The bound is the closed form of Stoica & Nehorai (IEEE Trans. ASSP, 1990),
built from the manifold, its derivative and the array covariance.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nx
from .estimate import DoaEstimate
from .geometry import ArrayGeometry
from .sigmodel import SourceScene, manifold, model_covariance


class MetricsError(Exception):
    pass


def assign_errors(estimate: DoaEstimate, truth: SourceScene) -> np.ndarray:
    """Signed per-source errors under the optimal assignment.

    Both direction lists are ascending and the cost is absolute difference,
    so matching in sorted order minimizes the total error (monotone matching
    is optimal for 1-D transport).
    """
    if estimate.k != truth.k:
        raise MetricsError(f"estimate count {estimate.k} != source count {truth.k}")
    return estimate.u - np.asarray(truth.u)


def rmse_u(estimates: list[DoaEstimate], truth: SourceScene) -> float:
    """Root mean squared u-space error over trials and sources."""
    if not estimates:
        raise MetricsError("need at least one estimate")
    sq = [assign_errors(e, truth) ** 2 for e in estimates]
    return float(np.sqrt(np.mean(np.concatenate(sq))))


def empirical_bias(estimates: list[DoaEstimate], truth: SourceScene, source: int) -> float:
    """Mean signed error of one source across trials."""
    if not estimates:
        raise MetricsError("need at least one estimate")
    return float(np.mean([assign_errors(e, truth)[source] for e in estimates]))


def success_rate(estimates: list[DoaEstimate], truth: SourceScene) -> float:
    """Fraction of trials where every source error stays inside half its gap.

    Edge sources get the single adjacent gap mirrored.  This is the capped
    identification criterion used for phase-transition style studies.
    """
    u = np.asarray(truth.u)
    if u.size == 1:
        caps = np.array([1.0])
    else:
        gaps = np.diff(u)
        left = np.concatenate([[gaps[0]], gaps])
        right = np.concatenate([gaps, [gaps[-1]]])
        caps = 0.5 * np.minimum(left, right)
    hits = [np.all(np.abs(assign_errors(e, truth)) < caps) for e in estimates]
    return float(np.mean(hits))


def crb_stochastic(scene: SourceScene, g: ArrayGeometry, n_snapshots: int) -> np.ndarray:
    """Per-source u-space variance bound under the stochastic signal model.

    The closed form of Stoica & Nehorai (IEEE Trans. ASSP, 1990), with the
    source covariance P and the noise variance unknown nuisance parameters:
    ``sigma^2 / (2L) diag(inv(Re[(D^H Pi D) * (P A^H R^{-1} A P)^T]))``.
    A is the manifold, D its derivative in u, R the array covariance and Pi
    the projector onto the complement of A's range.  The bound scales
    exactly as 1/L.
    """
    k = scene.k
    if k >= g.m:
        raise MetricsError("stochastic bound needs fewer sources than sensors")
    a = manifold(np.asarray(scene.u), g)
    d = -1j * np.pi * np.asarray(g.positions, dtype=np.float64)[:, None] * a
    p = scene.source_covariance()
    try:
        proj = np.eye(g.m) - a @ nx.inv_pd(a.conj().T @ a) @ a.conj().T
        rinv_a = nx.inv_pd(model_covariance(scene, g)) @ a
        info = np.real((d.conj().T @ proj @ d) * (p @ a.conj().T @ rinv_a @ p).T)
        crb = nx.inv_pd(info)
    except nx.NotPositiveDefiniteError:
        raise MetricsError("Fisher information is singular: scene not identifiable") from None
    return scene.noise_var / (2 * n_snapshots) * np.real(np.diag(crb))


def crb_rmse(scene: SourceScene, g: ArrayGeometry, n_snapshots: int) -> float:
    """Aggregate CRB in RMSE units: sqrt of the mean per-source bound."""
    return float(np.sqrt(np.mean(crb_stochastic(scene, g, n_snapshots))))
