"""Error metrics, distribution mismatch, and the stochastic Cramer-Rao bound."""

from __future__ import annotations

import numpy as np

from . import numerics as nx
from .estimate import DoaEstimate
from .geometry import ArrayGeometry
from .sigmodel import SourceScene, manifold


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


def kl_gaussian(r_true: np.ndarray, sigma_model: np.ndarray) -> float:
    """KL divergence between zero-mean complex Gaussians with these covariances.

    ``log det(Sigma) - log det(R) - M + tr(Sigma^{-1} R)``; nonnegative and
    zero exactly at equality.
    """
    r_true = np.asarray(r_true, dtype=np.complex128)
    return nx.gaussian_nll(sigma_model, r_true) - nx.logdet_pd(r_true) - r_true.shape[0]


def _scene_parameters(scene: SourceScene) -> np.ndarray:
    """Real parameter vector (u, Re/Im upper triangle of R_x, noise_var)."""
    rx = scene.source_covariance()
    upper = rx[np.triu_indices(scene.k, k=1)]
    off = np.stack([upper.real, upper.imag], axis=1).ravel()
    u = np.asarray(scene.u, dtype=np.float64)
    return np.concatenate([u, np.real(np.diag(rx)), off, [scene.noise_var]])


def _covariance_from_parameters(theta: np.ndarray, k: int, g: ArrayGeometry) -> np.ndarray:
    u = theta[:k]
    diag = theta[k : 2 * k]
    off = theta[2 * k : 2 * k + k * (k - 1)]
    noise = theta[-1]
    rx = np.diag(diag.astype(np.complex128))
    rows, cols = np.triu_indices(k, k=1)
    rx[rows, cols] = off[0::2] + 1j * off[1::2]
    rx[cols, rows] = np.conj(rx[rows, cols])
    phi = manifold(u, g)
    return phi @ rx @ phi.conj().T + noise * np.eye(g.m)


def crb_stochastic(scene: SourceScene, g: ArrayGeometry, n_snapshots: int) -> np.ndarray:
    """Per-source u-space variance bound under the stochastic signal model.

    The Fisher information of (u, R_x, noise_var) for circular Gaussian
    snapshots is ``L tr(R^{-1} dR_a R^{-1} dR_b)``; covariance derivatives
    are central differences with step 1e-6.  Returns the diagonal of the
    direction block of the inverse information matrix, which scales exactly
    as 1/L.
    """
    k = scene.k
    if k >= g.m:
        raise MetricsError("stochastic bound needs fewer sources than sensors")
    theta = _scene_parameters(scene)
    n_par = theta.size
    step = 1e-6
    derivs = []
    for a in range(n_par):
        tp = theta.copy()
        tp[a] += step
        tm = theta.copy()
        tm[a] -= step
        derivs.append(
            (_covariance_from_parameters(tp, k, g) - _covariance_from_parameters(tm, k, g))
            / (2 * step)
        )
    r = _covariance_from_parameters(theta, k, g)
    rinv = nx.inv_pd(r)
    sandwich = [rinv @ d for d in derivs]
    fim = np.empty((n_par, n_par))
    for a in range(n_par):
        for b in range(a, n_par):
            val = float(np.trace(sandwich[a] @ sandwich[b]).real)
            fim[a, b] = val
            fim[b, a] = val
    fim *= n_snapshots
    try:
        crb_full = np.real(nx.inv_pd(fim))
    except nx.NotPositiveDefiniteError:
        raise MetricsError("Fisher information is singular: scene not identifiable") from None
    return np.diag(crb_full)[:k].copy()


def crb_rmse(scene: SourceScene, g: ArrayGeometry, n_snapshots: int) -> float:
    """Aggregate CRB in RMSE units: sqrt of the mean per-source bound."""
    return float(np.sqrt(np.mean(crb_stochastic(scene, g, n_snapshots))))
