"""Maximum-likelihood structured covariance recovery.

The estimator fits ``T(v) + lambda I`` to a sample covariance in the ML
sense: minimize ``log det(T(v) + lambda I) + tr((T(v) + lambda I)^{-1} R)``
subject to ``Toep(v) >= 0``.  The log-det term is concave, so the outer loop
majorizes it by its tangent plane at the current iterate and solves the
remaining convex subproblem

    minimize  Re tr(W Map(v)) + tr((Map(v) + D)^{-1} R_fit)
    s.t.      Toep(v) >= 0

exactly (the Schur-complement slack variable of the SDP form is eliminated
analytically, leaving a smooth convex program).  The subproblem is solved by
a log-barrier interior method with damped Newton steps; problem dimension is
2*aperture - 1 real variables.

The EM variant treats sensors absent from a hole-free completion of the
array as latent measurements: each major iteration conditions their second
moments on the observed data (E-step) and then runs the same majorized
subproblem on the completed covariance, which interpolates the correlation
lags the physical array never observes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics as nx
from .geometry import (
    ArrayGeometry,
    adjoint_structured,
    coarray,
    lag_map,
    lag_projections,
    nested_completion,
    pack_lags,
    structured_matrix,
    toeplitz_embed,
    unpack_lags,
)
from .sigmodel import SnapshotMatrix, scm


class SolverError(Exception):
    pass


class LineSearchError(SolverError):
    """Backtracking could not find an acceptable feasible step."""


# Barrier schedule: mu from BARRIER_START down to BARRIER_STOP by BARRIER_FACTOR,
# each stage at most MAX_NEWTON Newton steps of at most MAX_BACKTRACKS halvings.
BARRIER_START = 1e-2
BARRIER_STOP = 1e-9
BARRIER_FACTOR = 0.1
NEWTON_TOL = 1e-9
MAX_NEWTON = 80
MAX_BACKTRACKS = 60


@dataclass
class MleConfig:
    """Model and outer-loop settings of the ML estimators.

    ``lam`` is the noise variance fed to the model (assumed known).  The EM
    variant additionally uses ``lam_m`` for the latent sensors; when unset it
    defaults to ``1e3 * lam``.  The outer loop runs a fixed ``outer_iters``
    iterations with no early stop.  The barrier schedule is module constants.
    """

    lam: float = 1.0
    lam_m: float | None = None
    outer_iters: int = 20
    inner_iters: int = 1
    callback: Callable[[int, np.ndarray, float], None] | None = None

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise SolverError("lam must be positive")
        if self.lam_m is not None and self.lam_m <= 0:
            raise SolverError("lam_m must be positive")
        if self.outer_iters < 1 or self.inner_iters < 1:
            raise SolverError("iteration counts must be at least 1")

    @property
    def lam_missing(self) -> float:
        return self.lam_m if self.lam_m is not None else 1e3 * self.lam


@dataclass(frozen=True)
class CompletionPlan:
    """Partition of a hole-free completion into observed and latent sensors."""

    complete_geometry: ArrayGeometry
    observed_idx: tuple[int, ...]
    missing_idx: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.complete_geometry.m
        if sorted(self.observed_idx + self.missing_idx) != list(range(n)):
            raise SolverError("observed and missing index sets must partition the completion")

    @classmethod
    def from_geometry(cls, g: ArrayGeometry) -> "CompletionPlan":
        """Complete ``g`` with the minimal nested-array cover of its aperture."""
        missing_positions = nested_completion(g)
        complete = ArrayGeometry(tuple(sorted(set(g.grid_positions()) | set(missing_positions))))
        pos = complete.grid_positions()
        observed = tuple(i for i, p in enumerate(pos) if p in set(g.grid_positions()))
        missing = tuple(i for i, p in enumerate(pos) if p in set(missing_positions))
        return cls(complete_geometry=complete, observed_idx=observed, missing_idx=missing)

    @property
    def n_missing(self) -> int:
        return len(self.missing_idx)


@dataclass(frozen=True)
class SubproblemWeights:
    """Data of one convex subproblem instance.

    ``weight`` multiplies the structured matrix linearly, ``noise_diag`` is
    the positive diagonal added inside the trace-inverse term, and
    ``data_matrix`` is the (PSD) matrix it is fit against.  ``geometry``
    fixes the structured map realizing the lag vector.
    """

    weight: np.ndarray
    noise_diag: np.ndarray
    data_matrix: np.ndarray
    geometry: ArrayGeometry


# -- costs and gradients -----------------------------------------------------


def _check_toeplitz_feasible(v: np.ndarray) -> None:
    v = np.asarray(v, dtype=np.complex128)
    shift = max(1e-10, 1e-10 * abs(v[0].real)) * 2.0
    try:
        nx.chol_factor(toeplitz_embed(v) + shift * np.eye(v.size))
    except nx.NotPositiveDefiniteError:
        raise SolverError("lag vector violates the Toeplitz PSD constraint") from None


def ml_cost(v: np.ndarray, lam: float, r: np.ndarray, g: ArrayGeometry) -> float:
    """log det(T(v) + lam I) + tr((T(v) + lam I)^{-1} R)."""
    _check_toeplitz_feasible(v)
    return nx.gaussian_nll(structured_matrix(v, g) + lam * np.eye(g.m), r)


def ml_gradient(v: np.ndarray, lam: float, r: np.ndarray, g: ArrayGeometry) -> np.ndarray:
    """Gradient of ``ml_cost`` in the real lag parameterization (length 2A-1)."""
    p = nx.inv_pd(structured_matrix(v, g) + lam * np.eye(g.m))
    grad_matrix = nx.hermitian_part(p - p @ np.asarray(r, dtype=np.complex128) @ p)
    return pack_lags(adjoint_structured(grad_matrix, g))


def subproblem_objective(weights: SubproblemWeights, v: np.ndarray) -> float:
    """Objective of the convex subproblem at v (no barrier term)."""
    mapped = structured_matrix(v, weights.geometry)
    p = nx.inv_from_factor(nx.chol_factor(mapped + np.diag(weights.noise_diag)))
    tr_lin = float(np.trace(weights.weight @ mapped).real)
    return tr_lin + float(np.vdot(p, weights.data_matrix).real)


# -- barrier subproblem solver ----------------------------------------------


class _BarrierProblem:
    """Barrier model of one subproblem, objective normalized to O(n) scale.

    Both objective terms are homogeneous in (W, R_fit), so dividing them by
    a common factor rescales the objective without moving the minimizer.
    Normalizing keeps the fixed barrier schedule meaningful regardless of
    the data's power level; reported objective values are un-normalized.
    """

    def __init__(self, weights: SubproblemWeights, scale: float = 1.0):
        self.map = lag_map(weights.geometry.grid_positions())
        self.toep = lag_map(tuple(range(self.map.aperture)))
        self.scale = max(float(scale), 1e-300)
        self.weight = nx.hermitian_part(weights.weight) / self.scale
        self.noise = np.asarray(weights.noise_diag, dtype=np.float64)
        self.data = nx.hermitian_part(weights.data_matrix) / self.scale
        self.g_lin = pack_lags(self.map.adjoint(self.weight))
        self.v1, self.v2 = lag_projections(self.map.aperture)

    def factor(self, x: np.ndarray):
        """``(P, L)`` at x, with ``P = (Map+D)^-1`` and L the Cholesky factor
        of Toep; None when x is infeasible."""
        v = unpack_lags(x)
        sigma = self.map.assemble(v) + np.diag(self.noise)
        toep = self.toep.assemble(v)
        try:
            return nx.inv_from_factor(nx.chol_factor(sigma)), nx.chol_factor(toep)
        except nx.NotPositiveDefiniteError:
            return None

    def value(self, x: np.ndarray, mu: float, factors) -> tuple[float, float]:
        p, low_t = factors
        f = float(x @ self.g_lin) + float(np.vdot(p, self.data).real)
        return f, f - mu * nx.logdet_from_factor(low_t)

    def grad_hess(self, x: np.ndarray, mu: float, factors):
        """Gradient and Hessian at x.  Both Hessian blocks, tr(B_a P B_b P R P)
        and mu tr(C_a T^-1 C_b T^-1), are 2-D lag correlations read off DFTs on
        the aperture grid (``lag_projections``)."""
        p, low_t = factors
        g2 = nx.hermitian_part(p @ self.data @ p)
        tinv = nx.inv_from_factor(low_t)
        grad = self.g_lin - pack_lags(self.map.adjoint(g2))
        grad -= mu * pack_lags(self.toep.adjoint(tinv))

        w_map, w_toep = self.map.dft, self.toep.dft
        p_hat = w_map @ p @ w_map.T
        g_hat = w_map @ g2 @ w_map.T
        t_hat = w_toep @ tinv @ w_toep.T
        z = np.real(p_hat * g_hat.conj()) + (0.5 * mu) * np.abs(t_hat) ** 2
        half = self.v1.T @ z @ self.v2
        return grad, half + half.T


def _center_start(x: np.ndarray, mu0: float) -> np.ndarray:
    """Push the path start into the cone interior compatible with mu0.

    Warm starts arriving from a previous solve sit essentially on the PSD
    boundary, where the barrier Hessian is numerically singular and Newton
    crawls.  Shifting the zero lag (an exact spectrum shift of the Toeplitz
    embedding) lifts its least eigenvalue to ``sqrt(mu0) * scale``, so even an
    infeasible start becomes strictly feasible (``T(v)`` is a principal
    submatrix of ``Toep(v)``).  The original start stays in the candidate
    set, so the returned objective can only improve.
    """
    v = unpack_lags(x)
    eig = nx.herm_eig(toeplitz_embed(v))
    scale = max(float(eig.values[-1]), abs(v[0].real), 1e-12)
    target = np.sqrt(mu0) * scale
    gap = target - float(eig.values[0])
    if gap > 0:
        x = x.copy()
        x[0] += gap
    return x


def _newton_stage(problem: _BarrierProblem, x: np.ndarray, mu: float, tol: float):
    """Minimize f + mu * barrier from x; returns (x, best_f_seen, best_x)."""
    factors = problem.factor(x)
    if factors is None:
        raise SolverError("infeasible start in Newton stage")
    f_plain, f_mu = problem.value(x, mu, factors)
    best_f, best_x = f_plain, x
    for _ in range(MAX_NEWTON):
        grad, hess = problem.grad_hess(x, mu, factors)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol * (1.0 + abs(f_mu)):
            break
        step = _solve_direction(hess, grad)
        slope = float(grad @ step)
        if slope >= 0:  # rounding gave a non-descent direction; use steepest
            step = -grad
            slope = -gnorm * gnorm
        t = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand = x + t * step
            cand_factors = problem.factor(cand)
            if cand_factors is not None:
                cand_plain, cand_mu = problem.value(cand, mu, cand_factors)
                if cand_mu <= f_mu + 0.25 * t * slope:
                    x, factors = cand, cand_factors
                    f_plain, f_mu = cand_plain, cand_mu
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            raise LineSearchError("backtracking line search failed")
        if f_plain < best_f:
            best_f, best_x = f_plain, x
        if -slope * t < 1e-16 * (1.0 + abs(f_mu)):
            break
    return x, best_f, best_x


def _solve_direction(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    # The Hessian is PSD by construction (convex data term plus barrier), so
    # an undamped factorization normally succeeds and artificial damping
    # would only blunt the Newton step where the barrier curvature is large.
    # The factorization is the definiteness test; one real solve is cheaper.
    try:
        nx.chol_factor(hess)
        return -np.linalg.solve(hess, grad)
    except nx.NotPositiveDefiniteError:
        pass
    # Rounding made it indefinite: solve in the eigenbasis with the noise
    # floor clipped relative to the dominant curvature.
    eig = nx.herm_eig(0.5 * (hess + hess.T))
    floor = max(eig.values[-1], 1.0) * 1e-14
    inv = 1.0 / np.maximum(eig.values, floor)
    vec = eig.vectors
    return -np.real((vec * inv) @ (vec.conj().T @ grad))


def solve_subproblem(
    weights: SubproblemWeights,
    start: np.ndarray,
    cfg: MleConfig,
) -> np.ndarray:
    """Solve the Toeplitz-constrained convex subproblem from any start.

    Runs log-barrier continuation with damped Newton inner iterations.  The
    returned point never has a larger objective than a feasible start: the
    start and every accepted iterate are candidates and the best one wins.
    ``cfg`` sets nothing here; the barrier schedule is module constants.
    """
    x0 = pack_lags(np.asarray(start, dtype=np.complex128))
    mu = BARRIER_START
    x = _center_start(x0, mu)
    # Renormalize so the schedule sees an O(n)-scale objective.
    f_centred = subproblem_objective(weights, unpack_lags(x))
    problem = _BarrierProblem(weights, max(1.0, f_centred / (2.0 * weights.geometry.m)))

    candidates: list[tuple[float, np.ndarray]] = []
    start_factors = problem.factor(x0)
    if start_factors is not None:
        candidates.append((problem.value(x0, 1.0, start_factors)[0], x0))
    while True:
        final = mu <= BARRIER_STOP * (1.0 + 1e-12)
        # Intermediate stages only need to track the central path loosely.
        tol = NEWTON_TOL if final else max(NEWTON_TOL, 1e-6)
        try:
            x, stage_best_f, stage_best_x = _newton_stage(problem, x, mu, tol)
        except LineSearchError:
            if not candidates:
                raise
            break
        candidates.append((stage_best_f, stage_best_x))
        if final:
            break
        mu = max(mu * BARRIER_FACTOR, BARRIER_STOP)

    return unpack_lags(min(candidates, key=lambda c: c[0])[1])


# -- outer MM loop ------------------------------------------------------------


def _majorization(
    v_ref: np.ndarray, r_fit: np.ndarray, g: ArrayGeometry, noise: np.ndarray
) -> SubproblemWeights:
    """Subproblem whose objective majorizes the ML cost at ``v_ref``: the
    log-det term of ``T(v) + diag(noise)`` replaced by its tangent plane."""
    weight = nx.inv_pd(structured_matrix(v_ref, g) + np.diag(noise))
    return SubproblemWeights(weight=weight, noise_diag=noise, data_matrix=r_fit, geometry=g)


def _majorize_minimize(
    fit_matrix: Callable[[np.ndarray], np.ndarray],
    fit_geometry: ArrayGeometry,
    noise: np.ndarray,
    inner_iters: int,
    r: np.ndarray,
    g: ArrayGeometry,
    cfg: MleConfig,
) -> np.ndarray:
    """The MM outer loop behind ``structcov_mle`` and ``em_gridless``.

    Starts at the unit lag vector (identity model).  Each of the
    ``outer_iters`` iterations takes the matrix to fit, ``fit_matrix(v)``,
    and runs ``inner_iters`` subproblem solves on ``fit_geometry``, each
    majorizing the log-det term of ``T(v) + diag(noise)`` at the current
    iterate.  A failed line search is retried once from a jittered start.
    The callback sees the ML cost of ``cfg.lam`` and the SCM ``r`` on the
    physical geometry ``g``, which is non-increasing along the iterates.
    """
    v = np.zeros(coarray(fit_geometry).aperture, dtype=np.complex128)
    v[0] = 1.0
    if cfg.callback is not None:
        cfg.callback(0, v.copy(), ml_cost(v, cfg.lam, r, g))
    for k in range(1, cfg.outer_iters + 1):
        r_fit = fit_matrix(v)
        for _ in range(inner_iters):
            weights = _majorization(v, r_fit, fit_geometry, noise)
            try:
                v = solve_subproblem(weights, v, cfg)
            except LineSearchError:
                jitter = v.copy()
                jitter[0] += 1e-8 * abs(jitter[0]) + 1e-12
                v = solve_subproblem(weights, jitter, cfg)
        if cfg.callback is not None:
            cfg.callback(k, v.copy(), ml_cost(v, cfg.lam, r, g))
    return v


def structcov_mle(r: np.ndarray, g: ArrayGeometry, cfg: MleConfig) -> np.ndarray:
    """MM recovery of the structured covariance lag vector from an SCM.

    Starts at the unit lag vector (identity model), majorizes the log-det
    term at each iterate, and solves the convex subproblem once per outer
    iteration for a fixed number of outer iterations.  The ML cost is
    non-increasing along the iterate sequence.
    """
    r = nx.hermitian_part(np.asarray(r, dtype=np.complex128))
    noise = np.full(g.m, cfg.lam)
    return _majorize_minimize(lambda _v: r, g, noise, 1, r, g, cfg)


# -- EM variant: interpolate missing correlation lags -------------------------


def em_estep(
    v: np.ndarray,
    y_o: SnapshotMatrix,
    plan: CompletionPlan,
    lam_o: float,
    lam_m: float,
) -> np.ndarray:
    """Conditional complete-data SCM given the observed snapshots.

    Rows and columns follow the sensors of ``plan.complete_geometry``.  The
    observed block is the plain SCM; cross blocks and the latent block follow
    from the conditional Gaussian moments under the current model
    ``T(v) + diag(lam_o, lam_m)``.
    """
    tn = structured_matrix(v, plan.complete_geometry)
    o = list(plan.observed_idx)
    m = list(plan.missing_idx)
    r_o = scm(y_o)
    if not m:
        return r_o
    sig_oo = tn[np.ix_(o, o)] + lam_o * np.eye(len(o))
    sig_mm = tn[np.ix_(m, m)] + lam_m * np.eye(len(m))
    sig_mo = tn[np.ix_(m, o)]
    gain = sig_mo @ nx.inv_pd(sig_oo)  # Sigma_mo Sigma_oo^{-1}
    out = np.empty(tn.shape, dtype=np.complex128)
    out[np.ix_(o, o)] = r_o
    out[np.ix_(o, m)] = r_o @ gain.conj().T
    out[np.ix_(m, o)] = gain @ r_o
    out[np.ix_(m, m)] = sig_mm - gain @ sig_mo.conj().T + gain @ r_o @ gain.conj().T
    return nx.hermitian_part(out)


def _complete_noise_diag(plan: CompletionPlan, lam_o: float, lam_m: float) -> np.ndarray:
    d = np.empty(plan.complete_geometry.m)
    d[list(plan.observed_idx)] = lam_o
    d[list(plan.missing_idx)] = lam_m
    return d


def em_majorized_cost(
    v: np.ndarray,
    v_ref: np.ndarray,
    r_tilde: np.ndarray,
    plan: CompletionPlan,
    lam_o: float,
    lam_m: float,
) -> float:
    """Inner majorized EM objective tr(B^{-1} T(v)) + tr(Sigma_y(v)^{-1} R~)."""
    noise = _complete_noise_diag(plan, lam_o, lam_m)
    return subproblem_objective(_majorization(v_ref, r_tilde, plan.complete_geometry, noise), v)


def observed_majorized_cost(
    v: np.ndarray,
    v_ref: np.ndarray,
    r_observed: np.ndarray,
    g: ArrayGeometry,
    lam_o: float,
) -> float:
    """Majorized objective restricted to the physical sensors."""
    return subproblem_objective(_majorization(v_ref, r_observed, g, np.full(g.m, lam_o)), v)


def em_gridless(
    y_o: SnapshotMatrix,
    g: ArrayGeometry,
    plan: CompletionPlan,
    cfg: MleConfig,
) -> np.ndarray:
    """EM recovery with latent sensors interpolating missing correlation lags.

    Each major iteration computes the conditional complete-data SCM, then
    runs ``inner_iters`` majorized subproblem solves on the completed
    geometry.  The observed-data ML cost is non-increasing over major
    iterations; with no missing sensors the trajectory coincides with
    ``structcov_mle``.
    """
    lam_m = cfg.lam_missing
    cg = plan.complete_geometry
    if coarray(cg).aperture != coarray(g).aperture:
        raise SolverError("completion must preserve the array aperture")

    noise = _complete_noise_diag(plan, cfg.lam, lam_m)
    return _majorize_minimize(
        lambda v: em_estep(v, y_o, plan, cfg.lam, lam_m),
        cg, noise, cfg.inner_iters, scm(y_o), g, cfg,
    )
