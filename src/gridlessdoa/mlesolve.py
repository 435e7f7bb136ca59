"""Maximum-likelihood structured covariance recovery.

The estimator fits ``T(v) + lambda I`` to a sample covariance in the ML
sense: minimize ``log det(T(v) + lambda I) + tr((T(v) + lambda I)^{-1} R)``
subject to ``Toep(v) >= 0``.  The log-det term is concave, so the outer loop
majorizes it by its tangent plane at the current iterate and solves the
remaining convex subproblem

    minimize  Re tr(W Map(v)) + tr((Map(v) + D)^{-1} R_fit)
    s.t.      Toep(v) >= 0

(the Schur-complement slack variable of the SDP form is eliminated
analytically, leaving a smooth convex program).  The subproblem is solved by
a log-barrier interior method with damped Newton steps; problem dimension is
2*aperture - 1 real variables.  MM needs each solve only to lower the
surrogate, not to minimize it (Razaviyayn, Hong & Luo, SIAM J. Optim. 2013;
Sun, Babu & Palomar, IEEE TSP 2017), so an MM/EM solve ends its barrier path
early once the barrier's gap bound is below the decrease it has made; as the
outer loop converges the decrease shrinks and the solves become exact.

The EM variant treats sensors absent from a hole-free completion of the
array as latent measurements: each major iteration conditions their second
moments on the observed data (E-step) and then runs the same majorized
subproblem on the completed covariance, which interpolates the correlation
lags the physical array never observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


# Barrier path of every subproblem solve: one (mu, bound on the squared Newton
# decrement) row per stage, mu falling 10x.  Path following needs only loose
# centring, here lambda <= 1/2 (Boyd & Vandenberghe, Convex Optimization, 9.5.1
# and 11.3.1); bound 0 leaves the last stage to the stall rule, which fixes the
# point to rounding.  Each stage takes at most MAX_NEWTON Newton steps of at
# most MAX_BACKTRACKS halvings; the predicted start of the next stage gets at
# most PREDICTOR_HALVINGS halvings.  An MM/EM solve may end after any stage
# with mu <= GAP_STOP_MU, once A * mu (A the Toeplitz order), the gap bound of
# the log-det barrier's central path, is at most the decrease of the
# barrier-free objective from the solve's start (``solve_subproblem``).  The
# floor keeps that test to stages whose bound is small: at 1e-3 the
# fig_resolution estimates move by up to 4.5e-3 in u from those of a 1e-6
# floor with bounds of 1e-2, at 1e-4 by up to 4.9e-4.
BARRIER_STAGES = tuple((10.0**-k, 0.25) for k in range(2, 9)) + ((1e-9, 0.0),)
GAP_STOP_MU = 1e-4
MAX_NEWTON = 80
MAX_BACKTRACKS = 60
PREDICTOR_HALVINGS = 3


@dataclass
class NewtonWork:
    """Newton work of the subproblem solves: Newton systems solved
    (``steps``, including the one whose Newton decrement ends a stage),
    systems whose real solve in ``_solve_direction`` was singular,
    non-finite or did not descend, so the step and the tangent came from the
    eigensolve (``fallbacks``), barrier stages stopped at ``MAX_NEWTON`` steps,
    stage hand-offs whose predicted start stayed infeasible (``_predict``),
    so the next stage started where the last one ended, line searches
    that found no acceptable step in ``MAX_BACKTRACKS`` halvings, each of
    which ended its solve's barrier path, and MM/EM solves that the gap
    bound ended before the final stage (``gap_stops``)."""

    steps: int = 0
    fallbacks: int = 0
    cap_hits: int = 0
    predictor_misses: int = 0
    line_search_failures: int = 0
    gap_stops: int = 0


@dataclass
class MleConfig:
    """Model and outer-loop settings of the ML estimators.

    ``lam`` is the noise variance fed to the model (assumed known); its
    default 1.0 is the unit noise variance ``SourceScene.from_snr`` draws.
    The EM variant additionally uses ``lam_m`` for the latent sensors; when
    unset it defaults to ``1e3 * lam`` (``lam_missing``).  The outer loop runs
    ``outer_iters`` subproblem solves with no early stop.  The barrier path is
    the module's ``BARRIER_STAGES`` table, cut short only by the gap-bound
    rule that the MM loop switches on, so no field sets anything in the
    subproblem solve.  ``newton`` is an output only: every solve run with this
    config adds its Newton work to it, and it never changes an iterate.
    """

    lam: float = 1.0
    lam_m: float | None = None
    outer_iters: int = 20
    callback: Callable[[int, np.ndarray, float], None] | None = None
    newton: NewtonWork = field(default_factory=NewtonWork)

    def __post_init__(self) -> None:
        if not 0 < self.lam < np.inf:
            raise SolverError("lam must be positive and finite")
        if self.lam_m is not None and not 0 < self.lam_m < np.inf:
            raise SolverError("lam_m must be positive and finite")
        if self.outer_iters < 1:
            raise SolverError("outer_iters must be at least 1")

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
    """Barrier model of one subproblem."""

    def __init__(self, weights: SubproblemWeights):
        self.map = lag_map(weights.geometry.grid_positions())
        self.toep = lag_map(tuple(range(self.map.aperture)))
        self.noise = np.diag(np.asarray(weights.noise_diag, dtype=np.float64))
        self.data = nx.hermitian_part(weights.data_matrix)
        self.g_lin = pack_lags(self.map.adjoint(nx.hermitian_part(weights.weight)))
        self.v1, self.v2 = lag_projections(self.map.aperture)

    def normalize(self, x: np.ndarray, factors) -> None:
        """Divide the objective by ``max(1, f(x) / 2n)``.  Both terms are
        homogeneous in (W, R_fit), so the minimizer stays put and the fixed
        barrier table means the same whatever the data's power level."""
        scale = max(1.0, self.value(x, 0.0, factors)[0] / (2.0 * len(self.noise)))
        self.g_lin = self.g_lin / scale
        self.data = self.data / scale

    def factor(self, x: np.ndarray):
        """``(P, L)`` at x, with ``P = (Map+D)^-1`` and L the Cholesky factor
        of Toep; None when x is infeasible.  That one factorization decides
        feasibility: T(v) is a principal submatrix of Toep and D > 0, so
        Map + D is then positive definite and P is its direct inverse."""
        v = unpack_lags(x)
        try:
            low_t = nx.chol_factor(self.toep.assemble(v))
        except nx.NotPositiveDefiniteError:
            return None
        return np.linalg.inv(self.map.assemble(v) + self.noise), low_t

    def value(self, x: np.ndarray, mu: float, factors) -> tuple[float, float]:
        p, low_t = factors
        f = float(x @ self.g_lin) + float(np.vdot(p, self.data).real)
        return f, f - mu * nx.logdet_from_factor(low_t)

    def grad_hess(self, x: np.ndarray, mu: float, factors):
        """Gradient, Hessian and ``-grad phi`` (phi = -log det Toep) at x.
        Both Hessian blocks, tr(B_a P B_b P R P) and mu tr(C_a T^-1 C_b T^-1),
        are 2-D lag correlations read off DFTs on the aperture grid
        (``lag_projections``)."""
        p, low_t = factors
        g2 = p @ self.data @ p
        tinv = nx.inv_from_factor(low_t)
        neg_grad_phi = pack_lags(self.toep.adjoint(tinv))
        grad = self.g_lin - pack_lags(self.map.adjoint(g2)) - mu * neg_grad_phi

        w_map, w_toep = self.map.dft, self.toep.dft
        p_hat, g_hat = w_map @ np.array((p, g2)) @ w_map.T
        t_hat = w_toep @ tinv @ w_toep.T
        z = np.real(p_hat * g_hat.conj()) + (0.5 * mu) * np.abs(t_hat) ** 2
        half = self.v1.T @ z @ self.v2
        return grad, half + half.T, neg_grad_phi


def _newton_stage(problem: _BarrierProblem, x: np.ndarray, factors, mu: float, tol: float,
                  work: NewtonWork):
    """Minimize F_mu = f + mu * barrier from x, whose ``factors`` do not
    depend on mu.

    Damped Newton steps with a backtracking line search until the squared
    Newton decrement ``-grad F_mu . dx / mu`` is at most ``tol`` (tested
    before the line search, so a centred start makes no trial point), a
    step stalls below rounding, ``MAX_NEWTON`` steps, or a line search fails
    (counted in ``work``).  Returns (x, its factors, the central-path
    tangent ``H_mu^-1 grad phi`` of the last Newton system solved, whether a
    line search failed); after a failure x is the last accepted point.  The
    tangent was solved at x unless the last accepted step moved x past it.
    """
    f_mu = problem.value(x, mu, factors)[1]
    for _ in range(MAX_NEWTON):
        grad, hess, neg_grad_phi = problem.grad_hess(x, mu, factors)
        work.steps += 1
        step, tangent = _solve_direction(hess, grad, neg_grad_phi, work)
        slope = float(grad @ step)
        if -slope <= tol * mu:
            break
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            cand = x + t * step
            cand_factors = problem.factor(cand)
            if cand_factors is not None:
                cand_mu = problem.value(cand, mu, cand_factors)[1]
                if cand_mu <= f_mu + 0.25 * t * slope:
                    break
            t *= 0.5
        else:
            work.line_search_failures += 1
            return x, factors, tangent, True
        x, factors, f_mu = cand, cand_factors, cand_mu
        if -slope * t < 1e-16 * (1.0 + abs(f_mu)):
            break
    else:
        work.cap_hits += 1
    return x, factors, tangent, False


def _predict(problem: _BarrierProblem, x: np.ndarray, factors, tangent: np.ndarray, dmu: float,
             work: NewtonWork):
    """Start of the next barrier stage, ``dmu`` lower: the central-path
    tangent point.

    Along the central path ``grad f + mu grad phi = 0`` (phi = -log det Toep),
    so ``dx/dmu = -H_mu^-1 grad phi`` and the first-order point for
    ``mu - dmu`` is ``x + dmu * tangent`` with ``tangent = H_mu^-1 grad phi``
    from the stage's last Newton system, taken at the stage's end x, which is
    only near x(mu).  The step is halved until ``factor`` accepts it, at most
    ``PREDICTOR_HALVINGS`` times; when none is feasible the miss is counted
    and the stage's end point is returned.  Returns the start and its factors.
    """
    step = dmu * tangent
    for _ in range(PREDICTOR_HALVINGS + 1):
        cand = x + step
        cand_factors = problem.factor(cand)
        if cand_factors is not None:
            return cand, cand_factors
        step = 0.5 * step
    work.predictor_misses += 1
    return x, factors


def _solve_direction(hess: np.ndarray, grad: np.ndarray, neg_grad_phi: np.ndarray,
                     work: NewtonWork) -> np.ndarray:
    """Rows: the Newton step ``-H^-1 grad`` and the central-path tangent
    ``H^-1 grad phi``, from one real solve with both right-hand sides.

    The Hessian is PSD by construction (convex data term plus barrier), so
    the solve normally gives a descent step, and artificial damping would
    only blunt it where the barrier curvature is large.  When rounding makes
    the solve singular, or its step is not finite or does not descend, both
    rows come from the eigenbasis with the noise floor clipped relative to
    the dominant curvature, which always descends (counted in ``work``).
    """
    rhs = np.array((grad, neg_grad_phi)).T
    try:
        out = -np.linalg.solve(hess, rhs).T
        if -np.inf < float(grad @ out[0]) < 0:  # also false for a non-finite step
            return out
    except np.linalg.LinAlgError:
        pass
    work.fallbacks += 1
    eig = nx.herm_eig(hess)
    floor = max(eig.values[-1], 1.0) * 1e-14
    vec = eig.vectors
    return -np.real((vec / np.maximum(eig.values, floor)) @ (vec.conj().T @ rhs)).T


@dataclass
class _Resume:
    """Where the first barrier stage of a subproblem solve starts.

    Consecutive subproblems of one MM/EM run share the constraint
    ``Toep(v) >= 0`` and differ only in weights and data, so the point where
    the last solve's first stage ended, centred to that stage's decrement
    bound, is strictly feasible for the next solve and near its central path
    at the first stage's mu.  An MM/EM run seeds ``x`` with its start, the
    unit lag vector (``Toep = I``: strictly feasible and central), which is
    also where a standalone solve starts.
    Each solve replaces ``x`` with the point its first stage ended on.
    ``gap_stop``, set by the MM/EM run only, lets each solve end its path
    early on the gap bound (``GAP_STOP_MU``); a standalone solve or a bare
    ``_Resume(x)`` walks the full table.
    """

    x: np.ndarray
    gap_stop: bool = False


def _unit_lags(g: ArrayGeometry) -> np.ndarray:
    """The unit lag vector of ``g``'s aperture (identity model, ``Toep = I``)."""
    v = np.zeros(coarray(g).aperture, dtype=np.complex128)
    v[0] = 1.0
    return v


def solve_subproblem(
    weights: SubproblemWeights,
    start: np.ndarray,
    cfg: MleConfig,
    resume: _Resume | None = None,
) -> np.ndarray:
    """Solve the Toeplitz-constrained convex subproblem from any start.

    Walks the log-barrier path of ``BARRIER_STAGES`` with damped Newton
    steps, each non-final stage ending on its Newton decrement and the last
    on the stall rule.  The first stage starts at ``resume.x`` when the MM
    loop hands one over, otherwise at the unit lag vector; that point's
    ``factor`` result normalizes the objective, and the point the stage ends
    on replaces ``resume.x``.  Every later stage starts at ``_predict``'s
    central-path tangent point from where the previous stage ended, or at
    that end point itself when no predicted point is feasible (a counted
    ``predictor_misses``).  A failed line search (a counted
    ``line_search_failures``) ends the path at its last accepted point.  With
    ``resume.gap_stop`` set, the path also ends after any stage with
    ``mu <= GAP_STOP_MU`` whose end x satisfies ``A * mu <= F(start) - F(x)``
    (a counted ``gap_stops``): F is the normalized objective without the
    barrier and A the Toeplitz order.  ``A * mu`` bounds how far the central
    point x(mu) is above the subproblem's minimum; x is centred only to the
    stage's decrement bound, so for x the bound is approximate, and the rule
    is a stopping heuristic: x keeps roughly half or more of the decrease the
    full path would make.  MM descent does not rest on it.  The result is the
    better of ``start``, when ``factor`` accepts it, and the point the path
    ended on, so it never has a larger objective than a feasible start.
    ``cfg`` sets nothing here; the solve's Newton work is added to
    ``cfg.newton``.
    """
    if resume is None:
        resume = _Resume(pack_lags(_unit_lags(weights.geometry)))
    x = resume.x
    problem = _BarrierProblem(weights)
    factors = problem.factor(x)
    if factors is None:
        raise SolverError("infeasible start in Newton stage")
    problem.normalize(x, factors)
    x0 = pack_lags(np.asarray(start, dtype=np.complex128))
    start_factors = problem.factor(x0)
    f_start = np.inf if start_factors is None else problem.value(x0, 0.0, start_factors)[0]

    for k, (mu, tol) in enumerate(BARRIER_STAGES):
        if k:
            x, factors = _predict(problem, x, factors, tangent, BARRIER_STAGES[k - 1][0] - mu, cfg.newton)
        x, factors, tangent, failed = _newton_stage(problem, x, factors, mu, tol, cfg.newton)
        if k == 0:
            resume.x = x
        if failed:
            break
        if resume.gap_stop and mu <= GAP_STOP_MU and k < len(BARRIER_STAGES) - 1 and (
            problem.toep.aperture * mu <= f_start - problem.value(x, 0.0, factors)[0]
        ):
            cfg.newton.gap_stops += 1
            break

    return unpack_lags(x0 if f_start <= problem.value(x, 0.0, factors)[0] else x)


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
    r: np.ndarray,
    g: ArrayGeometry,
    cfg: MleConfig,
) -> np.ndarray:
    """The MM outer loop behind ``structcov_mle`` and ``em_gridless``.

    Starts at the unit lag vector (identity model).  Each of the
    ``outer_iters`` iterations takes the matrix to fit, ``fit_matrix(v)``,
    and solves one subproblem on ``fit_geometry`` majorizing the log-det term
    of ``T(v) + diag(noise)`` at ``v``.  The start ``v`` passed ``factor`` in
    the last solve (same geometry and noise), so a solve whose path ends
    higher returns it.  Each solve starts its barrier path where the previous
    one's first stage ended, the first at ``v`` itself (``_Resume``, owned by
    this run), and may end that path early on the gap bound
    (``_Resume.gap_stop``).  The callback sees the ML cost of ``cfg.lam`` and
    the SCM ``r`` on the physical geometry ``g``, which is non-increasing
    along the iterates.
    """
    v = _unit_lags(fit_geometry)
    if cfg.callback is not None:
        cfg.callback(0, v.copy(), ml_cost(v, cfg.lam, r, g))
    resume = _Resume(pack_lags(v), gap_stop=True)
    for k in range(1, cfg.outer_iters + 1):
        v = solve_subproblem(_majorization(v, fit_matrix(v), fit_geometry, noise), v, cfg, resume)
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
    return _majorize_minimize(lambda _v: r, g, noise, r, g, cfg)


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
        return nx.hermitian_part(r_o)
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
    solves one majorized subproblem on the completed geometry.  The
    observed-data ML cost is non-increasing over major iterations; with no
    missing sensors the trajectory coincides with ``structcov_mle``.
    """
    lam_m = cfg.lam_missing
    cg = plan.complete_geometry
    if coarray(cg).aperture != coarray(g).aperture:
        raise SolverError("completion must preserve the array aperture")

    noise = _complete_noise_diag(plan, cfg.lam, lam_m)
    return _majorize_minimize(
        lambda v: em_estep(v, y_o, plan, cfg.lam, lam_m),
        cg, noise, scm(y_o), g, cfg,
    )
