"""Declarative Monte-Carlo experiment runner.

Experiments are described by flat ``key = value`` config files with dotted
sections (see ``CONFIG_KEYS``).  A run sweeps one axis (SNR, correlation
magnitude, snapshot count, or nothing), fans independent trials out over
workers, and writes deterministic CSV tables plus a metadata JSON with
timing.  Every experiment kind runs the same trial, ``run_one_trial``:
simulate once, run every estimator; all but ``refine`` are a covariance read
by root-MUSIC.  ``single_snapshot`` is the one kind that changes the outputs:
its trials also keep each covariance's MUSIC spectrum.  Results are keyed by
(axis, trial) so the output is invariant to the degree of parallelism, and
all randomness is derived from the base seed and trial index.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .estimate import DoaEstimate, EstimateError, music_spectrum, root_music
from .geometry import ArrayGeometry, GeometryError, coarray, nested_completion, toeplitz_embed
from .metrics import MetricsError, assign_errors, crb_rmse, empirical_bias, rmse_u, success_rate
from .mlesolve import CompletionPlan, MleConfig, NewtonWork, SolverError, em_gridless, structcov_mle
from .numerics import NumericsError
from .refine import RefineError, multires_refine
from .sbl import SblError
from .sigmodel import ModelError, SnapshotMatrix, SourceScene, fb_average, scm, simulate
from .sigmodel import ContiguousLagError, spatial_smooth

EXPERIMENT_KINDS = (
    "single_snapshot",
    "more_sources",
    "correlation_sweep",
    "snr_sweep",
    "resolution",
    "refine_arbitrary",
    "custom",
)

ESTIMATORS = ("scm-music", "fb-music", "structcovmle", "method1", "method2", "em", "refine")

SWEEP_AXES = ("none", "snr_db", "rho_abs", "snapshots")

CONFIG_KEYS = {
    "experiment.kind": f"one of {', '.join(EXPERIMENT_KINDS)}; only single_snapshot changes"
    " the outputs (adds MUSIC spectra; needs sweep.axis = none and any estimator but refine)",
    "experiment.trials": "integer >= 1",
    "experiment.seed": "integer",
    "geometry.positions": "comma-separated sensor positions starting at 0",
    "scene.u": "comma-separated ascending source directions in [-1, 1)",
    "scene.snr_db": "per-source SNR in dB (scalar or one per source)",
    "scene.rho_abs": "correlation magnitude in [0, 1]",
    "scene.rho_phase": "correlation phase in radians",
    "scene.snapshots": "integer >= 1",
    "estimate.k": "number of sources to estimate (defaults to len(scene.u))",
    "estimators": f"comma-separated subset of {', '.join(ESTIMATORS)}; scm-music and fb-music"
    " need a ULA (positions 0..m-1), structcovmle, em, method1 and method2 integer positions",
    "sweep.axis": f"one of {', '.join(SWEEP_AXES)}",
    "sweep.values": "comma-separated axis values (nonempty; absent when axis=none)",
    "solver.iter": "outer MM iterations, >= 1 (default 20)",
    "solver.lambda": "noise variance fed to the solver, > 0 (default 1.0)",
    "solver.lambda_m_factor": "latent-sensor noise multiplier, > 0 (default 1000); "
    "sets how fast em converges, not where",
    "refine.grid_size": "initial uniform grid size, >= 1 (default 150)",
    "refine.g_factor": "per-round resolution factor, > 1 (default 3)",
    "refine.gamma_thresh": "pruning threshold, >= 0 (default 1e-3)",
    "refine.rounds": "refinement rounds, >= 0 (default 5)",
    "refine.sbl_iters": "SBL iteration cap per run, >= 1 (default 5000)",
    "spectrum.grid": "pseudospectrum grid size, >= 1 (default 600)",
    "output.prefix": "file name prefix for artifacts",
}


class ConfigError(Exception):
    """Invalid experiment configuration; message names the key and constraint."""


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    geometry: ArrayGeometry
    scene_u: tuple[float, ...]
    scene_snr_db: tuple[float, ...]
    rho_abs: float
    rho_phase: float
    snapshots: int
    estimators: tuple[str, ...]
    k: int
    sweep_axis: str
    sweep_values: tuple[float, ...]
    trials: int
    seed: int
    solver_iter: int = 20
    solver_lambda: float = 1.0
    solver_lambda_m_factor: float = 1000.0
    refine_grid_size: int = 150
    refine_g_factor: int = 3
    refine_gamma_thresh: float = 1e-3
    refine_rounds: int = 5
    refine_sbl_iters: int = 5000
    spectrum_grid: int = 600
    out_prefix: str = "experiment"


def _fail(key: str, why: str):
    hint = CONFIG_KEYS.get(key, "")
    raise ConfigError(f"config key '{key}': {why}" + (f" (expected: {hint})" if hint else ""))


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate the flat key = value config format."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = body.split("=", 1)
        raw[key.strip()] = value.strip()

    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def need(key: str) -> str:
        if key not in raw:
            _fail(key, "missing")
        return raw[key]

    def floats(key: str) -> tuple[float, ...]:
        try:
            values = tuple(float(tok) for tok in need(key).split(",") if tok.strip())
        except ValueError:
            _fail(key, f"could not parse {raw[key]!r} as numbers")
        if not all(map(math.isfinite, values)):
            _fail(key, f"{raw[key]!r} has a non-finite value")
        return values

    # ``low``/``strict``: the range the solvers enforce, checked here so a bad
    # value is a config error and not a sweep of failed trials.
    def one_float(
        key: str, default: float | None = None, low: float | None = None, strict: bool = False
    ) -> float:
        if key not in raw and default is not None:
            return default
        try:
            value = float(need(key))
        except ValueError:
            _fail(key, f"could not parse {raw[key]!r} as a number")
        ok = math.isfinite(value) and (low is None or (value > low if strict else value >= low))
        if not ok:
            _fail(key, f"{value} is out of range")
        return value

    def one_int(key: str, default: int | None = None, low: int | None = None) -> int:
        if key not in raw and default is not None:
            return default
        try:
            value = int(need(key))
        except ValueError:
            _fail(key, f"could not parse {raw[key]!r} as an integer")
        if low is not None and value < low:
            _fail(key, f"must be at least {low}")
        return value

    kind = need("experiment.kind")
    if kind not in EXPERIMENT_KINDS:
        _fail("experiment.kind", f"{kind!r} is not a known kind")

    try:
        geometry = ArrayGeometry.parse(need("geometry.positions"))
    except GeometryError as exc:
        _fail("geometry.positions", str(exc))

    u = floats("scene.u")
    if not u or any(b - a <= 0 for a, b in zip(u, u[1:])):
        _fail("scene.u", "directions must be nonempty and strictly increasing")
    snr = floats("scene.snr_db")
    if len(snr) == 1:
        snr = snr * len(u)
    if len(snr) != len(u):
        _fail("scene.snr_db", "need one SNR per source (or a single shared value)")

    trials = one_int("experiment.trials", low=1)
    snapshots = one_int("scene.snapshots", low=1)

    estimators = tuple(tok.strip() for tok in need("estimators").split(",") if tok.strip())
    bad = [e for e in estimators if e not in ESTIMATORS]
    if bad or not estimators:
        _fail("estimators", f"unknown estimators {bad}" if bad else "must be nonempty")

    axis = raw.get("sweep.axis", "none")
    if axis not in SWEEP_AXES:
        _fail("sweep.axis", f"{axis!r} is not a known axis")
    values = floats("sweep.values") if "sweep.values" in raw else tuple()
    if axis == "none":
        if "sweep.values" in raw:
            _fail("sweep.values", "given, but sweep.axis is none (or unset), which runs no sweep")
        values = (math.nan,)
    elif not values:
        _fail("sweep.values", "must be nonempty for a sweeping axis")
    elif axis == "snapshots" and any(x < 1 or x != int(x) for x in values):
        _fail("sweep.values", "snapshot counts must be integers >= 1")

    k = one_int("estimate.k", len(u), low=1)
    for name in (e for e in estimators if e != "refine"):
        try:
            order = covariance_order(name, geometry)
        except GeometryError as exc:
            _fail("estimators", f"{name} cannot run on this geometry: {exc}")
        if k >= order:
            _fail("estimators", f"{name} needs estimate.k < {order}, its covariance order; got {k}")
    if kind == "single_snapshot" and ("refine" in estimators or axis != "none"):
        _fail("experiment.kind", "single_snapshot needs sweep.axis none and no refine estimator")

    cfg = ExperimentConfig(
        kind=kind,
        geometry=geometry,
        scene_u=u,
        scene_snr_db=snr,
        rho_abs=one_float("scene.rho_abs", 0.0),
        rho_phase=one_float("scene.rho_phase", 0.0),
        snapshots=snapshots,
        estimators=estimators,
        k=k,
        sweep_axis=axis,
        sweep_values=values,
        trials=trials,
        seed=one_int("experiment.seed"),
        solver_iter=one_int("solver.iter", 20, low=1),
        solver_lambda=one_float("solver.lambda", 1.0, low=0.0, strict=True),
        solver_lambda_m_factor=one_float("solver.lambda_m_factor", 1000.0, low=0.0, strict=True),
        refine_grid_size=one_int("refine.grid_size", 150, low=1),
        refine_g_factor=one_int("refine.g_factor", 3, low=2),
        refine_gamma_thresh=one_float("refine.gamma_thresh", 1e-3, low=0.0),
        refine_rounds=one_int("refine.rounds", 5, low=0),
        refine_sbl_iters=one_int("refine.sbl_iters", 5000, low=1),
        spectrum_grid=one_int("spectrum.grid", 600, low=1),
        out_prefix=raw.get("output.prefix", "experiment"),
    )
    # SourceScene knows the valid scenes: check the configured one, then each sweep value's.
    scenes = [("scene.*", replace(cfg, sweep_axis="none"), 0)]
    for key, c, a in scenes + [("sweep.values", cfg, a) for a in range(len(values))]:
        try:
            axis_scene(c, a)
        except ModelError as exc:
            _fail(key, str(exc))
    return cfg


# -- scene / estimator plumbing -----------------------------------------------


def axis_scene(cfg: ExperimentConfig, axis_index: int) -> tuple[SourceScene, int]:
    """Source scene and snapshot count at sweep value ``axis_index``."""
    value = cfg.sweep_values[axis_index]
    snr, rho_abs, n_snap = cfg.scene_snr_db, cfg.rho_abs, cfg.snapshots
    if cfg.sweep_axis == "snr_db":
        snr = tuple(value for _ in cfg.scene_u)
    elif cfg.sweep_axis == "rho_abs":
        rho_abs = value
    elif cfg.sweep_axis == "snapshots":
        n_snap = int(value)
    if rho_abs < 0:
        raise ModelError(f"rho_abs {rho_abs} is negative")
    return SourceScene.from_snr(cfg.scene_u, snr, rho=rho_abs * np.exp(1j * cfg.rho_phase)), n_snap


def axis_crb(cfg: ExperimentConfig, axis_index: int) -> float:
    """CRB in RMSE units at sweep value ``axis_index``; nan where no bound applies."""
    scene, n_snap = axis_scene(cfg, axis_index)
    try:
        return crb_rmse(scene, cfg.geometry, n_snap) if cfg.k == scene.k else math.nan
    except (MetricsError, NumericsError):
        return math.nan


def spectrum_grid(cfg: ExperimentConfig) -> np.ndarray:
    """The ``spectrum.grid`` points in u, uniform on [-1, 1)."""
    return np.linspace(-1.0, 1.0, cfg.spectrum_grid, endpoint=False)


def _mle_config(cfg: ExperimentConfig, diagnostics: dict) -> MleConfig:
    """Solver settings of ``cfg``; each ML cost goes to ``diagnostics["cost_trace"]``
    and the run's Newton work to ``diagnostics["newton"]``."""
    trace = diagnostics["cost_trace"] = []
    mle = MleConfig(
        lam=cfg.solver_lambda,
        lam_m=cfg.solver_lambda * cfg.solver_lambda_m_factor,
        outer_iters=cfg.solver_iter,
        callback=lambda _k, _v, cost: trace.append(cost),
    )
    diagnostics["newton"] = mle.newton
    return mle


def covariance_order(name: str, g: ArrayGeometry) -> int:
    """Order of the covariance estimator ``name`` (any but ``refine``) hands to
    root-MUSIC: m for ``scm-music``/``fb-music``, which read the SCM as a ULA's,
    Mc for ``method1``/``method2`` and the aperture for ``structcovmle``/``em``.
    ``GeometryError`` where ``g`` cannot serve ``name``: the first two need
    positions 0..m-1, the rest integer positions (a difference coarray)."""
    if name in ("scm-music", "fb-music"):
        if not g.on_grid or g.grid_positions() != tuple(range(g.m)):
            raise GeometryError(f"positions are not those of a ULA, 0..{g.m - 1}")
        return g.m
    lags = coarray(g)
    return lags.contiguous if name in ("method1", "method2") else lags.aperture


def covariance_estimate(
    name: str, y: SnapshotMatrix, cfg: ExperimentConfig, diagnostics: dict
) -> np.ndarray:
    """Covariance that estimator ``name`` (any but ``refine``) hands to root-MUSIC:
    the SCM ``r``, ``fb_average(r)``, or ``Toep`` of a lag vector from MM
    (``structcovmle``), from EM (``em``), the MM vector's first Mc lags
    (``method1``) or the MM fit of ``spatial_smooth(r)`` on the Mc-sensor ULA
    (``method2``).  The last two need k < Mc, checked before any solve."""
    g, r = cfg.geometry, scm(y)
    if name == "scm-music":
        return r
    if name == "fb-music":
        return fb_average(r)
    if name == "em":
        plan = CompletionPlan.from_geometry(g)
        return toeplitz_embed(em_gridless(y, g, plan, _mle_config(cfg, diagnostics)))
    if name in ("method1", "method2"):
        mc = covariance_order(name, g)
        if cfg.k >= mc:
            raise ContiguousLagError(f"need k < contiguous lag run, got k={cfg.k}, run={mc}")
        if name == "method2":
            r, g = spatial_smooth(r, g), ArrayGeometry.ula(mc)
    elif name != "structcovmle":
        raise ConfigError(f"config key 'estimators': unknown estimator {name!r}")
    v = structcov_mle(r, g, _mle_config(cfg, diagnostics))
    return toeplitz_embed(v[:mc] if name == "method1" else v)


def run_estimator(
    name: str, y: SnapshotMatrix, cfg: ExperimentConfig, diagnostics: dict
) -> DoaEstimate:
    """Dispatch one estimator; records solver cost traces in diagnostics.

    ``refine`` is grid SBL.  Any other estimator's covariance is computed
    once, kept in ``diagnostics["covariance"]`` and read by root-MUSIC.
    """
    if name == "refine":
        rounds: list[dict] = []
        est = multires_refine(
            y,
            cfg.geometry,
            cfg.k,
            lam=cfg.solver_lambda,
            grid_size=cfg.refine_grid_size,
            g_factor=cfg.refine_g_factor,
            gamma_thresh=cfg.refine_gamma_thresh,
            rounds=cfg.refine_rounds,
            sbl_iters=cfg.refine_sbl_iters,
            on_round=rounds.append,
        )
        diagnostics["rounds"] = rounds
        return est
    cov = diagnostics["covariance"] = covariance_estimate(name, y, cfg, diagnostics)
    return root_music(cov, cfg.k)


# Per-record solver counters that ``run_experiment`` totals into the meta JSON.
SOLVER_COUNTERS = ("solver_runs", "descent_violations") + tuple(
    f"newton_{f.name}" for f in fields(NewtonWork)
)


def _record_solver(record: dict, diagnostics: dict) -> None:
    """Count one solver run, its ML-cost increases (descent violations) and
    its Newton work, every ``NewtonWork`` field as ``newton_<field>``."""
    trace = diagnostics.get("cost_trace")
    if trace:
        record["solver_runs"] = 1
        record["descent_violations"] = sum(1 for a, b in zip(trace, trace[1:]) if b > a + 1e-9)
    newton = diagnostics.get("newton")
    if newton is not None:
        record.update({f"newton_{k}": n for k, n in asdict(newton).items()})


# Errors of the data (an ill-conditioned draw, a solver that cannot proceed):
# they mark one estimator's trial failed.  Any other exception is a bug and
# propagates out of the run; that includes a ``GeometryError``, since
# ``parse_config`` refuses every estimator the geometry cannot serve.
DATA_ERRORS = (
    NumericsError, SolverError, SblError, RefineError, EstimateError, ModelError, MetricsError,
    np.linalg.LinAlgError,
)


def run_one_trial(cfg: ExperimentConfig, axis_index: int, trial: int) -> dict:
    """One (axis value, trial) cell: simulate once, run every estimator.

    Each estimate is scored here, once; a ``single_snapshot`` trial that
    scored also keeps its covariance's MUSIC spectrum.
    """
    scene, n_snap = axis_scene(cfg, axis_index)
    y = simulate(scene, cfg.geometry, n_snap, seed=cfg.seed, trial=axis_index * 1_000_000 + trial)
    out: dict = {"axis_index": axis_index, "trial": trial, "results": {}}
    for name in cfg.estimators:
        diagnostics: dict = {}
        start = time.perf_counter()
        try:
            est = run_estimator(name, y, cfg, diagnostics)
            record = {
                "u_hat": est.u.tolist(),
                "errors": assign_errors(est, scene).tolist(),
                "failed": False,
            }
            if cfg.kind == "single_snapshot":
                spectrum = music_spectrum(diagnostics["covariance"], cfg.k, spectrum_grid(cfg))
                record["spectrum"] = spectrum.tolist()
        except DATA_ERRORS as exc:
            record = {"u_hat": [], "errors": [], "failed": True, "message": str(exc)}
        record["runtime_s"] = time.perf_counter() - start
        _record_solver(record, diagnostics)
        if "rounds" in diagnostics:
            record["rounds"] = diagnostics["rounds"]
        out["results"][name] = record
    return out


# -- output writers ------------------------------------------------------------


def _fmt(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_svg_lines(path, series: dict[str, tuple[list[float], list[float]]], log_y: bool) -> None:
    """Minimal polyline plot; one series per estimator, optional log10 y.

    Points with a non-finite x or y are left out; nothing is written when no
    point is left (an ``axis = none`` sweep has the single x value NaN).
    """
    width, height, pad = 640, 420, 50
    finite = {
        name: [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
        for name, (xs, ys) in series.items()
    }
    pts_all = [pt for pts in finite.values() for pt in pts]
    if not pts_all:
        return
    ys = [math.log10(max(y, 1e-12)) if log_y else y for _, y in pts_all]
    xs = [x for x, _ in pts_all]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        yy = math.log10(max(y, 1e-12)) if log_y else y
        return height - pad - (yy - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
    ]
    for i, (name, pts_i) in enumerate(sorted(finite.items())):
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts_i)
        color = colors[i % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(
            f'<text x="{width-pad+4}" y="{pad+14*i+10}" font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


# -- the runner ------------------------------------------------------------


def _run_cells(cfg: ExperimentConfig, jobs: int) -> list[dict]:
    cells = [(a, t) for a in range(len(cfg.sweep_values)) for t in range(cfg.trials)]
    workers = min(jobs, len(cells))  # the pool starts every worker it is allowed
    if workers <= 1:
        return [run_one_trial(cfg, a, t) for a, t in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_one_trial, cfg, a, t) for a, t in cells]
        return [f.result() for f in futures]


def run_experiment(cfg: ExperimentConfig, out_dir, jobs: int = 1, svg: bool = False) -> dict:
    """Run the experiment, write artifacts, and return the meta record.

    Every kind writes ``<prefix>_summary.csv`` (axis, estimator, rmse,
    per-source bias, crb, trials, success rate), ``<prefix>_trials.csv``
    (per-trial directions and errors) and ``<prefix>_meta.json`` (timing,
    solver diagnostics and failure messages; kept out of the CSVs so re-runs
    are byte-identical).  The summary scores the errors stored in the trial
    records.  ``single_snapshot`` adds one ``<prefix>_<estimator>_spectrum.csv``
    each, with a ``nan`` column for a failed trial; a run of ``refine`` adds
    ``<prefix>_rounds.csv``.  ``svg`` adds an RMSE plot.
    """
    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, cfg.out_prefix)
    started = time.time()
    results = _run_cells(cfg, jobs)

    summary_rows: list[list] = []
    trial_rows: list[list] = []
    meta_cells: dict[str, dict] = {}
    series: dict[str, tuple[list[float], list[float]]] = {}
    for a, axis_value in enumerate(cfg.sweep_values):
        scene, _ = axis_scene(cfg, a)
        crb = axis_crb(cfg, a)
        cell_results = [r for r in results if r["axis_index"] == a]
        for name in cfg.estimators:
            recs = [r["results"][name] for r in cell_results]
            good = [rec["errors"] for rec in recs if not rec["failed"]]
            if good:
                errors = np.array(good)
                rmse, hit = rmse_u(errors), success_rate(errors, scene)
                biases = empirical_bias(errors)
            else:
                rmse, biases, hit = math.nan, [math.nan] * scene.k, math.nan
            summary_rows.append([axis_value, name, rmse] + biases + [crb, len(good), hit])
            messages = [rec["message"] for rec in recs if rec["failed"]]
            meta_cells[f"{axis_value}/{name}"] = {
                "wallclock_ms": 1e3 * float(np.sum([rec["runtime_s"] for rec in recs])),
                "failures": len(messages),
                "failure_messages": dict(Counter(messages)),
            }
            xs, ys = series.setdefault(name, ([], []))
            xs.append(axis_value)
            ys.append(rmse)
            for rec, cell in zip(recs, cell_results):
                status = "failed" if rec["failed"] else "ok"
                u_hat = ";".join(_fmt(x) for x in rec["u_hat"])
                errors = ";".join(_fmt(x) for x in rec["errors"])
                trial_rows.append([axis_value, name, cell["trial"], status, u_hat, errors])

    bias_cols = [f"bias_{kk}" for kk in range(len(cfg.scene_u))]
    write_csv(
        f"{prefix}_summary.csv",
        ["axis", "estimator", "rmse"] + bias_cols + ["crb", "trials", "success_rate"],
        summary_rows,
    )
    write_csv(
        f"{prefix}_trials.csv",
        ["axis", "estimator", "trial", "status", "u_hat", "errors"],
        trial_rows,
    )
    records = [rec for r in results for rec in r["results"].values()]
    if cfg.kind == "single_snapshot":
        _write_spectra(cfg, results, prefix)
    if "refine" in cfg.estimators:
        _write_round_table(cfg, results, prefix)
    meta = {
        "kind": cfg.kind,
        "seed": cfg.seed,
        "started_unix": started,
        "elapsed_s": time.time() - started,
        **{key: sum(rec.get(key, 0) for rec in records) for key in SOLVER_COUNTERS},
        "sbl_cap_hits": sum(rnd["sbl_cap_hit"] for rec in records for rnd in rec.get("rounds", [])),
        "sbl_iters": sum(rnd["sbl_iters"] for rec in records for rnd in rec.get("rounds", [])),
        "cells": meta_cells,
    }
    with open(f"{prefix}_meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    if svg:
        write_svg_lines(f"{prefix}.svg", series, log_y=True)
    return meta


def _write_spectra(cfg: ExperimentConfig, results: list[dict], prefix: str) -> None:
    """One CSV per estimator: the u grid, then one spectrum column per trial."""
    grid = spectrum_grid(cfg)
    for name in cfg.estimators:
        cols = [cell["results"][name].get("spectrum", [math.nan] * grid.size) for cell in results]
        write_csv(
            f"{prefix}_{name.replace('-', '_')}_spectrum.csv",
            ["u"] + [f"trial_{cell['trial']}" for cell in results],
            [[u] + [col[i] for col in cols] for i, u in enumerate(grid)],
        )


def _write_round_table(cfg: ExperimentConfig, results: list[dict], prefix: str) -> None:
    """Per-round average RMSE, grid size and SBL cost of the ``refine`` runs."""
    rows = []
    truth = np.asarray(cfg.scene_u)
    for rnd in range(cfg.refine_rounds + 1):
        errs, sizes, costs = [], [], []
        for cell in results:
            rec = cell["results"]["refine"]
            if rec["failed"] or len(rec.get("rounds", [])) <= rnd:
                continue
            info = rec["rounds"][rnd]
            u_hat = np.sort(np.asarray(info["u_hat"]))
            if u_hat.size == truth.size:
                errs.append(np.mean((u_hat - truth) ** 2))
            sizes.append(info["grid_size"])
            costs.append(info["sbl_cost"])
        rows.append(
            [
                rnd,
                math.sqrt(np.mean(errs)) if errs else math.nan,
                float(np.mean(sizes)) if sizes else math.nan,
                float(np.mean(costs)) if costs else math.nan,
            ]
        )
    write_csv(f"{prefix}_rounds.csv", ["round", "rmse", "mean_grid_size", "mean_sbl_cost"], rows)


def describe_geometry(g: ArrayGeometry) -> str:
    """Human-readable coarray report for a geometry."""
    lines = [f"positions: {', '.join(_fmt(p) for p in g.positions)}", f"sensors: {g.m}"]
    if g.on_grid:
        lag = coarray(g)
        lines += [
            f"aperture: {lag.aperture}",
            f"nonnegative lags: {', '.join(map(str, lag.nonneg))}",
            f"holes: {', '.join(map(str, lag.holes)) if lag.holes else '(none)'}",
            f"contiguous run from 0: {lag.contiguous}",
        ]
        missing = nested_completion(g)
        lines.append(
            "hole-free completion adds: " + (", ".join(map(str, missing)) if missing else "(nothing)")
        )
    else:
        lines.append("off-grid geometry: no integer coarray (use the refine estimator)")
    return "\n".join(lines)
