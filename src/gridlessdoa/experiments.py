"""Declarative Monte-Carlo experiment runner.

Experiments are described by flat ``key = value`` config files with dotted
sections (see ``CONFIG_KEYS``).  A run sweeps one axis (SNR, correlation
magnitude, snapshot count, or nothing), fans independent trials out over
workers, and writes deterministic CSV tables plus a metadata JSON with
timing.  Every experiment runs the same trial, ``run_one_trial``: simulate
once, run every estimator; all but ``refine`` are a covariance read by
root-MUSIC.  A config that sets ``spectrum.grid`` also keeps each
covariance's MUSIC spectrum.  Results are keyed by (axis, trial) so the
output is invariant to the degree of parallelism, and all randomness is
derived from the base seed and trial index.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from .estimate import DoaEstimate, EstimateError, music_spectrum, root_music
from .geometry import ArrayGeometry, GeometryError, coarray, nested_completion, split_items
from .geometry import toeplitz_embed
from .metrics import MetricsError, assign_errors, crb_rmse, empirical_bias, rmse_u, success_rate
from .mlesolve import CompletionPlan, MleConfig, NewtonWork, SolverError, em_gridless, structcov_mle
from .numerics import NumericsError
from .refine import RefineError, multires_refine
from .sbl import SblError
from .sigmodel import ModelError, SnapshotMatrix, SourceScene, fb_average, scm, simulate
from .sigmodel import ContiguousLagError, spatial_smooth

ESTIMATORS = ("scm-music", "fb-music", "structcovmle", "method1", "method2", "em", "refine")

SWEEP_AXES = ("none", "snr_db", "rho_abs", "snapshots")


class ConfigError(Exception):
    """Invalid experiment configuration; message names the key and constraint."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config.  A field's default is its key's default; a key whose
    field has none is required.  The source count ``k`` is not a key: it is
    the scene's, ``len(scene_u)``.  Nor are the noise variance and the
    refinement's grid, resolution factor, pruning threshold and round count:
    the runs take the defaults of ``MleConfig`` and ``multires_refine``."""

    geometry: ArrayGeometry
    scene_u: tuple[float, ...]
    scene_snr_db: tuple[float, ...]
    snapshots: int
    estimators: tuple[str, ...]
    sweep_axis: str
    sweep_values: tuple[float, ...]
    trials: int
    seed: int
    rho_abs: float = 0.0
    rho_phase: float = 0.0
    solver_iter: int = 20
    refine_sbl_iters: int = 5000
    spectrum_grid: int | None = None
    out_prefix: str = "experiment"

    @property
    def k(self) -> int:
        """Number of sources every estimator estimates: the scene's."""
        return len(self.scene_u)


# Each scalar key: its ``ExperimentConfig`` field, type, inclusive lower bound
# (None: no bound) and meaning.  The bounds are the ranges the solvers enforce,
# checked here so a bad value is a config error and not a sweep of failed trials.
_SCALARS = {
    "experiment.trials": ("trials", int, 1, "trials per sweep value"),
    "experiment.seed": ("seed", int, None, "base seed of every trial's draw"),
    "scene.rho_abs": ("rho_abs", float, None, "correlation magnitude in [0, 1]"),
    "scene.rho_phase": ("rho_phase", float, None, "correlation phase in radians"),
    "scene.snapshots": ("snapshots", int, 1, "snapshots per trial"),
    "solver.iter": ("solver_iter", int, 1, "outer MM iterations"),
    "refine.sbl_iters": ("refine_sbl_iters", int, 1, "SBL iteration cap per run"),
    "spectrum.grid": ("spectrum_grid", int, 1, "MUSIC spectrum grid size; when set, sweep"
                      " and estimate write spectra, which need sweep.axis none and no refine"),
    "output.prefix": ("out_prefix", str, None, "file name prefix for artifacts (no directory)"),
}
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _scalar_text(name: str, cast: type, low, meaning: str) -> str:
    """The ``CONFIG_KEYS`` text of one ``_SCALARS`` row."""
    bound = "" if low is None else f" >= {low}"
    default = _DEFAULTS[name]
    shown = "" if default is MISSING else f" (default {'unset' if default is None else default})"
    return f"{cast.__name__}{bound}{shown}: {meaning}"


CONFIG_KEYS = {
    "geometry.positions": "comma-separated sensor positions starting at 0",
    "scene.u": "comma-separated ascending source directions in [-1, 1)",
    "scene.snr_db": "per-source SNR in dB (scalar or one per source)",
    "estimators": f"comma-separated distinct names from {', '.join(ESTIMATORS)}; scm-music and"
    " fb-music need a ULA (positions 0..m-1), structcovmle, em, method1 and method2 integer"
    " positions",
    "sweep.axis": f"one of {', '.join(SWEEP_AXES)}",
    "sweep.values": "comma-separated distinct axis values (nonempty; absent when axis=none)",
    **{key: _scalar_text(*row) for key, row in _SCALARS.items()},
}


def _fail(key: str, why: str):
    hint = CONFIG_KEYS.get(key, "")
    raise ConfigError(f"config key '{key}': {why}" + (f" (expected: {hint})" if hint else ""))


def _scalar(key: str, text: str):
    """The value of scalar key ``key``, checked against its ``_SCALARS`` row."""
    _, cast, low, _ = _SCALARS[key]
    try:
        value = cast(text)
    except ValueError:
        _fail(key, f"could not parse {text!r} as {cast.__name__}")
    finite = cast is not float or math.isfinite(value)
    if not finite or low is not None and value < low:
        _fail(key, f"{text} is out of range")
    if cast is str and (not value or os.path.basename(value) != value):
        _fail(key, f"{text!r} is not a file name")
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate the flat key = value config format."""
    raw: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key in seen:
            raise ConfigError(f"config key '{key}': set on lines {seen[key]} and {lineno}")
        seen[key] = lineno
        raw[key] = value

    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def need(key: str) -> str:
        if key not in raw:
            _fail(key, "missing")
        return raw[key]

    def floats(key: str) -> tuple[float, ...]:
        try:
            values = tuple(float(tok) for tok in split_items(need(key)))
        except ValueError:
            _fail(key, f"could not parse {raw[key]!r} as numbers")
        if not all(map(math.isfinite, values)):
            _fail(key, f"{raw[key]!r} has a non-finite value")
        return values

    # Scalars left out take their ``ExperimentConfig`` default.
    scalars = {}
    for key, (name, *_) in _SCALARS.items():
        if key in raw or _DEFAULTS[name] is MISSING:
            scalars[name] = _scalar(key, need(key))

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

    estimators = split_items(need("estimators"))
    bad = [e for e in estimators if e not in ESTIMATORS]
    if bad or not estimators or len(set(estimators)) < len(estimators):
        _fail("estimators", f"unknown estimators {bad}" if bad else "must be nonempty and distinct")

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
    elif len(set(values)) < len(values):
        _fail("sweep.values", "repeats a value")
    elif axis == "snapshots" and any(x < 1 or x != int(x) for x in values):
        _fail("sweep.values", "snapshot counts must be integers >= 1")

    for name in (e for e in estimators if e != "refine"):
        try:
            order = covariance_order(name, geometry)
        except GeometryError as exc:
            _fail("estimators", f"{name} cannot run on this geometry: {exc}")
        if len(u) >= order:
            _fail("estimators", f"{name} needs fewer sources than its order {order}; got {len(u)}")
    cfg = ExperimentConfig(geometry=geometry, scene_u=u, scene_snr_db=snr, estimators=estimators,
                           sweep_axis=axis, sweep_values=values, **scalars)
    if cfg.spectrum_grid is not None and ("refine" in estimators or axis != "none"):
        _fail("spectrum.grid", "spectra need sweep.axis none and no refine estimator")
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
        return crb_rmse(scene, cfg.geometry, n_snap)
    except (MetricsError, NumericsError):
        return math.nan


def spectrum_grid(cfg: ExperimentConfig) -> np.ndarray:
    """The ``spectrum.grid`` points in u, uniform on [-1, 1)."""
    return np.linspace(-1.0, 1.0, cfg.spectrum_grid, endpoint=False)


def _mle_config(cfg: ExperimentConfig, diagnostics: dict) -> MleConfig:
    """Solver settings of ``cfg``; each ML cost goes to ``diagnostics["cost_trace"]``
    and the run's Newton work to ``diagnostics["newton"]``."""
    trace = diagnostics["cost_trace"] = []
    mle = MleConfig(outer_iters=cfg.solver_iter, callback=lambda _k, _v, cost: trace.append(cost))
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

    ``refine`` is grid SBL; its round records go to ``diagnostics["rounds"]``,
    bound before the run, so a trial that fails after an SBL run keeps that
    run's record.  Any other estimator's covariance is computed once, kept in
    ``diagnostics["covariance"]`` and read by root-MUSIC.
    """
    if name == "refine":
        rounds = diagnostics["rounds"] = []
        return multires_refine(
            y, cfg.geometry, cfg.k, sbl_iters=cfg.refine_sbl_iters, on_round=rounds.append
        )
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


def cell_draw(
    cfg: ExperimentConfig, axis_index: int, trial: int
) -> tuple[SourceScene, SnapshotMatrix]:
    """Scene and snapshots of the (axis value, trial) cell: its one draw,
    whichever command reads it."""
    scene, n_snap = axis_scene(cfg, axis_index)
    y = simulate(scene, cfg.geometry, n_snap, seed=cfg.seed, trial=axis_index * 1_000_000 + trial)
    return scene, y


def run_one_trial(cfg: ExperimentConfig, axis_index: int, trial: int) -> dict:
    """One (axis value, trial) cell: draw it once, run every estimator.

    Each estimate is scored here, once; with ``spectrum.grid`` set, an
    estimate that scored also keeps its covariance's MUSIC spectrum.  A
    record keeps its run's ML-cost trace and refinement rounds, if any."""
    scene, y = cell_draw(cfg, axis_index, trial)
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
            if cfg.spectrum_grid is not None:
                spectrum = music_spectrum(diagnostics["covariance"], cfg.k, spectrum_grid(cfg))
                record["spectrum"] = spectrum.tolist()
        except DATA_ERRORS as exc:
            record = {"u_hat": [], "errors": [], "failed": True, "message": str(exc)}
        record["runtime_s"] = time.perf_counter() - start
        _record_solver(record, diagnostics)
        kept = ("cost_trace", "rounds")
        record.update({key: diagnostics[key] for key in kept if key in diagnostics})
        out["results"][name] = record
    return out


# -- output writers ------------------------------------------------------------


def _fmt(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def write_csv(path, header: list[str], rows: Iterable[Iterable]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_svg_lines(path, series: dict[str, tuple[list[float], list[float]]]) -> None:
    """Minimal polyline plot; one series per estimator, log10 y.

    Points with a non-finite x or y are left out; nothing is written when no
    point is left (an ``axis = none`` sweep has the single x value NaN).
    """
    width, height, pad = 640, 420, 50
    finite = {
        name: [
            (x, math.log10(max(y, 1e-12)))
            for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)
        ]
        for name, (xs, ys) in series.items()
    }
    pts_all = [pt for pts in finite.values() for pt in pts]
    if not pts_all:
        return
    xs, ys = zip(*pts_all)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

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

    Every run writes ``<prefix>_summary.csv`` (axis, estimator, rmse,
    per-source bias, crb, trials, success rate), ``<prefix>_trials.csv``
    (per-trial directions and errors) and ``<prefix>_meta.json`` (timing,
    solver diagnostics and failure messages; kept out of the CSVs so re-runs
    are byte-identical).  The summary scores the errors stored in the trial
    records.  A ``refine`` cell of the meta adds ``mean_sbl_cost`` and
    ``mean_atom_cost``, the means over its trials that did not fail of the
    last round's SBL cost and k-atom cost, ``null`` when all failed.
    ``spectrum.grid`` adds one ``<prefix>_<estimator>_spectrum.csv`` each,
    with a ``nan`` column for a failed trial.  ``svg`` adds an RMSE plot.
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
            cell_meta = meta_cells[f"{axis_value}/{name}"] = {
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
            if cfg.spectrum_grid is not None:
                grid = spectrum_grid(cfg)
                cols = [rec.get("spectrum", [math.nan] * grid.size) for rec in recs]
                write_csv(
                    f"{prefix}_{name.replace('-', '_')}_spectrum.csv",
                    ["u"] + [f"trial_{cell['trial']}" for cell in cell_results],
                    zip(grid, *cols),
                )
            if name == "refine":
                # A run's last round holds its SBL cost and its estimate's k-atom cost.
                last = [rec["rounds"][-1] for rec in recs if not rec["failed"]]
                for key in ("sbl_cost", "atom_cost"):
                    mean = float(np.mean([rnd[key] for rnd in last])) if last else None
                    cell_meta[f"mean_{key}"] = mean

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
    sbl_runs = [rnd for rec in records for rnd in rec.get("rounds", [])]  # one per refine round
    meta = {
        "seed": cfg.seed,
        "started_unix": started,
        "elapsed_s": time.time() - started,
        **{key: sum(rec.get(key, 0) for rec in records) for key in SOLVER_COUNTERS},
        "sbl_runs": len(sbl_runs),
        "sbl_cap_hits": sum(rnd["sbl_stop"] == "cap" for rnd in sbl_runs),
        "sbl_rises": sum(rnd["sbl_stop"] == "rise" for rnd in sbl_runs),
        "sbl_iters": sum(rnd["sbl_iters"] for rnd in sbl_runs),
        # a round whose finish raised has no finish_capped
        "refine_finish_cap_hits": sum(rnd.get("finish_capped", False) for rnd in sbl_runs),
        "cells": meta_cells,
    }
    with open(f"{prefix}_meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, allow_nan=False)
    if svg:
        write_svg_lines(f"{prefix}.svg", series)
    return meta


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
