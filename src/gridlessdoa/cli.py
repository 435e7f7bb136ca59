"""Command-line front end for the experiment harness.

Subcommands: ``sweep`` runs a Monte-Carlo experiment from a config file,
``simulate`` dumps raw snapshots, ``estimate`` runs the estimators on one
realization, ``crb`` writes the bound's reference curve, and
``describe-geometry`` reports the coarray of a geometry.  Exit codes: 0 on
success, 2 for configuration errors, 3 for runtime failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import experiments as xp
from .geometry import ArrayGeometry, GeometryError
from .sigmodel import simulate
from .estimate import music_spectrum


def _load_config(path: str) -> xp.ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise xp.ConfigError(f"--config {path}: {exc}") from None
    return xp.parse_config(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the base seed")


def _apply_overrides(cfg: xp.ExperimentConfig, args) -> xp.ExperimentConfig:
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def cmd_sweep(args) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    meta = xp.run_experiment(cfg, args.out, jobs=args.jobs, svg=args.svg)
    print(
        f"wrote {cfg.out_prefix}_summary.csv ({meta.get('solver_runs', 0)} solver runs, "
        f"{meta['elapsed_s']:.1f}s)"
    )
    return 0


def cmd_simulate(args) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    scene, n_snap = xp.axis_scene(cfg, 0)
    y = simulate(scene, cfg.geometry, n_snap, cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{cfg.out_prefix}_snapshots.csv")
    header = ["snapshot"] + [f"re_{m},im_{m}" for m in range(cfg.geometry.m)]
    rows = []
    for col in range(y.data.shape[1]):
        row: list = [col]
        for m in range(cfg.geometry.m):
            row += [y.data[m, col].real, y.data[m, col].imag]
        rows.append(row)
    xp.write_csv(path, ",".join(header).split(","), rows)
    print(f"wrote {path}")
    return 0


def cmd_estimate(args) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    if args.spectrum:  # the spectrum reads the structcovmle covariance
        try:
            xp.covariance_order("structcovmle", cfg.geometry)
        except GeometryError as exc:
            raise xp.ConfigError(f"--spectrum needs the structcovmle covariance: {exc}") from None
    scene, n_snap = xp.axis_scene(cfg, 0)
    y = simulate(scene, cfg.geometry, n_snap, cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    diags: dict[str, dict] = {}
    for name in cfg.estimators:
        diag = diags[name] = {}
        est = xp.run_estimator(name, y, cfg, diag)
        rows.append([name, ";".join(f"{u:.12g}" for u in est.u)])
        print(f"{name}: " + " ".join(f"{u:+.6f}" for u in est.u))
        if args.trace and "cost_trace" in diag:
            tpath = os.path.join(args.out, f"{cfg.out_prefix}_{name}_cost_trace.csv")
            xp.write_csv(
                tpath, ["iteration", "ml_cost"], [[i, c] for i, c in enumerate(diag["cost_trace"])]
            )
            print(f"wrote {tpath}")
    path = os.path.join(args.out, f"{cfg.out_prefix}_estimates.csv")
    xp.write_csv(path, ["estimator", "u_hat"], rows)
    if args.spectrum:
        grid = xp.spectrum_grid(cfg)
        if "structcovmle" in diags:  # reuse the estimator run's covariance
            cov = diags["structcovmle"]["covariance"]
        else:
            cov = xp.covariance_estimate("structcovmle", y, cfg, {})
        spec = music_spectrum(cov, cfg.k, grid)
        spath = os.path.join(args.out, f"{cfg.out_prefix}_spectrum.csv")
        xp.write_csv(spath, ["u", "value"], [[u, s] for u, s in zip(grid, spec)])
        print(f"wrote {spath}")
        if args.svg:
            xp.write_svg_lines(
                os.path.join(args.out, f"{cfg.out_prefix}_spectrum.svg"),
                {"spectrum": (grid.tolist(), spec.tolist())},
                log_y=True,
            )
    return 0


def cmd_crb(args) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for a, value in enumerate(cfg.sweep_values):
        rows.append([value, xp.axis_crb(cfg, a)])
    path = os.path.join(args.out, f"{cfg.out_prefix}_crb.csv")
    xp.write_csv(path, ["axis", "crb_rmse"], rows)
    print(f"wrote {path}")
    return 0


def cmd_describe_geometry(args) -> int:
    if args.positions:
        g = ArrayGeometry.parse(args.positions)
    else:
        g = _load_config(args.config).geometry
    print(xp.describe_geometry(g))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridlessdoa",
        description="Gridless DoA estimation experiments via structured covariance fitting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a Monte-Carlo experiment")
    _add_common(p)
    p.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    p.add_argument("--svg", action="store_true", help="also write an SVG plot of RMSE")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="dump one realization's snapshots")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="one-shot estimation on one realization")
    _add_common(p)
    p.add_argument("--spectrum", action="store_true", help="also write the MUSIC spectrum")
    p.add_argument("--trace", action="store_true", help="write per-iteration solver cost CSVs")
    p.add_argument("--svg", action="store_true", help="with --spectrum, also write an SVG plot")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("crb", help="write the CRB reference curve")
    _add_common(p)
    p.set_defaults(func=cmd_crb)

    p = sub.add_parser("describe-geometry", help="print the coarray report")
    p.add_argument("--config", default=None, help="config file to take the geometry from")
    p.add_argument("--positions", default=None, help="comma-separated positions, e.g. 0,1,2,3,7,11")
    p.set_defaults(func=cmd_describe_geometry)

    args = parser.parse_args(argv)
    if args.command == "describe-geometry" and not (args.config or args.positions):
        parser.error("describe-geometry needs --config or --positions")
    if args.command == "estimate" and args.svg and not args.spectrum:
        parser.error("estimate --svg needs --spectrum")
    if args.command == "sweep" and args.jobs < 1:
        parser.error("--jobs must be at least 1")
    try:
        return args.func(args)
    except (xp.ConfigError, GeometryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
