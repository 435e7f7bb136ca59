"""Command-line front end for the experiment harness.

Subcommands: ``sweep`` runs a Monte-Carlo experiment from a config file,
``simulate`` dumps the snapshots of the sweep's first trial
(``cell_draw(cfg, 0, 0)``), ``estimate`` runs that trial
(``run_one_trial(cfg, 0, 0)``), ``crb`` writes the bound's reference curve,
and ``describe-geometry`` reports the coarray of a geometry.  Exit codes: 0
on success, 2 for configuration errors, 3 for runtime failures (in
``estimate``, any estimator that failed).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments as xp
from .geometry import ArrayGeometry, GeometryError


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


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    meta = xp.run_experiment(cfg, args.out, jobs=args.jobs, svg=args.svg)
    print(
        f"wrote {cfg.out_prefix}_summary.csv ({meta['solver_runs']} MM/EM runs, "
        f"{meta['sbl_runs']} SBL runs, {meta['elapsed_s']:.1f}s)"
    )
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    _, y = xp.cell_draw(cfg, 0, 0)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{cfg.out_prefix}_snapshots.csv")
    header = ["snapshot"] + [f"{part}_{m}" for m in range(y.m) for part in ("re", "im")]
    # One row per snapshot: each sensor's (re, im) pair, the float view of y.T.
    rows = ([col, *pairs] for col, pairs in enumerate(y.data.T.copy().view(float)))
    xp.write_csv(path, header, rows)
    print(f"wrote {path}")
    return 0


def cmd_estimate(args) -> int:
    cfg = _load_config(args.config)
    if args.svg and cfg.spectrum_grid is None:
        raise xp.ConfigError("estimate --svg plots the MUSIC spectra, but spectrum.grid is unset")
    records = xp.run_one_trial(cfg, 0, 0)["results"]
    failed = [f"{name}: {rec['message']}" for name, rec in records.items() if rec["failed"]]
    if failed:
        raise RuntimeError("; ".join(failed))
    os.makedirs(args.out, exist_ok=True)
    prefix = os.path.join(args.out, cfg.out_prefix)
    for name, rec in records.items():
        print(f"{name}: " + " ".join(f"{u:+.6f}" for u in rec["u_hat"]))
        if args.trace and "cost_trace" in rec:
            tpath = f"{prefix}_{name}_cost_trace.csv"
            xp.write_csv(tpath, ["iteration", "ml_cost"], enumerate(rec["cost_trace"]))
            print(f"wrote {tpath}")
        if args.trace and "rounds" in rec:
            tpath = f"{prefix}_{name}_rounds.csv"
            cols = ["round", "grid_size", "sbl_iters", "sbl_cost", "atom_cost"]
            xp.write_csv(tpath, cols, ([rnd[c] for c in cols] for rnd in rec["rounds"]))
            print(f"wrote {tpath}")
    rows = [[name, ";".join(f"{u:.12g}" for u in rec["u_hat"])] for name, rec in records.items()]
    xp.write_csv(f"{prefix}_estimates.csv", ["estimator", "u_hat"], rows)
    if cfg.spectrum_grid is not None:
        grid = xp.spectrum_grid(cfg)
        specs = {name: rec["spectrum"] for name, rec in records.items()}
        xp.write_csv(f"{prefix}_spectrum.csv", ["u", *specs], zip(grid, *specs.values()))
        print(f"wrote {prefix}_spectrum.csv")
        if args.svg:
            series = {name: (grid.tolist(), spec) for name, spec in specs.items()}
            xp.write_svg_lines(f"{prefix}_spectrum.svg", series)
    return 0


def cmd_crb(args) -> int:
    cfg = _load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for a, value in enumerate(cfg.sweep_values):
        rows.append([value, xp.axis_crb(cfg, a)])
    path = os.path.join(args.out, f"{cfg.out_prefix}_crb.csv")
    xp.write_csv(path, ["axis", "crb_rmse"], rows)
    print(f"wrote {path}")
    return 0


def cmd_describe_geometry(args) -> int:
    if args.positions is not None:
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

    p = sub.add_parser("simulate", help="dump the sweep's trial-0 snapshots, estimate's draw")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="one-shot estimation on one realization")
    _add_common(p)
    p.add_argument(
        "--trace", action="store_true", help="write solver cost traces and refine's per-round table"
    )
    p.add_argument("--svg", action="store_true", help="also plot the spectra of spectrum.grid")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("crb", help="write the CRB reference curve")
    _add_common(p)
    p.set_defaults(func=cmd_crb)

    p = sub.add_parser("describe-geometry", help="print the coarray report")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="config file to take the geometry from")
    source.add_argument("--positions", help="comma-separated positions, e.g. 0,1,2,3,7,11")
    p.set_defaults(func=cmd_describe_geometry)

    args = parser.parse_args(argv)
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
