import dataclasses
import json
import math
import re
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from gridlessdoa import experiments, refine
from gridlessdoa.cli import main
from gridlessdoa.experiments import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    describe_geometry,
    parse_config,
    run_experiment,
    run_one_trial,
    write_svg_lines,
)
from gridlessdoa.geometry import ArrayGeometry, GeometryError
from gridlessdoa.metrics import MetricsError
from gridlessdoa.numerics import NumericsError
from gridlessdoa.refine import RefineError
from gridlessdoa.sigmodel import simulate

BASE_CONFIG = """
experiment.trials = 2
experiment.seed = 321
geometry.positions = 0,1,2,3
scene.u = -0.5,0.5
scene.snr_db = 20
scene.snapshots = 64
estimators = scm-music
sweep.axis = snr_db
sweep.values = 10,20
output.prefix = tiny
"""

# Keys a config once took, refused now as unknown.
REMOVED_KEYS = (
    "solver.lambda", "solver.lambda_m_factor", "solver.inner_iter", "refine.grid_size",
    "refine.g_factor", "refine.gamma_thresh", "refine.rounds", "estimate.k",
)


def with_lines(text: str, lines: str) -> str:
    """``text`` with each ``key = value`` line of ``lines`` in place of the
    line that sets its key, or appended where none does (a config may set a
    key only once)."""
    out = text.splitlines()
    for line in lines.splitlines():
        key = line.split("=")[0].strip()
        at = [i for i, old in enumerate(out) if old.split("=")[0].strip() == key]
        if at:
            out[at[0]] = line
        else:
            out.append(line)
    return "\n".join(out) + "\n"


# Spectra kept: no sweep axis, covariance estimators, spectrum.grid set.
SPECTRUM_CONFIG = (
    BASE_CONFIG.replace("estimators = scm-music", "estimators = scm-music,fb-music")
    .replace("sweep.axis = snr_db", "sweep.axis = none")
    .replace("sweep.values = 10,20\n", "")
    + "spectrum.grid = 32\n"
)

# Grid SBL at multires_refine's defaults (round 0 alone).
REFINE_CONFIG = (
    BASE_CONFIG.replace("estimators = scm-music", "estimators = refine")
    .replace("sweep.axis = snr_db", "sweep.axis = none")
    .replace("sweep.values = 10,20\n", "")
)

# Refinement swept over two snapshot counts, its SBL runs capped short.
SWEPT_REFINE_CONFIG = with_lines(
    REFINE_CONFIG,
    "scene.u = -0.3,0.3\nscene.snr_db = 10\nexperiment.seed = 3\n"
    "sweep.axis = snapshots\nsweep.values = 1,20\nrefine.sbl_iters = 50",
)

# Spectra of the solver-backed covariances on a sparse (nested) array.
SPARSE_SPECTRUM_CONFIG = (
    SPECTRUM_CONFIG.replace("0,1,2,3", "0,1,2,3,7,11")
    .replace("scm-music,fb-music", "structcovmle,method1,method2,em")
    + "solver.iter = 4\n"
)


class TestParseConfig:
    def test_valid(self):
        cfg = parse_config(BASE_CONFIG)
        assert cfg.sweep_values == (10.0, 20.0)
        assert cfg.geometry.grid_positions() == (0, 1, 2, 3)

    def test_missing_key_named(self):
        with pytest.raises(ConfigError, match="scene.u"):
            parse_config(BASE_CONFIG.replace("scene.u = -0.5,0.5", ""))

    def test_empty_sweep_values_named(self):
        bad = BASE_CONFIG.replace("sweep.values = 10,20", "sweep.values = ")
        with pytest.raises(ConfigError, match="sweep.values"):
            parse_config(bad)

    def test_unknown_estimator(self):
        bad = BASE_CONFIG.replace("estimators = scm-music", "estimators = magic")
        with pytest.raises(ConfigError, match="estimators"):
            parse_config(bad)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(BASE_CONFIG + "\nbogus.key = 3\n")

    def test_bad_trials(self):
        bad = BASE_CONFIG.replace("experiment.trials = 2", "experiment.trials = 0")
        with pytest.raises(ConfigError, match="experiment.trials"):
            parse_config(bad)

    @pytest.mark.parametrize(
        "line",
        [
            "solver.lambda = 0",
            "solver.lambda = nan",
            "solver.lambda = inf",
            "solver.lambda_m_factor = -1",
            "solver.iter = 0",
            "solver.inner_iter = 0",
            "scene.snr_db = nan",
            "scene.rho_phase = inf",
            "refine.grid_size = 0",
            "refine.g_factor = 1",
            "refine.rounds = -1",
            "refine.sbl_iters = 0",
            "refine.gamma_thresh = -0.001",
            "spectrum.grid = 0",
            "estimate.k = 2",
        ],
    )
    def test_out_of_range_solver_keys(self, tmp_path, capsys, line):
        # the solvers would reject these per trial; the config rejects them
        # once. The noise variances and the refinement's grid, resolution
        # factor, pruning threshold and rounds are the solvers' defaults and the
        # source count is the scene's, not keys, and solver.inner_iter was never
        # one: those are refused as unknown.
        key = line.split(" = ")[0]
        message = f"unknown config keys: ['{key}']" if key in REMOVED_KEYS else f"'{key}'"
        text = with_lines(BASE_CONFIG, line)
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("prefix", ["sub/x", ""], ids=["directory", "empty"])
    def test_prefix_must_be_a_file_name(self, tmp_path, capsys, prefix):
        # the prefix names files in --out; a directory in it (or no name at
        # all) is refused before any trial runs, not after the sweep
        text = with_lines(BASE_CONFIG, f"output.prefix = {prefix}")
        message = f"config key 'output.prefix': {prefix!r} is not a file name"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "extra, key, lines",
        [("solver.iter = 3", "solver.iter", (11, 13)), ("scene.u = -0.4,0.4", "scene.u", (5, 13))],
        ids=["solver.iter", "scene.u"],
    )
    def test_repeated_key_is_refused(self, tmp_path, capsys, extra, key, lines):
        # a key set twice is an error naming both lines, never a silent override
        text = (resources.files("gridlessdoa") / "configs" / "fig_snr.cfg").read_text()
        text += extra + "\n"
        message = f"config key '{key}': set on lines {lines[0]} and {lines[1]}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)
        path = tmp_path / "twice.cfg"
        path.write_text(text)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "text",
        [
            SPECTRUM_CONFIG.replace("scm-music,fb-music", "scm-music,refine"),
            SPECTRUM_CONFIG.replace("sweep.axis = none", "sweep.axis = snr_db\nsweep.values = 10"),
        ],
        ids=["non-covariance-estimator", "sweep-axis"],
    )
    def test_single_snapshot_rejections(self, tmp_path, capsys, text):
        # spectra are taken from covariances (every estimator but refine) at
        # one axis value only, so spectrum.grid refuses the rest in sweep and
        # estimate alike
        with pytest.raises(ConfigError, match=re.escape("'spectrum.grid'")):
            parse_config(text)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        for command in ("sweep", "estimate"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            assert "'spectrum.grid'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_required_keys_only_take_the_field_defaults(self):
        # ExperimentConfig holds the only defaults: a config of the required
        # keys parses to them, with k = len(scene.u) and no spectra
        required = [
            "experiment.trials = 2", "experiment.seed = 321", "geometry.positions = 0,1,2,3",
            "scene.u = -0.5,0.5", "scene.snr_db = 20", "scene.snapshots = 64",
            "estimators = scm-music",
        ]
        cfg = parse_config("\n".join(required))
        for f in dataclasses.fields(ExperimentConfig):
            if f.default is not dataclasses.MISSING:
                assert getattr(cfg, f.name) == f.default, f.name
        assert cfg.k == 2 and cfg.sweep_axis == "none" and cfg.spectrum_grid is None
        for line in required:
            with pytest.raises(ConfigError, match=re.escape(f"'{line.split(' = ')[0]}': missing")):
                parse_config("\n".join(r for r in required if r != line))

    @pytest.mark.parametrize(
        "key, field, bound",
        [
            ("experiment.trials", "trials", "int >= 1"),
            ("experiment.seed", "seed", "int"),
            ("scene.rho_abs", "rho_abs", "float"),
            ("scene.rho_phase", "rho_phase", "float"),
            ("scene.snapshots", "snapshots", "int >= 1"),
            ("solver.iter", "solver_iter", "int >= 1"),
            ("refine.sbl_iters", "refine_sbl_iters", "int >= 1"),
            ("spectrum.grid", "spectrum_grid", "int >= 1"),
            ("output.prefix", "out_prefix", "str"),
        ],
    )
    def test_scalar_key_text_states_default_and_bound(self, key, field, bound):
        # each scalar key's text is "<type> <bound> (default <field default>): <meaning>"
        default = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}[field]
        if default is dataclasses.MISSING:
            shown = ""
        else:
            shown = f" (default {'unset' if default is None else default})"
        assert CONFIG_KEYS[key].startswith(f"{bound}{shown}: ")

    @pytest.mark.parametrize(
        "lines, key",
        [
            ("sweep.axis = snapshots\nsweep.values = 0", "sweep.values"),
            ("sweep.axis = snapshots\nsweep.values = 2.5", "sweep.values"),
            ("sweep.axis = rho_abs\nsweep.values = 1.5", "sweep.values"),
            ("sweep.values = 10,nan", "sweep.values"),
            ("sweep.axis = none", "sweep.values"),
            ("scene.rho_abs = 0.9\nscene.rho_phase = inf", "scene.rho_phase"),
            ("scene.rho_abs = 1.5", "scene.*"),
            ("scene.u = -0.5,1.5", "scene.*"),
            ("scene.snr_db = 4000", "scene.*"),
            ("sweep.values = 10,4000", "sweep.values"),
            ("scene.rho_abs = -0.5", "scene.*"),
            ("sweep.axis = rho_abs\nsweep.values = 0.5,-0.5", "sweep.values"),
            ("geometry.positions = 0,1,2.1,3.5,4.7,10\nestimators = structcovmle,em,method1",
             "estimators"),
            ("geometry.positions = 0,1,2.1,3.5,4.7,10\nestimators = scm-music", "estimators"),
            ("geometry.positions = 0,1,2,3,7,11\nestimators = scm-music,fb-music", "estimators"),
            ("geometry.positions = 0,1,5,6,10,11\nestimators = method1", "estimators"),
            ("scene.u = -0.6,-0.2,0.2,0.6", "estimators"),
            ("sweep.values = 10,10,20", "sweep.values"),
            ("estimators = scm-music,scm-music", "estimators"),
            ("sweep.values = 10,,20", "sweep.values"),
            ("scene.u = -0.5,,0.5", "scene.u"),
            ("scene.snr_db = 20,", "scene.snr_db"),
            ("estimators = scm-music,", "estimators"),
            ("geometry.positions = 0,1,,2,3", "geometry.positions"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_scene_and_sweep_values(self, tmp_path, capsys, lines, key):
        # every scene a sweep runs is built at parse time, and every estimator
        # is checked against the geometry (scm-music/fb-music need a ULA, the
        # gridless fits integer positions, all need k below their covariance
        # order), and no sweep value or estimator may repeat, so a bad value
        # exits 2 naming its key instead of failing (or running twice) later;
        # an empty list item is an error too, never dropped
        text = with_lines(BASE_CONFIG, lines)
        with pytest.raises(ConfigError, match=re.escape(f"'{key}'")):
            parse_config(text)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err


class TestRunExperiment:
    def test_artifacts_and_determinism(self, tmp_path):
        cfg = parse_config(BASE_CONFIG)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        for name in ("tiny_summary.csv", "tiny_trials.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b
        meta = json.loads((tmp_path / "a" / "tiny_meta.json").read_text())
        assert set(meta["cells"]) == {"10.0/scm-music", "20.0/scm-music"}
        header = (tmp_path / "a" / "tiny_summary.csv").read_text().splitlines()[0]
        assert header.split(",")[:3] == ["axis", "estimator", "rmse"]
        assert "crb" in header

    @pytest.mark.parametrize(
        "text, spectra",
        [(BASE_CONFIG, 0), (SPECTRUM_CONFIG, 2), (SPARSE_SPECTRUM_CONFIG, 4)],
        ids=["snr_sweep", "single_snapshot", "single_snapshot_sparse"],
    )
    def test_parallel_invariance(self, tmp_path, text, spectra):
        cfg = parse_config(text)
        run_experiment(cfg, tmp_path / "s", jobs=1)
        run_experiment(cfg, tmp_path / "p", jobs=2)
        names = sorted(p.name for p in (tmp_path / "s").glob("*.csv"))
        assert names == sorted(p.name for p in (tmp_path / "p").glob("*.csv"))
        assert "tiny_summary.csv" in names and "tiny_trials.csv" in names
        assert sum(name.endswith("_spectrum.csv") for name in names) == spectra
        for name in names:
            assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()

    def test_worker_count_is_capped_at_the_cell_count(self, tmp_path, monkeypatch):
        # a pool starts every worker it may, so 64 jobs on 4 cells must ask for 4
        asked = []

        class InlinePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                result = fn(*args)
                return SimpleNamespace(result=lambda: result)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
        cfg = parse_config(BASE_CONFIG)
        run_experiment(cfg, tmp_path / "s", jobs=1)
        assert asked == []
        run_experiment(cfg, tmp_path / "p", jobs=64)
        assert asked == [4]
        for name in ("tiny_summary.csv", "tiny_trials.csv"):
            assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()

    def test_spectrum_csv_per_estimator(self, tmp_path):
        cfg = parse_config(SPECTRUM_CONFIG)
        run_experiment(cfg, tmp_path)
        grid = np.linspace(-1.0, 1.0, cfg.spectrum_grid, endpoint=False)
        for name in ("scm_music", "fb_music"):
            rows = (tmp_path / f"tiny_{name}_spectrum.csv").read_text().splitlines()
            assert rows[0] == "u,trial_0,trial_1"
            assert len(rows) == 1 + cfg.spectrum_grid
            table = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
            assert table[:, 0] == pytest.approx(grid)
            assert np.all(table[:, 1:] > 0) and np.all(table[:, 1:] <= 1.0)
        assert not (tmp_path / "tiny_rounds.csv").exists()

    def test_failed_estimator_spectrum_is_nan(self, tmp_path, monkeypatch):
        def fail(_r):
            raise NumericsError("ill-conditioned draw")

        monkeypatch.setattr(experiments, "fb_average", fail)
        run_experiment(parse_config(SPECTRUM_CONFIG), tmp_path)
        failed = (tmp_path / "tiny_fb_music_spectrum.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[1:] == ["nan", "nan"] for row in failed)
        ok = (tmp_path / "tiny_scm_music_spectrum.csv").read_text().splitlines()[1:]
        assert all("nan" not in row for row in ok)
        # every estimate fails scoring in every trial: the spectrum files are
        # still written, with only nan columns
        def unscored(_est, _scene):
            raise MetricsError("estimate count 1 != source count 2")

        monkeypatch.undo()
        monkeypatch.setattr(experiments, "assign_errors", unscored)
        out = tmp_path / "unscored"
        run_experiment(parse_config(SPECTRUM_CONFIG), out)
        for name in ("scm_music", "fb_music"):
            rows = (out / f"tiny_{name}_spectrum.csv").read_text().splitlines()[1:]
            assert len(rows) == 32 and all(row.split(",")[1:] == ["nan", "nan"] for row in rows)

    def test_bug_in_estimator_propagates(self, tmp_path, monkeypatch, capsys):
        # only data errors mark a trial failed; a TypeError is a bug
        def broken(_r, _k):
            raise TypeError("bug")

        monkeypatch.setattr(experiments, "root_music", broken)
        with pytest.raises(TypeError):
            run_experiment(parse_config(BASE_CONFIG), tmp_path)
        path = tmp_path / "exp.cfg"
        path.write_text(BASE_CONFIG)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 3
        assert "runtime failure" in capsys.readouterr().err

    def test_estimator_failure_recorded_not_raised(self, tmp_path):
        # 4 sources on 4 sensors, so scm-music must fail per trial (the config
        # refuses this scene; replace does not); the run is expected to
        # complete and record the failures
        cfg = dataclasses.replace(parse_config(BASE_CONFIG), scene_u=(-0.6, -0.2, 0.2, 0.6))
        run_experiment(cfg, tmp_path)
        rows = (tmp_path / "tiny_trials.csv").read_text().splitlines()[1:]
        assert rows and all("failed" in row for row in rows)
        summary = (tmp_path / "tiny_summary.csv").read_text().splitlines()[1:]
        assert all(",nan," in row for row in summary)
        # the reason reaches the meta, counted per cell
        cells = json.loads((tmp_path / "tiny_meta.json").read_text())["cells"]
        for cell in cells.values():
            assert cell["failure_messages"] == {"need k < order, got k=4, order=4": 2}

    def test_sbl_cap_hits_in_meta(self, tmp_path):
        cfg = parse_config(
            REFINE_CONFIG.replace("experiment.trials = 2", "experiment.trials = 1")
            + "refine.sbl_iters = 5\n"
        )
        run_experiment(cfg, tmp_path)
        meta = json.loads((tmp_path / "tiny_meta.json").read_text())
        assert meta["sbl_cap_hits"] == 1  # the one SBL run stopped at 5 iterations

    def test_refine_cells_hold_mean_costs(self, tmp_path):
        # each sweep value's refine cell holds the means, over that value's
        # trials alone, of the last round's SBL and k-atom costs; no CSV has them
        cfg = parse_config(SWEPT_REFINE_CONFIG)
        run_experiment(cfg, tmp_path)
        assert not (tmp_path / "tiny_rounds.csv").exists()
        cells = json.loads((tmp_path / "tiny_meta.json").read_text())["cells"]
        for a, value in enumerate(cfg.sweep_values):
            recs = [run_one_trial(cfg, a, t)["results"]["refine"] for t in range(cfg.trials)]
            assert not any(rec["failed"] for rec in recs)
            for key in ("sbl_cost", "atom_cost"):
                mean = np.mean([rec["rounds"][-1][key] for rec in recs])
                assert cells[f"{value}/refine"][f"mean_{key}"] == pytest.approx(mean, rel=1e-12)

    def test_failed_refine_cell_means_are_null(self, tmp_path, monkeypatch):
        # every refine trial fails: the cell's means are null, never NaN, so
        # the meta stays strict JSON
        def fail(*args, **kwargs):
            raise RefineError("no estimate")

        def refuse(constant):
            raise ValueError(f"meta holds {constant}")

        monkeypatch.setattr(experiments, "multires_refine", fail)
        run_experiment(parse_config(REFINE_CONFIG), tmp_path)
        meta = json.loads((tmp_path / "tiny_meta.json").read_text(), parse_constant=refuse)
        cell = meta["cells"]["nan/refine"]
        assert cell["failure_messages"] == {"no estimate": 2}
        assert (cell["mean_sbl_cost"], cell["mean_atom_cost"]) == (None, None)

    def test_sbl_iters_in_meta(self, tmp_path):
        # the meta totals SBL iterations over all trials; no CSV has them
        cfg = parse_config(REFINE_CONFIG)
        run_experiment(cfg, tmp_path)
        meta = json.loads((tmp_path / "tiny_meta.json").read_text())
        rounds = [rnd for t in range(2) for rnd in run_one_trial(cfg, 0, t)["results"]["refine"]["rounds"]]
        assert len(rounds) == 2 and meta["sbl_cap_hits"] == 0  # 2 trials, 1 round each
        assert meta["sbl_iters"] == sum(rnd["sbl_iters"] for rnd in rounds) > 4
        assert meta["sbl_runs"] == len(rounds)
        for path in tmp_path.glob("*.csv"):
            assert "sbl_iters" not in path.read_text()

    def test_failed_refine_trials_keep_their_sbl_runs(self, tmp_path, monkeypatch):
        # round 0's finish fails after its SBL run, so each of the two trials
        # fails with one SBL run, which the meta still counts
        def fail(*args, **kwargs):
            raise RefineError("no finish")

        monkeypatch.setattr(refine, "peak_adjust", fail)
        meta = run_experiment(parse_config(REFINE_CONFIG), tmp_path)
        assert meta["cells"]["nan/refine"]["failure_messages"] == {"no finish": 2}
        assert meta["sbl_runs"] == 2 and meta["sbl_iters"] > 0

    def test_newton_work_in_meta(self, tmp_path):
        # the meta totals each MM/EM run's Newton work; no CSV has it
        cfg = parse_config(SPARSE_SPECTRUM_CONFIG)
        run_experiment(cfg, tmp_path)
        meta = json.loads((tmp_path / "tiny_meta.json").read_text())
        records = [rec for t in range(2) for rec in run_one_trial(cfg, 0, t)["results"].values()]
        assert len(records) == 8
        for key in (
            "newton_steps", "newton_fallbacks", "newton_cap_hits", "newton_predictor_misses",
            "newton_line_search_failures", "newton_gap_stops",
        ):
            assert meta[key] == sum(rec[key] for rec in records)
            for path in tmp_path.glob("*.csv"):
                assert key not in path.read_text()
        assert meta["newton_steps"] > 0 and meta["newton_cap_hits"] == 0

    def test_svg_written(self, tmp_path):
        cfg = parse_config(BASE_CONFIG)
        run_experiment(cfg, tmp_path, svg=True)
        svg = (tmp_path / "tiny.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_svg_without_sweep_axis_draws_no_nan(self, tmp_path):
        # axis = none has the single x value NaN, so no point can be drawn
        text = BASE_CONFIG.replace("sweep.axis = snr_db", "sweep.axis = none")
        cfg = parse_config(text.replace("sweep.values = 10,20\n", ""))
        run_experiment(cfg, tmp_path, svg=True)
        assert (tmp_path / "tiny_summary.csv").exists()
        assert not (tmp_path / "tiny.svg").exists()

    def test_svg_finite_points_and_right_edge_at_zero(self, tmp_path):
        path = tmp_path / "p.svg"
        write_svg_lines(path, {"a": ([-10.0, math.nan, 0.0], [1.0, 5.0, 2.0])})
        pts = re.search(r'points="([^"]*)"', path.read_text()).group(1)
        # x = 0 is the right edge (640 - 50), and the NaN-x point is dropped;
        # log10 y spans [0, log10 2], so y = 1 and 2 are the bottom and top
        assert pts.split() == ["50.0,370.0", "590.0,50.0"]


class TestCliMain:
    def write_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(BASE_CONFIG)
        return str(path)

    def test_sweep_roundtrip(self, tmp_path, capsys):
        code = main(["sweep", "--config", self.write_config(tmp_path), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "tiny_summary.csv").exists()

    @pytest.mark.parametrize(
        "text, mm_em_runs, sbl_runs",
        [
            (REFINE_CONFIG, 0, 2),
            (with_lines(BASE_CONFIG, "estimators = structcovmle\nsolver.iter = 3"), 4, 0),
        ],
        ids=["refine_only", "mm_only"],
    )
    def test_sweep_line_names_mm_em_and_sbl_runs(self, tmp_path, capsys, text, mm_em_runs, sbl_runs):
        # the stdout line counts MM/EM runs and SBL runs apart, as the meta does
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert f"({mm_em_runs} MM/EM runs, {sbl_runs} SBL runs, " in capsys.readouterr().out
        meta = json.loads((tmp_path / "tiny_meta.json").read_text())
        assert (meta["solver_runs"], meta["sbl_runs"]) == (mm_em_runs, sbl_runs)

    def test_config_error_exit_code(self, tmp_path, capsys):
        # a config that still names an experiment kind is refused by its key
        bad = tmp_path / "bad.cfg"
        bad.write_text("experiment.kind = snr_sweep\n" + BASE_CONFIG)
        assert main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "unknown config keys: ['experiment.kind']" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["sweep", "describe-geometry"])
    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, command, kind):
        path = tmp_path / "configs"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe")
        args = [command, "--config", str(path)]
        if command == "sweep":
            args += ["--out", str(tmp_path)]
        assert main(args) == 2
        assert f"config error: --config {path}" in capsys.readouterr().err

    def test_describe_geometry(self, capsys):
        assert main(["describe-geometry", "--positions", "0,1,5,6,10,11"]) == 0
        out = capsys.readouterr().out
        assert "holes: 2, 3, 7, 8" in out
        assert "aperture: 12" in out

    def test_describe_geometry_takes_one_source(self, tmp_path, capsys):
        # --config and --positions are two sources of one geometry: giving
        # both, or neither, is a usage error, whatever the config holds
        cfg = self.write_config(tmp_path)
        assert main(["describe-geometry", "--config", cfg]) == 0
        assert "positions: 0, 1, 2, 3\n" in capsys.readouterr().out
        missing = str(tmp_path / "none.cfg")
        for args in ([], ["--config", cfg, "--positions", "0,1"],
                     ["--config", missing, "--positions", "0,1"]):
            with pytest.raises(SystemExit) as exc:
                main(["describe-geometry", *args])
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""

    def test_simulate_and_estimate(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        snap = (tmp_path / "tiny_snapshots.csv").read_text().splitlines()
        assert len(snap) == 1 + 64
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "tiny_estimates.csv").exists()

    def test_simulate_writes_the_sweeps_cell_0_0(self, tmp_path, capsys, monkeypatch):
        # simulate writes the snapshots that the sweep's trial 0 at its first
        # axis value (here 5 snapshots, not scene.snapshots) runs on
        text = with_lines(BASE_CONFIG, "sweep.axis = snapshots\nsweep.values = 5,9")
        drawn = []

        def keep(*args, **kwargs):
            drawn.append(simulate(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(experiments, "simulate", keep)
        run_one_trial(parse_config(text), 0, 0)
        y = drawn[0].data
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "tiny_snapshots.csv").read_text().splitlines()
        assert y.shape == (4, 5)
        assert rows[0] == "snapshot," + ",".join(f"re_{m},im_{m}" for m in range(4))
        assert rows[1:] == [
            ",".join([str(col)] + [f"{v:.12g}" for z in y[:, col] for v in (z.real, z.imag)])
            for col in range(5)
        ]

    def test_estimate_spectrum_and_trace(self, tmp_path, capsys):
        # one spectrum column per estimator, each the sweep's trial 0 spectrum
        path = tmp_path / "exp.cfg"
        path.write_text(SPECTRUM_CONFIG.replace("scm-music,fb-music", "scm-music,structcovmle"))
        code = main(["estimate", "--config", str(path), "--out", str(tmp_path), "--trace", "--svg"])
        assert code == 0
        spec_rows = (tmp_path / "tiny_spectrum.csv").read_text().splitlines()
        assert spec_rows[0] == "u,scm-music,structcovmle"
        assert len(spec_rows) == 1 + 32
        run_experiment(parse_config(path.read_text()), tmp_path / "sweep")
        for col, name in ((1, "scm_music"), (2, "structcovmle")):
            swept = (tmp_path / "sweep" / f"tiny_{name}_spectrum.csv").read_text().splitlines()
            assert [r.split(",")[col] for r in spec_rows[1:]] == [r.split(",")[1] for r in swept[1:]]
        trace_rows = (tmp_path / "tiny_structcovmle_cost_trace.csv").read_text().splitlines()
        assert trace_rows[0] == "iteration,ml_cost"
        costs = [float(r.split(",")[1]) for r in trace_rows[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))
        assert (tmp_path / "tiny_spectrum.svg").read_text().count("<polyline") == 2

    @pytest.mark.parametrize(
        "text", [SPARSE_SPECTRUM_CONFIG, REFINE_CONFIG], ids=["sparse_spectrum", "refine"]
    )
    def test_estimate_is_the_sweeps_trial_0(self, tmp_path, capsys, text):
        # estimate writes each estimator's directions of the sweep's trial 0
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        assert main(["estimate", "--config", str(path), "--out", str(tmp_path)]) == 0
        estimates = (tmp_path / "tiny_estimates.csv").read_text().splitlines()
        run_experiment(parse_config(text), tmp_path / "sweep")
        trials = (tmp_path / "sweep" / "tiny_trials.csv").read_text().splitlines()[1:]
        rows = [row.split(",") for row in trials]
        want = [f"{name},{u_hat}" for _, name, trial, _, u_hat, _ in rows if trial == "0"]
        assert estimates[1:] == want
        assert len(want) == len(parse_config(text).estimators)

    def test_estimate_exits_3_naming_a_failed_estimator(self, tmp_path, capsys, monkeypatch):
        # a failed estimator stops estimate before it writes anything
        def fail(_r):
            raise NumericsError("ill-conditioned draw")

        monkeypatch.setattr(experiments, "fb_average", fail)
        path = tmp_path / "exp.cfg"
        path.write_text(SPECTRUM_CONFIG)
        assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "fb-music: ill-conditioned draw" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_estimate_trace_writes_refine_rounds(self, tmp_path, capsys):
        # one row per round (round 0 alone), and the k-atom cost of the
        # reported estimate never rises from one round to the next
        path = tmp_path / "exp.cfg"
        path.write_text(REFINE_CONFIG)
        assert main(["estimate", "--config", str(path), "--out", str(tmp_path), "--trace"]) == 0
        rows = (tmp_path / "tiny_refine_rounds.csv").read_text().splitlines()
        assert rows[0] == "round,grid_size,sbl_iters,sbl_cost,atom_cost"
        assert [int(r.split(",")[0]) for r in rows[1:]] == [0]
        costs = [float(r.split(",")[4]) for r in rows[1:]]
        assert all(math.isfinite(c) for c in costs)
        assert all(b <= a for a, b in zip(costs, costs[1:])), costs

    @pytest.mark.parametrize("estimators", ["structcovmle", "scm-music"])
    def test_estimate_spectrum_solves_mle_once(self, tmp_path, capsys, monkeypatch, estimators):
        # the spectra read the covariances the estimators computed: one MLE
        # solve for structcovmle and none without it
        calls = []
        solve = experiments.structcov_mle

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(experiments, "structcov_mle", counted)
        path = tmp_path / "exp.cfg"
        path.write_text(SPECTRUM_CONFIG.replace("scm-music,fb-music", estimators))
        assert main(["estimate", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert len(calls) == (estimators == "structcovmle")
        header = (tmp_path / "tiny_spectrum.csv").read_text().splitlines()[0]
        assert header == f"u,{estimators}"

    def test_estimate_spectrum_refused_off_grid(self, tmp_path, capsys):
        # the off-grid config runs refine, which keeps no covariance, so
        # spectrum.grid is refused there before any estimator runs
        cfg = resources.files("gridlessdoa") / "configs" / "fig_refine_arbitrary.cfg"
        path = tmp_path / "spectrum.cfg"
        path.write_text(cfg.read_text() + "spectrum.grid = 32\n")
        assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "a")]) == 2
        assert "'spectrum.grid'" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "fig_refine_arbitrary_estimates.csv").exists()

    def test_no_spectrum_without_spectrum_grid(self, tmp_path, capsys):
        # spectrum.grid is the one switch: without it neither sweep nor
        # estimate writes a spectrum, and estimate --svg is a config error
        cfg = self.write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--svg"]) == 0
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e"), "--trace"]) == 0
        assert (tmp_path / "e" / "tiny_estimates.csv").exists()
        assert not list(tmp_path.glob("*/*spectrum*"))
        capsys.readouterr()
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "v"), "--svg"]) == 2
        assert "spectrum.grid" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("positions", ["0,inf", "0,nan", "0,1,x", "0,,1", "0,1,"])
    def test_bad_positions_are_config_errors(self, capsys, positions):
        assert main(["describe-geometry", "--positions", positions]) == 2
        assert "config error" in capsys.readouterr().err
        with pytest.raises(GeometryError):
            ArrayGeometry(tuple(positions.split(",")))

    @pytest.mark.parametrize(
        "command, flag",
        [("simulate", "--jobs=2"), ("simulate", "--svg"), ("crb", "--jobs=2"), ("crb", "--svg"),
         ("estimate", "--jobs=2"), ("sweep", "--seed=1")],
    )
    def test_flags_only_where_they_act(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", self.write_config(tmp_path), "--out", str(tmp_path), flag])
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", self.write_config(tmp_path), "--out", str(tmp_path),
                  f"--jobs={jobs}"])
        assert exc.value.code == 2
        assert not list(tmp_path.glob("*.csv"))

    def test_crb_curve(self, tmp_path):
        cfg = self.write_config(tmp_path)
        assert main(["crb", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "tiny_crb.csv").read_text().splitlines()
        assert rows[0] == "axis,crb_rmse"
        assert len(rows) == 3

    def test_crb_curve_nan_where_bound_does_not_apply(self, tmp_path):
        # 8 sources on 6 sensors: no stochastic bound, as in the sweep's crb column
        cfg = resources.files("gridlessdoa") / "configs" / "fig_more_sources.cfg"
        assert main(["crb", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "fig_more_sources_crb.csv").read_text().splitlines()
        assert rows == ["axis,crb_rmse", "nan,nan"]


class TestDescribeGeometry:
    def test_off_grid_notice(self):
        text = describe_geometry(ArrayGeometry((0, 1, 2.1, 3.5, 4.7, 10)))
        assert "off-grid" in text

    def test_nested_completion_line(self):
        text = describe_geometry(ArrayGeometry((0, 1, 5, 6, 10, 11)))
        assert "completion adds: 2, 8" in text


def test_bundled_configs_parse():
    import importlib.resources as ir

    root = ir.files("gridlessdoa") / "configs"
    names = sorted(p.name for p in root.iterdir() if p.name.endswith(".cfg"))
    assert len(names) >= 6
    for name in names:
        cfg = parse_config((root / name).read_text())
        assert cfg.trials >= 1


class TestRunOneTrial:
    def test_resolution_seed_1_estimates_are_finite(self):
        # The degree-58 root-MUSIC polynomial of this input once produced NaN
        # roots that passed as a successful estimate.
        path = resources.files("gridlessdoa") / "configs" / "fig_resolution.cfg"
        cfg = dataclasses.replace(parse_config(path.read_text()), seed=1, trials=1)
        rec = run_one_trial(cfg, 0, 0)["results"]["structcovmle"]
        assert not rec["failed"]
        assert len(rec["u_hat"]) == 4
        assert np.all(np.isfinite(rec["u_hat"]))
