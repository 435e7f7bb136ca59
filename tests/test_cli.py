import dataclasses
import json
import math
import re
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from gridlessdoa import experiments
from gridlessdoa.cli import main
from gridlessdoa.experiments import (
    ConfigError,
    describe_geometry,
    parse_config,
    run_experiment,
    run_one_trial,
    write_svg_lines,
)
from gridlessdoa.geometry import ArrayGeometry, GeometryError
from gridlessdoa.numerics import NumericsError

BASE_CONFIG = """
experiment.kind = snr_sweep
experiment.trials = 2
experiment.seed = 321
geometry.positions = 0,1,2,3
scene.u = -0.5,0.5
scene.snr_db = 20
scene.snapshots = 64
estimate.k = 2
estimators = scm-music
sweep.axis = snr_db
sweep.values = 10,20
output.prefix = tiny
"""

# The single-snapshot kind: no sweep axis, covariance estimators, spectra kept.
SPECTRUM_CONFIG = (
    BASE_CONFIG.replace("snr_sweep", "single_snapshot")
    .replace("estimators = scm-music", "estimators = scm-music,fb-music")
    .replace("sweep.axis = snr_db", "sweep.axis = none")
    .replace("sweep.values = 10,20\n", "")
    + "spectrum.grid = 32\n"
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
        assert cfg.kind == "snr_sweep"
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
        ],
    )
    def test_out_of_range_solver_keys(self, tmp_path, capsys, line):
        # the solvers would reject these per trial; the config rejects them once
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=re.escape(f"'{key}'")):
            parse_config(BASE_CONFIG + line + "\n")
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG + line + "\n")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err

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
        # one axis value only
        with pytest.raises(ConfigError, match=re.escape("'experiment.kind'")):
            parse_config(text)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "experiment.kind" in capsys.readouterr().err

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
            ("estimate.k = 4", "estimators"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_scene_and_sweep_values(self, tmp_path, capsys, lines, key):
        # every scene a sweep runs is built at parse time, and every estimator
        # is checked against the geometry (scm-music/fb-music need a ULA, the
        # gridless fits integer positions, all need k below their covariance
        # order), so a bad value exits 2 naming its key instead of failing (or
        # running) later
        with pytest.raises(ConfigError, match=re.escape(f"'{key}'")):
            parse_config(BASE_CONFIG + lines + "\n")
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG + lines + "\n")
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
        assert meta["kind"] == "snr_sweep"
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
        # one estimate for two sources fails scoring in every trial: the
        # spectrum files are still written, with only nan columns
        monkeypatch.undo()
        out = tmp_path / "unscored"
        run_experiment(dataclasses.replace(parse_config(SPECTRUM_CONFIG), k=1), out)
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
        # k = 4 equals the sensor count, so scm-music must fail per trial;
        # the run is expected to complete and record the failures
        cfg = dataclasses.replace(parse_config(BASE_CONFIG), k=4)
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
            BASE_CONFIG.replace("snr_sweep", "refine_arbitrary")
            .replace("estimators = scm-music", "estimators = refine")
            .replace("experiment.trials = 2", "experiment.trials = 1")
            .replace("sweep.axis = snr_db", "sweep.axis = none")
            .replace("sweep.values = 10,20\n", "")
            + "refine.grid_size = 40\nrefine.rounds = 1\nrefine.sbl_iters = 5\n"
        )
        run_experiment(cfg, tmp_path)
        meta = json.loads((tmp_path / "tiny_meta.json").read_text())
        assert meta["sbl_cap_hits"] == 2  # rounds 0 and 1, both stopped at 5 iterations

    def test_sbl_iters_in_meta(self, tmp_path):
        # the meta totals SBL iterations over all trials and rounds; no CSV has them
        cfg = parse_config(
            BASE_CONFIG.replace("snr_sweep", "refine_arbitrary")
            .replace("estimators = scm-music", "estimators = refine")
            .replace("sweep.axis = snr_db", "sweep.axis = none")
            .replace("sweep.values = 10,20\n", "")
            + "refine.grid_size = 40\nrefine.rounds = 1\n"
        )
        run_experiment(cfg, tmp_path)
        meta = json.loads((tmp_path / "tiny_meta.json").read_text())
        rounds = [rnd for t in range(2) for rnd in run_one_trial(cfg, 0, t)["results"]["refine"]["rounds"]]
        assert len(rounds) == 4 and meta["sbl_cap_hits"] == 0
        assert meta["sbl_iters"] == sum(rnd["sbl_iters"] for rnd in rounds) > 4
        for path in tmp_path.glob("*.csv"):
            assert "sbl_iters" not in path.read_text()

    def test_newton_work_in_meta(self, tmp_path):
        # the meta totals each MM/EM run's Newton work; no CSV has it
        cfg = parse_config(SPARSE_SPECTRUM_CONFIG)
        run_experiment(cfg, tmp_path)
        meta = json.loads((tmp_path / "tiny_meta.json").read_text())
        records = [rec for t in range(2) for rec in run_one_trial(cfg, 0, t)["results"].values()]
        assert len(records) == 8
        for key in (
            "newton_steps", "newton_fallbacks", "newton_cap_hits", "newton_predictor_misses",
            "newton_line_search_failures",
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
        write_svg_lines(path, {"a": ([-10.0, math.nan, 0.0], [1.0, 5.0, 2.0])}, log_y=False)
        pts = re.search(r'points="([^"]*)"', path.read_text()).group(1)
        # x = 0 is the right edge (640 - 50), and the NaN-x point is dropped
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

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("experiment.kind = bogus\n")
        assert main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == 2

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

    def test_simulate_and_estimate(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        snap = (tmp_path / "tiny_snapshots.csv").read_text().splitlines()
        assert len(snap) == 1 + 64
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "tiny_estimates.csv").exists()

    def test_estimate_spectrum_and_trace(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(BASE_CONFIG.replace("estimators = scm-music", "estimators = structcovmle"))
        code = main(
            ["estimate", "--config", str(path), "--out", str(tmp_path), "--spectrum", "--trace", "--svg"]
        )
        assert code == 0
        spec_rows = (tmp_path / "tiny_spectrum.csv").read_text().splitlines()
        assert spec_rows[0] == "u,value"
        trace_rows = (tmp_path / "tiny_structcovmle_cost_trace.csv").read_text().splitlines()
        assert trace_rows[0] == "iteration,ml_cost"
        costs = [float(r.split(",")[1]) for r in trace_rows[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))
        assert (tmp_path / "tiny_spectrum.svg").exists()

    @pytest.mark.parametrize("estimators", ["structcovmle", "scm-music"])
    def test_estimate_spectrum_solves_mle_once(self, tmp_path, capsys, monkeypatch, estimators):
        # the spectrum reuses the structcovmle estimator's covariance when it ran
        calls = []
        solve = experiments.structcov_mle

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(experiments, "structcov_mle", counted)
        path = tmp_path / "exp.cfg"
        path.write_text(BASE_CONFIG.replace("estimators = scm-music", f"estimators = {estimators}"))
        assert main(["estimate", "--config", str(path), "--out", str(tmp_path), "--spectrum"]) == 0
        assert len(calls) == 1
        assert (tmp_path / "tiny_spectrum.csv").exists()

    def test_estimate_spectrum_refused_off_grid(self, tmp_path, capsys):
        # the spectrum is MUSIC on the structcovmle covariance, which needs
        # integer positions: refused before any estimator runs
        cfg = str(resources.files("gridlessdoa") / "configs" / "fig_refine_arbitrary.cfg")
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "a"), "--spectrum"]) == 2
        assert "--spectrum" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "fig_refine_arbitrary_estimates.csv").exists()

    @pytest.mark.parametrize("positions", ["0,inf", "0,nan", "0,1,x"])
    def test_bad_positions_are_config_errors(self, capsys, positions):
        assert main(["describe-geometry", "--positions", positions]) == 2
        assert "config error" in capsys.readouterr().err
        with pytest.raises(GeometryError):
            ArrayGeometry(tuple(positions.split(",")))

    @pytest.mark.parametrize(
        "command, flag",
        [("simulate", "--jobs=2"), ("simulate", "--svg"), ("crb", "--jobs=2"), ("crb", "--svg"),
         ("estimate", "--jobs=2"), ("estimate", "--svg")],
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
