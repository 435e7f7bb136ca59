"""gridlessdoa benchmark: closed-loop Monte-Carlo sweeps through the public runner.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mm-wide --seed 61005 --seconds 25 --trace 0

One single-threaded process runs one-trial sweeps back to back, each through
``experiments.run_experiment(cfg, out, jobs=1)``, until ``--seconds`` of sweep
time have passed and at least the workload's fixed prefix of trials is done.
The prefix's ``n`` inputs are the workload's bundled config with
``experiment.trials = 1`` and ``experiment.seed = seed + 1000003 * i`` for
``i < n``; the seed defaults to the config's own.  Sweep ``j`` runs input
``j % n``, so a faster program repeats the same inputs rather than reaching
new ones.  Throughput and trial times weight every input equally (the median
over its repeats), and the metrics fixed by the seed (fit quality, failure
counts, per-layer call counts) come from the prefix, so two runs at one seed
report them identically.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced run.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full result, with provenance, goes to ``perfbench/.out/``.  The exit code is
0 when the output check passes, 1 when it fails and 2 when the benchmark
cannot run or measure (for example, no ``src/gridlessdoa`` beside it).
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are sized when numpy loads, so pin them first.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tr  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = SRC / "gridlessdoa" / "configs"
OUT = HERE / ".out"

SEED_STRIDE = 1_000_003
SETUP_PROBES_PER_CPU = 5
PROBE_TIMEOUT_S = 60


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: str
    prefix_trials: int


# Why each workload is here (also in BENCHMARK.json):
# - mm-wide: aperture 30, 59 real Newton variables; ~98% of a trial is in
#   mlesolve.solve_subproblem and a third of that in the Jacobi herm_eig at
#   n = 30.  Hessian-structure and eigensolver changes show here.
# - em-holes: the same MLE layer on a 23-variable system, EM on the completed
#   geometry beside the observed-only solve; per-call overhead matters.
# - refine-offgrid: never enters mlesolve; ~99% of a trial is sbl.sbl_run.
#   SBL changes show only here and MLE changes should leave it flat.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mm-wide", "fig_resolution.cfg", prefix_trials=6),
        Workload("em-holes", "fig_nula_em.cfg", prefix_trials=18),
        Workload("refine-offgrid", "fig_refine_arbitrary.cfg", prefix_trials=7),
    )
}


class SetupError(Exception):
    """The checkout lacks the package or a bundled config."""


class MeasureError(Exception):
    """A per-layer metric's assumption about the program no longer holds."""


def load_package():
    """Import gridlessdoa from this checkout's ``src``, never from elsewhere."""
    init = SRC / "gridlessdoa" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no package source at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import gridlessdoa
    from gridlessdoa import experiments

    if Path(gridlessdoa.__file__).resolve() != init.resolve():
        raise SetupError(f"imported gridlessdoa from {gridlessdoa.__file__}, not {init}")
    return experiments


def load_config(xp, workload: Workload):
    path = CONFIGS / workload.config
    if not path.is_file():
        raise SetupError(f"no bundled config {path.relative_to(ROOT)}")
    try:
        return xp.parse_config(path.read_text(encoding="utf-8"))
    except xp.ConfigError as exc:
        raise SetupError(f"{path.relative_to(ROOT)}: {exc}") from None


def sweep_config(base, seed: int, workload: Workload, j: int):
    """Config of sweep ``j``: one trial of prefix input ``j % prefix_trials``."""
    i = j % workload.prefix_trials
    return dataclasses.replace(base, seed=seed + SEED_STRIDE * i, trials=1)


def probe_setup_s(workload: Workload, seed: int, cpu: int) -> float:
    """Wall time from spawning a fresh interpreter on ``cpu`` to its first trial being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu})) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SetupError("setup probe timed out") from None
    if line.strip() != "ready" or proc.returncode != 0:
        raise SetupError(f"setup probe failed with exit code {proc.returncode}")
    return ready - start


def setup_s(workload: Workload, seed: int) -> tuple[float, int]:
    """Set-up time: the mean over CPUs of each CPU's median probe; and the probe count.

    The CPUs of a shared host can differ in speed by a third, so unpinned
    probes would report whichever CPUs they drew.  Each CPU gets the same
    number of probes instead, taken in turn.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times: dict[int, list[float]] = defaultdict(list)
    for n in range(SETUP_PROBES_PER_CPU * len(cpus)):
        cpu = cpus[n % len(cpus)]
        times[cpu].append(probe_setup_s(workload, seed, cpu))
    return (statistics.fmean(statistics.median(t) for t in times.values()),
            sum(len(t) for t in times.values()))


# -- the run -------------------------------------------------------------------


@dataclasses.dataclass
class Trial:
    index: int
    seed: int
    sweep_s: float
    trial_s: float
    record: dict
    solves: list
    descent_violations: int


class Capture:
    """Times ``run_one_trial`` and keeps the MLE return values of each sweep.

    Installed on the ``experiments`` namespace, which is where the runner
    looks these names up, so it sees exactly the calls the sweep makes.
    """

    def __init__(self, xp):
        self.trial_s: list[float] = []
        self.records: list[dict] = []
        self.solves: list[tuple] = []
        self._xp = xp
        self._saved: dict[str, object] = {}

    def install(self) -> None:
        run_one_trial = tr.resolve("experiments", "run_one_trial")
        structcov_mle = tr.resolve("experiments", "structcov_mle")
        em_gridless = tr.resolve("experiments", "em_gridless")

        def timed_trial(*args, **kwargs):
            start = time.perf_counter()
            out = run_one_trial(*args, **kwargs)
            self.trial_s.append(time.perf_counter() - start)
            self.records.append(out)
            return out

        def kept_structcov(r, g, cfg):
            v = structcov_mle(r, g, cfg)
            self.solves.append(("structcov_mle", r, g, cfg.lam, v))
            return v

        def kept_em(y, g, plan, cfg):
            v = em_gridless(y, g, plan, cfg)
            self.solves.append(("em_gridless", y, g, cfg.lam, v))
            return v

        for name, fn in (("run_one_trial", timed_trial), ("structcov_mle", kept_structcov),
                         ("em_gridless", kept_em)):
            self._saved[name] = getattr(self._xp, name)
            setattr(self._xp, name, fn)

    def uninstall(self) -> None:
        for name, fn in self._saved.items():
            setattr(self._xp, name, fn)
        self._saved.clear()

    def drain(self):
        out = (self.trial_s[:], self.records[:], self.solves[:])
        self.trial_s.clear()
        self.records.clear()
        self.solves.clear()
        return out


def run_sweeps(xp, base, workload: Workload, seed: int, seconds: float, tracer, workdir: str):
    """Closed loop of one-trial sweeps; returns the trials in run order."""
    capture = Capture(xp)
    if tracer is not None:
        tracer.install()
    capture.install()
    trials: list[Trial] = []
    # Cores of a shared host can differ in speed by a third, and a process
    # tends to stay on one, so a run would report whichever core it drew.
    # Moving this process to the next allowed core each sweep gives every
    # run the same mix, and each repeat of an input the core after the last
    # one; it stays single-threaded.
    cpus = sorted(os.sched_getaffinity(0))
    n = workload.prefix_trials
    try:
        measured = 0.0
        j = 0
        while j < n or measured < seconds:
            os.sched_setaffinity(0, {cpus[(j % n + j // n) % len(cpus)]})
            cfg = sweep_config(base, seed, workload, j)
            if tracer is not None:
                tracer.trial = j
            start = time.perf_counter()
            xp.run_experiment(cfg, workdir, jobs=1)
            sweep_s = time.perf_counter() - start
            measured += sweep_s
            trial_s, records, solves = capture.drain()
            if len(records) != 1:
                raise RuntimeError(f"sweep {j} ran {len(records)} trials, expected 1")
            with open(os.path.join(workdir, f"{cfg.out_prefix}_meta.json"), encoding="utf-8") as fh:
                violations = int(json.load(fh)["descent_violations"])
            trials.append(Trial(j, cfg.seed, sweep_s, trial_s[0], records[0], solves, violations))
            j += 1
    finally:
        os.sched_setaffinity(0, cpus)
        capture.uninstall()
        if tracer is not None:
            tracer.uninstall()
    return trials


# -- output check and metrics -----------------------------------------------------


def estimate_problem(rec: dict, k: int) -> str | None:
    """Why a successful estimator call fails the output check, or None."""
    if len(rec["u_hat"]) != k:
        return f"{len(rec['u_hat'])} directions, expected {k}"
    if not all(math.isfinite(x) for x in rec["u_hat"] + rec["errors"]):
        return "non-finite estimate"
    if rec.get("descent_violations", 0) > 0:
        return f"{rec['descent_violations']} descent violations"
    return None


def check_estimates(trial: Trial, k: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over the estimator calls of one trial.

    ``failed`` counts calls that raised or failed the output check;
    ``problems`` lists the output-check failures: a non-finite estimate, a
    count other than ``k``, or a descent violation.  A call that raised is
    recorded by the runner as a failure and only counts in ``failed``.
    """
    attempted = failed = 0
    problems = []
    for name, rec in trial.record["results"].items():
        attempted += 1
        problem = None if rec["failed"] else estimate_problem(rec, k)
        if rec["failed"] or problem:
            failed += 1
        if problem:
            problems.append(f"trial {trial.index} (seed {trial.seed}) {name}: {problem}")
    if trial.descent_violations > 0:
        problems.append(f"trial {trial.index}: meta reports {trial.descent_violations} descent violations")
    return attempted, failed, problems


def fit_costs(trial: Trial) -> list[float]:
    """Final negative log-likelihood of every solve in a trial.

    MLE solves are scored with ``mlesolve.ml_cost`` on the physical geometry;
    a refine solve reports its last round's ``sbl_cost``.
    """
    from gridlessdoa.mlesolve import ml_cost
    from gridlessdoa.sigmodel import scm

    costs = []
    for kind, data, g, lam, v in trial.solves:
        r = scm(data) if kind == "em_gridless" else data
        costs.append(ml_cost(v, lam, r, g))
    for rec in trial.record["results"].values():
        if rec.get("rounds"):
            costs.append(float(rec["rounds"][-1]["sbl_cost"]))
    return costs


def quality(trials: list[Trial], k: int) -> dict:
    """Seed-determined quality of a set of trials."""
    sq: list[float] = []
    attempted = failed = violations = 0
    costs: list[float] = []
    for t in trials:
        a, f, _ = check_estimates(t, k)
        attempted += a
        failed += f
        violations += t.descent_violations
        costs += fit_costs(t)
        for rec in t.record["results"].values():
            if not rec["failed"] and estimate_problem(rec, k) is None:
                sq += [e * e for e in rec["errors"]]
    return {
        "rmse_u": math.sqrt(sum(sq) / len(sq)) if sq else math.nan,
        "fit_cost": sum(costs) / len(costs) if costs else math.nan,
        "fail_rate": failed / attempted if attempted else math.nan,
        "descent_violations": violations,
    }


def per_input(trials: list[Trial], field: str) -> list[float]:
    """For each input, the median of ``field`` over its repeats in the run."""
    by_seed: dict[int, list[float]] = defaultdict(list)
    for t in trials:
        by_seed[t.seed].append(getattr(t, field))
    return [statistics.median(v) for v in by_seed.values()]


def end_to_end(trials: list[Trial], setup: float, prefix: dict) -> dict:
    # Every input weighs the same, however often a run repeated it, so a
    # faster program is timed on the same mix of inputs as a slower one.
    sweep_s = per_input(trials, "sweep_s")
    return {
        "trials_per_s": (len(sweep_s) / sum(sweep_s), "1/s"),
        "trial_p50_s": (statistics.median(per_input(trials, "trial_s")), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fit_cost": (prefix["fit_cost"], "nat"),
    }


def per_layer(spans: list, trials: list[Trial], prefix_n: int, sbl_max_iters: int,
              wrapper_cost: tuple) -> dict:
    """Per-layer metrics over the prefix trials; times and calls are per trial."""
    by_name: dict[str, list] = defaultdict(list)
    for s in spans:
        if s.trial < prefix_n:
            by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name]) / prefix_n

    def total(name):
        return sum(s.total_s for s in by_name[name]) / prefix_n

    def self_s(name):
        return sum(s.self_s for s in by_name[name]) / prefix_n

    def numerics(leaf, parent_module=None):
        count = seconds = 0.0
        for name, group in by_name.items():
            if parent_module is None or name.startswith(parent_module + "."):
                for s in group:
                    c, t = s.numerics.get(leaf, (0, 0.0))
                    count += c
                    seconds += t
        return count / prefix_n, seconds / prefix_n

    def per_call(leaf, name):
        group = by_name[name]
        return sum(s.numerics.get(leaf, (0, 0.0))[0] for s in group) / len(group) if group else 0.0

    sub = "mlesolve.solve_subproblem"
    trial_total = total("experiments.run_one_trial")
    # An SBL run reached its cap when it made ``max_iters`` factorizations.
    # That holds while sbl_run factors the model covariance exactly once per
    # iteration; a run with more factorizations than iterations shows that it
    # no longer does, and the ratio would be meaningless.
    sbl_runs = by_name["sbl.sbl_run"]
    sbl_iters = [s.numerics.get("chol_factor", (0,))[0] for s in sbl_runs]
    if any(n > sbl_max_iters for n in sbl_iters):
        raise MeasureError(f"an sbl_run made {max(sbl_iters)} chol_factor calls with max_iters "
                           f"{sbl_max_iters}; cap_hit_ratio assumes one per iteration")
    sbl_capped = sum(1 for n in sbl_iters if n == sbl_max_iters)

    m = {
        f"{sub}.calls": (calls(sub), "count/trial"),
        f"{sub}.self_s": (self_s(sub), "s/trial"),
        f"{sub}.total_s": (total(sub), "s/trial"),
        f"{sub}.trial_share": (total(sub) / trial_total if trial_total else 0.0, "ratio"),
        f"{sub}.factorizations": (per_call("chol_factor", sub), "count/call"),
    }
    for name in ("mlesolve.structcov_mle", "mlesolve.em_gridless", "mlesolve.em_estep", "mlesolve.ml_cost"):
        m[f"{name}.calls"] = (calls(name), "count/trial")
        m[f"{name}.total_s"] = (total(name), "s/trial")
    for leaf in ("herm_eig", "chol_factor", "poly_roots"):
        for parent in (None, "mlesolve", "estimate") if leaf == "herm_eig" else (None,):
            c, t = numerics(leaf, parent)
            key = f"numerics.{leaf}" + (f".{parent}" if parent else "")
            m[f"{key}.calls"] = (c, "count/trial")
            m[f"{key}.total_s"] = (t, "s/trial")
    m.update({
        "sbl.sbl_run.calls": (calls("sbl.sbl_run"), "count/trial"),
        "sbl.sbl_run.total_s": (total("sbl.sbl_run"), "s/trial"),
        "sbl.sbl_run.self_s": (self_s("sbl.sbl_run"), "s/trial"),
        "sbl.sbl_run.iters": (per_call("chol_factor", "sbl.sbl_run"), "count/call"),
        "sbl.sbl_run.cap_hit_ratio": (sbl_capped / len(sbl_runs) if sbl_runs else 0.0, "ratio"),
        "refine.multires_refine.total_s": (total("refine.multires_refine"), "s/trial"),
        "refine.multires_refine.self_s": (self_s("refine.multires_refine"), "s/trial"),
        "refine.peak_adjust.calls": (calls("refine.peak_adjust"), "count/trial"),
        "refine.peak_adjust.total_s": (total("refine.peak_adjust"), "s/trial"),
        "estimate.root_music.calls": (calls("estimate.root_music"), "count/trial"),
        "estimate.root_music.self_s": (self_s("estimate.root_music"), "s/trial"),
        "sigmodel.simulate.total_s": (total("sigmodel.simulate"), "s/trial"),
        "metrics.crb_rmse.total_s": (total("metrics.crb_rmse"), "s/trial"),
        "experiments.run_one_trial.self_s": (self_s("experiments.run_one_trial"), "s/trial"),
        "experiments.run_experiment.self_s": (self_s("experiments.run_experiment"), "s/trial"),
        "experiments.trial_s": (trial_total, "s/trial"),
    })

    # Tracing overhead: the traced throughput, and the measured per-call
    # wrapper cost times the calls made, as a share of traced sweep time.
    span_cost, leaf_cost = wrapper_cost
    leaf_calls = sum(c for s in spans for c, _ in s.numerics.values())
    sweep_s = sum(t.sweep_s for t in trials)
    m["trace.trials_per_s"] = (len(trials) / sweep_s, "1/s")
    m["trace.overhead_share"] = ((len(spans) * span_cost + leaf_calls * leaf_cost) / sweep_s, "ratio")
    return m


# -- provenance and output ---------------------------------------------------------


def provenance(seed: int) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridlessdoa").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def as_metrics(values: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None, help="workload seed (default: the config's)")
    ap.add_argument("--seconds", type=float, default=25.0, help="sweep time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        xp = load_package()
        base = load_config(xp, workload)
        seed = base.seed if args.seed is None else args.seed
        sweep_config(base, seed, workload, 0)  # building the first sweep's config is part of set-up
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        OUT.mkdir(exist_ok=True)
        setup, setup_probes = setup_s(workload, seed)
    except (SetupError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    tracer = tr.Tracer() if args.trace else None
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        trials = run_sweeps(xp, base, workload, seed, args.seconds, tracer, workdir)
    except tr.TracerError as exc:
        print(f"perfbench: cannot trace: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prefix = trials[: workload.prefix_trials]
    k = base.k
    q = quality(prefix, k)
    attempted = failed = 0
    problems: list[str] = []
    for t in trials:
        a, f, p = check_estimates(t, k)
        attempted += a
        failed += f
        problems += p
    e2e = end_to_end(trials, setup, q)
    correct = not problems and all(math.isfinite(v) for v, _ in e2e.values())

    layers = None
    if tracer is not None:
        try:
            layers = per_layer(tracer.spans, trials, len(prefix), base.refine_sbl_iters,
                               tr.wrapper_cost_s())
        except MeasureError as exc:
            print(f"perfbench: cannot measure: {exc}", file=sys.stderr)
            return 2
        layers["quality.rmse_u"] = (q["rmse_u"], "u")
        layers["quality.fail_rate"] = (q["fail_rate"], "ratio")
        layers["quality.descent_violations"] = (q["descent_violations"], "count")

    result = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(seed),
        "samples": {
            "trials": len(trials),
            "prefix_trials": len(prefix),
            "setup_probes": setup_probes,
            "estimator_calls": attempted,
        },
        "end_to_end": as_metrics(e2e),
        "quality": {key: q[key] for key in ("rmse_u", "fit_cost", "fail_rate", "descent_violations")},
        "per_layer": as_metrics(layers) if layers else None,
        "check": {"correct": correct, "problems": problems},
        "trials": [{"index": t.index, "seed": t.seed, "sweep_s": t.sweep_s, "trial_s": t.trial_s}
                   for t in trials],
        "note": "trial_p50_s only: a run has too few trials for ten samples beyond any tail percentile",
    }
    stem = OUT / f"{workload.name}-seed{seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if tracer is not None:
        t0 = min(s.start for s in tracer.spans)
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.as_dict(t0)) + "\n")

    print(f"workload {workload.name}  seed {seed}  trace {args.trace}  "
          f"{len(trials)} trials ({len(prefix)} in the seed-determined prefix), "
          f"{setup_probes} setup probes")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(f"  {'rmse_u':<34} {q['rmse_u']:>14.6g} u        (prefix)")
    print(f"  {'fail_rate':<34} {q['fail_rate']:>14.6g} ratio    (prefix)")
    print(f"  {'descent_violations':<34} {q['descent_violations']:>14d} count    (prefix)")
    for name, (value, unit) in (layers or {}).items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(f"  note: {result['note']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  result: {stem.relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": as_metrics(layers if tracer is not None else e2e),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
