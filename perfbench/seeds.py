"""Run the benchmark once per seed and summarize each metric across the runs.

Run from the root of a source checkout:

    python3 perfbench/seeds.py --workloads mm-wide,em-holes --seeds 1-10 --trace 0 \
        --out perfbench/.out/seeds.json

For every workload and metric it reports the median and the quartiles of the
per-run values (``statistics.quantiles(values, n=4)``) and their spread, the
interquartile distance as a share of the median.  Runs are sequential; a run
that cannot run stops the sweep with exit code 2; runs that fail their output
check are listed, and their metrics kept, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="summary JSON to write")
    args = ap.parse_args(argv)

    summary: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    failed_checks: list[dict] = []
    for workload in args.workloads.split(","):
        per_metric: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 2
            result = json.loads(lines[-1])
            if not result["correct"]:
                failed_checks.append({"workload": workload, "seed": seed, "report": [
                    line.strip() for line in lines if "CHECK FAILED" in line]})
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in list(result["metrics"].items())[:6]), flush=True)
        summary["workloads"][workload] = {
            name: {"unit": units[name], **summarize(values)} for name, values in per_metric.items()
        }
    summary["failed_checks"] = failed_checks
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for workload, metrics in summary["workloads"].items():
        for name, s in metrics.items():
            spread = s.get("spread")
            print(f"{workload:<15} {name:<42} median {s['median']:<12.6g} "
                  f"spread {'-' if spread is None else f'{spread:.4f}'}")
    for failure in failed_checks:
        print(f"output check failed: {failure}")
    return 1 if failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
