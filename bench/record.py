"""Run the benchmark over several seeds and record the figures.

    python3 bench/record.py --seeds 1-10 --out bench/baseline.json
    python3 bench/record.py --seeds 1-1 --trace 1 --out .bench_out/traced.json

For every workload and seed it runs ``run.py`` once, one run at a time,
and records each run's metrics and output digest.  For untraced runs it
adds, per metric, the median, the quartiles and the spread: the distance
between the quartiles as a share of the median.  The record also names the
git revision, the Python version and the CPU count it was measured with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return {"seed": seed, "digest": lines[0].rsplit(" ", 1)[-1], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(runs) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    record = {"revision": revision(), "python": platform.python_version(),
              "cpus": os.cpu_count(), "machine": platform.machine(),
              "run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seeds(args.seeds):
            runs.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(workload, json.dumps(runs[-1]) if args.trace == 0 else seed, flush=True)
        entry = {"runs": runs}
        if args.trace == 0 and len(runs) > 1:
            entry["summary"] = summary(runs)
            for name, s in entry["summary"].items():
                print(f"  {name:<20} median {s['median']:.6g} spread {s['spread']:.4f}")
        record["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
