"""Benchmark a parent revision against a change in alternating pairs.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --seeds 2701-2710 \\
        --claim rep-pipeline/throughput_per_s --out BENCH_27.json

Both revisions are exported with ``git archive`` (``replay.export``), so
neither holds a bytecode cache, and every process runs with
PYTHONDONTWRITEBYTECODE=1: both sides compile braidreps from source alike.
For each workload and seed, ``bench/record.py`` runs once in each export,
one run at a time, the change first on odd seeds.  Each side also makes
one traced pass per workload on seed 1, whose operation counts are compared
exactly.

The record keeps the schema of the earlier ``BENCH_<pr>.json`` files: per
workload and end-to-end metric of BENCHMARK.json, each side's median,
quartiles and spread (the distance between the quartiles as a share of the
median), the pairs the change won, the change of the median relative to the
parent's, whether that lies within the metric's bound, correctness, failed
calls and whether every pair's output digests agree; each pair's figures
are kept under ``runs``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from replay import ROOT, export

SIDES = ("parent", "change")
TRACE_SEED = 1


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(tree: Path, workload: str, seed: int, trace: int, out: Path) -> dict:
    """One ``bench/record.py`` run of ``tree``: its record of the seed."""
    cmd = [sys.executable, "bench/record.py", "--seeds", f"{seed}-{seed}",
           "--workloads", workload, "--trace", str(trace), "--out", str(out)]
    subprocess.run(cmd, cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                   capture_output=True, text=True, check=True)
    return json.loads(out.read_text())["workloads"][workload]["runs"][0]


def pair(seed: int, first: str, runs: dict) -> dict:
    """One pair's entry from the two sides' records of the seed."""
    return {"seed": seed, "first": first,
            **{side: runs[side]["metrics"] for side in SIDES},
            "correct": [runs[side]["correct"] for side in SIDES],
            "failed": [runs[side]["failed"] for side in SIDES],
            "digest_parent": runs["parent"]["digest"], "digest_change": runs["change"]["digest"]}


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "spread": round((q3 - q1) / median, 4)}


def assemble(pairs: list[dict], metrics: dict) -> dict:
    """One workload's record from its pairs; ``metrics`` maps each end-to-end
    metric to its (better, bound) in BENCHMARK.json."""
    entry = {"seeds": [pairs[0]["seed"], pairs[-1]["seed"]], "pairs": len(pairs)}
    for side in SIDES:
        entry[side] = {m: quartiles([p[side][m] for p in pairs]) for m in metrics}
    sign = {m: 1 if better == "higher" else -1 for m, (better, _) in metrics.items()}
    entry["change_wins"] = {m: sum(sign[m] * (p["change"][m] - p["parent"][m]) > 0 for p in pairs)
                            for m in metrics}
    rel = {}
    for m in metrics:
        medians = [statistics.median(p[side][m] for p in pairs) for side in SIDES]
        rel[m] = (medians[1] - medians[0]) / medians[0]
    entry["change_vs_parent"] = {m: round(r, 4) for m, r in rel.items()}
    entry["within_bound"] = {m: sign[m] * rel[m] >= -bound for m, (_, bound) in metrics.items()}
    entry["all_correct"] = all(all(p["correct"]) for p in pairs)
    entry["failed"] = sum(sum(p["failed"]) for p in pairs)
    entry["digests_identical"] = all(p["digest_parent"] == p["digest_change"] for p in pairs)
    entry["runs"] = pairs
    return entry


def claim(entry: dict, workload: str, metric: str) -> str:
    """The medians, wins and parent quartile distance of one metric, in words."""
    p, c = entry["parent"][metric], entry["change"][metric]
    return (f"{metric} on {workload}: median {p['median']} -> {c['median']} "
            f"({c['median'] / p['median']:.2f}x), the change won "
            f"{entry['change_wins'][metric]} of {entry['pairs']} pairs, and the medians differ "
            f"by {abs(c['median'] - p['median']):.4g} against a parent quartile distance of "
            f"{p['q3'] - p['q1']:.4g}")


def traced(runs: dict, counts: list[str]) -> dict:
    """Two traced passes compared: every count either side makes, exactly."""
    both = {k: [runs[side]["metrics"][k] for side in SIDES] for k in counts}
    both = {k: v for k, v in both.items() if any(v)}
    return {"digest_identical": runs["parent"]["digest"] == runs["change"]["digest"],
            "correct": [runs[side]["correct"] for side in SIDES],
            "counts": both, "changed_counts": {k: v for k, v in both.items() if v[0] != v[1]}}


def short(revision: str) -> str:
    return subprocess.run(["git", "rev-parse", "--short", revision], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 2701-2710")
    ap.add_argument("--claim", help="workload/metric to state the gain of, e.g. "
                                    "rep-pipeline/throughput_per_s")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    revisions = dict(zip(SIDES, (short(args.parent), short(args.change))))
    out = {"parent_revision": revisions["parent"], "change_revision": revisions["change"],
           "python": platform.python_version(), "cpus": os.cpu_count(),
           "machine": platform.machine(), "run_seconds": spec["run_seconds"],
           "method": "scripts/bench_pairs.py: python3 bench/record.py --seeds S-S --workloads W "
                     "in a git archive export of each side, one seed at a time, the change "
                     "first on odd seeds, PYTHONDONTWRITEBYTECODE=1 and no __pycache__ in "
                     "either export; times are host-calibrated by bench/run.py",
           "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: export(revisions[side], Path(tmp) / side) for side in SIDES}
        scratch = Path(tmp) / "record.json"
        for workload in workloads:
            pairs = []
            for seed in seeds(args.seeds):
                order = SIDES[::-1] if seed % 2 else SIDES
                runs = {side: record(trees[side], workload, seed, 0, scratch) for side in order}
                pairs.append(pair(seed, order[0], runs))
                print(workload, seed, *(f"{side} {pairs[-1][side]}" for side in SIDES), flush=True)
            out["workloads"][workload] = assemble(pairs, metrics)
        out[f"traced_seed_{TRACE_SEED}"] = {
            workload: traced({side: record(trees[side], workload, TRACE_SEED, 1, scratch)
                              for side in SIDES}, counts)
            for workload in workloads}
    if args.claim:
        workload, metric = args.claim.split("/")
        out["claim"] = claim(out["workloads"][workload], workload, metric)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    for workload, entry in out["workloads"].items():
        print(workload, json.dumps({k: entry[k] for k in ("change_vs_parent", "change_wins")}))
    if args.claim:
        print(out["claim"])


if __name__ == "__main__":
    main()
