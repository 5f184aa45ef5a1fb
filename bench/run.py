"""One-command benchmark for braidreps.

    python3 bench/run.py --workload scan-q5 --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; nothing needs installing.  The
workload runs in a process of its own (``worker.py``) that calls
``braidreps.cli.main`` in-process, one request at a time.  Workloads are
described in ``workloads.py`` and listed, with their metrics and bounds, in
``BENCHMARK.json`` at the root.

``--trace 0`` reports the end-to-end metrics:
  throughput_per_s  CLI calls per second, or for scan-q5 grid points per
                    second of the --jobs 1 scans
  latency_p50_ms    median latency of a request (see workloads.py)
  peak_rss_mb       peak resident memory of the workload process
  setup_s           median time a fresh interpreter takes to import
                    braidreps.cli and build the workload's field context
                    (16 starts, half before and half after the workload)
and prints, beside them, the 90th percentile where at least ten samples lie
beyond it, the failed share, for scan-q5 the parallel efficiency, and the
wall-clock throughput and latency with the host's speed.

Times are host-calibrated (see calibrate.py): each is scaled by the time a
fixed calibration kernel takes beside it, so that they read as on a CPU
that runs the kernel in calibrate.REF_S, whatever other tenants of a shared
host do meanwhile.  Throughput and latency take the median replay of each
request (see worker.py).

``--trace 1`` reports the per-layer metrics of ``tracing.py`` for one
traced pass over the workload's requests, and writes the spans to
``.bench_out/``.

``test_bench.py`` checks the generators and closed forms; ``record.py``
runs every workload over a range of seeds and records the figures, as in
``baseline.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when a
result was printed, even if some output checks failed (``correct`` is then
false); it is nonzero, with no result, when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import layer_metrics
from workloads import CONTEXTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_STARTS = 16
TIMEOUT_S = 170

END_TO_END = (("throughput_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(Exception):
    """The benchmark could not run; reported without a result."""


def setup_times(env, context, starts) -> list[float]:
    """Seconds a fresh interpreter takes to import braidreps and build the
    context, timed inside it and host-calibrated with the kernel timed right
    after, for each of ``starts`` starts."""
    code = ("import sys\n"
            "from time import perf_counter\n"
            "start = perf_counter()\n"
            "import braidreps.cli\n"
            "from braidreps.serialize import context_from_spec\n"
            f"context_from_spec({context!r})\n"
            "took = perf_counter() - start\n"
            f"sys.path.insert(0, {str(HERE)!r})\n"
            "import calibrate\n"
            "kernel = calibrate.kernel()\n"
            "print(calibrate.scale(took, kernel, kernel))\n")
    times = []
    for _ in range(starts):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=env, cwd=ROOT, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"a fresh interpreter could not import braidreps:\n{proc.stderr}")
        times.append(float(proc.stdout))
    return times


def run_worker(env, args, timeout) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, cwd=ROOT, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"workload did not finish within {TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"workload process exited with code {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def measure(args) -> dict:
    """Run the workload; untraced, also time set-up SETUP_STARTS times, half
    before and half after the workload so that one slow spell of a shared
    machine weighs less (an untimed first start may write bytecode caches)."""
    if not (SRC / "braidreps" / "cli.py").is_file():
        raise BenchError(f"no braidreps sources under {SRC}; run from a source checkout")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    started = perf_counter()
    context = CONTEXTS[args.workload]
    if args.trace:
        return run_worker(env, args, TIMEOUT_S)
    setups = setup_times(env, context, SETUP_STARTS // 2 + 1)[1:]
    res = run_worker(env, args, TIMEOUT_S - (perf_counter() - started))
    setups += setup_times(env, context, SETUP_STARTS - len(setups))
    res["setup_s"] = statistics.median(setups)
    return res


def report(args, res) -> dict:
    """Print the figures by name and unit; return the result's metrics."""
    print(f"workload {args.workload}, seed {args.seed}: {res['requests']} requests a pass, "
          f"{res['passes']} whole passes, {res['attempted']} CLI calls, digest {res['digest']}")
    for line in res["errors"]:
        print(f"FAILED {line}")
    metrics = {}
    if args.trace:
        for m in layer_metrics():
            value = res["layers"][m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<44} {value:>14.6g} {m['unit']}")
        print(f"tracing overhead {res['layers']['trace.overhead_share']:.1%} of throughput; "
              f"{res['spans']} spans in {res['spans_file']}")
        return metrics
    for name, unit in END_TO_END:
        metrics[name] = {"value": res[name], "unit": unit}
        shown = f"{res['unit']}/s" if unit == "1/s" else unit
        print(f"  {name:<20} {res[name]:>12.6g} {shown}")
    p90 = res["latency_p90_ms"]
    print(f"  {'latency_p90_ms':<20} {'n/a' if p90 is None else format(p90, '12.6g'):>12} ms"
          f"  ({res['samples']} latency samples)")
    print(f"  {'failed_share':<20} {res['failed'] / res['attempted']:>12.6g}"
          f"  ({res['failed']} of {res['attempted']} calls)")
    print(f"  {'wall throughput':<20} {res['wall_throughput_per_s']:>12.6g} {res['unit']}/s, "
          f"wall latency_p50 {res['wall_latency_p50_ms']:.6g} ms; host speed "
          f"{res['host_speed']:.3f} of the reference ({res['replays']} or more replays a request)")
    if res["parallel_efficiency"] is not None:
        print(f"  {'throughput --jobs 2':<20} {res['parallel_throughput_per_s']:>12.6g} "
              f"{res['unit']}/s")
        print(f"  {'parallel_efficiency':<20} {res['parallel_efficiency']:>12.6g}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        res = measure(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    metrics = report(args, res)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
