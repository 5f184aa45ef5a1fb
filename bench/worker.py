"""Run one workload in a process of its own and print its figures as JSON.

Started by ``run.py`` with ``src`` on PYTHONPATH.  Calls go in-process to
``braidreps.cli.main(argv)`` with stdout and stderr captured, one at a
time: a closed loop with one client.

Untraced (``--trace 0``), requests are replayed in passes until
``--seconds`` have passed, and at least one whole pass; the figures come
from the median replay of each request, in host-calibrated time (see
``untraced``).  Traced (``--trace 1``), one whole pass runs untraced and
then one runs traced, both in wall time; scans use --jobs 1 only in the
traced pass, so that every span is recorded in this process.

Every output is checked (see ``workloads.py``) and compared byte for byte
with the same call's output in the first pass, and with the --jobs 1 output
for --jobs 2 scans.  The digest is the sha256 of the first pass's outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import braidreps.cli

import calibrate
import workloads
from tracing import Tracer, output_bits

OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


def invoke(argv, clock=None, periodic=True):
    """Call ``braidreps.cli.main(argv)`` with its output captured.  Returns
    the exit code, the call's (seconds, host-calibrated seconds), stdout and
    stderr; without a ``calibrate.HostClock`` both times are wall time."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        if clock is not None:
            clock.start(periodic)
        try:
            code = braidreps.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        times = (perf_counter() - start,) * 2 if clock is None else clock.stop()
    return code, times, out.getvalue(), err.getvalue()


class Loop:
    """Replays a workload's requests and keeps what the metrics need."""

    def __init__(self, wl, clock=None):
        self.wl = wl
        self.clock = clock
        self.reference: dict = {}  # (request, call) -> output of the first pass
        self.attempted = 0
        self.errors: list[str] = []
        self.digest = None

    def run(self, seconds, *, parallel=True, tracer=None):
        """Run passes for ``seconds`` (at least one whole pass) and return,
        per request, the (serial s, calibrated serial s, --jobs 2 s,
        calibrated --jobs 2 s) of each of its replays, (units, seconds,
        parallel, traced output) per call and the number of whole passes."""
        replays = [[] for _ in self.wl.requests]
        calls = []
        start = perf_counter()
        passes = 0
        while True:
            sha = hashlib.sha256()
            for r, request in enumerate(self.wl.requests):
                # a replay that would end past the deadline is not started
                last = replays[r][-1] if replays[r] else None
                if passes and perf_counter() - start + last[0] + last[2] >= seconds:
                    return replays, calls, passes
                replays[r].append(self._request(r, request, calls, sha, parallel, tracer))
            passes += 1
            if self.digest is None:
                self.digest = sha.hexdigest()
            if perf_counter() - start >= seconds:
                return replays, calls, passes

    def _request(self, r, request, calls, sha, parallel, tracer):
        times = [0.0] * 4
        for c, call in enumerate(request):
            if call.parallel and not parallel:
                continue
            if tracer is not None:
                tracer.request += 1
            # the clock's kernel stays out of --jobs 2 calls, whose pool
            # processes use both CPUs
            code, (dur, scaled), text, err = invoke(call.argv, self.clock, not call.parallel)
            self.attempted += 1
            calls.append((call.units, dur, call.parallel, text if tracer else None))
            k = 2 if call.parallel else 0
            times[k] += dur
            times[k + 1] += scaled
            if call.parallel:
                error = self._check_parallel(code, text, err, first)
            else:
                first = text
                error = self._check(r, c, call, code, text, err)
                sha.update(text.encode())
            if error is not None:
                self.errors.append(f"{self.wl.name} request {r} call {c} ({call.argv[0]}): {error}")
        return tuple(times)

    @staticmethod
    def _check_parallel(code, text, err, first):
        if code != 0:
            return f"exit code {code}: {err.strip()[:300]}"
        return None if text == first else "output differs from the --jobs 1 output"

    def _check(self, r, c, call, code, text, err):
        if code != 0:
            return f"exit code {code}: {err.strip()[:300]}"
        if text != self.reference.setdefault((r, c), text):
            return "output differs from the first pass"
        try:
            return call.check(json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unexpected output: {exc!r}"


def throughput(calls, parallel):
    units = sum(u for u, _, p, _ in calls if p == parallel)
    secs = sum(d for _, d, p, _ in calls if p == parallel)
    return units / secs if secs else 0.0


def p90_if_supported(samples):
    """The 90th percentile when at least ten samples lie beyond it."""
    if len(samples) < 20:
        return None
    q = statistics.quantiles(samples, n=10)[-1]
    return q if sum(s > q for s in samples) >= 10 else None


def untraced(loop, seconds):
    """Figures from the median replay of each request, in host-calibrated
    time (see ``calibrate.py``), so that a spell in which other tenants
    slow the shared CPUs does not read as a slower program.  Throughput is
    the request units over the sum of those medians.  The same figures in
    wall time are returned beside them, with the host's speed: REF_S over
    the kernel's median time.
    """
    replays, _, passes = loop.run(seconds)
    units = sum(c.units for request in loop.wl.requests for c in request if not c.parallel)

    def medians(k):
        return [statistics.median(rep[k] for rep in reps) for reps in replays]

    wall, serial, jobs2 = medians(0), medians(1), medians(3)
    throughput = units / sum(serial)
    parallel = units / sum(jobs2) if all(jobs2) else None
    p90 = p90_if_supported(serial)
    return {
        "passes": passes,
        "samples": len(serial),
        "replays": min(len(reps) for reps in replays),
        "throughput_per_s": throughput,
        "parallel_throughput_per_s": parallel,
        "latency_p50_ms": statistics.median(serial) * 1e3,
        "latency_p90_ms": None if p90 is None else p90 * 1e3,
        "parallel_efficiency": parallel / (2 * throughput) if parallel else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_throughput_per_s": units / sum(wall),
        "wall_latency_p50_ms": statistics.median(wall) * 1e3,
        "host_speed": calibrate.REF_S / statistics.median(loop.clock.kernels),
    }


def traced(loop, name, seed):
    _, plain, _ = loop.run(0)
    tracer = Tracer()
    tracer.install()
    try:
        _, calls, _ = loop.run(0, parallel=False, tracer=tracer)
    finally:
        tracer.uninstall()
    layers = tracer.metrics()
    texts = [t for _, _, _, t in calls]
    layers["serialize.max_bits"] = max(output_bits(t) for t in texts)
    layers["serialize.output_bytes"] = sum(len(t.encode()) for t in texts)
    serial = throughput(plain, False)
    parallel = throughput(plain, True)
    layers["scan.parallel_efficiency"] = parallel / (2 * serial) if parallel else 0.0
    layers["trace.overhead_share"] = 1 - throughput(calls, False) / serial
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-{seed}.jsonl"
    tracer.write_spans(spans_path)
    return {"passes": 1, "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(OUT_DIR.parent)), "layers": layers}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        loop = Loop(wl)
        result = traced(loop, args.workload, args.seed)
    else:
        loop = Loop(wl, calibrate.HostClock())
        result = untraced(loop, args.seconds)
    result.update(attempted=loop.attempted, failed=len(loop.errors),
                  errors=loop.errors[:20], digest=loop.digest, unit=wl.unit,
                  requests=len(wl.requests))
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
