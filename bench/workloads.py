"""The benchmark's workloads: seeded inputs, CLI calls and output checks.

A workload is a fixed list of requests built from the seed; the closed loop
replays it in passes until the run time is spent.  A pass is short, a fifth
of the benchmark's run time or less on a 2-CPU machine, so that every
request is replayed several times in a run and its median replay can be
taken (see ``worker.py``).  A request is what one user waits for: a list
of CLI calls made back to back.  Each call carries an independent output
check that returns an error message or ``None``.

- ``scan-q5``: one grid of 5-element rational sets scanned with --jobs 1
  and again with --jobs 2; the two outputs must be byte-identical.
  Latency samples are the --jobs 1 calls; throughput counts grid points.
- ``rep-pipeline``: one parameter set, ``verify`` then ``irred``.  Latency
  samples are whole requests, the time to both verdicts.
- ``census-zeta5``: one constructive census over Q(zeta5).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

import gen

ZETA5 = "t^4+t^3+t^2+t+1"


@dataclass
class Call:
    argv: list
    check: Callable[[dict], str | None]
    units: int = 1  # work units for throughput: grid points, else 1
    # A --jobs 2 scan: its output must equal the request's first call's, it
    # is left out of the latency sample, and traced runs skip it.
    parallel: bool = False


@dataclass
class Workload:
    name: str
    requests: list = field(default_factory=list)  # list[list[Call]]
    unit: str = "calls"


def _params(values) -> str:
    return json.dumps([gen.encode(v) for v in values])


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


# -- scan-q5 -------------------------------------------------------------------

SCAN_GRIDS = 8
SCAN_POINTS = 32
SCAN_DEGENERATE_EVERY = 4  # one point in four is degenerate


def _scan_check(grid, expected, targets):
    def check(out):
        points = out.get("points", [])
        if len(points) != len(grid):
            return f"{len(points)} points for a grid of {len(grid)}"
        for i, (p, vals, want, target) in enumerate(zip(points, grid, expected, targets)):
            if p["index"] != i or p["X"] != vals:
                return f"point {i}: index or X echoed wrongly"
            if p["failing"] != want or p["verdict"] != (not want):
                return f"point {i}: failing {p['failing']} verdict {p['verdict']}, closed forms give {want}"
            if target and not any(n.startswith(target + "(") for n in p["failing"]):
                return f"point {i}: targeted {target} not in failing"
        return None

    return check


def scan_q5(seed: int) -> Workload:
    rng = random.Random(seed)
    wl = Workload("scan-q5", unit="grid points")
    k = 0
    for _ in range(SCAN_GRIDS):
        grid, expected, targets = [], [], []
        for i in range(SCAN_POINTS):
            target = None
            if i % SCAN_DEGENERATE_EVERY == 0:
                target = gen.SCAN_TARGETS[k % len(gen.SCAN_TARGETS)]
                k += 1
            vals, zeros = gen.scan_set(rng, target)
            grid.append([gen.encode(v) for v in vals])
            expected.append(zeros)
            targets.append(target)
        order = list(range(SCAN_POINTS))
        rng.shuffle(order)
        grid = [grid[i] for i in order]
        expected = [expected[i] for i in order]
        targets = [targets[i] for i in order]
        check = _scan_check(grid, expected, targets)
        argv = ["scan", "--params", json.dumps({"grid": grid})]
        wl.requests.append([
            Call(argv + ["--jobs", "1"], check, units=SCAN_POINTS),
            Call(argv + ["--jobs", "2"], check, units=SCAN_POINTS, parallel=True),
        ])
    return wl


# -- rep-pipeline ------------------------------------------------------------

PIPELINE_CYCLES = 10  # dimension-6 variants cycle 1..5 over the cycles
# sets of dimension 3..6 in every third cycle are degenerate
DEGENERATE_CYCLES = tuple(range(1, PIPELINE_CYCLES, 3))
DIM6_TARGETS = ("I6", "J6", "K6")
TARGET = {3: "I3", 4: "I4", 5: "J5"}


def _verify_check(out):
    return _expect(out.get("all_ok") is True, "verify: all_ok is not true")


def _irred_check(spec, degenerate):
    want_zero = gen.rep_vanishing(spec)
    if spec["dim"] == 6:
        pos = list(range(1, 6))
        want_zero = [n for n, v, _ in gen.level6(spec["values"], pos) if v == 0]

    def check(out):
        if out.get("verdicts_agree") is not True:
            return "irred: verdicts disagree"
        if out["oracle_irreducible"] is degenerate:
            return f"irred: oracle says irreducible={out['oracle_irreducible']}"
        if degenerate and out["witness"] is None:
            return "irred: degenerate set without witness"
        zeros = [p["name"] for p in out["predicates"] if p["zero"]]
        return _expect(zeros == want_zero, f"irred: vanishing {zeros}, closed forms give {want_zero}")

    return check


def rep_pipeline(seed: int) -> Workload:
    rng = random.Random(seed)
    wl = Workload("rep-pipeline")
    for c in range(PIPELINE_CYCLES):
        variant = 1 + c % 5
        degenerate_cycle = c in DEGENERATE_CYCLES
        for dim in (2, 3, 4, 5, 6):
            degenerate = degenerate_cycle and dim >= 3
            target = None
            if degenerate:
                target = TARGET.get(dim) or DIM6_TARGETS[DEGENERATE_CYCLES.index(c) % 3]
            spec = gen.rep_spec(rng, dim, target, variant)
            argv = ["--params", _params(spec["values"])]
            if dim == 4:
                argv.append("--h=" + gen.encode(spec["h"]))
            elif dim == 5:
                argv.append("--f=" + gen.encode(spec["f"]))
            elif dim == 6:
                argv += ["--dim", "6", "--variant", str(variant)]
            wl.requests.append([
                Call(["verify"] + argv, _verify_check),
                Call(["irred"] + argv, _irred_check(spec, degenerate)),
            ])
    return wl


# -- census-zeta5 ------------------------------------------------------------

CENSUS_SETS = 2


def _census_check(out):
    census = out.get("census") or {}
    if out.get("verdict") is not True or out.get("failing"):
        return "census: set reported not semisimple"
    if census.get("sum_of_squares") != 600:
        return f"census: sum of squares {census.get('sum_of_squares')}"
    ids = [e["class_id"] for e in census["entries"]]
    if len(set(ids)) != len(ids):
        return "census: repeated class_id"
    dim5 = sum(1 for e in census["entries"] if e["spec"]["dim"] == 5)
    return _expect(dim5 == 5, f"census: {dim5} dimension-5 entries built, want 5")


def census_zeta5(seed: int) -> Workload:
    rng = random.Random(seed)
    wl = Workload("census-zeta5")
    for _ in range(CENSUS_SETS):
        values, _ = gen.census_set(rng)
        argv = ["semisimple", "--mode", "constructive", "--context", ZETA5,
                "--params", _params(values)]
        wl.requests.append([Call(argv, _census_check)])
    return wl


WORKLOADS = {"scan-q5": scan_q5, "rep-pipeline": rep_pipeline, "census-zeta5": census_zeta5}
# field context each workload's calls use (None: the rationals)
CONTEXTS = {"scan-q5": None, "rep-pipeline": None, "census-zeta5": ZETA5}
