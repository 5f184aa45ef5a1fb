"""Self-test of the benchmark's generators, closed forms and span arithmetic.

    python3 bench/test_bench.py        # or: python3 -m pytest bench/test_bench.py

Needs neither braidreps nor a run of the benchmark.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(6)

# The degenerate fixtures of the acceptance suite: values, root or
# variant, and a predicate that vanishes for that representation.
FIXTURES = [
    ({"dim": 3, "values": [2, 1, -4]}, "I3(1,2,3)"),
    ({"dim": 4, "values": [1, 2, Fraction(27, 2), 3], "h": 9}, "I4(4)"),
    ({"dim": 5, "values": [-4, 1, 2, 4, -1], "f": 2}, "J5(1,2)"),
    ({"dim": 6, "values": [1, 2, 3, 4, 24], "variant": 5}, "J6(1,5)"),
    ({"dim": 6, "values": [1, 2, -3, 6, 5], "variant": 5}, "K6(5;1,4,2,3)"),
    ({"dim": 6, "values": [2, 3, -1, Fraction(1, 6), 1], "variant": 5}, "I6(5)"),
]


def _fractions(spec):
    spec = dict(spec, values=[Fraction(v) for v in spec["values"]])
    for key in ("h", "f"):
        if key in spec:
            spec[key] = Fraction(spec[key])
    return spec


def test_fixtures_vanish_on_their_predicate():
    for spec, name in FIXTURES:
        assert name in gen.rep_vanishing(_fractions(spec)), name
        # the whole-set verdict sees the same zero (levels 4/5 quantified)
        assert name in gen.vanishing(_fractions(spec)["values"]), name


def test_rep_generators_hit_exactly_their_target():
    targets = [(3, "I3"), (4, "I4"), (5, "J5")]
    targets += [(6, t) for t in ("I6", "J6", "K6")]
    for seed in SEEDS:
        rng = random.Random(seed)
        for dim, target in targets:
            variant = 1 + seed % 5
            spec = gen.rep_spec(rng, dim, target, variant)
            zeros = gen.rep_vanishing(spec)
            assert len(zeros) == 1 and zeros[0].startswith(target + "("), (spec, zeros)
            if dim == 6:
                named = [p for p in gen.rep_predicates(spec) if p[0] == zeros[0]]
                assert named[0][2] == variant
            if dim in (4, 5):
                # a zero at the given root is a zero of the quantified norm
                assert zeros[0] in gen.vanishing(spec["values"])
        for dim in (2, 3, 4, 5, 6):
            spec = gen.rep_spec(rng, dim, None, 1 + seed % 5)
            assert gen.rep_vanishing(spec) == []
            assert len(set(spec["values"])) == len(spec["values"])
            assert all(v != 0 for v in spec["values"])


def test_roots_are_roots():
    rng = random.Random(7)
    for target in (None, "I4"):
        spec = gen.rep_spec(rng, 4, target)
        assert spec["h"] ** 2 == gen.product(spec["values"])
    for target in (None, "J5"):
        spec = gen.rep_spec(rng, 5, target)
        assert spec["f"] ** 5 == gen.product(spec["values"])
    values, f = gen.census_set(rng)
    assert f**5 == gen.product(values) and gen.vanishing(values) == []


def test_scan_sets_hit_exactly_their_target():
    for seed in SEEDS:
        rng = random.Random(seed)
        values, zeros = gen.scan_set(rng)
        assert zeros == [] == gen.vanishing(values)
        for target in gen.SCAN_TARGETS:
            values, zeros = gen.scan_set(rng, target)
            assert zeros == gen.vanishing(values)
            assert len(zeros) == 1 and zeros[0].startswith(target + "("), (target, zeros)


def test_closed_form_families_have_program_sizes():
    x = [Fraction(v) for v in (2, 3, 5, 7, 11)]
    counts = {}
    for name, _, _ in gen.all_predicates(x):
        family = name.split("(")[0]
        counts[family] = counts.get(family, 0) + 1
    assert counts == {"I2": 10, "I3": 30, "I4": 20, "J4": 15, "I5": 5, "J5": 10,
                      "I6": 5, "J6": 20, "K6": 15}


def test_workloads_are_seeded():
    for make in (workloads.rep_pipeline, workloads.census_zeta5):
        a, b, c = make(3), make(3), make(4)
        argv = [[call.argv for call in r] for r in a.requests]
        assert argv == [[call.argv for call in r] for r in b.requests]
        assert argv != [[call.argv for call in r] for r in c.requests]


def test_self_time_and_outermost_total():
    t = tracing.Tracer()
    # main(0..10) > power(1..4) > power(2..3), and main > charpoly(5..9);
    # counted calls have no span
    main, power, charpoly = "cli.main", "linalg.power", "linalg.charpoly"
    t.spans = [(main, 0.0, 10.0, -1, 1), (power, 1.0, 4.0, 0, 1),
               (power, 2.0, 3.0, 1, 1), (charpoly, 5.0, 9.0, 0, 1)]
    t.counts["field.mul"] = 6
    m = t.metrics()
    assert m[main + ".s"] == 10.0 and m[main + ".self_s"] == 3.0
    assert m[power + ".calls"] == 2 and m[power + ".s"] == 3.0
    assert m[power + ".self_s"] == 3.0
    assert m[charpoly + ".self_s"] == 4.0 and m["field.mul.calls"] == 6


def test_calibration_scales_by_the_kernel_time():
    ref = calibrate.REF_S
    assert calibrate.scale(2.0, ref, ref) == 2.0
    # a host running the kernel twice as slowly halves the measured time
    assert abs(calibrate.scale(3.0, 1.5 * ref, 2.5 * ref) - 1.5) < 1e-12
    assert 0 < calibrate.kernel() < 1.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert spec["per_layer"] == tracing.layer_metrics()


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
