"""Host-calibrated timings of single layers of braidreps.

    python3 scripts/layers.py --out layers.json
    python3 scripts/layers.py --src ../parent/src --out parent_layers.json

Times ``build_rep`` for one fixed spec per dimension over Q, the d = 6 spec
over Q(zeta5) and the d = 5 spec with f = 2 zeta over Q(zeta5), built on
FieldElements; ``spectral_report`` of the reps of dimensions 2 to 6 over Q,
of the d = 6 rep over Q(zeta5) and of the d = 4 rep with h = t over
Q(sqrt 24), reported on FieldElements; ``canonical_dumps`` of the
payload of ``verify`` for the d = 6 spec over Q; and one product and one
sum of two fixed elements of Q(zeta5) that are not rational.  ``braidreps`` is imported
from ``--src`` (this tree's ``src`` by default), so that two checkouts can
be timed by the same script.  Each sample runs the layer NUMBER times in a
row and is scaled to the reference CPU of ``bench/calibrate.py`` by the
kernel's time just before and just after it, as the benchmark's worker
scales a call.  The JSON gives, per layer, the median and quartiles of the
scaled milliseconds per call over REPEATS samples, and the spread (the
distance between the quartiles as a share of the median).
"""

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from calibrate import REF_S, kernel, scale  # noqa: E402

REPEATS, NUMBER = 15, 20  # samples per layer, calls per sample

# rep name: (context, dimension, X, h / f / variant); a value is read as
# the command line reads it, "[c0, c1]" being c0 + c1 t
SPECS = {
    "d1.Q": ("Q", 1, [3], {}),
    "d2.Q": ("Q", 2, [1, 2], {}),
    "d3.Q": ("Q", 3, [1, -2, "1/3"], {}),
    "d4.Q": ("Q", 4, [1, 2, 3, 6], {"h": -6}),
    "d5.Q": ("Q", 5, [1, 2, 3, 4, "4/3"], {"f": 2}),
    "d6.Q": ("Q", 6, [1, 2, 3, 4, 5], {"variant": 1}),
    "d6.zeta5": ("zeta5", 6, [1, 2, 3, 4, 5], {"variant": 1}),
    "d5.zeta5.irrational": ("zeta5", 5, [1, 2, 3, 4, "4/3"], {"f": "[0, 2]"}),
    "d4.sqrt24": ("sqrt24", 4, [1, 2, 3, 4], {"h": "[0, 1]"}),
}
BUILDS = [f"d{d}.Q" for d in range(1, 7)] + ["d6.zeta5", "d5.zeta5.irrational"]
REPORTS = [f"d{d}.Q" for d in range(2, 7)] + ["d6.zeta5", "d4.sqrt24"]
# the operands of the field layers over Q(zeta5), read as the command line reads them
OPERANDS = ("[1/2, 3, -2/3, 5/7]", "[2, -1/3, 1/5, 4]")


def layers(braidreps) -> dict:
    """Each layer's name and a call that runs it once."""
    contexts = {"Q": braidreps.rationals(), "zeta5": braidreps.cyclotomic5_context(),
                "sqrt24": braidreps.FieldContext([-24, 0, 1])}
    specs = {}
    for name, (ctx_name, dim, values, extra) in SPECS.items():
        ctx = contexts[ctx_name]
        X = braidreps.ParameterSet(tuple(braidreps.parse_element(ctx, v) for v in values))
        kw = {k: v if k == "variant" else braidreps.parse_element(ctx, v)
              for k, v in extra.items()}
        specs[name] = braidreps.RepSpec(dim=dim, params=X, **kw)
    calls = {}
    for name in BUILDS:
        calls["build_rep." + name] = lambda spec=specs[name]: braidreps.build_rep(spec)
    for name in REPORTS:
        rep = braidreps.build_rep(specs[name])
        calls["spectral_report." + name] = lambda rep=rep: braidreps.spectral_report(rep)
    payload = verify_payload(braidreps, ["--params", "[1, 2, 3, 4, 5]", "--dim", "6",
                                         "--variant", "1"])
    calls["canonical_dumps.verify.d6"] = lambda: braidreps.serialize.canonical_dumps(payload)
    a, b = (braidreps.parse_element(contexts["zeta5"], v) for v in OPERANDS)
    calls["field.mul.zeta5"] = lambda: a * b
    calls["field.add.zeta5"] = lambda: a + b
    return calls


def verify_payload(braidreps, argv) -> dict:
    """The payload that ``verify`` hands to ``canonical_dumps`` for argv."""
    import braidreps.cli as cli

    payloads, real = [], cli.canonical_dumps
    cli.canonical_dumps = lambda payload: payloads.append(payload) or ""
    try:
        if cli.main(["verify", *argv]) != 0:
            raise RuntimeError(f"verify {argv} failed")
    finally:
        cli.canonical_dumps = real
    return payloads[0]


def sample(call) -> float:
    """Scaled milliseconds per call over NUMBER calls in a row."""
    before = kernel()
    start = perf_counter()
    for _ in range(NUMBER):
        call()
    seconds = perf_counter() - start
    return scale(seconds, before, kernel()) * 1e3 / NUMBER


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_ms": round(median, 4), "q1_ms": round(q1, 4), "q3_ms": round(q3, 4),
            "spread": round((q3 - q1) / median, 4)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the directory braidreps is imported from")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(args.src.resolve()))
    import braidreps

    out = {"braidreps": braidreps.__file__, "python": platform.python_version(),
           "machine": platform.machine(), "ref_s": REF_S, "repeats": REPEATS,
           "number": NUMBER, "layers": {}}
    for name, call in layers(braidreps).items():
        call()  # warm
        samples = [sample(call) for _ in range(REPEATS)]
        out["layers"][name] = summary(samples)
        print(name, out["layers"][name]["median_ms"], "ms", flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
