"""Differential replay: the same seeded CLI calls at a base revision and here.

Generates ``build``, ``verify``, ``irred`` and ``semisimple`` calls over the
reducible moduli t^2-1 and t^3-t.  Each eigenvalue is drawn as its images on
the factors of the modulus (its values at the roots): small rationals, with
set rates of vanishing on a factor and of meeting an earlier eigenvalue
there.  A dimension-4 or -5 call draws its root h or f the same way and
solves the last eigenvalue for h^2 = e4 or f^5 = e5 on every factor where
the others are nonzero.  One such call in four leaves the root out, so the
CLI looks for it in the context, and one call in ten of ``build``, ``verify``
and ``irred`` names a ``--dim`` that takes another number of eigenvalues.
One call in ten draws a rational set: each eigenvalue, and the root, takes
the same value on every factor, so the CLI's root search over t^3-t meets a
rational e4 or e5.

The calls run through ``braidreps.cli.main`` once at the base revision,
exported with ``git archive`` into a temporary directory, and once at the
working tree, each in its own interpreter.  The script prints how many calls
gave the same bytes (exit code, stdout and stderr), went from exit 2 to an
answer, from an answer to exit 2, or changed otherwise, and exits 1 when
either of the last two counts is nonzero.

    python3 scripts/replay.py --calls 400 --seed 1 --base HEAD
    python3 scripts/replay.py --calls 20 --base-dir .   # the tree against itself
"""

import argparse
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from fractions import Fraction
from math import prod
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONTEXTS = {"t^2-1": (1, -1), "t^3-t": (0, 1, -1)}  # modulus: its roots
COMMANDS = ("build", "verify", "irred", "semisimple")
P_ZERO, P_MEET = 0.05, 0.1  # per eigenvalue and factor
P_NO_ROOT, P_WRONG_DIM = 0.25, 0.1  # per d = 4 or 5 call; per build, verify, irred
P_RATIONAL = 0.1  # per call: the same eigenvalues and root on every factor
ROOTS = {4: ("h", 2), 5: ("f", 5)}  # the root a dimension takes, and its order

# Runs the JSON list of argv on stdin through one tree's cli.main.
RUNNER = """
import contextlib, io, json, sys
import braidreps
from braidreps.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = "raised " + type(exc).__name__
    results.append([code, out.getvalue(), err.getvalue()])
json.dump({"module": braidreps.__file__, "results": results}, sys.stdout)
"""


def _small(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def _image(rng, j: int, drawn: list) -> Fraction:
    """One eigenvalue's image on factor j: zero, an earlier one's, or small."""
    u = rng.random()
    if u < P_ZERO:
        return Fraction(0)
    if u < P_ZERO + P_MEET and drawn:
        return rng.choice(drawn)[j]
    return _small(rng)


def _element(values, roots) -> str:
    """The element taking values[j] at roots[j], as "[c0,c1,...]"."""
    coeffs = [Fraction(0)] * len(roots)
    for j, (v, rj) in enumerate(zip(values, roots)):
        basis = [Fraction(1)]  # the Lagrange polynomial of root j
        for k, rk in enumerate(roots):
            if k != j:
                basis = [(a - rk * b) / (rj - rk)
                         for a, b in zip([Fraction(0)] + basis, basis + [Fraction(0)])]
        coeffs = [c + v * b for c, b in zip(coeffs, basis)]
    return "[" + ",".join(str(c) for c in coeffs) + "]"


def generate(calls: int, seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    out = []
    for _ in range(calls):
        modulus, roots = rng.choice(list(CONTEXTS.items()))
        command = rng.choice(COMMANDS)
        dim = rng.randint(1, 5) if command == "semisimple" else rng.randint(1, 6)
        # a rational set draws the image on one factor and repeats it
        factors = 1 if rng.random() < P_RATIONAL else len(roots)
        repeat = len(roots) // factors
        images: list[list[Fraction]] = []
        for _ in range(min(dim, 5)):
            images.append([_image(rng, j, images) for j in range(factors)] * repeat)
        options = []
        if command == "semisimple":
            if rng.random() < 0.25:
                options = ["--mode", "constructive"]
        elif dim in ROOTS:
            name, order = ROOTS[dim]
            root = [_small(rng) for _ in range(factors)] * repeat
            for j, r in enumerate(root):
                rest = prod(x[j] for x in images[:-1])
                if rest:
                    images[-1][j] = r**order / rest
            if rng.random() >= P_NO_ROOT:
                options = [f"--{name}={_element(root, roots)}"]
        elif dim == 6:
            options = ["--dim", "6", "--variant", str(rng.randint(1, 5))]
        if command != "semisimple" and rng.random() < P_WRONG_DIM:
            wrong = [d for d in range(1, 7) if min(d, 5) != len(images)]
            options = ["--dim", str(rng.choice(wrong))]
        params = json.dumps([_element(x, roots) for x in images])
        out.append([command, "--context", modulus, "--params", params, *options])
    return out


def run(tree: Path, calls: list) -> list:
    """Each call's [exit code, stdout, stderr] through the cli of ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(calls),
                          capture_output=True, text=True, env=env, check=True)
    report = json.loads(proc.stdout)
    if not Path(report["module"]).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"{tree} imported braidreps from {report['module']}")
    return report["results"]


def export(revision: str, dest) -> Path:
    """The files of ``revision`` (``git archive``) extracted into ``dest``."""
    archive = subprocess.run(["git", "archive", revision], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return Path(dest)


def classify(base, new) -> str:
    if base == new:
        return "same bytes"
    if base[0] == 2 and new[0] == 0:
        return "exit 2 -> answer"
    if base[0] == 0 and new[0] == 2:
        return "answer -> exit 2"
    return "other"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--calls", type=int, default=400)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--base", default="HEAD", help="git revision to compare against")
    ap.add_argument("--base-dir", type=Path,
                    help="a source tree to compare against instead of --base")
    args = ap.parse_args()

    calls = generate(args.calls, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        if args.base_dir is not None:
            base_tree, label = args.base_dir, str(args.base_dir)
        else:
            base_tree, label = export(args.base, tmp), args.base
        counts, codes = Counter(), Counter()
        for argv, base, new in zip(calls, run(base_tree, calls), run(ROOT, calls)):
            kind = classify(base, new)
            counts[kind] += 1
            codes[new[0]] += 1
            if kind != "same bytes":
                print(f"{kind}: {json.dumps(argv)}")
    print(f"{len(calls)} calls (seed {args.seed}), {label} against the working tree")
    print("exit codes here: " + ", ".join(f"{c}: {n}" for c, n in sorted(codes.items(), key=str)))
    for kind in ("same bytes", "exit 2 -> answer", "answer -> exit 2", "other"):
        print(f"{kind}: {counts[kind]}")
    return 1 if counts["answer -> exit 2"] or counts["other"] else 0


if __name__ == "__main__":
    sys.exit(main())
