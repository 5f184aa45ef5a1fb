"""Command line front end for constructing and analysing representations.

Subcommands: build, verify, irred, semisimple, eval, scan.  All reports are
canonical JSON on stdout (sorted keys, exact string-encoded values), so
identical inputs produce byte-identical output.  Exit codes: 0 when the
requested analysis completed consistently (a "reducible" or "not
semisimple" verdict is still 0), 1 when a mathematical identity that must
hold was violated (the failing identity is named on stderr), 2 for input
errors, for a result too long to print exactly and for an --output path
that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from math import prod
from multiprocessing import Pool

from .analysis import (
    CensusMismatch,
    dimension_census,
    irreducibility,
    rep_predicates,
    semisimplicity,
)
from .braidword import WordSyntaxError, evaluate, parse
from .field import NotInvertible, TooLarge, element_kth_roots
from .reps import (
    TAKES,
    BadSpec,
    ConstructionFailed,
    MissingRoot,
    ParameterSet,
    RepSpec,
    build_rep,
)
from .serialize import canonical_dumps, context_from_spec, encode, encode_element, parse_element
from .spectral import NotScalar, spectral_report

__all__ = ["main"]


class InputError(Exception):
    """Bad user input; reported on stderr with exit code 2."""


class CheckFailure(Exception):
    """A mathematical identity that must hold was violated (exit code 1)."""


def _load_job(args) -> dict:
    """Merge an optional @file JobConfig with command line flags (flags win)."""
    job: dict = {}
    if args.params:
        text = args.params
        if text.startswith("@"):
            try:
                with open(text[1:], "r", encoding="utf-8") as fh:
                    loaded = json.load(fh)
            except (OSError, ValueError) as exc:  # JSONDecodeError, or over 4300 digits
                raise InputError(f"cannot read params file: {exc}")
        else:
            try:
                loaded = json.loads(text)
            except ValueError as exc:
                raise InputError(f"bad inline params: {exc}")
        if isinstance(loaded, list):
            job["X"] = loaded
        elif isinstance(loaded, dict):
            job.update(loaded)
        else:
            raise InputError("params must be a JSON list or object")
    for key in ("context", "dim", "h", "f", "variant", "mode", "jobs"):
        val = getattr(args, key, None)
        if val is not None:
            job[key] = val
    words = getattr(args, "words", None)
    if words:
        job["words"] = words
    return job


def _context(job):
    try:
        return context_from_spec(job.get("context"))
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad context: {exc}")


def _int_option(job, key: str, default: int) -> int:
    """An integer job field (a JSON integer or a string of digits)."""
    val = job.get(key)
    if val is None:
        return default
    if isinstance(val, (int, str)) and not isinstance(val, bool):
        try:
            return int(val)
        except ValueError:
            pass
    raise InputError(f"bad {key}: {val!r}")


def _parameter_set(ctx, job) -> ParameterSet:
    xs = job.get("X")
    if not xs:
        raise InputError("no parameters given (use --params)")
    if not isinstance(xs, list):
        raise InputError(f"parameters must be a JSON list, got {xs!r}")
    if len(xs) >= 6:
        raise InputError(
            f"{len(xs)} eigenvalues given; the quotient algebra is only "
            "finite dimensional for at most 5"
        )
    try:
        return ParameterSet(tuple(parse_element(ctx, x) for x in xs))
    except (ValueError, BadSpec) as exc:
        raise InputError(f"bad parameters: {exc}")


def _given_root(job, ctx, key: str):
    try:
        return parse_element(ctx, job[key])
    except ValueError as exc:
        raise InputError(f"bad {key}: {exc}")


def _resolve_specs(job, ctx, X, every_variant=False) -> list[RepSpec]:
    """The specs a job names: for a dimension that takes a root given none,
    one per root of e_d(X) in the context, and for one that takes a variant
    given none, every variant or the last (X in its given order).  RepSpec
    rejects a wrong number of eigenvalues before any root is sought, and any
    option its dimension does not take."""
    dim = _int_option(job, "dim", len(X))
    takes, count = TAKES.get(dim, (None, 1))
    given = {key: _given_root(job, ctx, key) for key in ("h", "f") if job.get(key) is not None}
    if job.get("variant") is not None:
        variants = (_int_option(job, "variant", count),)
    elif takes == "variant":
        variants = range(1, count + 1) if every_variant else (count,)
    else:
        variants = (None,)
    try:
        try:
            return [RepSpec(dim=dim, params=X, variant=v, **given) for v in variants]
        except MissingRoot:  # the count is right: seek the root in the context
            target = prod(X.values)
            roots = element_kth_roots(target, count)
            if not roots:
                word = ("square", "cube", "fourth", "fifth")[count - 2]
                raise InputError(f"e{dim} = {encode_element(target)} has no {word} root "
                                 "in this context; extend the modulus")
            return [RepSpec(dim=dim, params=X, variant=v, **given, **{takes: r})
                    for r in roots for v in variants]
    except (BadSpec, MissingRoot) as exc:
        raise InputError(str(exc))


def _single_rep(job):
    """Context and the one representation a single-rep command works on."""
    ctx = _context(job)
    X = _parameter_set(ctx, job)
    return ctx, build_rep(_resolve_specs(job, ctx, X)[0])


def _cmd_build(args):
    job = _load_job(args)
    ctx = _context(job)
    X = _parameter_set(ctx, job)
    reps = [build_rep(s) for s in _resolve_specs(job, ctx, X, every_variant=True)]
    return {"command": "build", "context": encode(ctx), "reps": encode(reps)}


def _cmd_verify(args):
    ctx, rep = _single_rep(_load_job(args))
    # build_rep has proved the braid relation and minpoly(g2) = P_X, so
    # P_X(g2) = 0 (see reps._self_check); the spectral identities are left
    report = spectral_report(rep)
    out = {
        "command": "verify",
        "context": encode(ctx),
        "spec": encode(rep.spec),
        "braid_relation_ok": True,
        "generator_relation_ok": True,
        "minpoly_ok": True,
        "spectral": encode(report),
        "all_ok": report.all_ok,
    }
    if not report.all_ok:
        failed = [name for name, ok in report.checks if not ok]
        raise CheckFailure("verification failed: " + ", ".join(failed))
    return out


def _cmd_irred(args):
    ctx, rep = _single_rep(_load_job(args))
    preds, relevant = rep_predicates(rep)
    # 0 iff on every factor of the modulus some predicate vanishes
    predicate_verdict = bool(prod(p.value for p in relevant))
    oracle, witness = irreducibility(rep)
    out = {
        "command": "irred",
        "context": encode(ctx),
        "spec": encode(rep.spec),
        "predicates": encode(preds),
        "predicate_verdict_irreducible": predicate_verdict,
        "oracle_irreducible": oracle,
        "verdicts_agree": predicate_verdict == oracle,
        "witness": encode(witness),
        # the witness search already ran the complement check
        "decomposable": None if witness is None else witness.complement_found,
    }
    if predicate_verdict != oracle:
        zeros = ", ".join(p.name for p in relevant if p.is_zero) or "none"
        raise CheckFailure(
            "predicate/oracle disagreement: oracle says "
            f"{'irreducible' if oracle else 'reducible'}, vanishing predicates: {zeros}"
        )
    return out


def _cmd_semisimple(args):
    job = _load_job(args)
    mode = job.get("mode", "combinatorial")
    if mode not in ("combinatorial", "constructive"):
        raise InputError(f"unknown census mode {mode!r}")
    ctx = _context(job)
    X = _parameter_set(ctx, job)
    report = dimension_census(X, mode=mode)
    return {
        "command": "semisimple",
        "context": encode(ctx),
        "X": [encode_element(v) for v in X.values],
        "verdict": report.semisimple_verdict,
        "failing": encode(report.failing_predicates),
        "census": encode(report) if report.semisimple_verdict else None,
    }


def _cmd_eval(args):
    job = _load_job(args)
    ctx, rep = _single_rep(job)
    words = job.get("words")
    if not words:
        raise InputError("no words given (use --words)")
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise InputError(f'"words" must be a JSON list of strings, got {words!r}')
    results = []
    for text in words:
        try:
            w = parse(text)
        except WordSyntaxError as exc:
            raise InputError(f"bad word {text!r}: {exc}")
        m = evaluate(w, rep)
        results.append({"word": text, "matrix": encode(m), "trace": encode_element(m.trace())})
    return {
        "command": "eval",
        "context": encode(ctx),
        "spec": encode(rep.spec),
        "words": results,
    }


def _scan_point(task):
    index, ctx, values = task  # the values as JSON gave them, like --params
    X = ParameterSet(tuple(parse_element(ctx, v) for v in values))
    report = semisimplicity(X)
    return {
        "index": index,
        "X": [encode_element(v) for v in X.values],
        "verdict": report.semisimple_verdict,
        "failing": [p.name for p in report.failing_predicates],
    }


def _cmd_scan(args):
    job = _load_job(args)
    grid = job.get("grid")
    if grid is None:
        raise InputError('scan needs a "grid" of parameter sets in --params')
    if not isinstance(grid, list) or not all(isinstance(xs, list) for xs in grid):
        raise InputError('"grid" must be a JSON list of parameter lists')
    mode = job.get("mode", "semisimple")
    if mode != "semisimple":
        raise InputError(f"unsupported scan mode {mode!r}")
    ctx = _context(job)
    jobs = _int_option(job, "jobs", 1)
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1, len(grid))
    tasks = [(i, ctx, xs) for i, xs in enumerate(grid)]
    try:
        if jobs > 1:
            with Pool(processes=jobs) as pool:
                points = pool.map(_scan_point, tasks, chunksize=16)
        else:
            points = [_scan_point(t) for t in tasks]
    except (ValueError, BadSpec) as exc:
        raise InputError(f"bad grid point: {exc}")
    return {"command": "scan", "context": encode(ctx), "mode": mode, "points": points}


_COMMANDS = {
    "build": _cmd_build,
    "verify": _cmd_verify,
    "irred": _cmd_irred,
    "semisimple": _cmd_semisimple,
    "eval": _cmd_eval,
    "scan": _cmd_scan,
}


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every call."""
    parser = argparse.ArgumentParser(
        prog="braidreps",
        description="Exact representations of the braid quotient algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("build", "construct representations and emit their matrices"),
        ("verify", "braid relation, minimal polynomial and spectral report"),
        ("irred", "irreducibility: predicates, oracle, witness"),
        ("semisimple", "semisimplicity verdict and dimension census"),
        ("eval", "evaluate braid words in a representation"),
        ("scan", "semisimplicity verdicts over a grid of parameter sets"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--context", help='modulus, e.g. "t^2-24" (default: rationals)')
        p.add_argument("--params", help="JSON list of eigenvalues, or @file JobConfig")
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        if name in ("build", "verify", "irred", "eval"):
            p.add_argument("--dim", type=int, help="representation dimension (default |X|)")
            p.add_argument("--h", help="square root of e4 for dimension 4")
            p.add_argument("--f", help="fifth root of e5 for dimension 5")
            p.add_argument("--variant", type=int, help="dimension-6 variant (1..5)")
        if name == "eval":
            p.add_argument(
                "--words", action="append", help="braid word (repeatable)"
            )
        if name == "semisimple":
            p.add_argument(
                "--mode",
                choices=("combinatorial", "constructive"),
                help="census mode (default combinatorial)",
            )
        if name == "scan":
            p.add_argument("--jobs", type=int, help="worker processes (default 1)")
            p.add_argument("--mode", help="scan mode (only semisimple)")
    return parser


def _attach_root_values(argv: list[str]) -> list[str]:
    """Write "--h V" and "--f V" as "--h=V", so argparse reads V = -9/2 as a value."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--h", "--f") and tok[:1] == "-" and tok[:2] != "--":
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _make_parser().parse_args(_attach_root_values(argv))
    try:
        payload = _COMMANDS[args.command](args)
    except (InputError, TooLarge, NotInvertible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CheckFailure, ConstructionFailed, NotScalar, CensusMismatch) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    text = canonical_dumps(payload)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
