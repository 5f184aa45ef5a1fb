"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of ``braidreps`` from outside: each
wrapped call records a span (name, start, end, parent span, request id).
Because the package binds names with ``from .x import y``, a function is
replaced in every ``braidreps`` module that binds it, not only where it is
defined.  The hottest methods (matrix and field multiplication, field
inversion) are only counted, on their class.

Per-layer metrics are derived from the spans: ``.calls``; ``.s``, the total
time of the outermost spans of that name; and ``.self_s``, each span's
duration minus the time its child spans cover.  Counted operations have no
span, so their time is part of the caller's self time.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

# (span name, defining module, function name)
SPANS = [
    ("cli.main", "cli", "main"),
    ("serialize.parse_element", "serialize", "parse_element"),
    ("serialize.canonical_dumps", "serialize", "canonical_dumps"),
    ("reps.build_rep", "reps", "build_rep"),
    ("reps.enumerate_irreps", "reps", "enumerate_irreps"),
    ("spectral.spectral_report", "spectral", "spectral_report"),
    ("linalg.algebra_closure_dim", "linalg", "algebra_closure_dim"),
    ("linalg.charpoly", "linalg", "charpoly"),
    ("linalg.minpoly", "linalg", "minpoly"),
    ("linalg.kernel_basis", "linalg", "kernel_basis"),
    ("poly.resultant", "poly", "resultant"),
    ("field.element_kth_roots", "field", "element_kth_roots"),
    ("analysis.semisimplicity", "analysis", "semisimplicity"),
    ("analysis.evaluate_predicates", "analysis", "evaluate_predicates"),
    ("analysis.irreducible_oracle", "analysis", "irreducible_oracle"),
    ("analysis.invariant_subspace_witness", "analysis", "invariant_subspace_witness"),
    ("analysis.verify_witness", "analysis", "verify_witness"),
    ("analysis.decomposability_check", "analysis", "decomposability_check"),
    ("analysis.dimension_census", "analysis", "dimension_census"),
    ("analysis.character", "analysis", "character"),
    ("analysis.intertwiner_exists", "analysis", "intertwiner_exists"),
    ("braidword.evaluate", "braidword", "evaluate"),
]
# Matrix.power is a span too, patched on the class with the others below.
SPAN_NAMES = [s[0] for s in SPANS] + ["serialize.encode", "linalg.power"]
COUNT_NAMES = ["linalg.matmul", "field.mul", "field.inverse"]

# name -> (unit, better)
EXTRA = {
    "reps.build_rep.dim5_ms": ("ms", "lower"),
    "reps.build_rep.dim6_ms": ("ms", "lower"),
    "linalg.power.matmul_calls": ("count", "lower"),
    "linalg.power.exp1_calls": ("count", "lower"),
    "linalg.algebra_closure_dim.accept_ratio": ("ratio", "higher"),
    "linalg.algebra_closure_dim.max_bits": ("bits", "lower"),
    "analysis.witness.hit_ratio": ("ratio", "higher"),
    "serialize.max_bits": ("bits", "lower"),
    "serialize.output_bytes": ("bytes", "lower"),
    "scan.parallel_efficiency": ("ratio", "higher"),
    "trace.overhead_share": ("share", "lower"),
}


def layer_metrics() -> list[dict]:
    """The per-layer metrics of a traced run, in report order."""
    out = []
    for name in SPAN_NAMES:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.s", "unit": "s", "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name in COUNT_NAMES:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
    for name, (unit, better) in EXTRA.items():
        out.append({"name": name, "unit": unit, "better": better})
    return out


def _bits(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


_DIGITS = re.compile(r"\d+")


def output_bits(text: str) -> int:
    """Largest numerator or denominator bit length printed in ``text``."""
    return max((int(m).bit_length() for m in _DIGITS.findall(text)), default=0)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, request)
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = 0
        self.closure_bits = 0
        self.build_ms: dict[int, list] = {5: [], 6: []}
        self._patched: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        """Span wrapper; ``after(args, result, matmuls, seconds)`` sees the
        result, the matrix products made inside the call and its duration."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            before = counts["linalg.matmul"]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if after is not None:
                after(args, result, counts["linalg.matmul"] - before, end - start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_build(self, args, result, matmuls, seconds):
        if result.dim in self.build_ms:
            self.build_ms[result.dim].append(seconds * 1e3)

    def _after_power(self, args, result, matmuls, seconds):
        self.counts["linalg.power.matmul_calls"] += matmuls
        if args[1] == 1:
            self.counts["linalg.power.exp1_calls"] += 1

    def _after_closure(self, args, result, matmuls, seconds):
        dim, basis = result
        self.counts["closure.accepted"] += dim
        for m in basis:
            for e in m.entries:
                for c in e.coeffs:
                    self.closure_bits = max(self.closure_bits, _bits(c))

    def _after_witness(self, args, result, matmuls, seconds):
        if result is not None:
            self.counts["witness.found"] += 1

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the traced functions in every loaded ``braidreps`` module.
        A function the package no longer has is skipped: its figures read 0."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "braidreps" or n.startswith("braidreps."))]
        after = {
            "reps.build_rep": self._after_build,
            "linalg.algebra_closure_dim": self._after_closure,
            "analysis.invariant_subspace_witness": self._after_witness,
        }
        targets = []
        for name, mod, func in SPANS:
            fn = getattr(sys.modules[f"braidreps.{mod}"], func, None)
            if fn is not None:
                targets.append((fn, self._span(name, fn, after.get(name))))
        serialize = sys.modules["braidreps.serialize"]
        for func in sorted(vars(serialize)):
            if func.startswith("encode_"):
                fn = getattr(serialize, func)
                targets.append((fn, self._span("serialize.encode", fn)))
        for fn, wrapper in targets:
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._set(m, attr, wrapper)

        from braidreps.field import FieldElement
        from braidreps.linalg import Matrix

        self._set(Matrix, "__matmul__", self._count("linalg.matmul", Matrix.__matmul__))
        self._set(Matrix, "power", self._span("linalg.power", Matrix.power, self._after_power))
        mul = self._count("field.mul", FieldElement.__mul__)
        self._set(FieldElement, "__mul__", mul)
        self._set(FieldElement, "__rmul__", mul)
        self._set(FieldElement, "inverse", self._count("field.inverse", FieldElement.inverse))
        # Every accepted closure matrix queues one product per generator, so
        # products formed is a fixed multiple of the basis; the waste shows in
        # the candidates reduced against the basis, one per reduction.
        linalg = sys.modules["braidreps.linalg"]
        if hasattr(linalg, "_reduce_vector"):
            self._set(linalg, "_reduce_vector",
                      self._count("closure.candidates", linalg._reduce_vector))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures over everything recorded."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, total, self_s = Counter(), Counter(), Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total[name] += dur
        out = {}
        c = self.counts
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in COUNT_NAMES + ["linalg.power.matmul_calls", "linalg.power.exp1_calls"]:
            out[f"{name}.calls" if name in COUNT_NAMES else name] = c[name]
        for d, samples in self.build_ms.items():
            out[f"reps.build_rep.dim{d}_ms"] = statistics.median(samples) if samples else 0.0
        out["linalg.algebra_closure_dim.accept_ratio"] = (
            c["closure.accepted"] / c["closure.candidates"] if c["closure.candidates"] else 0.0)
        out["linalg.algebra_closure_dim.max_bits"] = self.closure_bits
        verified = calls["analysis.verify_witness"]
        out["analysis.witness.hit_ratio"] = c["witness.found"] / verified if verified else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
