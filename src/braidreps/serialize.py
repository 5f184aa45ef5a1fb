"""Exact JSON encodings for reports and the parsing of CLI inputs.

Every mathematical value crosses the JSON boundary as a string in exact
form: base rationals as "p/q" (or "p"), extension elements as coefficient
lists "[c0, c1, ...]" in ascending powers of the generator.  Plain JSON
integers are reserved for structural data (dimensions, counts, indices).
Map keys are emitted sorted so identical inputs give byte-identical
reports.  The JSON names of each report are stated once, in :func:`encode`.
:func:`canonical_dumps` writes the layout of ``json.dumps(obj,
sort_keys=True, indent=2)`` byte for byte, without the pure-Python encoder
that ``json`` falls back to for an indent, for exactly the types
:func:`encode` returns.
"""

from __future__ import annotations

import re
from dataclasses import fields
from fractions import Fraction
# not an encode_* name: bench/tracing.py times each of those as serialize.encode
from json.encoder import encode_basestring_ascii as _quoted

from .analysis import CensusEntry, CensusReport, PredicateValue, Witness
from .field import FieldContext, FieldElement, TooLarge, rationals
from .linalg import Matrix
from .poly import Polynomial
from .reps import DeferredRoot, Representation, RepSpec
from .spectral import SpectralReport

__all__ = [
    "encode_rational",
    "parse_rational",
    "encode_element",
    "parse_element",
    "parse_modulus",
    "context_from_spec",
    "encode",
    "canonical_dumps",
]


def encode_rational(value: Fraction) -> str:
    return _encode_ratio(value.numerator, value.denominator)


def _encode_ratio(num: int, den: int) -> str:
    """The reduced num / den, den > 0, as "num/den", or "num" for den = 1."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise TooLarge() from None


_RATIONAL_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(-?\d+)\s*)?$")


def parse_rational(text) -> Fraction:
    if isinstance(text, bool):  # a JSON true or false, though bool is an int
        raise ValueError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    m = _RATIONAL_RE.match(str(text))
    if m is None:
        raise ValueError(f"not a rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def encode_element(e: FieldElement) -> str:
    if e.is_rational():
        return _encode_ratio(e.num[0], e.den)
    return "[" + ", ".join(encode_rational(c) for c in e.coeffs) + "]"


def parse_element(ctx: FieldContext, obj) -> FieldElement:
    """Accepts "p/q", an int, "[c0, c1, ...]" or a JSON list of coefficients."""
    if isinstance(obj, str) and obj.strip().startswith("["):
        text = obj.strip()
        if not text.endswith("]"):
            raise ValueError(f"unbalanced brackets: {obj!r}")
        inner = text[1:-1].strip()
        parts = [p for p in inner.split(",") if p.strip()] if inner else []
        coeffs = [parse_rational(p) for p in parts]
        return ctx.element(coeffs)
    if isinstance(obj, (list, tuple)):
        return ctx.element([parse_rational(c) for c in obj])
    return ctx.from_rational(parse_rational(obj))


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:(?P<coeff>\d+(?:\s*/\s*\d+)?)\s*\*?\s*)?"
    r"(?P<var>t(?:\s*\^\s*(?P<exp>\d+))?)?"
)


_MAX_DEGREE = 64  # FieldContext's reduction table grows with the square of it


def _bounded_degree(degree: int) -> int:
    if degree > _MAX_DEGREE:
        raise ValueError(f"modulus degree {degree} is above the bound {_MAX_DEGREE}")
    return degree


def parse_modulus(spec) -> tuple[Fraction, ...]:
    """Modulus from "t^2-24"-style text or a JSON coefficient list (ascending),
    its degree bounded before any coefficient list is built."""
    if isinstance(spec, (list, tuple)):
        _bounded_degree(len(spec) - 1)
        return tuple(parse_rational(c) for c in spec)
    text = str(spec).strip()
    coeffs: dict[int, Fraction] = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"cannot parse modulus near {text[pos:]!r}")
        if m.group("sign") is None and not first:
            raise ValueError(f"missing +/- before {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coeff = (
            parse_rational(m.group("coeff").replace(" ", ""))
            if m.group("coeff")
            else Fraction(1)
        )
        if m.group("var"):
            exp = _bounded_degree(int(m.group("exp"))) if m.group("exp") else 1
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coeff
        pos = m.end()
        first = False
    degree = max(coeffs)
    return tuple(coeffs.get(k, Fraction(0)) for k in range(degree + 1))


def context_from_spec(spec) -> FieldContext:
    """Field context from a modulus expression, coefficient list, or None (Q)."""
    if spec is None:
        return rationals()
    return FieldContext(parse_modulus(spec))


def _spec(s: RepSpec) -> dict:
    out = {"dim": s.dim, "X": [encode_element(v) for v in s.params.values]}
    for key in ("h", "f", "variant", "subset"):
        if (value := getattr(s, key)) is not None:
            out[key] = encode(value)
    return out


def _predicate(p: PredicateValue) -> dict:
    out = {"name": p.name, "family": p.family, "indices": list(p.indices),
           "value": encode_element(p.value), "zero": p.is_zero, "quantified": p.quantified}
    if p.subset is not None:
        out["subset"] = list(p.subset)
    if p.affects_variant is not None:
        out["affects_variant"] = p.affects_variant
    return out


def _witness(w: Witness) -> dict:
    out = {"Y": list(w.index_set), "complement_found": w.complement_found}
    if w.extra_line is not None:
        out["line"] = encode(w.extra_line)
    return out


def _census(r: CensusReport) -> dict:
    return {"mode": r.mode, "algebra_dim": r.algebra_dim, "sum_of_squares": r.sum_of_squares,
            "semisimple_verdict": r.semisimple_verdict, "failing": encode(r.failing_predicates),
            "entries": encode(r.entries), "deferred": encode(r.deferred)}


def _fields(obj) -> dict:
    """A report under its own field names (a SpectralReport's checks aside)."""
    return {name: encode(getattr(obj, name)) for name in _FIELDS[type(obj)]}


_FIELDS = {cls: tuple(f.name for f in fields(cls) if f.name != "checks")
           for cls in (SpectralReport, Representation, CensusEntry, DeferredRoot)}

_ENCODERS = {
    **dict.fromkeys((int, bool, str, type(None)), lambda x: x),
    **dict.fromkeys((list, tuple), lambda xs: [encode(x) for x in xs]),
    dict: lambda d: {key: encode(v) for key, v in d.items()},
    FieldElement: encode_element,
    Polynomial: lambda p: [encode_element(c) for c in p.coeffs],
    Matrix: lambda m: {"rows": m.rows, "cols": m.cols,
                       "entries": [encode_element(e) for e in m.entries]},
    FieldContext: lambda ctx: {"modulus": [encode_rational(c) for c in ctx.modulus]},
    RepSpec: _spec,
    PredicateValue: _predicate,
    Witness: _witness,
    CensusReport: _census,
    SpectralReport: lambda r: {**_fields(r), "checks": dict(r.checks)},
    **dict.fromkeys((Representation, CensusEntry, DeferredRoot), _fields),
}


def encode(obj):
    """The JSON form of a value or a report, chosen by its type.

    Field elements, polynomials, matrices and contexts become exact strings;
    lists, tuples and dicts are encoded item by item.  RepSpec ("X"),
    PredicateValue ("name", "zero"), Witness ("Y", "line") and CensusReport
    ("failing") are written out above, the first three leaving out fields
    that are None; every other report keeps its field names.  An unknown
    type raises :class:`TypeError`.
    """
    try:
        encoder = _ENCODERS[type(obj)]
    except KeyError:
        raise TypeError(f"cannot encode a {type(obj).__name__}") from None
    return encoder(obj)


def _write(obj, indent: str, out: list) -> None:
    """Append the text of ``obj`` nested at ``indent`` to ``out``."""
    kind = type(obj)
    if kind is str:
        out.append(_quoted(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif kind is dict or kind is list or kind is tuple:
        if not obj:
            out.append("{}" if kind is dict else "[]")
            return
        inner = indent + "  "
        sep, comma = "\n" + inner, ",\n" + inner  # before the first item, the others
        if kind is dict:  # a key that is not a str raises TypeError
            out.append("{")
            for key, value in sorted(obj.items()):
                out.append(sep + _quoted(key) + ": ")
                _write(value, inner, out)
                sep = comma
            out.append("\n" + indent + "}")
        else:
            out.append("[")
            for value in obj:
                out.append(sep)
                _write(value, inner, out)
                sep = comma
            out.append("\n" + indent + "]")
    else:
        raise TypeError(f"cannot write a {kind.__name__}")


def canonical_dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` and a newline, written
    directly for the types :func:`encode` returns."""
    out: list[str] = []
    _write(obj, "", out)
    out.append("\n")
    return "".join(out)
