"""Canonical JSON encoding: exact strings in, exact strings out."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from braidreps import (
    FieldContext,
    Matrix,
    ParameterSet,
    RepSpec,
    build_rep,
    canonical_dumps,
    charpoly,
    context_from_spec,
    cyclotomic5_context,
    dimension_census,
    encode,
    encode_element,
    encode_rational,
    irreducibility,
    parse_element,
    parse_modulus,
    parse_rational,
    rationals,
    rep_predicates,
    spectral_report,
)

Q = rationals()

# what encode returns: str, int, bool and None in lists, tuples and dicts
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(10**50), max_value=10**50) | st.text(),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20,
)


class TestRationals:
    def test_integers_have_no_denominator(self):
        assert encode_rational(Fraction(5)) == "5"
        assert encode_rational(Fraction(-7)) == "-7"

    def test_fractions(self):
        assert encode_rational(Fraction(3, 2)) == "3/2"
        assert encode_rational(Fraction(-32, 15)) == "-32/15"

    def test_parse_round_trip(self):
        for text in ("5", "-7", "3/2", " -32/15 ", "0"):
            assert encode_rational(parse_rational(text)) == text.strip()

    def test_parse_rejects_junk(self):
        for bad in ("1.5", "a/b", "1/2/3", ""):
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_parse_rejects_booleans(self):
        # a JSON true or false is a bool, which Python counts as an int
        ctx = FieldContext([-24, 0, 1])
        for bad in (True, False):
            with pytest.raises(ValueError, match="not a rational"):
                parse_rational(bad)
            with pytest.raises(ValueError, match="not a rational"):
                parse_element(Q, bad)
            with pytest.raises(ValueError, match="not a rational"):
                parse_element(ctx, [1, bad])


class TestElements:
    def test_base_field_uses_plain_strings(self):
        assert encode_element(Q.from_rational(Fraction(3, 2))) == "3/2"

    def test_extension_uses_coefficient_lists(self):
        ctx = FieldContext([-24, 0, 1])
        t = ctx.generator()
        assert encode_element(5 + 2 * t) == "[5, 2]"
        # Rational values collapse to plain form in any context.
        assert encode_element(ctx.from_rational(7)) == "7"

    def test_parse_element_accepts_both_shapes(self):
        ctx = FieldContext([-24, 0, 1])
        assert parse_element(ctx, "[5, 2]") == 5 + 2 * ctx.generator()
        assert parse_element(ctx, "7") == ctx.from_rational(7)
        assert parse_element(Q, "3/2") == Q.from_rational(Fraction(3, 2))
        assert parse_element(ctx, [5, 2]) == 5 + 2 * ctx.generator()

    def test_parse_element_rejects_unbalanced_brackets(self):
        ctx = FieldContext([-24, 0, 1])
        for bad in ("[1,23", "[1, 2", "["):
            with pytest.raises(ValueError, match="unbalanced"):
                parse_element(ctx, bad)

    def test_round_trip(self):
        ctx = cyclotomic5_context()
        z = ctx.generator()
        elem = 2 * z ** 3 - z + ctx.from_rational(Fraction(1, 3))
        assert parse_element(ctx, encode_element(elem)) == elem


class TestModulus:
    def test_expression_form(self):
        assert parse_modulus("t^2-24") == (Fraction(-24), Fraction(0), Fraction(1))
        assert parse_modulus("t^4+t^3+t^2+t+1") == (Fraction(1),) * 5

    def test_list_form(self):
        assert parse_modulus([-24, 0, 1]) == (Fraction(-24), Fraction(0), Fraction(1))

    def test_context_from_spec(self):
        assert context_from_spec(None) == Q
        assert context_from_spec("t^2-24") == FieldContext([-24, 0, 1])

    def test_bad_expressions(self):
        for bad in ("t^2 24", "x^2-1", "t**2-1"):
            with pytest.raises(ValueError):
                parse_modulus(bad)

    def test_degree_bound(self):
        assert len(parse_modulus("t^64-2")) == 65
        assert len(parse_modulus([1] * 65)) == 65
        for bad in ("t^65", "t^1000", "t^64 + t^1000 - 2", [1] * 66):
            with pytest.raises(ValueError, match="above the bound 64"):
                parse_modulus(bad)


class TestStructures:
    def test_matrix_encoding_is_flat_row_major(self):
        m = Matrix.from_rows(Q, [[1, 2], [3, 4]])
        enc = encode(m)
        assert enc == {"rows": 2, "cols": 2, "entries": ["1", "2", "3", "4"]}

    def test_spec_encoding(self):
        spec = RepSpec(
            dim=4,
            params=ParameterSet.from_rationals(Q, [1, 2, 3, 6]),
            h=Q.from_rational(6),
        )
        enc = encode(spec)
        assert enc["dim"] == 4
        assert enc["X"] == ["1", "2", "3", "6"]
        assert enc["h"] == "6"
        assert "f" not in enc and "variant" not in enc

    def test_rep_encoding_holds_matrices(self):
        rep = build_rep(RepSpec(dim=2, params=ParameterSet.from_rationals(Q, [1, 2])))
        enc = encode(rep)
        assert enc["g2"]["entries"] == ["4", "2", "-3", "-1"]
        assert enc["multiplicities"] == [1, 1]


def _json_native(value) -> bool:
    if isinstance(value, dict):
        return all(isinstance(k, str) and _json_native(v) for k, v in value.items())
    if isinstance(value, list):
        return all(_json_native(v) for v in value)
    return value is None or isinstance(value, (str, int, bool))


class TestEncode:
    @pytest.mark.parametrize("obj", [object(), Fraction(1, 2), {"X": [1, Fraction(1, 2)]}],
                             ids=["object", "Fraction", "nested-Fraction"])
    def test_unsupported_objects_raise(self, obj):
        with pytest.raises(TypeError, match="cannot encode a (object|Fraction)"):
            encode(obj)

    def test_every_printed_report_is_json_native(self):
        ctx = FieldContext([-24, 0, 1])
        reducible = build_rep(RepSpec(dim=3, params=ParameterSet.from_rationals(Q, [2, 1, -4])))
        line = build_rep(RepSpec(dim=6, params=ParameterSet.from_rationals(
            Q, [2, 3, -1, Fraction(1, 6), 1]), variant=5))
        generic = build_rep(RepSpec(dim=4, params=ParameterSet.from_rationals(ctx, [1, 2, 3, 4]),
                                    h=ctx.generator()))
        witnesses = [irreducibility(r)[1] for r in (reducible, line)]
        assert witnesses[1].extra_line is not None
        # a census with entries and one deferred root: e5 = 120 has no
        # fifth root over Q
        census = dimension_census(ParameterSet.from_rationals(Q, [1, 2, 3, 4, 5]))
        assert census.entries and census.deferred
        objects = [ctx, generic.g2, charpoly(generic.g2), generic.spec, generic,
                   spectral_report(generic), rep_predicates(generic)[0],
                   rep_predicates(line)[0], *witnesses, None, census,
                   dimension_census(ParameterSet.from_rationals(Q, [2, 1, -4]))]
        for obj in objects:
            enc = encode(obj)
            assert _json_native(enc), type(obj).__name__
            assert json.loads(json.dumps(enc)) == enc


class TestCanonicalDumps:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_dumps({"b": 1, "a": [2, 3]})
        assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'

    def test_byte_stability(self):
        payload = {"z": "9/2", "m": {"k": ["1", "2"]}, "a": 600}
        assert canonical_dumps(payload) == canonical_dumps(payload)

    @settings(max_examples=300, deadline=None)
    @given(_JSON)
    @example({})
    @example([])
    @example({"": [], "a": {}, "b": ((), [{}])})
    @example({"\u00e9\u4e2d\U0001f600": ["\x00\x1f\x7f", '"', "\\", "\n\t\u2028"]})
    @example([-(10**60), -1, 0, 10**40])
    @example([True, 1, False, 0, None, "1", "true"])
    @example({"x": True, "y": 1})
    def test_writes_the_layout_of_json_dumps(self, value):
        assert canonical_dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("value", [Fraction(1, 2), 0.5, Q.one(), {"a": [1, 1.5]},
                                       [(Fraction(3),)], {"k": Q.from_rational(2)}])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            canonical_dumps(value)
