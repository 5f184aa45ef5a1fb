"""Braid word grammar, reduction, and evaluation in representations."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidreps import (
    MAX_FACTORS,
    BraidWord,
    FieldContext,
    Matrix,
    ParameterSet,
    RepSpec,
    WordSyntaxError,
    build_rep,
    evaluate,
    format_word,
    parse,
    rationals,
)
from braidreps.field import TooLarge
from conftest import free_reduce

Q = rationals()


def rep_at(*vals):
    v = [Fraction(x) for x in vals]
    return build_rep(RepSpec(dim=len(v), params=ParameterSet.from_rationals(Q, v)))


_factors = st.lists(
    st.tuples(st.sampled_from(["s1", "s2"]),
              st.integers(min_value=-4, max_value=4).filter(lambda e: e != 0)),
    min_size=0, max_size=8,
)


class TestParsing:
    def test_simple_words(self):
        assert parse("s1 s2").factors == (("s1", 1), ("s2", 1))
        assert parse("s1^3").factors == (("s1", 3),)
        assert parse("s2^-2 s1").factors == (("s2", -2), ("s1", 1))

    def test_empty_is_identity(self):
        assert parse("").factors == ()
        assert parse("   ").factors == ()

    def test_macros_stay_symbolic(self):
        assert parse("a b^2 c").factors == (("a", 1), ("b", 2), ("c", 1))

    def test_groups_expand(self):
        assert parse("(s1 s2)^2").factors == (("s1", 1), ("s2", 1), ("s1", 1), ("s2", 1))

    def test_negative_group_reverses(self):
        assert parse("(s1 s2)^-1").factors == (("s2", -1), ("s1", -1))
        assert parse("(s1 s2^2)^-2").factors == (
            ("s2", -2), ("s1", -1), ("s2", -2), ("s1", -1))

    def test_exponent_on_singleton_multiplies(self):
        assert parse("(s1^2)^3").factors == (("s1", 6),)

    def test_error_positions(self):
        with pytest.raises(WordSyntaxError) as e:
            parse("s1 $ s2")
        assert e.value.position == 3
        assert parse("s1 ^2") == parse("s1^2")  # whitespace around '^' is free
        with pytest.raises(WordSyntaxError) as e:
            parse("^2 s1")
        assert e.value.position == 0
        with pytest.raises(WordSyntaxError) as e:
            parse("(s1 s2")
        assert e.value.position == 6
        with pytest.raises(WordSyntaxError) as e:
            parse("s1) s2")
        assert e.value.position == 2
        with pytest.raises(WordSyntaxError):
            parse("s1^0")
        with pytest.raises(WordSyntaxError):
            parse("s1^")

    def test_bounds_checked_before_expansion(self):
        assert parse("s1^1000 s2^-1000").factors == (("s1", 1000), ("s2", -1000))
        assert len(parse("(s1 s2)^1000 " * 5).factors) == MAX_FACTORS
        with pytest.raises(WordSyntaxError, match="exponent exceeds") as e:
            parse("s1 s2^-1001")
        assert e.value.position == 6
        with pytest.raises(WordSyntaxError, match="exponent exceeds"):
            parse("s1^" + "9" * 5000)  # past the int-to-str digit limit
        with pytest.raises(WordSyntaxError, match="exponent exceeds"):
            parse("(s1^40)^30")  # merges to s1^1200
        assert parse("(s1^-40)^25").factors == (("s1", -1000),)
        with pytest.raises(WordSyntaxError, match="group expands"):
            parse("((s1 s2)^1000)^1000")
        with pytest.raises(WordSyntaxError, match="word expands"):
            parse("(s1 s2)^1000 " * 5 + "s1")

    def test_length_counts_letters(self):
        # g^k counts |k| letters and a macro its length: a 2, b 3, c 6
        assert parse("c^1000 a^-1000 b^666").factors == (
            ("c", 1000), ("a", -1000), ("b", 666))
        with pytest.raises(WordSyntaxError, match="word expands"):
            parse("c^1000 a^-1000 b^667")
        with pytest.raises(WordSyntaxError, match="word expands"):
            parse("s1^1000 " * 10 + "s2")
        with pytest.raises(WordSyntaxError, match="group expands"):
            parse("(s1^1000 s2^1000)^1000")
        with pytest.raises(WordSyntaxError, match="group expands"):
            parse("(c^1000 s1)^2")

    def test_word_validation(self):
        with pytest.raises(ValueError):
            BraidWord((("s3", 1),))
        BraidWord((("s1", 0),))  # zero exponents allowed until reduction


class TestFormatting:
    def test_round_trip_samples(self):
        for text in ("s1 s2^-1 s1^3", "a b c", "", "s2^2 s1^2"):
            w = parse(text)
            assert parse(format_word(w)) == w

    @settings(max_examples=200, deadline=None)
    @given(factors=_factors)
    def test_round_trip_random(self, factors):
        w = BraidWord(tuple(factors))
        assert parse(format_word(w)) == w


class TestFreeReduce:
    def test_merges_and_drops(self):
        w = BraidWord((("s1", 2), ("s1", -2), ("s2", 1), ("s2", 1)))
        assert free_reduce(w).factors == (("s2", 2),)

    def test_cascading_cancellation(self):
        w = BraidWord((("s1", 1), ("s2", 1), ("s2", -1), ("s1", -1)))
        assert free_reduce(w).factors == ()

    @settings(max_examples=200, deadline=None)
    @given(factors=_factors)
    def test_reduction_is_stable_and_faithful(self, factors):
        w = BraidWord(tuple(factors))
        red = free_reduce(w)
        assert free_reduce(red) == red
        assert all(e != 0 for _, e in red.factors)
        for (g1n, _), (g2n, _) in zip(red.factors, red.factors[1:]):
            assert g1n != g2n
        rep = rep_at(1, 2)
        assert evaluate(w, rep) == evaluate(red, rep)


class TestEvaluation:
    def test_generators_map_to_matrices(self):
        rep = rep_at(1, 2)
        assert evaluate(parse("s1"), rep) == rep.g1
        assert evaluate(parse("s2"), rep) == rep.g2
        assert evaluate(parse(""), rep) == Matrix.identity(Q, 2)

    def test_single_factor_needs_no_product(self, monkeypatch):
        rep = rep_at(1, 2, 3)
        calls = []
        real = Matrix.__matmul__

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(Matrix, "__matmul__", counting)
        assert evaluate(parse("s2"), rep) == rep.g2
        assert evaluate(parse("s1^1"), rep) == rep.g1
        assert calls == []
        assert evaluate(parse("s1 s2"), rep) == real(rep.g1, rep.g2)
        assert len(calls) == 1

    def test_macro_expansions(self):
        rep = rep_at(1, 2, 3)
        a = rep.g1 @ rep.g2
        assert evaluate(parse("a"), rep) == a
        assert evaluate(parse("b"), rep) == a @ rep.g1
        assert evaluate(parse("c"), rep) == a @ a @ a

    def test_central_identities(self):
        # b^2 = c = a^3 holds in B3 itself, before any quotient.
        for rep in (rep_at(1, 2), rep_at(2, 5, -3)):
            mc = evaluate(parse("c"), rep)
            assert evaluate(parse("b^2"), rep) == mc
            assert evaluate(parse("a^3"), rep) == mc
            assert evaluate(parse("(s1 s2)^3"), rep) == mc

    def test_inverse_word(self):
        rep = rep_at(1, 2)
        w = parse("s1 s2^2")
        winv = parse("(s1 s2^2)^-1")
        assert evaluate(w, rep) @ evaluate(winv, rep) == Matrix.identity(Q, 2)

    def test_braid_relation_in_every_rep(self):
        rep = rep_at(3, -1, Fraction(1, 2))
        assert evaluate(parse("s1 s2 s1"), rep) == evaluate(parse("s2 s1 s2"), rep)

    @settings(max_examples=120, deadline=None)
    @given(factors=_factors, cut=st.integers(min_value=0, max_value=8))
    def test_substitution_invariance(self, factors, cut):
        # Splicing either side of the braid relation into a random word at a
        # random position gives equal matrices.
        rep = rep_at(1, 2)
        k = min(cut, len(factors))
        left = factors[:k] + [("s1", 1), ("s2", 1), ("s1", 1)] + factors[k:]
        right = factors[:k] + [("s2", 1), ("s1", 1), ("s2", 1)] + factors[k:]
        assert evaluate(BraidWord(tuple(left)), rep) == \
            evaluate(BraidWord(tuple(right)), rep)


class TestTooLargeGuard:
    def test_guard_reads_reduced_coefficients_not_the_common_denominator(self):
        # At the smallest digit limit an integer over 2128 bits is too large
        # to print.  x = 1/3^1000 + t/5^700 prints two coefficients of about
        # 1600 bits each, while their common denominator has about 3200.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            max_bits = math.ceil(640 * math.log2(10)) + 1
            ctx = FieldContext([-24, 0, 1])
            x = ctx.element([Fraction(1, 3**1000), Fraction(1, 5**700)])
            assert x.den.bit_length() > max_bits
            assert all(c.denominator.bit_length() < max_bits for c in x.coeffs)
            rep = build_rep(RepSpec(dim=1, params=ParameterSet((x,))))
            assert evaluate(parse("s1"), rep).entries == (x,)
            with pytest.raises(TooLarge):  # x^2 has 5^1400 in a reduced denominator
                evaluate(parse("s1^2"), rep)
        finally:
            sys.set_int_max_str_digits(limit)
