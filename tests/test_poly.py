"""Dense univariate polynomials, and the Sylvester resultant as a reference."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidreps import FieldContext, Polynomial, rationals
from braidreps.field import _poly_gcd
from conftest import sylvester_resultant

Q = rationals()
SQRT24 = FieldContext([-24, 0, 1])

_small = st.fractions(min_value=-6, max_value=6, max_denominator=3)
_polys = st.lists(_small, min_size=1, max_size=5).map(
    lambda cs: Polynomial.from_coeffs(Q, cs)
)


class TestRingOps:
    def test_construction_trims_leading_zeros(self):
        p = Polynomial.from_coeffs(Q, [1, 2, 0, 0])
        assert p.degree == 1
        assert Polynomial.from_coeffs(Q, [0]).is_zero()

    def test_from_roots_and_evaluate(self):
        p = Polynomial.from_roots(Q, [Q.from_rational(v) for v in (1, 2, 3)])
        assert [c.rational_value() for c in p.coeffs] == [-6, 11, -6, 1]

    def test_pow(self):
        x_plus_1 = Polynomial.from_coeffs(Q, [1, 1])
        assert (x_plus_1 ** 2).coeffs[1] == 2

    def test_pow_is_binary_from_the_base(self, monkeypatch):
        calls = []
        real = Polynomial.__mul__

        def counting(a, b):
            calls.append(None)
            return real(a, b)

        p = Polynomial.from_coeffs(SQRT24, [SQRT24.generator(), Fraction(1, 2), -1])
        for n in range(10):
            expected = Polynomial.one(SQRT24)
            for _ in range(n):
                expected = expected * p
            assert p ** n == expected, n
        with pytest.raises(ValueError):
            p ** -1
        monkeypatch.setattr(Polynomial, "__mul__", counting)
        for n, cost in ((1, 0), (2, 1), (5, 3), (8, 3)):
            calls.clear()
            p ** n
            assert len(calls) == cost, n

    def test_extension_coefficients(self):
        t = SQRT24.generator()
        p = Polynomial.from_coeffs(SQRT24, [t, SQRT24.one()])  # x + sqrt(24)
        prod = p * p
        assert prod.coeffs[0] == 24
        assert prod.coeffs[1] == 2 * t


class TestResultant:
    """The Sylvester determinant: the reference the predicate norms are
    checked against (see test_analysis)."""

    def test_quantified_root_surrogates(self):
        # Res_t(t^2 - e4, x^2 - t) = x^4 - e4 : the closed form used to
        # decide predicates over an unconstructed square root.
        e4 = Q.from_rational(24)
        for xv in (1, 2, Fraction(3, 2), -5):
            x = Q.from_rational(xv)
            p = Polynomial.from_coeffs(Q, [-e4, Q.zero(), Q.one()])
            q = Polynomial.from_coeffs(Q, [x * x, -Q.one()])
            assert sylvester_resultant(p, q) == x ** 4 - e4

        # Res_t(t^5 - e5, c + t^2) = c^5 + e5^2 for the pair predicate.
        e5 = Q.from_rational(32)
        for cv in (Fraction(-4), Fraction(3), Fraction(1, 6)):
            c = Q.from_rational(cv)
            p = Polynomial.from_coeffs(Q, [-e5] + [Q.zero()] * 4 + [Q.one()])
            q = Polynomial.from_coeffs(Q, [c, Q.zero(), Q.one()])
            assert sylvester_resultant(p, q) == c ** 5 + e5 ** 2

    @settings(max_examples=150, deadline=None)
    @given(p=_polys, q=_polys)
    def test_vanishes_iff_gcd_nonconstant(self, p, q):
        if p.is_zero() or q.is_zero():
            return
        gcd = _poly_gcd([c.rational_value() for c in p.coeffs],
                        [c.rational_value() for c in q.coeffs])
        shares = len(gcd) >= 2
        assert sylvester_resultant(p, q).is_zero() == shares

    @settings(max_examples=60, deadline=None)
    @given(p=_polys, q=_polys)
    def test_float_magnitude_cross_check(self, p, q):
        import numpy as np

        if p.degree < 1 or q.degree < 1:
            return
        exact = sylvester_resultant(p, q)
        m, n = p.degree, q.degree
        size = m + n
        syl = np.zeros((size, size))
        pc = [float(c.rational_value()) for c in reversed(p.coeffs)]
        qc = [float(c.rational_value()) for c in reversed(q.coeffs)]
        for i in range(n):
            syl[i, i:i + m + 1] = pc
        for i in range(m):
            syl[n + i, i:i + n + 1] = qc
        approx = float(np.linalg.det(syl))
        val = float(exact.rational_value())
        assert abs(val - approx) <= 1e-6 * max(1.0, abs(val))
