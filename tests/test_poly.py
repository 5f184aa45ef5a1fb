"""Dense univariate polynomials and the Euclidean-chain resultant."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidreps import FieldContext, Matrix, Polynomial, determinant, rationals, resultant

Q = rationals()
SQRT24 = FieldContext([-24, 0, 1])

_small = st.fractions(min_value=-6, max_value=6, max_denominator=3)
_polys = st.lists(_small, min_size=1, max_size=5).map(
    lambda cs: Polynomial.from_coeffs(Q, cs)
)


def sylvester_resultant(p: Polynomial, q: Polynomial):
    """Independent oracle: determinant of the Sylvester matrix."""
    m, n = p.degree, q.degree
    if m < 0 or n < 0:
        return Q.zero()
    if m == 0:
        return p.coeffs[0] ** n
    if n == 0:
        return q.coeffs[0] ** m
    size = m + n
    rows = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for i in range(n):
        rows.append([Q.zero()] * i + pc + [Q.zero()] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Q.zero()] * i + qc + [Q.zero()] * (size - n - 1 - i))
    return determinant(Matrix.from_rows(Q, rows))


class TestRingOps:
    def test_construction_trims_leading_zeros(self):
        p = Polynomial.from_coeffs(Q, [1, 2, 0, 0])
        assert p.degree == 1
        assert Polynomial.from_coeffs(Q, [0]).is_zero()

    def test_divmod_identity(self):
        p = Polynomial.from_coeffs(Q, [2, 0, -3, 1])
        d = Polynomial.from_coeffs(Q, [Fraction(1, 2), 1])
        quo, rem = divmod(p, d)
        assert quo * d + rem == p
        assert rem.degree < d.degree

    def test_from_roots_and_evaluate(self):
        p = Polynomial.from_roots(Q, [Q.from_rational(v) for v in (1, 2, 3)])
        assert [c.rational_value() for c in p.coeffs] == [-6, 11, -6, 1]
        assert p.evaluate(Q.from_rational(2)).is_zero()
        assert p.evaluate(Q.from_rational(4)) == 6

    def test_gcd_is_monic_common_factor(self):
        a = Polynomial.from_roots(Q, [Q.from_rational(v) for v in (1, 2)])
        b = Polynomial.from_roots(Q, [Q.from_rational(v) for v in (2, 5)])
        g = a.gcd(b)
        assert [c.rational_value() for c in g.coeffs] == [-2, 1]
        assert a.lcm(b).degree == 3

    def test_derivative(self):
        p = Polynomial.from_coeffs(Q, [5, 0, 3, 2])
        assert [c.rational_value() for c in p.derivative().coeffs] == [0, 6, 6]

    def test_pow(self):
        x = Polynomial.variable(Q)
        assert ((x + Polynomial.one(Q)) ** 2).coeffs[1] == 2

    def test_extension_coefficients(self):
        t = SQRT24.generator()
        p = Polynomial.from_coeffs(SQRT24, [t, SQRT24.one()])  # x + sqrt(24)
        prod = p * p
        assert prod.coeffs[0] == 24
        assert prod.coeffs[1] == 2 * t


class TestResultant:
    def test_known_value_shared_root(self):
        p = Polynomial.from_roots(Q, [Q.from_rational(v) for v in (1, 2)])
        q = Polynomial.from_roots(Q, [Q.from_rational(v) for v in (2, 7)])
        assert resultant(p, q).is_zero()

    def test_known_value_disjoint_roots(self):
        # Res((x-1)(x-2), (x-3)) = (3-1)(3-2) = 2 up to the sign convention.
        p = Polynomial.from_roots(Q, [Q.from_rational(v) for v in (1, 2)])
        q = Polynomial.from_roots(Q, [Q.from_rational(3)])
        assert resultant(p, q) == sylvester_resultant(p, q)
        assert not resultant(p, q).is_zero()

    def test_quantified_root_surrogates(self):
        # Res_t(t^2 - e4, x^2 - t) = x^4 - e4 : the closed form used to
        # decide predicates over an unconstructed square root.
        e4 = Q.from_rational(24)
        for xv in (1, 2, Fraction(3, 2), -5):
            x = Q.from_rational(xv)
            p = Polynomial.from_coeffs(Q, [-e4, Q.zero(), Q.one()])
            q = Polynomial.from_coeffs(Q, [x * x, -Q.one()])
            assert resultant(p, q) == x ** 4 - e4

        # Res_t(t^5 - e5, c + t^2) = c^5 + e5^2 for the pair predicate.
        e5 = Q.from_rational(32)
        for cv in (Fraction(-4), Fraction(3), Fraction(1, 6)):
            c = Q.from_rational(cv)
            p = Polynomial.from_coeffs(Q, [-e5] + [Q.zero()] * 4 + [Q.one()])
            q = Polynomial.from_coeffs(Q, [c, Q.zero(), Q.one()])
            assert resultant(p, q) == c ** 5 + e5 ** 2

    @settings(max_examples=150, deadline=None)
    @given(p=_polys, q=_polys)
    def test_matches_sylvester_determinant(self, p, q):
        if p.is_zero() or q.is_zero():
            return
        assert resultant(p, q) == sylvester_resultant(p, q)

    @settings(max_examples=150, deadline=None)
    @given(p=_polys, q=_polys)
    def test_vanishes_iff_gcd_nonconstant(self, p, q):
        if p.is_zero() or q.is_zero():
            return
        shares = p.gcd(q).degree >= 1
        assert resultant(p, q).is_zero() == shares

    @settings(max_examples=60, deadline=None)
    @given(p=_polys, q=_polys)
    def test_float_magnitude_cross_check(self, p, q):
        import numpy as np

        if p.degree < 1 or q.degree < 1:
            return
        exact = resultant(p, q)
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
