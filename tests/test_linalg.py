"""Exact dense linear algebra: determinants, inverses, ranks, char/min
polynomials, closures."""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

from braidreps import (
    FieldContext,
    Matrix,
    Polynomial,
    charpoly,
    NotInvertible,
    cyclotomic5_context,
    determinant,
    intertwiner_dim,
    inverse,
    minpoly,
    poly_eval_matrix,
    rank,
    rationals,
)
from braidreps.field import FieldElement, _poly_divmod
from braidreps.linalg import _bareiss
from conftest import algebra_closure_dim, leibniz_determinant

Q = rationals()


@pytest.fixture
def matmuls(monkeypatch):
    """Records every matrix product made while the test runs."""
    calls = []
    real = Matrix.__matmul__

    def counting(a, b):
        calls.append((a.rows, b.cols))
        return real(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    return calls
SQRT24 = FieldContext([-24, 0, 1])
SPLIT = FieldContext([-1, 0, 1])  # t^2 - 1: Q x Q

_small = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def _sq(draw_list, n):
    return Matrix.from_rows(Q, [draw_list[i * n:(i + 1) * n] for i in range(n)])


_mats2 = st.lists(_small, min_size=4, max_size=4).map(lambda xs: _sq(xs, 2))
_mats3 = st.lists(_small, min_size=9, max_size=9).map(lambda xs: _sq(xs, 3))
_mats4 = st.lists(_small, min_size=16, max_size=16).map(lambda xs: _sq(xs, 4))


ZETA5 = cyclotomic5_context()
_coeff = st.one_of(st.just(Fraction(0)), _small)


def _sparse_matrix(data, ctx, rows, cols):
    """Random entries, many zero, with whole rows and columns zeroed too."""
    ents = [ctx.element(data.draw(st.lists(_coeff, min_size=ctx.degree,
                                           max_size=ctx.degree)))
            if data.draw(st.booleans()) else ctx.zero()
            for _ in range(rows * cols)]
    zero_rows = data.draw(st.sets(st.integers(0, rows - 1)))
    zero_cols = data.draw(st.sets(st.integers(0, cols - 1)))
    for i in range(rows):
        for j in range(cols):
            if i in zero_rows or j in zero_cols:
                ents[i * cols + j] = ctx.zero()
    return Matrix(ctx, rows, cols, ents)


def _dense_product(a, b):
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = a.context.zero()
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            out.append(acc)
    return Matrix(a.context, a.rows, b.cols, out)


class TestMatrixBasics:
    def test_shapes_and_indexing(self):
        m = Matrix.from_rows(Q, [[1, 2], [3, 4]])
        assert (m.rows, m.cols) == (2, 2)
        assert m[1, 0] == 3
        assert m.row(0) == (Q.from_rational(1), Q.from_rational(2))

    def test_matmul_against_hand_product(self):
        a = Matrix.from_rows(Q, [[1, 2], [3, 4]])
        b = Matrix.from_rows(Q, [[0, 1], [1, 0]])
        assert (a @ b) == Matrix.from_rows(Q, [[2, 1], [4, 3]])

    def test_power_includes_negative_exponents(self):
        m = Matrix.from_rows(Q, [[2, 1], [1, 1]])
        assert m.power(0) == Matrix.identity(Q, 2)
        assert m.power(3) == m @ m @ m
        assert m.power(-2) @ m.power(2) == Matrix.identity(Q, 2)

    def test_power_product_count(self, matmuls):
        m = Matrix.from_rows(Q, [[2, 1], [1, 1]])
        expected = [Matrix.identity(Q, 2)]
        for _ in range(9):
            expected.append(expected[-1] @ m)
        matmuls.clear()
        for n, want in enumerate(expected):
            assert m.power(n) == want
            # squarings plus the multiplications that combine set bits
            cost = n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0
            assert len(matmuls) == cost, n
            matmuls.clear()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matmul_matches_dense_reference(self, data):
        # the product skips zero factors; a plain triple loop is the reference
        ctx = data.draw(st.sampled_from([Q, ZETA5]))
        n, m, p = (data.draw(st.integers(1, 5)) for _ in range(3))
        a = _sparse_matrix(data, ctx, n, m)
        b = _sparse_matrix(data, ctx, m, p)
        assert a @ b == _dense_product(a, b)


class TestDeterminant:
    def test_hand_value(self):
        m = Matrix.from_rows(Q, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        assert determinant(m) == -3

    def test_singular(self):
        m = Matrix.from_rows(Q, [[1, 2], [2, 4]])
        assert determinant(m).is_zero()
        assert inverse(m) is None

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_agrees_with_leibniz(self, data):
        # zero leading entries make the lead columns a nontrivial permutation
        ctx = data.draw(st.sampled_from([Q, SQRT24, ZETA5]))
        n = data.draw(st.integers(1, 5))
        m = _sparse_matrix(data, ctx, n, n)
        assert determinant(m) == leibniz_determinant(m)

    def test_lead_column_permutation_sign(self):
        m = Matrix.from_rows(Q, [[0, 0, 2], [0, 3, 1], [5, 1, 1]])
        assert determinant(m) == -30 == leibniz_determinant(m)

    def test_zero_divisor_pivot_raises(self):
        # over Q[t]/(t^2 - 1) the pivot e = (1 + t)/2 is a nonzero idempotent;
        # a step that divides by it must invert it, which raises
        ctx = FieldContext([-1, 0, 1])
        e = ctx.element([Fraction(1, 2), Fraction(1, 2)])
        m = Matrix.from_rows(ctx, [[e, 1, 0], [1, 0, 1], [0, 1, 1]])
        with pytest.raises(NotInvertible):
            determinant(m)
        # step 0 leaves column 1 zero, which proves det * e = 0 but not
        # det = 0: Leibniz gives e - 1, so the routine must not return 0
        f = 1 - e
        m = Matrix.from_rows(ctx, [[e, 0, f], [0, f, e], [f, 0, e]])
        assert leibniz_determinant(m) == e - 1 != 0
        with pytest.raises(NotInvertible):
            determinant(m)
        # in a 2x2 no step divides by the first pivot, so the value exists
        m = Matrix.from_rows(ctx, [[e, 1], [1, 0]])
        assert determinant(m) == -1 == leibniz_determinant(m)

    @settings(max_examples=100, deadline=None)
    @given(a=_mats3, b=_mats3)
    def test_multiplicative(self, a, b):
        assert determinant(a @ b) == determinant(a) * determinant(b)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_inverse_roundtrip(self, data):
        ctx = data.draw(st.sampled_from([Q, ZETA5]))
        m = _sparse_matrix(data, ctx, 3, 3)
        inv = inverse(m)
        if inv is None:
            assert leibniz_determinant(m).is_zero()
        else:
            assert m @ inv == Matrix.identity(ctx, 3)
            assert inv @ m == Matrix.identity(ctx, 3)


def _bareiss_cases(seed=2701):
    """Seeded integer matrices of sizes 1-6: dense, sparse (zero pivots force
    row swaps), with a repeated row or a combination of rows (singular)."""
    rng = random.Random(seed)
    cases = []
    for n in range(1, 7):
        for kind in ("dense", "sparse", "repeat", "combination"):
            for _ in range(8):
                rows = [[rng.randint(-9, 9) if kind != "sparse" or rng.random() < 0.4 else 0
                         for _ in range(n)] for _ in range(n)]
                if n > 1 and kind == "repeat":
                    rows[rng.randrange(1, n)] = list(rows[0])
                if n > 1 and kind == "combination":
                    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                    rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1 % (n - 1)])]
                cases.append(rows)
    return cases


def _reference(m):
    """det M by Leibniz, after one Laplace expansion along row 0 for n = 6."""
    if m.rows <= 5:
        return leibniz_determinant(m)
    total = m.context.zero()
    for j in range(m.cols):
        minor = Matrix(m.context, m.rows - 1, m.cols - 1,
                       [x for i in range(1, m.rows) for k, x in enumerate(m.row(i)) if k != j])
        term = m[0, j] * _reference(minor)
        total = total - term if j % 2 else total + term
    return total


def _field_cases(ctx, seed):
    """Seeded matrices of sizes 1-6 over ctx, many entries zero and the
    first column led by zeros, so that step 0 swaps rows."""
    rng = random.Random(seed)
    cases = []
    for n in range(1, 7):
        for _ in range(6):
            rows = [[ctx.element([rng.randint(-4, 4) for _ in range(ctx.degree)])
                     if rng.random() < 0.6 else ctx.zero() for _ in range(n)] for _ in range(n)]
            for i in range(rng.randrange(n)):
                rows[i][0] = ctx.zero()
            cases.append(rows)
    return cases


class TestBareiss:
    def test_agrees_with_determinant(self):
        cases = _bareiss_cases()
        singular = 0
        for rows in cases:
            det = _reference(Matrix.from_rows(Q, rows))
            assert _bareiss(rows) == det, rows
            singular += det.is_zero()
        assert singular > len(cases) // 4

    def test_zero_pivots_swap_rows(self):
        # [0][0] = 0 swaps at step 0; the leading 2x2 minor of the second is 0,
        # so step 1 meets a zero pivot after the first elimination
        for rows, det in (([[0, 2], [3, 1]], -6), ([[0, 0, 2], [0, 3, 1], [5, 1, 1]], -30),
                          ([[1, 2, 3], [2, 4, 5], [3, 5, 6]], -1), ([[0, 1], [0, 4]], 0)):
            assert _bareiss(rows) == det == leibniz_determinant(Matrix.from_rows(Q, rows))

    @pytest.mark.parametrize("ctx", [SQRT24, ZETA5, SPLIT], ids=["sqrt24", "zeta5", "split"])
    def test_field_element_rows(self, ctx):
        # over t^2 - 1 a minor that vanishes on one factor is a zero-divisor
        # pivot; a step that divides by it raises, and no value is returned
        values = swapped = 0
        for rows in _field_cases(ctx, 2702 + ctx.degree):
            m = Matrix.from_rows(ctx, rows)
            swapped += len(rows) > 1 and rows[0][0].is_zero()
            try:
                det = _bareiss(rows)
            except NotInvertible:
                assert ctx is SPLIT
                continue
            assert isinstance(det, FieldElement) and det == _reference(m), rows
            assert determinant(m) == det
            values += 1
        assert values > 30 and swapped > 10

    def test_inverts_the_pivots_that_divide(self, monkeypatch):
        # step k > 0 divides by the pivot of step k - 1: n - 2 inverses
        calls, real = [], FieldElement.inverse
        monkeypatch.setattr(FieldElement, "inverse", lambda e: calls.append(e) or real(e))
        checked = 0
        for rows in _field_cases(ZETA5, 2703):
            m = Matrix.from_rows(ZETA5, rows)
            calls.clear()
            _bareiss(rows)
            if not _reference(m).is_zero():
                assert len(calls) == max(len(rows) - 2, 0), rows
                checked += len(rows) > 2
        assert checked > 10

    def test_leaves_its_argument_alone(self):
        rows = [[0, 1, 2], [3, 4, 5], [6, 7, 9]]
        assert _bareiss(rows) == -3
        assert rows == [[0, 1, 2], [3, 4, 5], [6, 7, 9]]


class TestCharMinPoly:
    def test_charpoly_hand_value(self):
        m = Matrix.from_rows(Q, [[2, 1], [1, 2]])
        p = charpoly(m)
        assert [c.rational_value() for c in p.coeffs] == [3, -4, 1]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_charpoly_agrees_with_determinant(self, data):
        # det(L I - M) by elimination is the reference: two polynomials of
        # degree n that agree at n + 1 points are equal
        ctx = data.draw(st.sampled_from([Q, SQRT24, ZETA5]))
        n = data.draw(st.integers(1, 6))
        m = _sparse_matrix(data, ctx, n, n)
        p = charpoly(m)
        assert p.degree == n
        for lam in data.draw(st.lists(_small, min_size=n + 1, max_size=n + 1,
                                      unique=True)):
            value = ctx.zero()
            for c in reversed(p.coeffs):
                value = value * lam + c
            assert value == determinant(Matrix.identity(ctx, n).scale(lam) + m.scale(-1))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_charpoly_commutes_with_the_factors_of_a_reducible_modulus(self, data):
        # Q[t]/(t^2 - 1) = Q x Q through t -> 1 and t -> -1; charpoly is a
        # polynomial in the entries, so it maps to the charpoly of each image
        n = data.draw(st.integers(1, 6))
        m = _sparse_matrix(data, SPLIT, n, n)
        p = charpoly(m)
        for sign in (1, -1):
            image = Matrix(Q, n, n, [Q.from_rational(e.coeffs[0] + sign * e.coeffs[1])
                                     for e in m.entries])
            assert [c.coeffs[0] + sign * c.coeffs[1] for c in p.coeffs] == \
                [c.rational_value() for c in charpoly(image).coeffs]

    def test_trace_and_det_coefficients(self):
        m = Matrix.from_rows(Q, [[1, 2, 0], [0, 3, 1], [1, 0, 1]])
        p = charpoly(m)
        assert -p.coeffs[2] == m.trace()
        assert p.coeffs[0] == -determinant(m) if m.rows % 2 else determinant(m)

    @settings(max_examples=80, deadline=None)
    @given(m=_mats3)
    def test_cayley_hamilton(self, m):
        assert poly_eval_matrix(charpoly(m), m) == Matrix.zeros(Q, 3, 3)

    @settings(max_examples=60, deadline=None)
    @given(m=_mats3)
    def test_minpoly_divides_charpoly_and_annihilates(self, m):
        _check_minpoly(m)

    @settings(max_examples=40, deadline=None)
    @given(b=_mats2, s=_mats4)
    def test_minpoly_of_derogatory_block_diagonal(self, b, s):
        # S diag(B, B) S^-1 has charpoly charpoly(B)^2 but minpoly minpoly(B)
        si = inverse(s)
        if si is None:
            return
        m = s @ _block_diag(b, b) @ si
        assert minpoly(m) == minpoly(b)
        _check_minpoly(m)

    @pytest.mark.parametrize("rows, degree", [
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 1),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1),
        ([[5]], 1),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 2]], 2),
        ([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]], 3),
        ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], 2),
    ])
    def test_minpoly_special_matrices(self, rows, degree):
        m = Matrix.from_rows(Q, rows)
        assert minpoly(m).degree == degree
        _check_minpoly(m)

    def test_poly_eval_matrix_product_count(self, matmuls):
        m = Matrix.from_rows(Q, [[1, 2, 0], [0, 3, 1], [1, 0, 1]])
        p = Polynomial.from_coeffs(Q, [5, -1, 0, 2, 1])
        powers = [Matrix.identity(Q, 3)]
        for _ in range(4):
            powers.append(powers[-1] @ m)
        naive = Matrix.zeros(Q, 3, 3)
        for c, mk in zip(p.coeffs, powers):
            naive = naive + mk.scale(c)
        matmuls.clear()
        assert poly_eval_matrix(p, m) == naive
        assert len(matmuls) == p.degree - 1
        assert poly_eval_matrix(Polynomial.from_coeffs(Q, [7]), m) == \
            Matrix.identity(Q, 3).scale(7)
        assert poly_eval_matrix(Polynomial.zero(Q), m) == Matrix.zeros(Q, 3, 3)

    def test_minpoly_detects_repeated_structure(self):
        # diag(1, 1, 2) has charpoly (L-1)^2 (L-2) but minpoly (L-1)(L-2).
        m = Matrix.diagonal(Q, [Q.from_rational(v) for v in (1, 1, 2)])
        assert minpoly(m).degree == 2
        assert charpoly(m).degree == 3

    def test_extension_field_charpoly(self):
        t = SQRT24.generator()
        m = Matrix.from_rows(SQRT24, [[t, SQRT24.one()], [SQRT24.zero(), -t]])
        p = charpoly(m)
        # (L - t)(L + t) = L^2 - 24
        assert p == Polynomial.from_coeffs(SQRT24, [SQRT24.from_rational(-24),
                                                    SQRT24.zero(), SQRT24.one()])


def _block_diag(a, b):
    n = a.rows + b.rows
    rows = [[Q.zero()] * n for _ in range(n)]
    for off, blk in ((0, a), (a.rows, b)):
        for i in range(blk.rows):
            for j in range(blk.cols):
                rows[off + i][off + j] = blk[i, j]
    return Matrix.from_rows(Q, rows)


def _check_minpoly(m):
    """minpoly(m) is monic, kills m, divides charpoly, and nothing smaller does."""
    mp = minpoly(m)
    k, n = mp.degree, m.rows
    assert mp.coeffs[-1] == 1
    assert poly_eval_matrix(mp, m) == Matrix.zeros(Q, n, n)
    # I, M, ..., M^(k-1) are independent, so no lower degree annihilates M
    powers = [Matrix.identity(Q, n)]
    for _ in range(k - 1):
        powers.append(powers[-1] @ m)
    assert rank(Matrix(Q, k, n * n, [e for p in powers for e in p.entries])) == k
    _, rem = _poly_divmod([c.rational_value() for c in charpoly(m).coeffs],
                          [c.rational_value() for c in mp.coeffs])
    assert rem == []


class TestRank:
    def test_rank_one(self):
        assert rank(Matrix.from_rows(Q, [[1, 2, 3], [2, 4, 6]])) == 1

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_rank_of_product(self, data):
        ctx = data.draw(st.sampled_from([Q, ZETA5]))
        n, m, p = (data.draw(st.integers(1, 5)) for _ in range(3))
        a = _sparse_matrix(data, ctx, n, m)
        b = _sparse_matrix(data, ctx, m, p)
        assert rank(a @ b) <= min(rank(a), rank(b))


class TestKernel:
    """The kernel's dimension, read off as columns minus rank."""

    def test_invertible_has_trivial_kernel(self):
        m = Matrix.from_rows(Q, [[2, 1], [1, 1]])
        assert m.cols - rank(m) == 0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_rank_nullity(self, data):
        # a nonzero kernel exactly when the Leibniz determinant vanishes
        ctx = data.draw(st.sampled_from([Q, SQRT24, ZETA5]))
        n = data.draw(st.integers(1, 5))
        m = _sparse_matrix(data, ctx, n, n)
        nullity = n - rank(m)
        if leibniz_determinant(m).is_zero():
            assert nullity >= 1
        else:
            assert nullity == 0


class TestClosures:
    def test_full_algebra_from_generic_pair(self):
        a = Matrix.from_rows(Q, [[4, 2], [-3, -1]])
        b = Matrix.from_rows(Q, [[1, 0], [3, 2]])
        dim, basis = algebra_closure_dim([a, b])
        assert dim == 4
        assert len(basis) == 4

    def test_commuting_diagonals_stay_small(self):
        a = Matrix.diagonal(Q, [Q.from_rational(v) for v in (1, 2, 3)])
        b = Matrix.diagonal(Q, [Q.from_rational(v) for v in (5, 7, 11)])
        dim, _ = algebra_closure_dim([a, b])
        assert dim == 3
        assert intertwiner_dim([(a, a), (b, b)]) == 3

    def test_commutant_of_full_algebra_is_scalars(self):
        a = Matrix.from_rows(Q, [[4, 2], [-3, -1]])
        b = Matrix.from_rows(Q, [[1, 0], [3, 2]])
        assert intertwiner_dim([(a, a), (b, b)]) == 1

    def test_block_diagonal_pair(self):
        # Direct sum of two inequivalent 1-dim actions: closure 2, commutant 2.
        a = Matrix.diagonal(Q, [Q.from_rational(v) for v in (1, 2)])
        dim, _ = algebra_closure_dim([a, a])
        assert dim == 2
        assert intertwiner_dim([(a, a), (a, a)]) == 2

    def test_exact_closure_takes_any_entries(self):
        p = 2**61 - 1
        a = Matrix.from_rows(Q, [[4, 2], [-3, -1]])
        # a large prime in a denominator
        b_over_p = Matrix.from_rows(Q, [[1, 0], [Fraction(3, 2 * p), 2]])
        assert algebra_closure_dim([a, b_over_p])[0] == 4
        # an irrational entry: two upper-triangular generators stay below 4
        t = SQRT24.generator()
        a24 = Matrix.from_rows(SQRT24, [[t, 0], [0, 1]])
        b24 = Matrix.from_rows(SQRT24, [[1, 1], [0, 1]])
        assert algebra_closure_dim([a24, b24])[0] == 3
        # rational entries in an extension context close as over Q
        a_ext = Matrix.from_rows(SQRT24, [[4, 2], [-3, -1]])
        b_ext = Matrix.from_rows(SQRT24, [[1, 0], [3, 2]])
        assert algebra_closure_dim([a_ext, b_ext])[0] == 4
