"""Exact arithmetic in Q and in single extensions Q[t]/(m)."""

import contextlib
import copy
import gc
import io
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from braidreps import (
    ContextMismatch,
    FieldContext,
    FieldElement,
    NonMonicModulus,
    NotInvertible,
    NotSquarefree,
    cyclotomic5_context,
    element_kth_roots,
    encode_element,
    parse_element,
    rational_kth_root,
    rationals,
)
from braidreps import field
from braidreps.cli import main
from conftest import inverse_reference

Q = rationals()
SQRT24 = FieldContext([-24, 0, 1])        # t^2 - 24
ZETA5 = cyclotomic5_context()             # 1 + t + t^2 + t^3 + t^4

_fracs = st.fractions(min_value=-40, max_value=40, max_denominator=8)


def _elem(ctx, draw_coeffs):
    deg = max(1, len(ctx.modulus) - 1)
    return ctx.element(draw_coeffs[:deg])


class TestContextValidation:
    def test_degree_one_modulus_is_base_field(self):
        assert Q.degree == 1
        assert Q.from_rational(Fraction(3, 7)).rational_value() == Fraction(3, 7)

    def test_non_monic_rejected(self):
        with pytest.raises(NonMonicModulus):
            FieldContext([1, 0, 2])

    def test_squarefree_enforced(self):
        # (t - 1)^2 = t^2 - 2t + 1 shares a factor with its derivative.
        with pytest.raises(NotSquarefree):
            FieldContext([1, -2, 1])

    def test_reducible_squarefree_modulus_allowed(self):
        # t^2 - 1 is reducible but squarefree; the ring has zero divisors.
        ctx = FieldContext([-1, 0, 1])
        theta = ctx.generator()
        assert (theta - 1) * (theta + 1) == ctx.zero()

    def test_contexts_compare_by_modulus(self):
        assert FieldContext([-24, 0, 1]) == SQRT24
        assert SQRT24 != ZETA5
        with pytest.raises(ContextMismatch):
            SQRT24.generator() + ZETA5.generator()


class TestOneContextPerModulus:
    def test_equal_moduli_give_one_object(self):
        assert FieldContext([-24, 0, 1]) is SQRT24
        assert FieldContext((Fraction(-24), Fraction(0), Fraction(1))) is SQRT24
        assert FieldContext([-24, 0, 1, 0, 0]) is SQRT24
        assert FieldContext(["-24", Fraction(0), 1]) is SQRT24
        assert cyclotomic5_context() is ZETA5 and rationals() is Q
        assert FieldContext([Fraction(-1, 2), 1]) is FieldContext(["-1/2", 1, 0])
        assert FieldContext([-2, 0, 1]) is not SQRT24

    @pytest.mark.parametrize("ctx", [Q, SQRT24, ZETA5], ids=["Q", "sqrt24", "zeta5"])
    def test_pickle_and_copy_return_the_context(self, ctx):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(ctx, protocol)) is ctx
        assert copy.deepcopy(ctx) is ctx
        e = ctx.generator() + 3
        back = pickle.loads(pickle.dumps(e))
        assert back.context is ctx and back == e

    def test_split_factors_are_interned(self):
        t3mt = FieldContext([0, -1, 0, 1])  # t (t - 1) (t + 1)
        left, right = t3mt.split([Fraction(0), Fraction(1)])
        assert left is rationals()
        assert right is FieldContext([-1, 0, 1])
        for c in (left, right):
            assert FieldContext(c.modulus) is c

    def test_different_moduli_do_not_mix(self):
        split = FieldContext([-1, 0, 1])
        with pytest.raises(ContextMismatch):
            SQRT24.generator() * split.generator()
        with pytest.raises(ContextMismatch):
            split.one() - SQRT24.one()
        # the same coefficients over two moduli are two different elements
        assert SQRT24.generator() != split.generator()

    @pytest.mark.parametrize("modulus,error", [
        ([1, -2, 1], NotSquarefree),  # (t - 1)^2
        ([1, 0, 2], NonMonicModulus),
        ([3], NonMonicModulus),
    ])
    def test_bad_modulus_raises_and_is_not_stored(self, modulus, error):
        for _ in range(2):
            with pytest.raises(error):
                FieldContext(modulus)
        assert tuple(Fraction(c) for c in modulus) not in field._CONTEXTS

    def test_census_leaves_no_context_in_cyclic_garbage(self):
        argv = ["semisimple", "--mode", "constructive", "--context", "t^4+t^3+t^2+t+1",
                "--params", '[1, 2, 3, 6, "8/9"]']
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            gc.collect()
            leaked = [o for o in gc.garbage if isinstance(o, FieldContext)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []


@pytest.fixture
def products(monkeypatch):
    """Records every field multiplication made while the test runs."""
    calls = []
    real = FieldElement.__mul__

    def counting(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(FieldElement, "__mul__", counting)
    return calls


class TestArithmetic:
    def test_generator_satisfies_modulus(self):
        t = SQRT24.generator()
        assert t * t == 24
        z = ZETA5.generator()
        assert z ** 5 == 1
        assert z ** 4 + z ** 3 + z ** 2 + z + 1 == ZETA5.zero()

    def test_inverse_in_extension(self):
        t = SQRT24.generator()
        a = t + 5          # (5 + t)(5 - t) = 1, so the inverse is 5 - t
        assert a.inverse() == 5 - t
        assert a * a.inverse() == SQRT24.one()

    def test_zero_divisor_raises(self):
        ctx = FieldContext([-1, 0, 1])
        theta = ctx.generator()
        with pytest.raises(NotInvertible):
            (theta - 1).inverse()
        with pytest.raises(NotInvertible):
            1 / (theta + 1)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            Q.zero().inverse()
        # in degree > 1 zero shares the whole modulus: (1 + t)(1 - t) = 0
        # is a product of zero divisors, and the message names t^2 - 1
        theta = FieldContext([-1, 0, 1]).generator()
        for zero in ((1 + theta) * (1 - theta), SQRT24.zero()):
            with pytest.raises(NotInvertible, match="shares the monic factor"):
                zero.inverse()
        with pytest.raises(NotInvertible, match=r"\['-1', '0', '1'\]"):
            1 / ((1 + theta) * (1 - theta))

    def test_pow_negative(self):
        t = SQRT24.generator()
        assert t ** -2 == Fraction(1, 24)
        assert (t + 5) ** -1 == (t + 5).inverse()

    def test_pow_is_binary_from_the_base(self, products):
        x = ZETA5.element([Fraction(1, 2), 3, 0, -1])
        for n in range(-7, 10):
            expected = ZETA5.one()
            for _ in range(abs(n)):
                expected = expected * (x if n > 0 else x.inverse())
            assert x ** n == expected, n
        for n, cost in ((1, 0), (2, 1), (5, 3), (8, 3)):
            products.clear()
            x ** n
            assert len(products) == cost, n

    def test_mixed_coercion(self):
        a = Q.from_rational(Fraction(2, 3))
        assert a + 1 == Fraction(5, 3)
        assert 2 - a == Fraction(4, 3)
        assert a / 2 == Fraction(1, 3)
        assert 1 / a == Fraction(3, 2)


@pytest.mark.parametrize("ctx", [Q, SQRT24, ZETA5], ids=["Q", "sqrt24", "zeta5"])
@settings(max_examples=350, deadline=None)
@given(coeffs=st.lists(_fracs, min_size=4, max_size=4))
def test_field_axioms_random_triples(ctx, coeffs):
    # Three elements per example; 350 examples x 3 contexts > 10^3 triples.
    a = _elem(ctx, coeffs)
    b = _elem(ctx, coeffs[1:])
    c = _elem(ctx, coeffs[::-1])
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        try:
            assert a * a.inverse() == ctx.one()
        except NotInvertible:
            # Possible only when the modulus is reducible; zeta5's isn't,
            # and sqrt24 / Q are fields, so this must never trigger here.
            pytest.fail("nonzero element without inverse in a field context")


# The product kernel's contexts: fields of degree 2, 3 and 4, two moduli
# with non-integral coefficients (t^2 - 1/2 and a cubic field), and the
# reducible t^2 - 1.
KERNEL_CONTEXTS = {
    "zeta5": ZETA5,
    "sqrt24": SQRT24,
    "cbrt2": FieldContext([-2, 0, 0, 1]),
    "t2-1/2": FieldContext([Fraction(-1, 2), 0, 1]),
    "cubic-1/3": FieldContext([Fraction(1, 3), Fraction(-1, 2), Fraction(5, 4), 1]),
    "t2-1": FieldContext([-1, 0, 1]),
}

_wide = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def _schoolbook(a, b):
    """a * b as a Fraction convolution reduced by long division by the
    modulus, top power first: t^d = -(m_0 + m_1 t + ... + m_{d-1} t^{d-1})."""
    m = a.context.modulus
    d = len(m) - 1
    prod = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):
        top, prod[k] = prod[k], Fraction(0)
        for i in range(d):
            prod[k - d + i] -= top * m[i]
    return tuple(prod[:d])


@st.composite
def _kernel_elements(draw, ctx):
    coeffs = draw(st.lists(st.one_of(_fracs, _wide), min_size=ctx.degree,
                           max_size=ctx.degree))
    if draw(st.booleans()):  # a rational operand
        coeffs = coeffs[:1]
    return ctx.element(coeffs)


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS.values(), ids=KERNEL_CONTEXTS.keys())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_product_matches_schoolbook_reference(ctx, data):
    a = data.draw(_kernel_elements(ctx))
    b = data.draw(_kernel_elements(ctx))
    for p in (a * b, b * a):
        assert p.coeffs == _schoolbook(a, b)
        # stored as before: a tuple of reduced Fractions
        assert type(p.coeffs) is tuple and all(type(c) is Fraction for c in p.coeffs)


@pytest.mark.parametrize("ctx", [Q, *KERNEL_CONTEXTS.values()],
                         ids=["Q", *KERNEL_CONTEXTS.keys()])
@settings(max_examples=50, deadline=None)
@given(c=st.one_of(_fracs, _wide).filter(bool))
def test_inverse_of_a_rational_is_its_reciprocal(ctx, c):
    inv = ctx.from_rational(c).inverse()
    assert inv.coeffs == (1 / c,) + (Fraction(0),) * (ctx.degree - 1)
    assert inv * c == ctx.one()


# The stored form's contexts: Q, two fields and the reducible t^2 - 1 and t^3 - t.
STORED_CONTEXTS = {
    "Q": Q,
    "zeta5": ZETA5,
    "sqrt24": SQRT24,
    "t2-1": KERNEL_CONTEXTS["t2-1"],
    "t3-t": FieldContext([0, -1, 0, 1]),
}


def _assert_stored(e):
    """e is stored as ints over one positive denominator sharing no factor."""
    assert type(e.num) is tuple and len(e.num) == e.context.degree
    assert all(type(n) is int for n in e.num) and type(e.den) is int
    assert e.den > 0 and gcd(e.den, *e.num) == 1


def _mod(ctx, cs):
    """A Fraction coefficient list reduced modulo ctx's modulus, padded."""
    rem = field._poly_divmod(list(cs), list(ctx.modulus))[1]
    return tuple(rem) + (Fraction(0),) * (ctx.degree - len(rem))


def _convolve(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("ctx", STORED_CONTEXTS.values(), ids=STORED_CONTEXTS.keys())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_fraction_reference(ctx, data):
    a = data.draw(_kernel_elements(ctx))
    b = data.draw(_kernel_elements(ctx))
    ca, cb = a.coeffs, b.coeffs
    _assert_stored(a)
    for got, want in ((a + b, [x + y for x, y in zip(ca, cb)]),
                      (a - b, [x - y for x, y in zip(ca, cb)]),
                      (a * b, _convolve(ca, cb)),
                      (-a, [-x for x in ca]),
                      (a - a, [])):
        _assert_stored(got)
        assert got.coeffs == _mod(ctx, want)
    if a.is_zero():
        return
    try:
        inv = a.inverse()
    except NotInvertible as exc:  # a zero divisor: its factor divides a and m
        assert ctx.degree > 1 and len(exc.factor) > 1
        assert not field._poly_divmod(list(ca), exc.factor)[1]
        assert not field._poly_divmod(list(ctx.modulus), exc.factor)[1]
        return
    _assert_stored(inv)
    assert _mod(ctx, _convolve(inv.coeffs, ca)) == _mod(ctx, [Fraction(1)])


# The inverse's contexts: the stored ones and a monic modulus whose
# coefficients are not integral, t^2 + t/2 - 1/3, which the inverse scales by 6.
INVERSE_CONTEXTS = {**STORED_CONTEXTS,
                    "t2+t/2-1/3": FieldContext([Fraction(-1, 3), Fraction(1, 2), 1])}


@pytest.mark.parametrize("ctx", INVERSE_CONTEXTS.values(), ids=INVERSE_CONTEXTS.keys())
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_inverse_matches_fraction_reference(ctx, data):
    a = data.draw(_kernel_elements(ctx))
    root = data.draw(st.sampled_from([None, -1, 0, 1]))
    if root is not None:  # a zero divisor where t - root divides the modulus
        a = a * (ctx.generator() - root)
    if a.is_rational() and (a.num[0] or ctx.degree == 1):
        return  # the rational path: test_inverse_of_a_rational_is_its_reciprocal
    try:
        want = inverse_reference(a)
    except NotInvertible as exc:
        with pytest.raises(NotInvertible) as got:
            a.inverse()
        assert str(got.value) == str(exc) and got.value.factor == exc.factor
        return
    got = a.inverse()
    _assert_stored(got)
    assert (got.num, got.den) == (want.num, want.den)


@st.composite
def _dot_operands(draw, ctx):
    """An element, rational or not, or an int zero."""
    return draw(st.one_of(st.just(0), _kernel_elements(ctx)))


@pytest.mark.parametrize("ctx", STORED_CONTEXTS.values(), ids=STORED_CONTEXTS.keys())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_dot_equals_the_sum_of_products(ctx, data):
    n = data.draw(st.integers(0, 6))
    u = [data.draw(_dot_operands(ctx)) for _ in range(n)]
    v = [data.draw(_dot_operands(ctx)) for _ in range(n)]
    got = ctx.dot(u, v)
    _assert_stored(got)
    assert got == sum((a * b for a, b in zip(u, v)), ctx.zero())


class TestEqualityHashPickle:
    VALUES = [0, 1, -7, 2**70, Fraction(5, 3), Fraction(-1, 6), Fraction(7, 2**65)]

    @pytest.mark.parametrize("ctx", STORED_CONTEXTS.values(), ids=STORED_CONTEXTS.keys())
    def test_rational_is_its_int_or_fraction(self, ctx):
        for v in self.VALUES:
            for e in (ctx.from_rational(v), ctx.element([v]), ctx.from_rational(v * 6, 6)):
                _assert_stored(e)
                assert e == v and v == e and e == Fraction(v) and e.rational_value() == v
                assert hash(e) == hash(v) == hash(Fraction(v))
                assert e != v + 1 and e != Fraction(v) + Fraction(1, 3)

    def test_equal_elements_from_different_routes_hash_equal(self):
        t, z = SQRT24.generator(), ZETA5.generator()
        routes = [
            [t * t / 48, SQRT24.from_rational(Fraction(1, 2)), (t + 1) * (t - 1) / 46,
             SQRT24.image(Q.from_rational(Fraction(2, 4)))],
            [ZETA5.element([Fraction(1, 2), Fraction(1, 3)]), (3 + 2 * z) / 6,
             ZETA5.element([Fraction(3, 6), Fraction(-2, -6), 0, 0]),
             (z**5 + z) * Fraction(1, 3) + Fraction(1, 2) - Fraction(1, 3),
             parse_element(ZETA5, encode_element((3 + 2 * z) / 6))],
            [(z + 1) / (z + 1), ZETA5.one(), z**5, ZETA5.from_rational(4, 4)],
        ]
        for equal in routes:
            for e in equal:
                _assert_stored(e)
                assert e == equal[0] and hash(e) == hash(equal[0])
        assert len({e for equal in routes for e in equal}) == len(routes)

    @pytest.mark.parametrize("ctx", STORED_CONTEXTS.values(), ids=STORED_CONTEXTS.keys())
    def test_pickle_round_trip_under_every_protocol(self, ctx):
        g = ctx.generator()
        for e in (ctx.zero(), ctx.from_rational(Fraction(-5, 12)), g * Fraction(3, 14) - 2,
                  (g + 1) ** 7 / 9):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(e, protocol))
                assert back.context is ctx and (back.num, back.den) == (e.num, e.den)
                assert back == e and hash(back) == hash(e)
        assert copy.deepcopy(g) == g


class TestRationalRoots:
    def test_square_roots(self):
        assert rational_kth_root(Fraction(9, 4), 2) == Fraction(3, 2)
        assert rational_kth_root(24, 2) is None
        assert rational_kth_root(Fraction(-4), 2) is None

    def test_odd_roots_of_negatives(self):
        assert rational_kth_root(Fraction(-27, 8), 3) == Fraction(-3, 2)
        assert rational_kth_root(-32, 5) == -2

    def test_zero_and_one(self):
        assert rational_kth_root(0, 7) == 0
        assert rational_kth_root(1, 4) == 1


class TestElementRoots:
    def test_rational_square_root_found_in_any_context(self):
        roots = element_kth_roots(SQRT24.from_rational(9), 2)
        assert SQRT24.from_rational(3) in roots
        assert SQRT24.from_rational(-3) in roots

    def test_adjoined_square_root(self):
        roots = element_kth_roots(SQRT24.from_rational(24), 2)
        t = SQRT24.generator()
        assert roots[0] == t or roots[0] == -t
        assert set(roots) == {t, -t}

    def test_positive_root_listed_before_negative(self):
        roots = element_kth_roots(Q.from_rational(Fraction(25, 16)), 2)
        assert [r.rational_value() for r in roots] == [Fraction(5, 4), Fraction(-5, 4)]

    def test_fifth_roots_in_cyclotomic_context(self):
        two = ZETA5.from_rational(2)
        roots = element_kth_roots(two ** 5, 5)
        assert len(roots) == 5
        z = ZETA5.generator()
        assert set(roots) == {two * z ** j for j in range(5)}
        for r in roots:
            assert r ** 5 == 32

    def test_generator_as_its_own_root(self):
        ctx = FieldContext([-2, 0, 0, 1])  # t^3 - 2
        t = ctx.generator()
        assert element_kth_roots(ctx.from_rational(2), 3) == [t]

    def test_no_root_gives_empty_list(self):
        assert element_kth_roots(Q.from_rational(24), 2) == []
        assert element_kth_roots(ZETA5.from_rational(24), 2) == []

    def test_rational_roots_where_the_generator_is_a_zero_divisor(self):
        # over t^3 - t, theta^2 = t^2 is no unit; the search used to divide
        # by it after finding the roots at j = 0, and raised NotInvertible
        ctx = FieldContext([0, -1, 0, 1])
        roots = element_kth_roots(ctx.from_rational(36), 2)
        assert ctx.from_rational(6) in roots and ctx.from_rational(-6) in roots
        assert all(r ** 2 == 36 for r in roots)

    @pytest.mark.parametrize("ctx, value, k, want", [
        (ZETA5, 32, 5, ["2", "[0, 2, 0, 0]", "[0, 0, 2, 0]", "[0, 0, 0, 2]",
                        "[-2, -2, -2, -2]"]),
        (ZETA5, Fraction(25, 16), 2, ["5/4", "-5/4"]),
        (ZETA5, 576, 2, ["24", "-24"]),
        (ZETA5, [0, 0, 4, 0], 2, ["[0, 2, 0, 0]", "[0, -2, 0, 0]"]),
        (SQRT24, 32, 5, ["2"]),
        (SQRT24, Fraction(25, 16), 2, ["5/4", "-5/4"]),
        (SQRT24, 576, 2, ["24", "-24"]),
        (SQRT24, 24, 2, ["[0, 1]", "[0, -1]"]),
        (SQRT24, 96, 2, ["[0, 2]", "[0, -2]"]),
    ])
    def test_roots_and_order_over_fields_are_unchanged(self, ctx, value, k, want):
        # literals recorded while the search still divided by theta^(jk)
        v = ctx.element(value) if isinstance(value, list) else ctx.from_rational(value)
        assert [encode_element(r) for r in element_kth_roots(v, k)] == want

    @pytest.mark.parametrize("ctx", [Q, SQRT24, ZETA5], ids=["Q", "sqrt24", "zeta5"])
    def test_zero_is_its_only_root(self, ctx):
        for k in (2, 5):
            assert element_kth_roots(ctx.zero(), k) == [ctx.zero()]

    @pytest.mark.parametrize("ctx", [Q, SQRT24, ZETA5], ids=["Q", "sqrt24", "zeta5"])
    def test_early_stop_keeps_roots_and_order(self, ctx):
        # the search stops where a power of the generator returns to 1; a
        # search over every power up to k deg(m) finds the same roots in order
        def full_search(value, k):
            theta, roots = ctx.generator(), []
            for j in range(1 if ctx.degree == 1 else k * ctx.degree + 1):
                q = value / (theta ** j) ** k
                r0 = rational_kth_root(q.rational_value(), k) if q.is_rational() else None
                for r in ([] if r0 is None else [r0, -r0] if k % 2 == 0 else [r0]):
                    root = theta ** j * r
                    if root not in roots and root ** k == value:
                        roots.append(root)
            return roots

        t = ctx.generator()
        values = [ctx.from_rational(v) for v in (32, -32, Fraction(25, 16), 24, 576, 5)]
        values += [t, t ** 2, t ** 3 * 32, -t]
        found = 0
        for v in values:
            for k in (2, 5):
                assert element_kth_roots(v, k) == full_search(v, k), (v, k)
                found += len(full_search(v, k))
        assert found >= 6
