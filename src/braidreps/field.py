"""Exact arithmetic in Q and in simple extensions Q[t]/(m(t)).

A :class:`FieldContext` wraps a monic squarefree modulus ``m`` with rational
coefficients.  Elements are coefficient vectors of length ``deg m`` in the
residue class ring Q[t]/(m); the degree-1 modulus ``t`` gives plain Q.  The
modulus is *not* checked for irreducibility: a squarefree reducible modulus
yields a product of fields, and inverting a zero divisor raises
:class:`NotInvertible` at the point of use, with the factor of the modulus
it exposes, where :meth:`FieldContext.split` can go on.

There is one context per modulus: ``FieldContext(m)`` returns the same object
for every m of equal value, so contexts compare by identity, and elements of
two contexts never mix (:class:`ContextMismatch`).  :meth:`FieldContext.image`
is the one map of an element into a context.

All arithmetic is exact, with no floating point anywhere in this module.
An element is stored as integer numerators, one per power of t, over one
positive denominator, with no factor common to all of them (Cohen, GTM
138, sec. 4.2; FLINT's ``nf_elem``), so equal elements are stored alike.  A
sum over equal denominators adds integers; a product, and a whole sum of
products (:meth:`FieldContext.dot`), convolves and reduces on integers and
divides out one gcd at the end; an inverse runs the extended Euclidean
algorithm on integer polynomials.  Moduli and their factors work on lists
of ``fractions.Fraction``, which ``coeffs`` reads off an element.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

__all__ = [
    "FieldContext",
    "FieldElement",
    "NonMonicModulus",
    "NotSquarefree",
    "ContextMismatch",
    "NotInvertible",
    "TooLarge",
    "rationals",
    "cyclotomic5_context",
    "rational_kth_root",
    "element_kth_roots",
]

Coercible = Union["FieldElement", Fraction, int]


class NonMonicModulus(ValueError):
    """Modulus is not monic (or has degree < 1)."""


class NotSquarefree(ValueError):
    """Modulus shares a factor with its derivative."""


class ContextMismatch(ValueError):
    """Operands live in different coefficient contexts."""


class NotInvertible(ArithmeticError):
    """A zero divisor was inverted (the modulus is reducible); ``factor`` is
    the monic factor of the modulus it shares, when known."""

    def __init__(self, message: str, factor: list[Fraction] | None = None):
        super().__init__(message)
        self.factor = factor


class TooLarge(ValueError):
    """An exact value has more digits than Python converts to text."""

    def __str__(self) -> str:
        limit = sys.get_int_max_str_digits()
        return f"a result has more than {limit} digits; too large to print"


# -- polynomial helpers on raw Fraction lists (moduli and their factors) ----


def _trim(cs: list[Fraction]) -> list[Fraction]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_divmod(
    a: list[Fraction], b: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and trimmed remainder of a by b (b trimmed and nonzero)."""
    rem = _trim(list(a))
    q = [Fraction(0)] * max(len(rem) - len(b) + 1, 1)
    inv_lead = 1 / b[-1]
    while len(rem) >= len(b):
        if rem[-1] == 0:
            rem.pop()
            continue
        c = rem[-1] * inv_lead
        off = len(rem) - len(b)
        q[off] = c
        for i, bc in enumerate(b):
            rem[off + i] -= c * bc
        rem.pop()
    return q, _trim(rem)


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return a


def _power(base, n: int, mul=operator.mul):
    """base^n for n >= 1 by binary powering, starting from the base.

    No product with one and no squaring after the top bit: n = 2 costs one
    product and n = 5 three.  Fields, polynomials and matrices share it.
    """
    result = None
    while True:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if not n:
            return result
        base = mul(base, base)


class FieldContext:
    """Coefficient field Q[t]/(m(t)) for a monic squarefree modulus m.

    ``FieldContext(m)`` returns the one context of the modulus m: the checks
    and the reduction table run the first time m is seen, and every later
    call (an unpickled context included) returns that object, so two
    contexts are the same exactly when they are identical.
    """

    __slots__ = ("modulus", "degree", "_reduction", "_pad", "_zero", "_one")

    def __new__(cls, modulus: Sequence[Coercible]) -> "FieldContext":
        coeffs = _trim([Fraction(c) for c in modulus])
        key = tuple(coeffs)
        self = _CONTEXTS.get(key)
        if self is not None:
            return self
        shown = [str(c) for c in coeffs]  # as NotInvertible shows a factor
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise NonMonicModulus(f"modulus must be monic of degree >= 1, got {shown}")
        deriv = [i * c for i, c in enumerate(coeffs)][1:]
        if len(_poly_gcd(coeffs, deriv)) != 1:
            raise NotSquarefree(f"modulus {shown} is not squarefree")
        self = super().__new__(cls)
        self.modulus: tuple[Fraction, ...] = key
        self.degree: int = len(coeffs) - 1
        # Coefficient vectors of t^k mod m for k = d .. 2d-2.
        d = self.degree
        table = [tuple(-c for c in coeffs[:-1])]  # t^d
        for _ in range(d - 2):
            prev = table[-1]
            nxt = [Fraction(0)] * d
            for i in range(d - 1):
                nxt[i + 1] += prev[i]
            top = prev[d - 1]
            if top:
                base = table[0]
                for i in range(d):
                    nxt[i] += top * base[i]
            table.append(tuple(nxt))
        # Reduction table on integers: (scale, scale * the rows above), scale
        # the lcm of their denominators, so non-integral moduli reduce too.
        scale = lcm(*(c.denominator for row in table for c in row))
        self._reduction = (scale, tuple(tuple(int(c * scale) for c in row) for row in table))
        self._pad = (0,) * (d - 1)  # the numerators above a rational's
        self._zero = FieldElement(self, (0,) + self._pad)
        self._one = FieldElement(self, (1,) + self._pad)
        _CONTEXTS[key] = self
        return self

    def __reduce__(self):
        return FieldContext, (self.modulus,)

    # -- constructors --------------------------------------------------

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def from_rational(self, value: Coercible, den: int = 1) -> "FieldElement":
        """value / den, for a rational value and an int den > 0."""
        if type(value) is not int:
            r = value if type(value) is Fraction else Fraction(value)
            value, den = r.numerator, r.denominator * den
        if den != 1:
            g = gcd(value, den)
            value, den = value // g, den // g
        return FieldElement(self, (value,) + self._pad, den)

    def generator(self) -> "FieldElement":
        """The residue class of t (a root of the modulus)."""
        if self.degree == 1:
            # modulus t - m0: the generator is the rational root itself
            return self.from_rational(-self.modulus[0])
        return FieldElement(self, (0, 1) + self._pad[1:])

    def element(self, coeffs: Iterable[Coercible]) -> "FieldElement":
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise ValueError(
                f"coefficient vector of length {len(cs)} in a degree {self.degree} context"
            )
        num, den = _lift(cs)
        return FieldElement(self, tuple(num) + (0,) * (self.degree - len(cs)), den)

    # -- structural ----------------------------------------------------

    def __repr__(self) -> str:
        return f"FieldContext({[str(c) for c in self.modulus]})"

    def split(self, factor: Sequence[Fraction]) -> tuple["FieldContext", "FieldContext"]:
        """Q[t]/(g) and Q[t]/(m/g), whose product this ring is, for a monic
        factor g of the modulus m (the D5 splitting: Della Dora et al., 1985)."""
        return FieldContext(factor), FieldContext(_poly_divmod(list(self.modulus), factor)[0])

    def image(self, e: "FieldElement") -> "FieldElement":
        """e mapped into this context: a rational embeds (zero as the shared
        zero), anything else is reduced modulo this modulus, which must divide
        e's.  Both are the one ring map where both apply."""
        if e.is_rational():
            c = e.num[0]
            return FieldElement(self, (c,) + self._pad, e.den) if c else self._zero
        return self.element(_poly_divmod(list(e.coeffs), list(self.modulus))[1])

    def dot(self, u: Sequence, v: Sequence) -> "FieldElement":
        """sum u_k v_k over elements of this context, an int zero among them
        adding nothing: each product's numerators convolved over the lcm of
        the pair denominators, then one reduction modulo m and one gcd."""
        pairs = [(a, b) for a, b in zip(u, v) if type(a) is not int and type(b) is not int]
        den = lcm(*(a.den * b.den for a, b in pairs))
        prod = [0] * (2 * self.degree - 1)
        for a, b in pairs:
            _convolve(prod, a.num, b.num, den // (a.den * b.den))
        return self._reduced_product(prod, den)

    def _reduced_product(self, prod: list[int], den: int) -> "FieldElement":
        """prod / den for integer coefficients prod of degree at most 2d - 2:
        reduced modulo m on integers by the table, then one gcd."""
        d = self.degree
        scale, reduction = self._reduction
        out = [c * scale for c in prod[:d]]
        for ck, red in zip(prod[d:], reduction):
            if ck:
                for i, r in enumerate(red):
                    out[i] += ck * r
        return _reduced(self, out, den * scale)


_CONTEXTS: dict[tuple[Fraction, ...], FieldContext] = {}  # see FieldContext


def rationals() -> FieldContext:
    """The base field Q, realised as the degree-1 context with modulus t."""
    return FieldContext((0, 1))


def cyclotomic5_context() -> FieldContext:
    """Q(zeta_5), the context needed to list all five fifth roots of a rational."""
    return FieldContext((1, 1, 1, 1, 1))


def _lift(cs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over the lcm of the denominators, and that lcm,
    which no factor of every numerator divides (each prime power exactly
    dividing it exactly divides some reduced denominator)."""
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def _lift_rational(es: Sequence["FieldElement"]) -> tuple[list[int], int]:
    """:func:`_lift` of the values of rational elements."""
    den = lcm(*(e.den for e in es))
    return [e.num[0] * (den // e.den) for e in es], den


def _convolve(prod: list[int], a: Sequence[int], b: Sequence[int], f: int = 1) -> None:
    """prod += f a b, for the integer coefficients a and b of polynomials."""
    for i, ai in enumerate(a):
        if ai:
            ai *= f
            for j, bj in enumerate(b, i):
                prod[j] += ai * bj


def _reduced(ctx: FieldContext, num: Sequence[int], den: int) -> "FieldElement":
    """The element num / den, den > 0, with the common factor divided out."""
    g = gcd(den, *num)
    if g != 1:
        num, den = [n // g for n in num], den // g
    return FieldElement(ctx, tuple(num), den)


class FieldElement:
    """An element of Q[t]/(m): the integer numerators ``num`` of 1, t, ...,
    t^(deg m - 1) over the denominator ``den`` > 0, gcd(den, *num) = 1."""

    __slots__ = ("context", "num", "den")

    def __init__(self, context: FieldContext, num: tuple[int, ...], den: int = 1):
        self.context = context
        self.num = num
        self.den = den

    def __reduce__(self):
        return FieldElement, (self.context, self.num, self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of 1, t, ..., t^(deg m - 1), reduced."""
        return tuple(Fraction(n, self.den) for n in self.num)

    # -- coercion --------------------------------------------------------

    def _coerce(self, other: Coercible) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.context is not self.context:
                raise ContextMismatch(f"{self.context!r} vs {other.context!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.context.from_rational(other)
        return None

    # -- ring operations ---------------------------------------------------

    def _add(self, other: Coercible, op) -> "FieldElement":
        """self + other or self - other (op): integers over the lcm of the
        denominators."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, den = self.num, o.num, self.den
        if o.den != den:
            den = den // gcd(den, o.den) * o.den
            a, b = [x * (den // self.den) for x in a], [y * (den // o.den) for y in b]
        return _reduced(self.context, list(map(op, a, b)), den)

    def __add__(self, other: Coercible) -> "FieldElement":
        return self._add(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other: Coercible) -> "FieldElement":
        return self._add(other, operator.sub)

    def __rsub__(self, other: Coercible) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.context, tuple(-n for n in self.num), self.den)

    def __mul__(self, other: Coercible) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        x, y = self, o
        if not any(y.num[1:]):
            x, y = y, x
        a, b = x.num, y.num
        if not any(a[1:]):  # a rational factor scales the other's numerators
            return _reduced(self.context, [a[0] * n for n in b], x.den * y.den)
        prod = [0] * (2 * len(a) - 1)
        _convolve(prod, a, b)
        return self.context._reduced_product(prod, x.den * y.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via the extended Euclidean algorithm on
        integer polynomials (Collins, 1967; Cohen, GTM 138, sec. 3.3).

        From r0 = M m (M the lcm of the modulus's denominators), r1 = num,
        s0 = 0 and s1 = 1, each step is a pseudo-division c r0 = q r1 + r,
        c = lc(r1)^(deg r0 - deg r1 + 1), with s = c s0 - q s1, so that
        s num = r mod m throughout; r and s are divided by their common
        content.  A last r0 = [k] gives the inverse den s0 / k.

        In degree > 1 zero raises :class:`NotInvertible`: it shares the whole
        modulus (over a reducible one, nonzero factors can multiply to 0), as
        does any element whose last r0 has degree >= 1, with that r0 made
        monic.  A nonzero rational c inverts to 1/c.
        """
        ctx, c0 = self.context, self.num[0]
        if self.is_rational() and (c0 or ctx.degree == 1):
            if not c0:
                raise ZeroDivisionError("inverse of zero")
            return FieldElement(ctx, (-self.den if c0 < 0 else self.den,) + ctx._pad, abs(c0))
        r0, r1 = _lift(ctx.modulus)[0], _trim(list(self.num))
        s0, s1 = [0], [1]
        while r1:
            lc, r, s = r1[-1], r0, s0
            for k in range(len(r0) - len(r1), -1, -1):  # c r0 - q r1, c s0 - q s1
                t = r[-1]
                r = [lc * x for x in r[:-1]]
                s = [lc * x for x in s] + [0] * (k + len(s1) - len(s))
                for j, y in enumerate(r1[:-1], k):
                    r[j] -= t * y
                for j, y in enumerate(s1, k):
                    s[j] -= t * y
            _trim(r)
            g = gcd(*r, *s)
            r0, r1, s0, s1 = r1, [x // g for x in r], s1, [x // g for x in s]
        if len(r0) != 1:
            factor = [Fraction(c, r0[-1]) for c in r0]
            raise NotInvertible("zero divisor: element shares the monic factor "
                                f"{[str(c) for c in factor]} with the modulus", factor)
        k = r0[0]
        num = [x * (self.den if k > 0 else -self.den) for x in _trim(s0)]
        return _reduced(ctx, num + [0] * (ctx.degree - len(num)), abs(k))

    def __truediv__(self, other: Coercible) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: Coercible) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return self.context.one()
        return _power(self.inverse() if n < 0 else self, abs(n))

    # -- predicates and views ---------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if any(self.num[1:]):
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return (self.context is other.context and self.den == other.den
                    and self.num == other.num)
        if isinstance(other, (int, Fraction)):
            return (self.num[0] == other.numerator and self.den == other.denominator
                    and self.is_rational())
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.context.modulus, self.num, self.den))

    def __repr__(self) -> str:
        if self.context.degree == 1:
            return f"<{self.coeffs[0]}>"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*t")
            else:
                terms.append(f"{c}*t^{i}")
        return "<" + (" + ".join(terms) or "0") + ">"


# -- roots -------------------------------------------------------------


def _int_kth_root(n: int, k: int) -> int | None:
    """Exact integer k-th root of n >= 0, or None."""
    if n in (0, 1):
        return n
    lo, hi = 1, 1 << ((n.bit_length() + k - 1) // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        p = mid**k
        if p == n:
            return mid
        if p < n:
            lo = mid + 1
        else:
            hi = mid
    return None


def rational_kth_root(value: Coercible, k: int) -> Fraction | None:
    """The rational k-th root of a rational, if one exists.

    For even k the positive root is returned; callers wanting both signs
    enumerate the pair themselves.  Returns None when no rational root
    exists (including negative radicands with even k).
    """
    if k < 1:
        raise ValueError(f"root order must be >= 1, got {k}")
    r = Fraction(value)
    if k == 1:
        return r
    if r == 0:
        return Fraction(0)
    sign = 1
    if r < 0:
        if k % 2 == 0:
            return None
        sign = -1
        r = -r
    num = _int_kth_root(r.numerator, k)
    if num is None:
        return None
    den = _int_kth_root(r.denominator, k)
    if den is None:
        return None
    return Fraction(sign * num, den)


def element_kth_roots(value: FieldElement, k: int) -> list[FieldElement]:
    """All k-th roots of ``value`` of the shape r * theta^j, r rational.

    This is a best-effort search, not a factorisation: it finds every root
    that is a rational multiple of a power of the context generator.  That
    covers the cases this package constructs on purpose (rational roots,
    a directly adjoined root t^k = e, and f0 * zeta_5^j in a cyclotomic
    context).  Roots of other shapes are reported as missing by callers.

    Results are ordered by generator power, positive rational factor first.
    The search stops where a power of the generator returns to 1 (after five
    steps over Q(zeta_5)): the later powers, and so their roots, repeat.
    """
    ctx = value.context
    if value.is_zero():
        return [ctx.zero()]
    roots: list[FieldElement] = []
    seen: set[FieldElement] = set()
    theta = ctx.generator()
    max_j = 1 if ctx.degree == 1 else k * ctx.degree + 1
    theta_pow = ctx.one()
    for j in range(max_j):
        if j:
            theta_pow = theta_pow * theta
            if theta_pow == 1:
                break
        # value = c theta^(jk) for a rational c, read off the first nonzero
        # coefficient: no division, as theta is a zero divisor when t | m
        power = theta_pow**k
        i, lead = next((i, c) for i, c in enumerate(power.num) if c)
        c = Fraction(value.num[i] * power.den, value.den * lead)
        if power * c != value:
            continue
        r0 = rational_kth_root(c, k)
        if r0 is None:
            continue
        candidates = [r0, -r0] if k % 2 == 0 else [r0]
        for r in candidates:
            root = theta_pow * ctx.from_rational(r)
            if root not in seen and root**k == value:
                seen.add(root)
                roots.append(root)
    return roots
