"""Dense univariate polynomials over a :class:`~braidreps.field.FieldContext`.

Coefficients are stored in ascending order with trailing zeros trimmed; the
zero polynomial has an empty coefficient tuple and degree -1.  Division
and gcd run the classical Euclidean scheme, which is exact over these
coefficient fields.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .field import ContextMismatch, FieldContext, FieldElement

__all__ = ["Polynomial", "ZeroPolynomial"]


class ZeroPolynomial(ValueError):
    """An operation that needs a nonzero polynomial received zero."""


class Polynomial:
    __slots__ = ("context", "coeffs")

    def __init__(self, context: FieldContext, coeffs: Iterable[FieldElement]):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.context = context
        self.coeffs: tuple[FieldElement, ...] = tuple(cs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_coeffs(cls, context: FieldContext, coeffs: Sequence) -> "Polynomial":
        """Ascending coefficients; ints and Fractions are coerced."""
        lifted = [
            c if isinstance(c, FieldElement) else context.from_rational(c)
            for c in coeffs
        ]
        return cls(context, lifted)

    @classmethod
    def zero(cls, context: FieldContext) -> "Polynomial":
        return cls(context, ())

    @classmethod
    def one(cls, context: FieldContext) -> "Polynomial":
        return cls(context, (context.one(),))

    @classmethod
    def from_roots(cls, context: FieldContext, roots: Sequence[FieldElement]) -> "Polynomial":
        """The monic polynomial prod (t - r) over the given roots."""
        p = cls.one(context)
        for r in roots:
            p = p * cls(context, (-r, context.one()))
        return p

    # -- basic views -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> FieldElement:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Polynomial":
        lead = self.leading()
        if lead == 1:
            return self
        inv = lead.inverse()
        return Polynomial(self.context, tuple(c * inv for c in self.coeffs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.context.modulus == other.context.modulus
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.context.modulus, self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Polynomial(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            term = repr(c)
            if i == 1:
                term += "*L"
            elif i > 1:
                term += f"*L^{i}"
            parts.append(term)
        return "Polynomial(" + " + ".join(parts) + ")"

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.context.modulus != other.context.modulus:
            raise ContextMismatch("polynomials over different contexts")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(self.context, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.context, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.context)
        zero = self.context.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return Polynomial(self.context, out)

    def scale(self, s: FieldElement) -> "Polynomial":
        return Polynomial(self.context, tuple(c * s for c in self.coeffs))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one(self.context)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._check(other)
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        ctx = self.context
        rem = list(self.coeffs)
        dn = other.degree
        if self.degree < dn:
            return Polynomial.zero(ctx), self
        inv_lead = other.leading().inverse()
        quot = [ctx.zero()] * (self.degree - dn + 1)
        while len(rem) - 1 >= dn:
            top = rem[-1]
            if top.is_zero():
                rem.pop()
                continue
            c = top * inv_lead
            off = len(rem) - 1 - dn
            quot[off] = c
            for i, b in enumerate(other.coeffs):
                rem[off + i] = rem[off + i] - c * b
            rem.pop()
        return Polynomial(ctx, quot), Polynomial(ctx, rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor (Euclid)."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

    def lcm(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.context)
        g = self.gcd(other)
        return ((self * other) // g).monic()
