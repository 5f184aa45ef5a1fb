"""Dense univariate polynomials over a :class:`~braidreps.field.FieldContext`.

Coefficients are stored in ascending order with trailing zeros trimmed; the
zero polynomial has an empty coefficient tuple and degree -1.  Products
and powers are the only ring operations: P_X is a product of linear
factors and :func:`~braidreps.linalg.minpoly` is a product of monic
annihilators, so no polynomial is divided by another.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .field import ContextMismatch, FieldContext, FieldElement, _power

__all__ = ["Polynomial"]


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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.context is other.context and self.coeffs == other.coeffs

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
        if self.context is not other.context:
            raise ContextMismatch("polynomials over different contexts")

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

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        return _power(self, n) if n else Polynomial.one(self.context)
