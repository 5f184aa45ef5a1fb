"""Spectral identities of the central element in each representation.

The products A = g1*g2 and B = g1*g2*g1 satisfy A^3 = B^2, and this common
matrix acts as a scalar C in every irreducible representation.  The scalar,
the traces of A, A^2 and B, the characteristic polynomials of A and B, and
the determinant identity (prod x_i^{m_i})^6 = C^d all have closed forms in
the eigenvalues and the auxiliary root.  Everything here is compared
exactly; a mismatch means a broken construction, not numerical noise.

:func:`spectral_report` checks all of them from one dense product, B^2,
against one table of closed forms per dimension: by the braid relation
B^2 = (g1 g2 g1)(g2 g1 g2) = A^3, and once it is CI, d, C and the three
traces give every power sum, so both characteristic polynomials come from
the relations by Newton's identities.  Over Q, for a diagonal g1 (as
``build_rep`` makes it), that product is on integers: with g1 = E/L and
g2 = N/q (``reps._integer_pair``), B = E N E / (L^2 q) takes two scalings,
and C and the traces are read off as fractions.

Square and cube roots of C never appear: each expected quantity is stated
as a polynomial in the eigenvalues, h or f, so no branch choices arise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .field import FieldElement
from .linalg import Matrix, _charpoly_from_power_sums
from .poly import Polynomial
from .reps import RepSpec, Representation, _integer_pair

__all__ = [
    "NotScalar",
    "SpectralReport",
    "spectral_report",
]


class NotScalar(ArithmeticError):
    """(g1 g2)^3, computed as (g1 g2 g1)^2, is not a scalar matrix."""


@dataclass(frozen=True)
class SpectralReport:
    """Expected/actual pairs for every identity, with per-check outcomes.

    ``checks`` names each compared identity; ``all_ok`` is their conjunction.
    """

    C_rho: FieldElement
    C_expected: FieldElement
    trA: FieldElement
    trA2: FieldElement
    trB: FieldElement
    trA_expected: FieldElement
    trA2_expected: FieldElement
    trB_expected: FieldElement
    charpoly_A: Polynomial
    charpoly_B: Polynomial
    charpoly_A_expected: Polynomial
    charpoly_B_expected: Polynomial
    det_constraint_ok: bool
    all_ok: bool
    checks: tuple[tuple[str, bool], ...]


def _closed_forms(spec: RepSpec):
    """C, (tr A, tr A^2, tr B) and the expanded charpolys of A and B.

    The eigenvalue lists of A and B involve a primitive cube (resp. square)
    root of unity; multiplying the factors out eliminates it, so every
    form lives over the working field.
    """
    values = spec.params.values
    ctx = spec.context
    zero, one = ctx.zero(), ctx.one()

    def poly(*coeffs):
        return Polynomial.from_coeffs(ctx, list(coeffs))

    d = spec.dim
    if d == 1:
        x = values[0]
        return x**6, (x**2, x**4, x**3), (poly(-(x**2), one), poly(-(x**3), one))
    if d == 2:
        e2 = prod(values)
        chi_a, chi_b = poly(e2**2, -e2, one), poly(e2**3, zero, one)
        return -(e2**3), (e2, -(e2**2), zero), (chi_a, chi_b)
    if d == 3:
        e3 = prod(values)
        chi_a = poly(-(e3**2), zero, zero, one)
        chi_b = poly(-e3, one) * poly(e3, one) ** 2
        return e3**2, (zero, zero, -e3), (chi_a, chi_b)
    if d == 4:
        h = spec.h
        chi_a = poly(-h, one) ** 2 * poly(h**2, h, one)
        chi_b = poly(-(h**3), zero, one) ** 2
        # tr A = C/e4 = h^3/h^2
        return h**3, (h, prod(values), zero), (chi_a, chi_b)
    if d == 5:
        f = spec.f
        chi_a = poly(-(f**2), one) * poly(f**4, f**2, one) ** 2
        chi_b = poly(-(f**3), one) ** 3 * poly(f**3, one) ** 2
        return f**6, (-(f**2), -(f**4), f**3), (chi_a, chi_b)
    xie5 = values[spec.variant - 1] * prod(values)  # d = 6: RepSpec admits no other
    chi_a = poly(xie5, zero, zero, one) ** 2
    chi_b = poly(xie5, zero, one) ** 3
    return -xie5, (zero, zero, zero), (chi_a, chi_b)


def spectral_report(rep: Representation) -> SpectralReport:
    """Every spectral identity for one representation, exactly compared.

    Relies on the braid relation that ``build_rep`` proves, by which
    A^3 = B^2; raises :class:`NotScalar` when B^2 is not scalar, which
    indicates a broken construction.
    """
    ctx, d = rep.context, rep.dim
    pair = _integer_pair(rep.g1, rep.g2)
    if pair:  # on integers: A = E N / (L q) and B = E N E / (L^2 q)
        e, l, n, q = pair
        en = [[ei * x for x in row] for ei, row in zip(e, n)]
        b = [[x * ej for x, ej in zip(row, e)] for row in en]
        b2 = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in b]
        c = b2[0][0]
        if b2 != [[c if i == j else 0 for j in range(d)] for i in range(d)]:
            raise NotScalar("(g1 g2)^3 is not scalar")
        lq = l * q
        c, tr_a, tr_a2, tr_b = (ctx.from_rational(Fraction(num, den)) for num, den in (
            (c, (l * lq) ** 2),
            (sum(en[i][i] for i in range(d)), lq),
            (sum(x * y for row, col in zip(en, zip(*en)) for x, y in zip(row, col)), lq * lq),
            (sum(b[i][i] for i in range(d)), l * lq)))
    else:
        A = rep.g1 @ rep.g2
        B = A @ rep.g1
        B2 = B @ B
        c = B2[0, 0]
        if B2 != Matrix.diagonal(ctx, [c] * d):
            raise NotScalar("(g1 g2)^3 is not scalar")
        tr_a, tr_b = A.trace(), B.trace()
        tr_a2 = sum((x * y for x, y in zip(A.entries, A.transpose().entries)), start=ctx.zero())
    c_exp, (e_tr_a, e_tr_a2, e_tr_b), (e_chi_a, e_chi_b) = _closed_forms(rep.spec)
    # A^3 = B^2 = cI: tr A^k = c^(k//3) tr A^(k%3) and tr B^k = c^(k//2) tr B^(k%2)
    ks, tr_i = range(1, d + 1), ctx.from_rational(d)
    sums_a = [c ** (k // 3) * (tr_i, tr_a, tr_a2)[k % 3] for k in ks]
    sums_b = [c ** (k // 2) * (tr_i, tr_b)[k % 2] for k in ks]
    chi_a, chi_b = (_charpoly_from_power_sums(ctx, s) for s in (sums_a, sums_b))
    det = prod((x**m for x, m in zip(rep.values, rep.multiplicities)), start=ctx.one())
    det_ok = det**6 == c**d
    checks = (
        ("central_matches_closed_form", c == c_exp),
        ("trace_A", tr_a == e_tr_a),
        ("trace_A2", tr_a2 == e_tr_a2),
        ("trace_B", tr_b == e_tr_b),
        ("charpoly_A", chi_a == e_chi_a),
        ("charpoly_B", chi_b == e_chi_b),
        ("det_constraint", det_ok),
    )
    return SpectralReport(
        C_rho=c,
        C_expected=c_exp,
        trA=tr_a,
        trA2=tr_a2,
        trB=tr_b,
        trA_expected=e_tr_a,
        trA2_expected=e_tr_a2,
        trB_expected=e_tr_b,
        charpoly_A=chi_a,
        charpoly_B=chi_b,
        charpoly_A_expected=e_chi_a,
        charpoly_B_expected=e_chi_b,
        det_constraint_ok=det_ok,
        all_ok=all(ok for _, ok in checks),
        checks=checks,
    )
