"""Spectral identities of the central element in each representation.

The products A = g1*g2 and B = g1*g2*g1 satisfy A^3 = B^2, and this common
matrix acts as a scalar C in every irreducible representation.  The scalar,
the traces of A, A^2 and B, the characteristic polynomials of A and B, and
the determinant identity (prod x_i^{m_i})^6 = C^d all have closed forms in
the eigenvalues and the auxiliary root.  Everything here is compared
exactly; a mismatch means a broken construction, not numerical noise.

:func:`spectral_report` checks all of them from one computation of A, A^2
and B.

Square and cube roots of C never appear: each expected quantity is stated
as a polynomial in the eigenvalues, h or f, so no branch choices arise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldElement
from .linalg import Matrix, charpoly
from .poly import Polynomial
from .reps import RepSpec, Representation, BadSpec, elementary_symmetric

__all__ = [
    "NotScalar",
    "SpectralReport",
    "expected_central",
    "expected_traces",
    "expected_charpolys",
    "spectral_report",
]


class NotScalar(ArithmeticError):
    """(g1 g2)^3 or (g1 g2 g1)^2 failed to be the same scalar matrix."""


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


def expected_central(spec: RepSpec) -> FieldElement:
    """Closed form of the central scalar for each dimension."""
    values = spec.params.values
    d = spec.dim
    if d == 1:
        return values[0] ** 6
    if d == 2:
        return -(elementary_symmetric(values, 2) ** 3)
    if d == 3:
        return elementary_symmetric(values, 3) ** 2
    if d == 4:
        return spec.h**3
    if d == 5:
        return spec.f**6
    if d == 6:
        e5 = elementary_symmetric(values, 5)
        return -(values[spec.variant - 1] * e5)
    raise BadSpec(f"no central value for dimension {d}")


def expected_traces(
    spec: RepSpec,
) -> tuple[FieldElement, FieldElement, FieldElement]:
    """Closed forms of (tr A, tr A^2, tr B)."""
    values = spec.params.values
    ctx = spec.context
    d = spec.dim
    if d == 1:
        x = values[0]
        return x**2, x**4, x**3
    if d == 2:
        e2 = elementary_symmetric(values, 2)
        return e2, -(e2**2), ctx.zero()
    if d == 3:
        e3 = elementary_symmetric(values, 3)
        return ctx.zero(), ctx.zero(), -e3
    if d == 4:
        e4 = elementary_symmetric(values, 4)
        # tr A = C/e4 = h^3/h^2
        return spec.h, e4, ctx.zero()
    if d == 5:
        f = spec.f
        return -(f**2), -(f**4), f**3
    if d == 6:
        return ctx.zero(), ctx.zero(), ctx.zero()
    raise BadSpec(f"no trace identities for dimension {d}")


def expected_charpolys(spec: RepSpec) -> tuple[Polynomial, Polynomial]:
    """Expected characteristic polynomials of A and B, fully expanded.

    The eigenvalue lists involve a primitive cube (resp. square) root of
    unity; multiplying the factors out eliminates it, so both results live
    over the working field.
    """
    values = spec.params.values
    ctx = spec.context
    d = spec.dim

    def poly(*coeffs):
        return Polynomial.from_coeffs(ctx, list(coeffs))

    one = ctx.one()
    if d == 1:
        x = values[0]
        return poly(-(x**2), one), poly(-(x**3), one)
    if d == 2:
        e2 = elementary_symmetric(values, 2)
        return poly(e2**2, -e2, one), poly(e2**3, ctx.zero(), one)
    if d == 3:
        e3 = elementary_symmetric(values, 3)
        chi_a = poly(-(e3**2), ctx.zero(), ctx.zero(), one)
        chi_b = poly(-e3, one) * poly(e3, one) ** 2
        return chi_a, chi_b
    if d == 4:
        h = spec.h
        chi_a = poly(-h, one) ** 2 * poly(h**2, h, one)
        chi_b = poly(-(h**3), ctx.zero(), one) ** 2
        return chi_a, chi_b
    if d == 5:
        f = spec.f
        chi_a = poly(-(f**2), one) * poly(f**4, f**2, one) ** 2
        chi_b = poly(-(f**3), one) ** 3 * poly(f**3, one) ** 2
        return chi_a, chi_b
    if d == 6:
        xie5 = values[spec.variant - 1] * elementary_symmetric(values, 5)
        chi_a = poly(xie5, ctx.zero(), ctx.zero(), one) ** 2
        chi_b = poly(xie5, ctx.zero(), one) ** 3
        return chi_a, chi_b
    raise BadSpec(f"no spectra for dimension {d}")


def spectral_report(rep: Representation) -> SpectralReport:
    """Every spectral identity for one representation, exactly compared.

    Raises :class:`NotScalar` when (g1 g2)^3 is not scalar or (g1 g2 g1)^2
    differs from it, both of which indicate a broken construction.
    """
    A = rep.g1 @ rep.g2
    A2 = A @ A
    B = A @ rep.g1
    A3 = A2 @ A
    if not A3.is_scalar():
        raise NotScalar("(g1 g2)^3 is not scalar")
    c = A3[0, 0]
    if B @ B != Matrix.identity(rep.context, rep.dim).scale(c):
        raise NotScalar("(g1 g2 g1)^2 differs from (g1 g2)^3")
    c_exp = expected_central(rep.spec)
    tr_a, tr_a2, tr_b = A.trace(), A2.trace(), B.trace()
    e_tr_a, e_tr_a2, e_tr_b = expected_traces(rep.spec)
    chi_a, chi_b = charpoly(A), charpoly(B)
    e_chi_a, e_chi_b = expected_charpolys(rep.spec)
    det = rep.context.one()
    for x, m in zip(rep.values, rep.multiplicities):
        det = det * x**m
    det_ok = det**6 == c**rep.dim
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
