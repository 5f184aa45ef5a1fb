"""Spectral identities of the central element in each representation.

The products A = g1*g2 and B = g1*g2*g1 satisfy A^3 = B^2, and this common
matrix acts as a scalar C in every irreducible representation.  The scalar,
the traces of A, A^2 and B, the characteristic polynomials of A and B, and
the determinant identity (prod x_i^{m_i})^6 = C^d all have closed forms in
the eigenvalues and the auxiliary root.  Everything here is compared
exactly; a mismatch means a broken construction, not numerical noise.

:func:`spectral_report` checks all of them from one dense product, B^2,
against one table of closed forms, the charpolys expanded, per dimension:
by the braid relation B^2 = (g1 g2 g1)(g2 g1 g2) = A^3, and once it is CI,
d, C and the three traces give every power sum, so both characteristic
polynomials come from the fraction-free Newton identities of ``linalg``.
g1 is diagonal, as ``build_rep`` makes it, and ``reps._lifted_pair`` reads
g1 = E/L and g2 = N/q: integers when every entry is rational, in any
context, else the FieldElements with L = q = 1.  A' = L E N and B' = E N E
are s = L^2 q times A and B, with A'^3 = s c I and B'^2 = c I: on integers
every power sum is an integer.  The closed forms run on the spec's own
FieldElements.  No division is assumed exact, so a pair that breaks the
braid relation is reported too, with its failed checks.

Square and cube roots of C never appear: each expected quantity is stated
as a polynomial in the eigenvalues, h or f, so no branch choices arise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .field import FieldElement
from .linalg import _charpoly_from_power_sums
from .poly import Polynomial
from .reps import RepSpec, Representation, _dot, _lifted_pair

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


def _closed_forms(spec: RepSpec, values, root):
    """C, (tr A, tr A^2, tr B) and the ascending coefficients of the
    charpolys of A and B, from the FieldElements ``values`` and ``root`` (h
    or f).  A 0 or 1 is a plain int.

    The eigenvalue lists of A and B involve a primitive cube (resp. square)
    root of unity; the expanded products eliminate it, so every form lives
    over the working field.
    """
    d = spec.dim
    if d == 1:
        x = values[0]
        return x**6, (x**2, x**4, x**3), ([-(x**2), 1], [-(x**3), 1])
    if d == 2:
        e2 = prod(values)
        return -(e2**3), (e2, -(e2**2), 0), ([e2**2, -e2, 1], [e2**3, 0, 1])
    if d == 3:  # chi_B = (L - e3)(L + e3)^2
        e3 = prod(values)
        return e3**2, (0, 0, -e3), ([-(e3**2), 0, 0, 1], [-(e3**3), -(e3**2), e3, 1])
    if d == 4:  # chi_A = (L - h)^2 (L^2 + h L + h^2), chi_B = (L^2 - h^3)^2
        h, h3 = root, root**3
        # tr A = C/e4 = h^3/h^2
        return h3, (h, prod(values), 0), ([h * h3, -h3, 0, -h, 1], [h3**2, 0, -2 * h3, 0, 1])
    if d == 5:  # chi_A = (L - u)(L^2 + u L + u^2)^2, chi_B = (L - v)^3 (L + v)^2
        u, v = root**2, root**3
        u2, v2 = u**2, v**2
        return v2, (-u, -u2, v), ([-(u * u2**2), -(u2**2), -(u * u2), u2, u, 1],
                                  [-(v * v2**2), v2**2, 2 * v * v2, -2 * v2, -v, 1])
    # d = 6, RepSpec admits no other: chi_A = (L^3 + w)^2, chi_B = (L^2 + w)^3
    w = values[spec.variant - 1] * prod(values)
    w2 = w**2
    return -w, (0, 0, 0), ([w2, 0, 0, 2 * w, 0, 0, 1], [w * w2, 0, 3 * w2, 0, 3 * w, 0, 1])


def spectral_report(rep: Representation) -> SpectralReport:
    """Every spectral identity for one representation, exactly compared.

    Relies on the braid relation that ``build_rep`` proves, by which
    A^3 = B^2; raises :class:`NotScalar` when B^2 is not scalar (a broken
    construction), and ValueError for a g1 that is not diagonal.
    """
    ctx, d = rep.context, rep.dim
    root = rep.spec.h if rep.spec.h is not None else rep.spec.f
    e, l, n, q = _lifted_pair(rep.g1, rep.g2)  # A' = L E N = s A, B' = E N E = s B
    en = [[ei * x for x in row] for ei, row in zip(e, n)]
    b = [[x * ej for x, ej in zip(row, e)] for row in en]
    dot = _dot if type(e[0]) is int else ctx.dot
    b2 = [[dot(row, col) for col in zip(*b)] for row in b]
    c = b2[0][0]
    if b2 != [[c if i == j else 0 for j in range(d)] for i in range(d)]:
        raise NotScalar("(g1 g2)^3 is not scalar")
    s = l * l * q
    # tr A', tr A'^2 and tr B'; A'^3 = s c I and B'^2 = c I
    tr_a = l * sum(en[i][i] for i in range(d))
    tr_a2 = l * l * dot([x for row in en for x in row], [x for col in zip(*en) for x in col])
    tr_b = sum(b[i][i] for i in range(d))
    # tr A'^k = (s c)^(k//3) tr A'^(k%3) and tr B'^k = c^(k//2) tr B'^(k%2)
    c_a, values = s * c, rep.values
    sums_a = [c_a ** (k // 3) * (d, tr_a, tr_a2)[k % 3] for k in range(1, d + 1)]
    sums_b = [c ** (k // 2) * (d, tr_b)[k % 2] for k in range(1, d + 1)]
    chi_a, chi_b = (_charpoly_from_power_sums(ctx, sums, s) for sums in (sums_a, sums_b))
    if not isinstance(c, FieldElement):  # on integers: over s
        c, tr_a, tr_a2, tr_b = (ctx.from_rational(x, y) for x, y in
                                ((c, s * s), (tr_a, s), (tr_a2, s * s), (tr_b, s)))
    c_exp, (e_tr_a, e_tr_a2, e_tr_b), (e_chi_a, e_chi_b) = _closed_forms(rep.spec, values, root)
    det_ok = prod(x**m for x, m in zip(values, rep.multiplicities)) ** 6 == c**d
    # the closed forms' plain 0s and 1s become FieldElements here
    c_exp, e_tr_a, e_tr_a2, e_tr_b = (v if isinstance(v, FieldElement) else ctx.from_rational(v)
                                      for v in (c_exp, e_tr_a, e_tr_a2, e_tr_b))
    e_chi_a, e_chi_b = (Polynomial.from_coeffs(ctx, cs) for cs in (e_chi_a, e_chi_b))
    checks = (
        ("central_matches_closed_form", c == c_exp),
        ("trace_A", tr_a == e_tr_a),
        ("trace_A2", tr_a2 == e_tr_a2),
        ("trace_B", tr_b == e_tr_b),
        ("charpoly_A", chi_a == e_chi_a),
        ("charpoly_B", chi_b == e_chi_b),
        ("det_constraint", det_ok),
    )
    return SpectralReport(c, c_exp, tr_a, tr_a2, tr_b, e_tr_a, e_tr_a2, e_tr_b, chi_a, chi_b,
                          e_chi_a, e_chi_b, det_ok, all(ok for _, ok in checks), checks)
