"""Exact dense linear algebra over a field context.

Everything here is written for small matrices (dimension at most 6 for the
representation work, 36 unknowns for an intertwiner solve) where exact
arithmetic matters more than asymptotics.  One exact elimination step,
:func:`_reduce_vector`, serves :func:`determinant`, :func:`inverse`,
:func:`rank` and :func:`minpoly`: it reduces a row against pivot-normalised
rows and keeps it if it stays nonzero.
Pivoting always takes the first nonzero entry; there are no magnitude
heuristics because the arithmetic is exact.  Every pivot is inverted, so
over a reducible modulus a zero-divisor pivot raises NotInvertible.
Characteristic polynomials come from power sums by one fraction-free Newton
kernel, which ``spectral`` shares.
The one integer routine, :func:`_bareiss`, is the fraction-free determinant
that ``reps`` checks det g2 with for a rational spec, in any context.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Sequence

from .field import ContextMismatch, FieldContext, FieldElement, _power
from .poly import Polynomial

__all__ = [
    "Matrix",
    "ShapeMismatch",
    "NotSquare",
    "determinant",
    "inverse",
    "rank",
    "charpoly",
    "minpoly",
    "poly_eval_matrix",
    "intertwiner_dim",
]


class ShapeMismatch(ValueError):
    """Matrix shapes are incompatible for the requested operation."""


class NotSquare(ValueError):
    """A square matrix was required."""


class Matrix:
    """Immutable dense matrix with row-major FieldElement entries."""

    __slots__ = ("context", "rows", "cols", "entries")

    def __init__(
        self,
        context: FieldContext,
        rows: int,
        cols: int,
        entries: Sequence[FieldElement],
    ):
        if len(entries) != rows * cols:
            raise ShapeMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.context = context
        self.rows = rows
        self.cols = cols
        self.entries: tuple[FieldElement, ...] = tuple(entries)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, context: FieldContext, rows: Sequence[Sequence]) -> "Matrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        flat = []
        for row in rows:
            if len(row) != nc:
                raise ShapeMismatch("ragged rows")
            for e in row:
                flat.append(
                    e if isinstance(e, FieldElement) else context.from_rational(e)
                )
        return cls(context, nr, nc, flat)

    @classmethod
    def identity(cls, context: FieldContext, n: int) -> "Matrix":
        zero, one = context.zero(), context.one()
        ents = [zero] * (n * n)
        for i in range(n):
            ents[i * n + i] = one
        return cls(context, n, n, ents)

    @classmethod
    def zeros(cls, context: FieldContext, rows: int, cols: int) -> "Matrix":
        return cls(context, rows, cols, [context.zero()] * (rows * cols))

    @classmethod
    def diagonal(cls, context: FieldContext, values: Sequence[FieldElement]) -> "Matrix":
        n = len(values)
        ents = [context.zero()] * (n * n)
        for i, v in enumerate(values):
            ents[i * n + i] = v
        return cls(context, n, n, ents)

    # -- access --------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> FieldElement:
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[FieldElement, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    # -- ring structure -------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        if self.context is not other.context:
            raise ContextMismatch("matrices over different contexts")
        return Matrix(
            self.context,
            self.rows,
            self.cols,
            [a + b for a, b in zip(self.entries, other.entries)],
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if self.context is not other.context:
            raise ContextMismatch("matrices over different contexts")
        n, m, p = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        zero = self.context.zero()
        # skip products with a zero factor (exact sums do not change)
        cols = [[(k, b[k * p + j]) for k in range(m) if not b[k * p + j].is_zero()]
                for j in range(p)]
        out = []
        for i in range(n):
            arow = [None if e.is_zero() else e for e in a[i * m : (i + 1) * m]]
            for col in cols:
                terms = [arow[k] * e for k, e in col if arow[k] is not None]
                out.append(sum(terms[1:], terms[0]) if terms else zero)
        return Matrix(self.context, n, p, out)

    def scale(self, s) -> "Matrix":
        if not isinstance(s, FieldElement):
            s = self.context.from_rational(s)
        return Matrix(
            self.context, self.rows, self.cols, [a * s for a in self.entries]
        )

    def transpose(self) -> "Matrix":
        return Matrix(
            self.context,
            self.cols,
            self.rows,
            [
                self.entries[i * self.cols + j]
                for j in range(self.cols)
                for i in range(self.rows)
            ],
        )

    def trace(self) -> FieldElement:
        if self.rows != self.cols:
            raise NotSquare("trace of a non-square matrix")
        return sum((self[i, i] for i in range(self.rows)), start=self.context.zero())

    def power(self, n: int) -> "Matrix":
        if self.rows != self.cols:
            raise NotSquare("power of a non-square matrix")
        base = self
        if n < 0:
            base = inverse(self)
            if base is None:
                raise ZeroDivisionError("negative power of a singular matrix")
            n = -n
        if n == 0:
            return Matrix.identity(self.context, self.rows)
        return _power(base, n, operator.matmul)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.context is other.context
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        rows = [
            "[" + ", ".join(repr(e) for e in self.row(i)) + "]"
            for i in range(self.rows)
        ]
        return "Matrix([" + ", ".join(rows) + "])"


def determinant(m: Matrix) -> FieldElement:
    """Determinant by forward elimination with :func:`_reduce_vector`.

    The rows go in in order.  A dependent row means det = 0.  Otherwise the
    reduced rows are L*M with L unit lower-triangular, so det M is the
    product of their lead values times the sign of the lead-column
    permutation.  ``reps`` checks det g2 with it for an irrational spec (a
    rational one is built on integers and takes :func:`_bareiss`).
    Every pivot is inverted: over a reducible modulus a nonzero zero-divisor
    pivot raises NotInvertible even where the determinant exists.
    """
    if m.rows != m.cols:
        raise NotSquare("determinant of a non-square matrix")
    det = m.context.one()
    basis: list[tuple[int, list[FieldElement]]] = []
    for i in range(m.rows):
        lead = _reduce_vector(list(m.row(i)), basis, m.cols)
        if lead is None:
            return m.context.zero()
        det = det * lead
    cols = [c for c, _ in basis]
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1 :])
    return -det if inversions % 2 else det


def _bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968): step k divides each updated entry
    exactly by the pivot of step k - 1, so every entry stays an integer.
    A zero pivot swaps in the first later row with a nonzero entry there."""
    m = [list(row) for row in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        pivot, top = m[k][k], m[k]
        for row in m[k + 1:]:
            c = row[k]
            row[k + 1:] = [(a * pivot - c * b) // prev
                           for a, b in zip(row[k + 1:], top[k + 1:])]
        prev = pivot
    return sign * m[-1][-1] if n else 1


def inverse(m: Matrix) -> Matrix | None:
    """Inverse of M, or None when M is singular.

    The rows of [M | I] are reduced on their left half; each basis row is
    then cleared against the later ones, and the rows, in lead-column order,
    carry M^-1 in their right half.  As in :func:`determinant`, a zero-divisor
    pivot raises NotInvertible.
    """
    if m.rows != m.cols:
        raise NotSquare("inverse of a non-square matrix")
    n = m.rows
    zero, one = m.context.zero(), m.context.one()
    basis: list[tuple[int, list[FieldElement]]] = []
    for i in range(n):
        row = list(m.row(i)) + [one if j == i else zero for j in range(n)]
        if _reduce_vector(row, basis, n) is None:
            return None
    for k, (_, row) in enumerate(basis):
        _reduce_vector(row, basis[k + 1 :], 0)
    basis.sort(key=lambda b: b[0])
    return Matrix(m.context, n, n, [e for _, row in basis for e in row[n:]])


def rank(m: Matrix) -> int:
    """Rank of M: the number of rows :func:`_reduce_vector` keeps."""
    basis: list[tuple[int, list[FieldElement]]] = []
    for i in range(m.rows):
        if len(basis) == m.cols:
            break
        _reduce_vector(list(m.row(i)), basis, m.cols)
    return len(basis)


def charpoly(m: Matrix) -> Polynomial:
    """det(L*I - M) from the traces of M, ..., M^n (n - 1 products)."""
    if m.rows != m.cols:
        raise NotSquare("charpoly of a non-square matrix")
    powers = [m]
    while len(powers) < m.rows:
        powers.append(powers[-1] @ m)
    return _charpoly_from_power_sums(m.context, [p.trace() for p in powers[: m.rows]])


def _charpoly_from_power_sums(ctx: FieldContext, sums: Sequence, scale: int = 1) -> Polynomial:
    """The monic polynomial whose roots, divided by ``scale``, have the power
    sums p_1, ..., p_n (FieldElements of ``ctx``, or ints and Fractions).

    Newton's identities k c_k = -(c_(k-1) p_1 + ... + c_0 p_k), c_k the
    coefficient of L^(n-k), hold fraction-free for D_k = k! c_k: D_k =
    -sum_i (k-1)!/(k-i)! D_(k-i) p_i, by Horner from i = k.  Integer sums
    give integer D_k; each coefficient D_k / (k! scale^k) is one division.
    """
    ds, cs, den = [1], [1], 1
    for k in range(1, len(sums) + 1):
        acc = sums[k - 1]
        for i in range(k - 1, 0, -1):
            acc = ds[k - i] * sums[i - 1] + (acc * (k - i) if k - i > 1 else acc)
        ds.append(-acc)
        den *= k * scale
        cs.append(Fraction(ds[k], den) if type(acc) is int else ds[k] * Fraction(1, den))
    return Polynomial.from_coeffs(ctx, cs[::-1])


def poly_eval_matrix(p: Polynomial, m: Matrix) -> Matrix:
    """Evaluate a polynomial at a square matrix (Horner, deg p - 1 products)."""
    if m.rows != m.cols:
        raise NotSquare("polynomial of a non-square matrix")
    n = m.rows
    ctx = m.context
    cs = p.coeffs
    ident = Matrix.identity(ctx, n)
    if p.degree < 1:
        return ident.scale(cs[0]) if cs else Matrix.zeros(ctx, n, n)
    acc = m.scale(cs[-1]) + ident.scale(cs[-2])
    for c in reversed(cs[:-2]):
        acc = acc @ m + ident.scale(c)
    return acc


def _reduce_vector(
    vec: list[FieldElement],
    basis: list[tuple[int, list[FieldElement]]],
    width: int,
) -> FieldElement | None:
    """The one exact elimination step: reduce vec in place against basis.

    ``basis`` holds (lead column, row) pairs of pivot-normalised rows.  If
    an entry among the first ``width`` of the reduced vec is nonzero, vec
    is scaled so that the first such entry is 1, appended with that column,
    and the entry's value before scaling is returned; otherwise None.
    """
    for pivot, row in basis:
        c = vec[pivot]
        if not c.is_zero():
            for i in range(pivot, len(vec)):
                vec[i] = vec[i] - c * row[i]
    for lead in range(width):
        value = vec[lead]
        if not value.is_zero():
            inv = value.inverse()
            vec[lead:] = [e * inv for e in vec[lead:]]
            basis.append((lead, vec))
            return value
    return None


def minpoly(m: Matrix) -> Polynomial:
    """Minimal polynomial as a product of Krylov-chain annihilators.

    r starts at 1.  For each standard basis vector e_j, w = r(M) e_j is
    computed by Horner on the vector, and the first linear dependence among
    w, Mw, M^2 w, ... gives the monic annihilator a of w; r becomes r * a.
    Since ann(r(M) v) = ann(v) / gcd(ann(v), r), r ends as the lcm of the
    annihilators of all e_j, with no polynomial division (as in Wiedemann's
    algorithm).
    """
    if m.rows != m.cols:
        raise NotSquare("minpoly of a non-square matrix")
    n = m.rows
    ctx = m.context
    zero, one = ctx.zero(), ctx.one()
    rows = [m.row(i) for i in range(n)]

    def times(v: list[FieldElement]) -> list[FieldElement]:
        return [sum((a * b for a, b in zip(row, v)), start=zero) for row in rows]

    result = Polynomial.one(ctx)
    for start in range(n):
        cur = [zero] * n
        cur[start] = one
        for c in reversed(result.coeffs[:-1]):
            cur = times(cur)
            cur[start] = cur[start] + c
        # rows of (vector | power tag), reduced on the vector part only
        basis: list[tuple[int, list[FieldElement]]] = []
        for power in range(n + 1):
            tag = [zero] * (n + 1)
            tag[power] = one
            work = cur + tag
            if _reduce_vector(work, basis, n) is None:
                # the top tag is never reduced, so the annihilator is monic
                result = result * Polynomial(ctx, work[n:])
                break
            cur = times(cur)
        if result.degree == n:
            break
    return result


def intertwiner_dim(pairs: Sequence[tuple[Matrix, Matrix]]) -> int:
    """Dimension of {M : M A = B M for every pair (A, B)}: unknowns minus rank.

    M has as many rows as each B and as many columns as each A.
    """
    if not pairs:
        raise ValueError("need at least one pair")
    d1, d2 = pairs[0][0].rows, pairs[0][1].rows
    ctx = pairs[0][0].context
    zero = ctx.zero()
    rows: list[list[FieldElement]] = []
    for a, b in pairs:
        # (M A - B M)[i][j] = sum_k M[i][k] A[k][j] - sum_k B[i][k] M[k][j]
        for i in range(d2):
            for j in range(d1):
                row = [zero] * (d2 * d1)
                for k in range(d1):
                    row[i * d1 + k] = row[i * d1 + k] + a[k, j]
                for k in range(d2):
                    row[k * d1 + j] = row[k * d1 + j] - b[i, k]
                rows.append(row)
    system = Matrix(ctx, len(rows), d2 * d1, [e for row in rows for e in row])
    return system.cols - rank(system)
