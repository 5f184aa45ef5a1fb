"""Exact dense linear algebra over a field context.

Everything here is written for small matrices (dimension at most 6 for the
representation work, 36 for flattened algebra closures) where exact
arithmetic matters more than asymptotics.  Pivoting always takes the first
nonzero entry; there are no magnitude heuristics because the arithmetic is
exact.  The one computation over a finite field, :func:`closure_dim_mod_p`,
only certifies a full closure; every other outcome defers to the exact one.
"""

from __future__ import annotations

from typing import Sequence

from .field import ContextMismatch, FieldContext, FieldElement
from .poly import Polynomial

__all__ = [
    "Matrix",
    "ShapeMismatch",
    "NotSquare",
    "determinant",
    "det_and_inverse",
    "charpoly",
    "minpoly",
    "kernel_basis",
    "poly_eval_matrix",
    "algebra_closure_dim",
    "closure_dim_mod_p",
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

    def column(self, j: int) -> tuple[FieldElement, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list[list[FieldElement]]:
        return [list(self.row(i)) for i in range(self.rows)]

    # -- ring structure -------------------------------------------------

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        if self.context.modulus != other.context.modulus:
            raise ContextMismatch("matrices over different contexts")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            self.context,
            self.rows,
            self.cols,
            [a + b for a, b in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            self.context,
            self.rows,
            self.cols,
            [a - b for a, b in zip(self.entries, other.entries)],
        )

    def __neg__(self) -> "Matrix":
        return Matrix(self.context, self.rows, self.cols, [-a for a in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if self.context.modulus != other.context.modulus:
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
        acc = self.context.zero()
        for i in range(self.rows):
            acc = acc + self.entries[i * self.cols + i]
        return acc

    def power(self, n: int) -> "Matrix":
        if self.rows != self.cols:
            raise NotSquare("power of a non-square matrix")
        base = self
        if n < 0:
            det, inv = det_and_inverse(self)
            if inv is None:
                raise ZeroDivisionError("negative power of a singular matrix")
            base = inv
            n = -n
        if n == 0:
            return Matrix.identity(self.context, self.rows)
        result = None
        while True:
            if n & 1:
                result = base if result is None else result @ base
            n >>= 1
            if not n:
                return result
            base = base @ base

    def is_scalar(self) -> bool:
        if self.rows != self.cols:
            return False
        d = self.entries[0]
        for i in range(self.rows):
            for j in range(self.cols):
                e = self.entries[i * self.cols + j]
                if i == j:
                    if e != d:
                        return False
                elif not e.is_zero():
                    return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.context.modulus == other.context.modulus
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
    """Determinant by fraction-free (Bareiss) elimination.

    ``reps`` checks det g2 with it; a zero-divisor pivot raises NotInvertible.
    """
    if m.rows != m.cols:
        raise NotSquare("determinant of a non-square matrix")
    n = m.rows
    ctx = m.context
    if n == 0:
        return ctx.one()
    a = m.to_lists()
    sign = 1
    prev = ctx.one()
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return ctx.zero()
        pivot = a[k][k]
        # the exact division by the previous pivot, as one inverse per step
        inv_prev = prev.inverse()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) * inv_prev
            a[i][k] = ctx.zero()
        prev = pivot
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def det_and_inverse(m: Matrix) -> tuple[FieldElement, Matrix | None]:
    """Gauss-Jordan elimination on [M | I]; returns (det, inverse or None)."""
    if m.rows != m.cols:
        raise NotSquare("inverse of a non-square matrix")
    n = m.rows
    ctx = m.context
    zero, one = ctx.zero(), ctx.one()
    aug = [list(m.row(i)) + [one if j == i else zero for j in range(n)] for i in range(n)]
    det = one
    for k in range(n):
        pivot_row = None
        for i in range(k, n):
            if not aug[i][k].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            return ctx.zero(), None
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
            det = -det
        pivot = aug[k][k]
        det = det * pivot
        inv_p = pivot.inverse()
        aug[k] = [e * inv_p for e in aug[k]]
        for i in range(n):
            if i != k:
                f = aug[i][k]
                if not f.is_zero():
                    aug[i] = [e - f * p for e, p in zip(aug[i], aug[k])]
    inv_entries = [aug[i][n + j] for i in range(n) for j in range(n)]
    return det, Matrix(ctx, n, n, inv_entries)


def charpoly(m: Matrix) -> Polynomial:
    """Characteristic polynomial det(L*I - M) by Faddeev-LeVerrier.

    The recurrence only divides by the small integers 1..n, so it stays
    exact and cheap in any characteristic-zero coefficient field.
    """
    if m.rows != m.cols:
        raise NotSquare("charpoly of a non-square matrix")
    n = m.rows
    ctx = m.context
    coeffs_desc = [ctx.one()]
    acc = Matrix.identity(ctx, n)
    for k in range(1, n + 1):
        mn = m @ acc
        ck = -(mn.trace() / ctx.from_rational(k))
        coeffs_desc.append(ck)
        if k < n:
            acc = mn + Matrix.identity(ctx, n).scale(ck)
    return Polynomial(ctx, tuple(reversed(coeffs_desc)))


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
) -> list[FieldElement]:
    """Subtract the span of pivot-normalised basis rows from vec, in place."""
    for pivot, row in basis:
        c = vec[pivot]
        if not c.is_zero():
            for i in range(pivot, len(vec)):
                vec[i] = vec[i] - c * row[i]
    return vec


def _first_nonzero(vec: Sequence[FieldElement]) -> int | None:
    for i, e in enumerate(vec):
        if not e.is_zero():
            return i
    return None


def minpoly(m: Matrix) -> Polynomial:
    """Minimal polynomial via Krylov chains from the standard basis.

    For each start vector the first linear dependence among v, Mv, M^2 v,...
    yields a monic annihilator; the minimal polynomial is the lcm of these.
    """
    if m.rows != m.cols:
        raise NotSquare("minpoly of a non-square matrix")
    n = m.rows
    ctx = m.context
    zero, one = ctx.zero(), ctx.one()
    result = Polynomial.one(ctx)
    for start in range(n):
        v = [zero] * n
        v[start] = one
        # rows of (vector | power-tag) reduced on the vector part only
        basis: list[tuple[int, list[FieldElement]]] = []
        tags: list[list[FieldElement]] = []
        power = 0
        cur = v
        while True:
            tag = [zero] * (n + 1)
            tag[power] = one
            work = list(cur)
            for (pivot, row), trow in zip(basis, tags):
                c = work[pivot]
                if not c.is_zero():
                    for i in range(pivot, n):
                        work[i] = work[i] - c * row[i]
                    for i in range(n + 1):
                        tag[i] = tag[i] - c * trow[i]
            lead = _first_nonzero(work)
            if lead is None:
                ann = Polynomial(ctx, tag).monic()
                result = result.lcm(ann)
                break
            inv = work[lead].inverse()
            basis.append((lead, [e * inv for e in work]))
            tags.append([e * inv for e in tag])
            # next Krylov vector
            cur = [
                sum(
                    (m.entries[i * n + j] * cur[j] for j in range(n)),
                    start=zero,
                )
                for i in range(n)
            ]
            power += 1
        if result.degree == n:
            break
    return result.monic()


def kernel_basis(m: Matrix) -> list[tuple[FieldElement, ...]]:
    """Basis of the right null space, one vector per free column."""
    ctx = m.context
    zero, one = ctx.zero(), ctx.one()
    rows = m.to_lists()
    nr, nc = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        pivot_row = None
        for i in range(r, nr):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [e * inv for e in rows[r]]
        for i in range(nr):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    free = [c for c in range(nc) if c not in pivots]
    out = []
    for fc in free:
        v = [zero] * nc
        v[fc] = one
        for ri, pc in enumerate(pivots):
            v[pc] = -rows[ri][fc]
        out.append(tuple(v))
    return out


def algebra_closure_dim(generators: Sequence[Matrix]) -> tuple[int, list[Matrix]]:
    """Span dimension of the unital matrix algebra the generators produce.

    Breadth-first span closure: seed with the identity and the generators,
    then right-multiply accepted basis matrices by each generator in order,
    keeping products that enlarge the span, until a fixpoint (or the hard
    ceiling d*d, which certifies the full matrix algebra).  The returned
    basis is reproducible: matrices appear in the order the closure
    discovered them.
    """
    if not generators:
        raise ValueError("need at least one generator")
    d = generators[0].rows
    for g in generators:
        if g.rows != d or g.cols != d:
            raise ShapeMismatch("generators must be square of equal size")
    ctx = generators[0].context
    full = d * d
    reduced: list[tuple[int, list[FieldElement]]] = []
    accepted: list[Matrix] = []
    queue: list[Matrix] = [Matrix.identity(ctx, d), *generators]
    qi = 0
    while qi < len(queue) and len(accepted) < full:
        mat = queue[qi]
        qi += 1
        vec = _reduce_vector(list(mat.entries), reduced)
        lead = _first_nonzero(vec)
        if lead is None:
            continue
        inv = vec[lead].inverse()
        reduced.append((lead, [e * inv for e in vec]))
        accepted.append(mat)
        for g in generators:
            queue.append(mat @ g)
    return len(accepted), accepted


_CLOSURE_PRIME = (1 << 61) - 1


def closure_dim_mod_p(generators: Sequence[Matrix]) -> int | None:
    """Span dimension over F_p, p = 2^61 - 1, of the algebra the generators produce.

    The breadth-first closure of :func:`algebra_closure_dim`, on plain int
    vectors reduced mod p.  Returns None when the reduction is undefined:
    some entry is not rational, or p divides a denominator.  Reduction mod
    p cannot raise a rank, so a result of d*d certifies the full matrix
    algebra over Q as well; a smaller result decides nothing.
    """
    p = _CLOSURE_PRIME
    d = generators[0].rows
    full = d * d
    flats, gens = [], []
    for g in generators:
        flat = []
        for e in g.entries:
            if not e.is_rational():
                return None
            r = e.coeffs[0]
            if r.denominator % p == 0:
                return None
            flat.append(r.numerator * pow(r.denominator, -1, p) % p)
        flats.append(flat)
        # columns of g, for the row-by-column products below
        gens.append([flat[j::d] for j in range(d)])
    reduced: list[tuple[int, list[int]]] = []
    queue = [[int(i == j) for i in range(d) for j in range(d)], *flats]
    qi = 0
    while qi < len(queue) and len(reduced) < full:
        mat = queue[qi]
        qi += 1
        vec = mat
        for pivot, row in reduced:
            c = vec[pivot]
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, row)]
        lead = next((i for i, e in enumerate(vec) if e), None)
        if lead is None:
            continue
        inv = pow(vec[lead], -1, p)
        reduced.append((lead, [e * inv % p for e in vec]))
        rows = [mat[i * d : (i + 1) * d] for i in range(d)]
        for cols in gens:
            queue.append(
                [sum(a * b for a, b in zip(r, c)) % p for r in rows for c in cols]
            )
    return len(reduced)


def intertwiner_dim(pairs: Sequence[tuple[Matrix, Matrix]]) -> int:
    """Dimension of {M : M A = B M for every pair (A, B)} via one exact kernel.

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
    return len(kernel_basis(system))
