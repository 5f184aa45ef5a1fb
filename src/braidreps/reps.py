"""Finite-dimensional representations of the braid quotient algebras.

For an ordered set X of n distinct nonzero eigenvalues (n <= 5) the quotient
of C[B3] by prod_{x in X} (g - x) on the generators is finite dimensional,
and its irreducible representations in dimensions 1..6 admit closed-form
matrices once g1 is diagonalised.  :func:`build_rep` lays out the diagonal
g1 (X, one eigenvalue doubled in dimension 6) and a builder per dimension
gives g2: each states its entry rules once, row by row, and forms a row's
shared quantities (Delta_i^-1, the e_k of the other eigenvalues) once.
Every construction checks the braid relation and det g2 = det g1 before
returning; by similarity these imply P_X(g2) = 0 and the characteristic
polynomial of g2 (see :func:`_self_check`), so a transcription or root error
cannot escape.

Rational work is done on integers over the common denominator.  A spec
whose eigenvalues and root are rational has rational entries in every
context: :func:`build_rep` runs the same builders on the integers D X (D the
lcm of X's denominators), checks the identities there and rescales each
entry once, by the homogeneity of the closed forms.  Over Q(zeta5), the
dimension-5 representations of a rational X with f = f0 zeta^k are the
images of k = 1 under the automorphisms zeta -> zeta^k, which fix X; they
are mapped, not built.

What each dimension takes besides its eigenvalues (nothing, a root h or f
of e_d(X), or a variant) and how many irreducibles that gives is said once,
in :data:`TAKES`.  When the coefficient context lacks a root,
:func:`enumerate_irreps` reports the construction as deferred along with a
modulus that would provide the root, rather than dropping it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import prod
from operator import mul
from typing import Iterable, Sequence

from .field import (FieldContext, FieldElement, NotInvertible, _lift, _lift_rational,
                    cyclotomic5_context, element_kth_roots)
from .linalg import Matrix, _bareiss, charpoly, determinant, poly_eval_matrix
from .poly import Polynomial

__all__ = [
    "BadSpec",
    "MissingRoot",
    "ConstructionFailed",
    "ParameterSet",
    "TAKES",
    "RepSpec",
    "Representation",
    "DeferredRoot",
    "EnumerationResult",
    "delta",
    "build_rep",
    "compose_fifth_roots",
    "enumerate_irreps",
]


class BadSpec(ValueError):
    """Ill-formed representation request (sizes, variants, parameter reuse)."""


class MissingRoot(ValueError):
    """The requested representation needs a root the context cannot supply."""


class ConstructionFailed(ArithmeticError):
    """A built representation violates an identity it must satisfy."""


# -- symmetric-function helpers ------------------------------------------------
#
# These and the builders take FieldElements, or ints and Fractions alike.


def _inv(v):
    """1/v: a Fraction for a rational number, the inverse in v's context otherwise."""
    return v.inverse() if isinstance(v, FieldElement) else Fraction(1, v)


def _esym(values: Sequence[FieldElement]) -> list[FieldElement]:
    """[e_0, ..., e_n] of the given values, from one expansion."""
    es = [1, values[0]]
    for x in values[1:]:
        es.append(es[-1] * x)
        for i in range(len(es) - 2, 1, -1):
            es[i] = es[i] + es[i - 1] * x
        es[1] = es[1] + x
    return es


def delta(values: Sequence[FieldElement], i: int) -> FieldElement:
    """prod_{j != i} (x_j - x_i) over 0-based position i, for two or more values."""
    return reduce(mul, (xj - values[i] for xj in _excl(values, i)))


def _excl(values: Sequence[FieldElement], i: int) -> tuple[FieldElement, ...]:
    return tuple(x for j, x in enumerate(values) if j != i)


# -- parameter sets ------------------------------------------------------


@dataclass(frozen=True)
class ParameterSet:
    """Ordered eigenvalues x_1..x_n: nonzero, pairwise distinct, 1 <= n <= 5."""

    values: tuple[FieldElement, ...]

    def __post_init__(self):
        n = len(self.values)
        if not 1 <= n <= 5:
            raise BadSpec(f"need between 1 and 5 eigenvalues, got {n}")
        ctx = self.values[0].context
        for v in self.values:
            if v.context is not ctx:
                raise BadSpec("eigenvalues from mixed contexts")
            if v.is_zero():
                raise BadSpec("eigenvalues must be nonzero")
        for a, b in combinations(range(n), 2):
            if self.values[a] == self.values[b]:
                raise BadSpec(
                    f"eigenvalues must be pairwise distinct; positions {a+1} and {b+1} agree"
                )

    @classmethod
    def from_rationals(cls, context: FieldContext, items: Iterable) -> "ParameterSet":
        return cls(
            tuple(
                v if isinstance(v, FieldElement) else context.from_rational(v)
                for v in items
            )
        )

    @property
    def context(self) -> FieldContext:
        return self.values[0].context

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> FieldElement:
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def subset(self, indices: Sequence[int]) -> "ParameterSet":
        """Sub-parameter-set over 0-based positions, order preserved."""
        return ParameterSet(tuple(self.values[i] for i in indices))


# d: what it takes besides min(d, 5) eigenvalues (nothing, a variant in
# 1..count, or h or f with root^count = e_d(X)) and count, its irreducibles
# per subset over an algebraically closed field
TAKES = {1: (None, 1), 2: (None, 1), 3: (None, 1),
         4: ("h", 2), 5: ("f", 5), 6: ("variant", 5)}
# s per dimension: entry (i, j) of g2 is homogeneous of degree 1 + s_i - s_j
# in X, h counting 2 and f 1 (see build_rep); s = 0 where not listed
_SHIFTS = {4: (2, 0, 0, 0), 6: (7, 5, 5, 5, 2, 0)}


@dataclass(frozen=True)
class RepSpec:
    """What to build: dimension, eigenvalues, auxiliary roots, variant.

    Each dimension takes what :data:`TAKES` says, and nothing else.

    ``subset`` (1-based positions into an enclosing eigenvalue set) is
    bookkeeping for enumeration reports and has no effect on the matrices.
    """

    dim: int
    params: ParameterSet
    h: FieldElement | None = None
    f: FieldElement | None = None
    variant: int | None = None
    subset: tuple[int, ...] | None = None

    def __post_init__(self):
        d = self.dim
        if d not in TAKES:
            raise BadSpec(f"no representations of dimension {d}")
        if len(self.params) != min(d, 5):
            raise BadSpec(f"dimension {d} needs exactly {min(d, 5)} eigenvalues")
        takes, count = TAKES[d]
        if takes == "variant":
            if self.variant is None or not 1 <= self.variant <= count:
                raise BadSpec(f"dimension {d} needs a variant index in 1..{count}")
        elif takes:  # a root of e_d(X)
            root = getattr(self, takes)
            if root is None:
                raise MissingRoot(f"dimension {d} needs {takes} with {takes}^{count} = e{d}(X)")
            if root**count != prod(self.params.values):
                raise BadSpec(f"{takes}^{count} does not equal e{d}(X)")
        for k in ("h", "f", "variant"):
            if k != takes and getattr(self, k) is not None:
                raise BadSpec(f"dimension {self.dim} takes no {k if takes else 'root or variant'}")

    @property
    def context(self) -> FieldContext:
        return self.params.context


@dataclass(frozen=True)
class Representation:
    """A validated pair of generator images with diagonal g1; for any other
    g1, ``spectral_report`` raises ValueError."""

    spec: RepSpec
    g1: Matrix
    g2: Matrix
    multiplicities: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.g1.rows

    @property
    def context(self) -> FieldContext:
        """The spec's, or a factor of its modulus for an image of the rep."""
        return self.g1.context

    @property
    def values(self) -> tuple[FieldElement, ...]:
        return self.spec.params.values


@dataclass(frozen=True)
class DeferredRoot:
    """A representation that exists over a splitting field but not here."""

    subset: tuple[int, ...]  # 1-based positions into the enumerated set
    dim: int
    root_order: int
    radicand: FieldElement
    count: int
    suggested_modulus: Polynomial


@dataclass(frozen=True)
class EnumerationResult:
    reps: tuple[Representation, ...]
    deferred: tuple[DeferredRoot, ...]


# -- builders of g2 per dimension ------------------------------------------


def _build_dim2(values):
    x1, x2 = values
    s = _inv(x1 - x2)
    return [[-x2 * x2 * s, -x1 * x2 * s], [(x1 * x1 - x1 * x2 + x2 * x2) * s, x1 * x1 * s]]


def _build_dim3(values):
    """Row i carries Delta_i^-1: (i, i) = x_j x_k (x_j + x_k) and (i, j) =
    x_k (x_i^2 + x_j x_k), where {i, j, k} = {1, 2, 3}."""
    rows = []
    for i, xi in enumerate(values):
        dinv = _inv(delta(values, i))
        rows.append(row := [])
        for j, xj in enumerate(values):
            if i == j:
                a, b = _excl(values, i)
                row.append(a * b * (a + b) * dinv)
            else:
                xk = values[3 - i - j]
                row.append(xk * (xi * xi + xj * xk) * dinv)
    return rows


def _build_dim4(values, h):
    """Row r carries Delta_r^-1: (r, r) = alpha_r = e3 e1 - h e2 of the other
    eigenvalues, (r, 1) = beta_r, (1, c) = beta_1 gamma_a gamma_b for
    {a, b} = {2, 3, 4} - {c}, and (r, c) = beta_r gamma_r otherwise."""
    e4 = prod(values)
    betas = [e4 * _inv(x * x) - h for x in values]
    # gamma_a for a in {2,3,4} (1-based labels): x1*xa + xb*xc - h
    gammas = {}
    for a in (2, 3, 4):
        b, c = [t for t in (2, 3, 4) if t != a]
        gammas[a] = values[0] * values[a - 1] + values[b - 1] * values[c - 1] - h
    rows = []
    for r in range(4):
        es = _esym(_excl(values, r))
        dinv = _inv(delta(values, r))
        off = betas[r] * dinv
        rows.append(row := [])
        for c in range(4):
            if c == r:
                row.append((es[3] * es[1] - h * es[2]) * dinv)
            elif r == 0:
                ga, gb = (g for a, g in gammas.items() if a != c + 1)
                row.append(off * ga * gb)
            elif c == 0:
                row.append(off)
            else:
                row.append(off * gammas[r + 1])
    return rows


def _build_dim5(values, f):
    rows = []
    f2 = f * f
    for i in range(5):
        rest = _excl(values, i)
        es = _esym(rest)
        dinv = _inv(delta(values, i))
        if i == 0:  # entry (0, 1) is the first to divide by f x_0 x_1, a unit
            # iff f is (each x_i divides f^5): zero divisors are met in that order
            finv = _inv(f)
            xinv = [_inv(x) for x in values]
        xi = values[i]
        off = (xi * xi + f * xi + f2) * dinv * finv * xinv[i]
        pairs = {k: f2 + xi * values[k] for k in range(5) if k != i}
        rows.append(row := [])
        for j in range(5):
            if i == j:
                num = es[4] * es[1] + f * xi * es[3] + f * reduce(mul, (f + xk for xk in rest))
                row.append(num * dinv)
            else:
                a, b, c = (p for k, p in pairs.items() if k != j)
                row.append(a * b * c * off * xinv[j])
    return rows


# -- the 6-dimensional family ------------------------------------------------
#
# Helper factors below take a 1-padded tuple x with x[1]..x[5] the
# eigenvalues, so the code reads like the closed formulas.  Argument
# transpositions act by evaluating the same helper on a swapped tuple.


def _sig(x: tuple, *pairs: tuple[int, int]) -> tuple:
    vs = list(x)
    for i, j in pairs:
        vs[i], vs[j] = vs[j], vs[i]
    return tuple(vs)


def _d6_q(x, a: int) -> FieldElement:
    b, c = [t for t in (2, 3, 4) if t != a]
    return x[1] * x[a] + x[b] * x[c]


def _d6_p(x, i: int) -> FieldElement:
    e5 = x[1] * x[2] * x[3] * x[4] * x[5]
    return e5 - x[i] ** 3 * x[5] ** 2


def _d6_r(x, dinv, sq) -> FieldElement:
    # x3 / (x1 (x2-x1) d3), d3 = (x1-x3)(x4-x3)(x5-x3) Delta_3 of X minus {x_2},
    # from inverses at hand: 1/x1 = x1 x1^-2, 1/d3 = (x2-x3) Delta_3^-1 and
    # 1/(x2-x1) = (x3-x1)(x4-x1)(x5-x1) Delta_1^-1
    others = (x[3] - x[1]) * (x[4] - x[1]) * (x[5] - x[1])
    return x[3] * x[1] * sq[1] * others * dinv[1] * (x[2] - x[3]) * dinv[3]


def _d6_uv(x, inv15) -> tuple[FieldElement, FieldElement]:
    """u and v: both divide by (x2-x1)(x1-x5)(x3-x5)(x4-x5), v also by x1 x5 (inv15)."""
    c = _inv((x[2] - x[1]) * (x[1] - x[5]) * (x[3] - x[5]) * (x[4] - x[5]))
    num = x[1] * x[2] * (x[3] + x[4]) * (x[3] * x[4] - x[1] * x[5]) + x[3] * x[4] * (
        x[2] - x[1]
    ) * (x[1] * x[1] + x[2] * x[5])
    return num * c, _d6_p(x, 2) * inv15 * c


def _d6_w(x) -> FieldElement:
    inner = x[1] * x[2] * x[3] * x[4] * (x[1] * x[3] + x[5] * (x[2] + x[4])) - x[
        5
    ] ** 3 * (x[1] * x[3] * (x[2] + x[4]) + x[5] * x[2] * x[4])
    return _d6_p(x, 1) * inner


def _d6_z(x) -> FieldElement:
    # e_i below are elementary symmetric in x2, x3, x4 only
    trio = (x[2], x[3], x[4])
    _, e1, e2, e3 = _esym(trio)
    first = (e1 * e3 - x[1] ** 2 * e2) * (x[1] * e1 * e3 - e2 * x[5] ** 3) * x[1] * x[5]
    second = e3 * (x[1] - x[5]) * (
        x[1] ** 2 * (e1 - x[1]) * (e3 * (x[1] - x[5]) - e1 * x[5] ** 3)
        + (x[1] * e2 - e3) * (x[1] * e2 + (x[1] - x[5]) * x[5] ** 2) * x[5]
    )
    return first + second


def _build_dim6(values):
    """The variant with the last eigenvalue doubled, straight off the table.
    It inverts each Delta_i, x_1^2 .. x_4^2 and x_5 first, then only the four
    differences in _d6_uv (two calls), whose factors those ten hold: so the
    first ten meet any zero divisor first.  _d6_r, and 1/x_1 and 1/x_2 in
    g[1][5] and g[2][6], take products of the ten."""
    x = (None,) + tuple(values)
    dinv = [None] + [_inv(delta(values, i)) for i in range(5)]
    sq = [None] + [_inv(x[a] ** 2) for a in range(1, 5)]
    x5inv = _inv(x[5])

    g = [[0] * 7 for _ in range(7)]
    # top-left 4x4 block
    for i in range(1, 5):
        es = _esym(_excl(values, i - 1))
        g[i][i] = (es[4] * es[1] - x[i] * x[5] * es[3]) * dinv[i]
    for a in (2, 3, 4):
        b, c = [t for t in (2, 3, 4) if t != a]
        g[1][a] = _d6_p(x, a) * _d6_q(x, b) * _d6_q(x, c) * sq[1] * dinv[a]
        g[a][1] = _d6_p(x, 1) * sq[a] * dinv[1]
        for b2 in (2, 3, 4):
            if b2 != a:
                g[a][b2] = _d6_q(x, a) * _d6_p(x, b2) * sq[a] * dinv[b2]
    # rows 5..6, columns 1..2
    g[5][1] = dinv[1]
    g[6][2] = dinv[2]
    # rows 5..6, columns 3..4
    def r(*pairs):  # _d6_r with x and its inverses transposed alike
        return _d6_r(*(_sig(v, *pairs) for v in (x, dinv, sq)))

    g[5][3] = _d6_q(x, 4) * r()
    g[5][4] = _d6_q(x, 3) * r((3, 4))
    g[6][3] = r((1, 2))
    g[6][4] = r((1, 2), (3, 4))
    # rows 5..6, columns 5..6
    x1inv, x2inv = x[1] * sq[1], x[2] * sq[2]
    g[5][5], v = _d6_uv(x, x1inv * x5inv)
    g[5][6] = _d6_q(x, 3) * _d6_q(x, 4) * v
    g[6][6], g[6][5] = _d6_uv(_sig(x, (1, 2)), x2inv * x5inv)
    # rows 3..4, columns 5..6
    s13, s23 = dinv[5], dinv[5] * x5inv
    g[3][5] = _d6_w(x) * sq[3] * s23
    g[3][6] = _d6_q(x, 3) * _d6_w(_sig(x, (1, 2))) * sq[3] * s23
    g[4][5] = _d6_w(_sig(x, (3, 4))) * sq[4] * s23
    g[4][6] = _d6_q(x, 4) * _d6_w(_sig(x, (1, 2), (3, 4))) * sq[4] * s23
    # rows 1..2, columns 5..6
    g[1][5] = _d6_z(x) * x1inv * s13
    g[1][6] = _d6_q(x, 3) * _d6_q(x, 4) * _d6_w(_sig(x, (1, 2), (2, 3))) * sq[1] * x5inv * s13
    g[2][5] = _d6_w(_sig(x, (2, 3))) * sq[2] * x5inv * s13
    g[2][6] = _d6_z(_sig(x, (1, 2))) * x2inv * s13
    return [row[1:] for row in g[1:]]


def _lifted_pair(g1: Matrix, g2: Matrix):
    """g1's diagonal E over L and the rows N of g2 over q: integers over the
    lcm of their denominators when every entry is rational, in any context,
    else the FieldElements, L = q = 1.  ValueError if g1 is not diagonal."""
    d = g1.rows
    if any(x for k, x in enumerate(g1.entries) if k % (d + 1)):
        raise ValueError("g1 is not diagonal")
    e, n, l, q = g1.entries[::d + 1], g2.entries, 1, 1
    if g1.context.degree == 1 or all(x.is_rational() for x in e + n):
        (e, l), (n, q) = _lift_rational(e), _lift_rational(n)
    return e, l, [n[i * d:(i + 1) * d] for i in range(d)], q


def _dot(u, v):
    """sum u_k v_k from the first product (a start of 0 coerces a zero)."""
    products = map(mul, u, v)
    return sum(products, next(products))


def _self_check(spec: RepSpec, e: Sequence, n: Sequence[Sequence]) -> None:
    """Raise :class:`ConstructionFailed` naming the first identity that fails
    for g1 = diag(E) and g2 = N: ints, or FieldElements of one context.

    A common denominator of E and N drops out of both identities, each
    homogeneous in (g1, g2).  The braid relation reads E_i N_ij E_j =
    sum_k N_ik E_k N_kj, with E N formed once; det g2 = det g1 reads
    bareiss(N) = prod E_i on ints and takes :func:`determinant` otherwise.
    Then det A, A = g1 g2, is a unit and g2 = A g1 A^-1, so charpoly(g2) is
    that of g1 and P_X(g2) = A P_X(g1) A^-1 = 0; those two are checked
    directly only when a zero divisor (a reducible modulus) blocks the
    argument.  A det g1 of exactly 0 makes g1 singular on every factor of
    the modulus, and its :class:`NotInvertible` propagates.

    So minpoly(g2) = P_X, which ``verify`` reports unrecomputed: every
    builder inverts each Delta_i, so on each factor of the modulus the x_i
    are distinct, the minimal polynomial divides P_X and, as charpoly(g2) =
    prod (L - x_i)^{m_i}, has every x_i as a root.
    """
    en = [[ei * x for x in row] for ei, row in zip(e, n)]
    cols = list(zip(*en))
    if not all(x * ej == _dot(row, col)
               for row, en_row in zip(n, en) for x, ej, col in zip(en_row, e, cols)):
        raise ConstructionFailed(f"braid relation failed for {spec}")
    if not isinstance(e[0], FieldElement):
        if _bareiss(n) != prod(e):
            raise ConstructionFailed(f"determinant identity det g2 = det g1 failed for {spec}")
        return
    det_g1, g2 = prod(e[1:], start=e[0]), Matrix.from_rows(e[0].context, n)
    try:
        det_g1.inverse()
        if determinant(g2) != det_g1:
            raise ConstructionFailed(f"determinant identity det g2 = det g1 failed for {spec}")
        return
    except NotInvertible:  # no similarity argument: check what it implies
        if det_g1.is_zero():
            raise
    p_x = Polynomial.from_roots(g2.context, spec.params.values)
    if any(not x.is_zero() for x in poly_eval_matrix(p_x, g2).entries):
        raise ConstructionFailed(f"generator relation P_X(g2) != 0 for {spec}")
    if charpoly(g2) != Polynomial.from_roots(g2.context, e):
        raise ConstructionFailed(f"characteristic polynomial mismatch for {spec}")


def build_rep(spec: RepSpec) -> Representation:
    """Construct and validate the representation described by ``spec``.

    g1 is diagonal: X in its given order, except that in dimension 6 the
    variant's eigenvalue is swapped into position 5 and doubled.  The
    builder of the dimension gives g2, for the eigenvalues in that order.

    A spec with rational eigenvalues and root is built on integers.  With D
    the lcm of X's denominators, a = D X are integers, and so are D^2 h and
    D f, rationals whose square (fifth power) e_d(a) is an integer.  Entry
    (i, j) of g2 is homogeneous of degree 1 + s_i - s_j (:data:`_SHIFTS`), so
    g2(a) = D S g2(X) S^-1 with S = diag(D^s_i), and g2(a) = N/q gives
    g2(X)_ij = N_ij / (q D^(1 + s_i - s_j)).  :func:`_self_check` checks
    g1(a) = diag(q a) / q and g2(a) = N / q on the integers q a (in layout
    order) and N, proving both identities for the pair returned: S commutes
    with the diagonal g1(a) = D g1(X), the braid relation is homogeneous of
    degree 3 in (g1, g2) and kept by conjugation, and det g2(a) = D^d det
    g2(X), det g1(a) = D^d det g1(X).  The rationals are then mapped into
    the spec's context, a ring map Q -> Q[t]/(m) for every modulus, under
    which det g1, a nonzero rational, stays a unit.
    """
    ctx, d = spec.context, spec.dim
    given = spec.params.values + tuple(r for r in (spec.h, spec.f) if r is not None)
    if not all(v.is_rational() for v in given):
        return Representation(spec, *_construct(spec, given))
    a, den = _lift_rational(spec.params.values)
    roots = [r.num[0] * den**w // r.den for r, w in ((spec.h, 2), (spec.f, 1)) if r is not None]
    order, mults, rows = _layout(spec, a + roots)  # integral roots
    n, q = _lift([x for row in rows for x in row])
    n = [n[i * d:(i + 1) * d] for i in range(d)]
    _self_check(spec, [q * x for x in order], n)  # g1 = q a / q and g2 = N / q
    s = _SHIFTS.get(d, (0,) * d)
    g2 = [ctx.from_rational(nij * den**max(sj - si - 1, 0), q * den**max(si + 1 - sj, 0))
          for si, row in zip(s, n) for sj, nij in zip(s, row)]
    g1 = [ctx.from_rational(e, den) for e in order]
    return Representation(spec, Matrix.diagonal(ctx, g1), Matrix(ctx, d, d, g2), mults)


def _layout(spec: RepSpec, given: Sequence):
    """g1's diagonal, the multiplicities and the rows of g2 of ``spec`` from
    ``given`` (its eigenvalues, then its root), all of one number type."""
    values = given[:len(spec.params)]
    order = list(values)
    if spec.dim == 6:
        v = spec.variant - 1
        order[v], order[4] = order[4], order[v]
        order.append(order[4])
        rows = _build_dim6(order[:5])
    elif spec.dim == 1:
        rows = [order]
    else:  # d = 4 and 5 take their root, the entry after the eigenvalues
        build = {2: _build_dim2, 3: _build_dim3, 4: _build_dim4, 5: _build_dim5}[spec.dim]
        rows = build(values, *given[len(values):])
    return order, tuple(order.count(x) for x in values), rows


def _construct(spec: RepSpec, given: tuple[FieldElement, ...]):
    """g1, g2 and the multiplicities of ``spec`` built from the FieldElements
    ``given`` in their context and checked by :func:`_self_check`."""
    order, mults, rows = _layout(spec, given)
    _self_check(spec, order, rows)
    return Matrix.diagonal(spec.context, order), Matrix.from_rows(spec.context, rows), mults


def compose_fifth_roots(f0: FieldElement) -> tuple[FieldElement, ...]:
    """The five fifth roots f0 * zeta^k in a context whose generator is zeta.

    Only meaningful when the context adjoins a primitive fifth root of
    unity (the shipped cyclotomic modulus does); raises otherwise.
    """
    ctx = f0.context
    zeta = ctx.generator()
    if zeta**5 != 1 or zeta == 1:
        raise ValueError("context generator is not a primitive fifth root of unity")
    return tuple(f0 * zeta**k for k in range(5))


def _conjugate(m: Matrix, k: int) -> Matrix:
    """sigma_k(m) over Q(zeta5), entry by entry: zeta^i goes to zeta^(ik mod 5),
    then zeta^4 = -1 - zeta - zeta^2 - zeta^3 (subtract its coefficient)."""
    entries = []
    for e in m.entries:
        c = [0] * 5
        for i, ci in enumerate(e.num):
            c[i * k % 5] = ci
        # sigma_k is unimodular on Z[zeta], so no factor joins e.den and c
        entries.append(FieldElement(m.context, tuple(ci - c[4] for ci in c[:4]), e.den))
    return Matrix(m.context, m.rows, m.cols, entries)


def enumerate_irreps(
    X: ParameterSet, context: FieldContext | None = None
) -> EnumerationResult:
    """All irreducible representations over every nonempty subset of X.

    Subsets are visited in lexicographic order of their index tuples, and
    for each the dimensions d with min(d, 5) = |subset| in ascending order:
    one rep per variant, or one per root of e_d(X) that the context holds
    (:data:`TAKES`).  The roots it lacks are returned as one
    :class:`DeferredRoot` carrying a modulus suggestion: t^k - e_d(X) or,
    once one fifth root exists, the fifth cyclotomic modulus that supplies
    the remaining four.  Over Q(zeta5) with a rational X and f0 rational, the
    reps with f = f0 zeta^k, k = 2, 3, 4, are sigma_k (zeta -> zeta^k) of k = 1:
    sigma_k is a ring automorphism fixing X, so the braid relation and det g2 =
    det g1 that k = 1 passed hold for each image.  X must be rational for this.
    """
    if context is not None and context is not X.context:
        if not all(v.is_rational() for v in X.values):
            raise BadSpec("cannot move non-rational eigenvalues between contexts")
        X = ParameterSet(tuple(context.image(v) for v in X.values))
    ctx = X.context
    n = len(X)
    reps: list[Representation] = []
    deferred: list[DeferredRoot] = []
    subsets = sorted(
        combo for size in range(1, n + 1) for combo in combinations(range(n), size)
    )
    for combo in subsets:
        sub = X.subset(combo)
        label = tuple(c + 1 for c in combo)
        for d, (takes, count) in TAKES.items():  # in ascending d
            if min(d, 5) != len(combo):
                continue
            options, conjugates = [None], False
            if takes == "variant":
                options = range(1, count + 1)
            elif takes:  # the roots of e_d(X) in the context
                e = prod(sub.values)
                options = element_kth_roots(e, count)
                conjugates = (len(options) == 5 and ctx is cyclotomic5_context()
                              and options[0].is_rational()
                              and all(v.is_rational() for v in sub)
                              and tuple(options) == compose_fifth_roots(options[0]))
                if len(options) < count:  # t^count - e, or Phi5 for the other fifth roots
                    coeffs = (cyclotomic5_context().modulus if options
                              else [-e] + [ctx.zero()] * (count - 1) + [ctx.one()])
                    deferred.append(DeferredRoot(label, d, count, e, count - len(options),
                                                 Polynomial.from_coeffs(ctx, coeffs)))
            for k, option in enumerate(options):
                spec = RepSpec(dim=d, params=sub, subset=label,
                               **({takes: option} if takes else {}))
                if conjugates and k > 1:  # base is the k = 1 rep
                    reps.append(replace(base, spec=spec, g2=_conjugate(base.g2, k)))
                else:
                    reps.append(base := build_rep(spec))
    return EnumerationResult(tuple(reps), tuple(deferred))
