"""Irreducibility, invariant subspaces, characters and semisimplicity.

Two independent routes decide irreducibility and they are always compared:
closed-form scalar predicates in the eigenvalues (one family per dimension
class), and a Burnside oracle: g1 and g2 act irreducibly iff they generate
the full d*d matrix algebra.  The oracle is the witness search alone:

1. an exactly verified proper invariant subspace means reducible;
2. no witness, for g1 laid out as ``build_rep`` makes it (another layout
   raises ValueError), and every value the search relied on being nonzero
   a unit (the D5 test; always so over a field): irreducible;
3. a zero divisor splits the modulus, and the factors decide alike or not
   at all (the other half of D5).

Quantified predicates ("for every root h of t^2 = e4 ...") are decided
root-free through their closed-form norms over all roots, so no field
extension is needed to reach a verdict.

The candidate subspaces are the sets of simple g1-eigenlines, in dimension
6 optionally extended by the doubled-eigenvalue plane or a line inside it.
Each is checked once and exactly by :func:`verify_witness`: a coordinate
subspace by the zero pattern of both generators, one with a line by rank.

Semisimplicity of the whole quotient algebra reduces to the same predicate
families evaluated over all subsets, and the dimension census cross-checks
the verdict against the algebra dimension (6, 24, 96 or 600).  For a
rational X, in any context, the verdict is decided on integers: every
family is homogeneous, so scaling X by the lcm of its denominators keeps
the set of vanishing predicates.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import combinations, permutations
from math import comb, prod

from .field import FieldContext, FieldElement, NotInvertible, _lift_rational, element_kth_roots
from .linalg import Matrix, intertwiner_dim, rank
from .reps import (
    TAKES,
    DeferredRoot,
    ParameterSet,
    Representation,
    enumerate_irreps,
)

__all__ = [
    "BadLevel",
    "CensusMismatch",
    "InvalidWitness",
    "PredicateValue",
    "Witness",
    "CensusEntry",
    "CensusReport",
    "ALGEBRA_DIMS",
    "evaluate_predicates",
    "rep_predicates",
    "irreducibility",
    "irreducible_oracle",
    "invariant_subspace_witness",
    "witness_vectors",
    "verify_witness",
    "decomposability_check",
    "intertwiner_exists",
    "semisimplicity",
    "dimension_census",
]


class BadLevel(ValueError):
    """Dimension class outside 2..6 or mismatched parameter count."""


class InvalidWitness(ValueError):
    """The supplied witness does not span an invariant subspace."""


class CensusMismatch(ArithmeticError):
    """The squared irreducible dimensions do not sum to the algebra dimension."""


ALGEBRA_DIMS = {1: 1, 2: 6, 3: 24, 4: 96, 5: 600}


# -- predicates -----------------------------------------------------------


@dataclass(frozen=True)
class PredicateValue:
    """One evaluated irreducibility predicate.

    ``quantified`` marks a norm over all admissible roots: the recorded
    value vanishes iff the underlying predicate vanishes for some root.
    ``subset`` gives the 4- or 5-element index set a root-quantified family
    was evaluated over; ``affects_variant`` records, for the dimension-6
    families, which variant a vanishing breaks (observed data, used by the
    witness tests).
    """

    family: str
    indices: tuple[int, ...]
    value: FieldElement | int
    quantified: bool = False
    subset: tuple[int, ...] | None = None
    affects_variant: int | None = None

    @property
    def is_zero(self) -> bool:
        return not self.value

    @property
    def name(self) -> str:
        if self.family == "K6":
            head, rest = self.indices[0], self.indices[1:]
            return f"K6({head};{','.join(map(str, rest))})"
        return f"{self.family}({','.join(map(str, self.indices))})"

    def __repr__(self) -> str:
        flag = " quantified" if self.quantified else ""
        return f"<{self.name} = {self.value!r}{flag}>"


def _pairings(indices: tuple[int, ...]):
    """The three ways to split four indices into two unordered pairs."""
    a, b, c, d = indices
    return (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))


def _families(vals: tuple, level: int, root=None):
    """Each predicate of one dimension class at vals, in a fixed order, as
    (family, 0-based indices, value); with no root, the level-4 and -5
    values are norms over all roots."""
    if level == 2:
        x, y = vals
        yield "I2", (0, 1), x * x - x * y + y * y
    elif level == 3:
        for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            yield "I3", (i, j, k), vals[i] ** 2 + vals[j] * vals[k]
    elif level == 4:
        e4 = prod(vals)
        combos = [("I4", (i,), vals[i] ** 2) for i in range(4)] + [
            ("J4", (i, j, k, l), vals[i] * vals[j] + vals[k] * vals[l])
            for (i, j), (k, l) in _pairings((0, 1, 2, 3))]
        for family, idx, c in combos:
            # c - h, or its norm over both square roots of e4: c^2 - e4
            yield family, idx, c * c - e4 if root is None else c - root
    elif level == 5:
        e5 = prod(vals)
        for i, x in enumerate(vals):
            if root is None:
                # prod_f (x^2 + x f + f^2) = (x^15 - e5^3) / (x^5 - e5)
                x5 = x**5
                yield "I5", (i,), x5 * x5 + x5 * e5 + e5 * e5
            else:
                yield "I5", (i,), x * x + x * root + root * root
        for i, j in combinations(range(5), 2):
            c = vals[i] * vals[j]
            # c + f^2, or its norm over the fifth roots of e5: c^5 + e5^2
            yield "J5", (i, j), c**5 + e5 * e5 if root is None else c + root * root
    else:
        e5 = prod(vals)
        for i in range(5):
            yield "I6", (i,), e5 + vals[i] ** 5
        for i, j in permutations(range(5), 2):
            yield "J6", (i, j), e5 - vals[i] ** 3 * vals[j] ** 2
        for i in range(5):
            for (j, k), (l, m) in _pairings(tuple(t for t in range(5) if t != i)):
                yield "K6", (i, j, k, l, m), vals[j] * vals[k] + vals[l] * vals[m]


def _predicate(level, pos, family, idx, value, quantified) -> PredicateValue:
    """A row of :func:`_families`, its indices labelled by ``pos``.  The
    level-4 and -5 families record their subset and whether no root was
    given; a level-6 vanishing breaks the variant of J6's last index and of
    the first index of I6 and K6."""
    rooted = level in (4, 5)
    variant = (idx[-1] if family == "J6" else idx[0]) + 1 if level == 6 else None
    return PredicateValue(family, tuple(pos[t] for t in idx), value,
                          quantified and rooted, pos if rooted else None, variant)


def evaluate_predicates(
    X: Sequence[FieldElement | int],
    level: int,
    root: FieldElement | None = None,
    positions: tuple[int, ...] | None = None,
) -> list[PredicateValue]:
    """All predicates of one dimension class at X, in a fixed order.

    X holds ring values, a :class:`ParameterSet` or a tuple of ints or
    field elements; every value is a polynomial in them (+, -, * and **
    only).  ``level`` is the dimension class (2..6); |X| must match
    (4-element subsets of a larger set are the caller's job, and
    ``positions`` lets the caller keep global index labels).  With
    ``root`` given, the dimension-4/5 families are evaluated at that h or f
    directly; without it each value is its norm prod_r P(r) over the roots
    r of t^k - e (k = 2 for e4, k = 5 for e5), which has a closed form per
    family (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 6).  The
    norms are polynomial identities in the eigenvalues, so they hold over
    any modulus.
    """
    if level not in range(2, 7):
        raise BadLevel(f"no predicate family for level {level}")
    n = len(X)
    if n != min(level, 5):
        raise BadLevel(f"level {level} needs {min(level, 5)} eigenvalues, got {n}")
    pos = tuple(positions) if positions is not None else tuple(range(1, n + 1))
    return [_predicate(level, pos, *row, root is None)
            for row in _families(tuple(X), level, root)]


def rep_predicates(
    rep: Representation,
) -> tuple[list[PredicateValue], list[PredicateValue]]:
    """The predicates of rep's dimension class, and those that decide it.

    Dimensions 4 and 5 are evaluated at the rep's own h or f.  In dimension
    6 every family is reported but only those that affect the rep's variant
    decide its irreducibility.
    """
    spec = rep.spec
    d = spec.dim
    if d == 1:
        return [], []
    if d == 6:
        preds = evaluate_predicates(spec.params, 6)
        return preds, [p for p in preds if p.affects_variant == spec.variant]
    preds = evaluate_predicates(spec.params, d, root=spec.h if spec.h is not None else spec.f)
    return preds, preds


# -- reducibility oracle and witnesses ------------------------------------


def irreducibility(rep: Representation) -> tuple[bool, Witness | None]:
    """The Burnside verdict of :func:`irreducible_oracle` with its witness.

    Returns (False, w) when the witness search finds the verified invariant
    subspace w, and (True, None) when it finds none and is complete (a g1
    laid out otherwise raises ValueError).  A zero divisor exposes a factor
    g of the modulus m; the images of g1 and g2 over Q[t]/(g) and Q[t]/(m/g)
    keep the layout (every builder inverts each Delta_i), and their common
    verdict is returned with no witness, else the NotInvertible is raised.
    """
    try:
        witness = invariant_subspace_witness(rep)
        if witness is not None:
            return False, witness
        if not _search_is_complete(rep):
            raise ValueError("g1 is not laid out as build_rep makes it: no verdict")
        return True, None
    except NotInvertible as exc:
        ctx = rep.context
        if exc.factor is None or len(exc.factor) - 1 == ctx.degree:
            raise
        verdicts = set()
        for c in ctx.split(exc.factor):
            g1, g2 = (Matrix(c, rep.dim, rep.dim, [c.image(e) for e in g.entries])
                      for g in (rep.g1, rep.g2))
            verdicts.add(irreducibility(replace(rep, g1=g1, g2=g2))[0])
        if len(verdicts) > 1:
            raise
        return verdicts.pop(), None


def irreducible_oracle(rep: Representation) -> bool:
    """True iff g1 and g2 generate the full matrix algebra (Burnside).

    A verified witness means not full; no witness means full when
    :func:`_search_is_complete` holds, in any context, and over a reducible
    modulus on every factor (see :func:`irreducibility`).
    """
    return irreducibility(rep)[0]


def _search_is_complete(rep: Representation) -> bool:
    """Does a fruitless witness search prove that rep is irreducible?

    Yes when g1 is diagonal with its n simple eigenvalues first and the
    doubled one, if any, last.  A g1-invariant subspace W is then the sum
    of its parts in the g1 eigenspaces: a coordinate subspace for d <= 5,
    and for d = 6 simple coordinates S plus nothing, a line L or the plane.
    All but S + L are candidates; so is S + L when a linear condition of
    :func:`_line_conditions` is nonzero (L is then unique and defined over
    the context); when all vanish and S + L is invariant, so is S or, for
    empty S, the plane.  So no invariant candidate means no invariant
    subspace over the algebraic closure: the algebra is full (Burnside).

    Over a larger modulus the nonzero entries of g2, the eigenvalue
    differences and, for d = 6, the minors and residuals of the line
    conditions must pass :func:`_unit_product`, else NotInvertible.
    """
    d, n = rep.dim, rep.multiplicities.count(1)
    g1, g2 = rep.g1, rep.g2
    diag = [g1[i, i] for i in range(d)]
    if not (
        (n == d or _has_plane(rep))
        and g1 == Matrix.diagonal(rep.context, diag)
        and len(set(diag)) == n + (n < d)
        and len(set(diag[n:])) <= 1
    ):
        return False
    if rep.context.degree > 1:
        values = list(g2.entries)
        if _has_plane(rep):
            conds = [c for half in _line_conditions(g2) for c in half]
            values += [p0 * q1 - p1 * q0 for (p0, q0), (p1, q1) in combinations(conds, 2)]
            values += [_residual(g2, p, q) for p, q in conds]
        values += [x - y for x, y in combinations(set(diag), 2)]
        _unit_product(rep.context, values)
    return True


def _unit_product(ctx: FieldContext, values, label=None) -> None:
    """NotInvertible unless the nonzero values multiply to a unit (the D5
    test: Della Dora, Dicrescenzo, Duval, 1985).  Then each factor is a unit,
    so a computation that needed them nonzero decides alike on every factor
    of a reducible modulus.  The witness search and semisimplicity share it.
    On failure the first non-unit factor raises, naming a proper factor of
    the modulus (a product of exactly 0 names all of it), and ``label(i)``
    for ``values[i]`` when a label is given."""
    factors = [(i, v) for i, v in enumerate(values) if v]
    try:
        prod((v for _, v in factors), start=ctx.one()).inverse()
    except NotInvertible:
        for i, v in factors:
            try:
                v.inverse()
            except NotInvertible as exc:
                if label is None:
                    raise
                raise NotInvertible(f"no verdict: {label(i)} vanishes on a factor of "
                                    f"the modulus ({exc})", exc.factor) from None
        raise


@dataclass(frozen=True)
class Witness:
    """A proper nonzero invariant subspace in coordinate-adapted form.

    ``index_set`` selects standard basis vectors (1-based).  For dimension
    6 a line inside the doubled-eigenvalue plane that is not one of the two
    coordinate axes is reported in ``extra_line`` as its (alpha, beta)
    coefficients on coordinates 5 and 6.
    """

    index_set: tuple[int, ...]
    extra_line: tuple[FieldElement, FieldElement] | None = None
    complement_found: bool = False


def witness_vectors(rep: Representation, w: Witness) -> list[list[FieldElement]]:
    """Spanning vectors of the witness subspace as coordinate lists."""
    ctx = rep.context
    d = rep.dim
    vecs = []
    for i in w.index_set:
        if not 1 <= i <= d:
            raise InvalidWitness(f"index {i} outside 1..{d}")
        v = [ctx.zero()] * d
        v[i - 1] = ctx.one()
        vecs.append(v)
    if w.extra_line is not None:
        if d != 6:
            raise InvalidWitness("extra_line only makes sense in dimension 6")
        vecs.append([ctx.zero()] * 4 + list(w.extra_line))
    return vecs


def verify_witness(rep: Representation, w: Witness) -> bool:
    """Exact invariance of the proper nonzero witness span under both generators.

    Distinct coordinates in 1..d are decided by the zero pattern (no entry
    in their columns outside their rows), a span with a line by exact rank;
    a bad index or line raises :class:`InvalidWitness`.
    """
    d = rep.dim
    inside = {i - 1 for i in w.index_set}
    if w.extra_line is None and inside <= set(range(d)):
        if len(inside) < len(w.index_set) or not 0 < len(inside) < d:
            return False
        outside = [i for i in range(d) if i not in inside]
        return all(g[i, j].is_zero()
                   for g in (rep.g1, rep.g2) for j in inside for i in outside)
    vecs = witness_vectors(rep, w)
    k = len(vecs)
    span = Matrix.from_rows(rep.context, vecs)
    if k >= d or rank(span) != k:
        return False
    # the span is invariant iff adding the rows g v, for both g, keeps rank k
    entries = span.entries
    for g in (rep.g1, rep.g2):
        entries += (span @ g.transpose()).entries
    return rank(Matrix(rep.context, 3 * k, d, entries)) == k


def _has_plane(rep: Representation) -> bool:
    """Is there a doubled-eigenvalue plane the search knows (d = 6, n = 4)?"""
    return (rep.dim, rep.multiplicities.count(1)) == (6, 4)


def _plane_block(g2: Matrix):
    """The 2x2 action on the doubled-eigenvalue plane (coordinates 5, 6)."""
    return g2[4, 4], g2[4, 5], g2[5, 4], g2[5, 5]


def _residual(g2: Matrix, p, q):
    """Zero iff the line (-q, p) is an eigenvector of the plane block."""
    a, b, c, d = _plane_block(g2)
    alpha, beta = -q, p
    return -c * alpha**2 + (a - d) * alpha * beta + b * beta**2


def _line_conditions(g2: Matrix):
    """(cols, rows) of conditions (p, q), p alpha + q beta = 0, on a plane line.

    cols[j], for j in S: column j's plane part is proportional to the line.
    rows[i], for simple i outside S: the line's image has no part on i.
    """
    return [(-g2[5, j], g2[4, j]) for j in range(4)], [(g2[i, 4], g2[i, 5]) for i in range(4)]


def _line_candidates(rep: Representation, S: tuple[int, ...]):
    """Lines (alpha, beta) in the plane that can extend coordinate set S.

    The conditions of :func:`_line_conditions` that S imposes leave at most
    one line unless all vanish.  The surviving (alpha, beta) must then be
    an eigenvector of the plane block, a quadratic condition solved over the
    field; when its discriminant has no square root here the line simply
    does not exist over this field.
    """
    ctx = rep.context
    g2 = rep.g2
    cols, rows = _line_conditions(g2)
    conds = [cols[j] for j in S] + [rows[i] for i in range(4) if i not in S]
    conds = [c for c in conds if not (c[0].is_zero() and c[1].is_zero())]

    a, b, c, d = _plane_block(g2)
    if conds:
        a0, b0 = conds[0]
        # all conditions must be proportional, else only (0,0) survives
        for a1, b1 in conds[1:]:
            if a0 * b1 != a1 * b0:
                return []
        # the one line left must be an eigenvector of the plane block
        return [(-b0, a0)] if _residual(g2, a0, b0).is_zero() else []
    # unconstrained: the eigenvectors, from the quadratic directly
    if c.is_zero():
        lines = [(ctx.one(), ctx.zero())]
        if not (a - d).is_zero():
            lines.append((-b / (a - d), ctx.one()))
        elif b.is_zero():
            lines.append((ctx.zero(), ctx.one()))
        return lines
    disc = (a - d) ** 2 + 4 * (c * b)
    return [((a - d + s) / (2 * c), ctx.one()) for s in element_kth_roots(disc, 2)]


def _witness(S: tuple[int, ...], part=None) -> Witness:
    """Coordinates S (0-based) with nothing, the plane, or a line of it.

    ``part`` is None, "plane" or a line (alpha, beta); a line along a
    coordinate axis is reported as that coordinate.
    """
    idx = tuple(i + 1 for i in S)
    if part is None:
        return Witness(idx)
    if part == "plane":
        return Witness(idx + (5, 6))
    alpha, beta = part
    if beta.is_zero():
        return Witness(idx + (5,))
    if alpha.is_zero():
        return Witness(idx + (6,))
    return Witness(idx, extra_line=part)


def _candidates(rep: Representation):
    """Proper candidate subspaces in search order.

    The coordinate sets S of the simple g1-eigenlines come in (size, lex)
    order, each a candidate on its own.  When :func:`_has_plane` holds,
    S is also a candidate together with each line :func:`_line_candidates`
    allows and with the whole plane.
    """
    d = rep.dim
    n = rep.multiplicities.count(1)
    for S in (c for size in range(n + 1) for c in combinations(range(n), size)):
        if 0 < len(S) < d:
            yield _witness(S)
        if _has_plane(rep):
            for line in _line_candidates(rep, S):
                yield _witness(S, line)
            if len(S) + 2 < d:
                yield _witness(S, "plane")


def invariant_subspace_witness(rep: Representation) -> Witness | None:
    """First proper nonzero invariant subspace among the candidates, or None.

    Each candidate of :func:`_candidates` is checked once, exactly, and the
    complement search result is recorded on the witness found.
    """
    for w in _candidates(rep):
        if verify_witness(rep, w):
            return Witness(w.index_set, w.extra_line, _complement_found(rep, w))
    return None


def _complement_found(rep: Representation, w: Witness) -> bool:
    """Does the invariant subspace w have an invariant complement?

    The complement takes the simple coordinates w lacks and the part of the
    plane w lacks: all of it, none of it, or, when w holds one line of the
    plane, a second invariant line.
    """
    n = rep.multiplicities.count(1)
    ctx = rep.context
    plane = [i for i in w.index_set if i > n]
    if _has_plane(rep) and w.extra_line is not None:
        if plane:
            raise InvalidWitness("extra_line together with plane coordinates")
        line = w.extra_line
    elif _has_plane(rep) and len(plane) == 1:
        line = (ctx.one(), ctx.zero()) if plane == [n + 1] else (ctx.zero(), ctx.one())
    elif w.extra_line is None and len(plane) in (0, rep.dim - n):
        rest = tuple(i for i in range(1, rep.dim + 1) if i not in w.index_set)
        return verify_witness(rep, Witness(rest))
    else:
        raise ValueError(f"{w} splits a repeated eigenspace: no complement search")
    alpha, beta = line
    Sbar = tuple(i for i in range(n) if i + 1 not in w.index_set)
    return any(
        alpha * cb != ca * beta and verify_witness(rep, _witness(Sbar, (ca, cb)))
        for ca, cb in _line_candidates(rep, Sbar)
    )


def decomposability_check(rep: Representation, w: Witness) -> bool:
    """Does the witness subspace admit an invariant complement?

    The witness is verified first (:class:`InvalidWitness` otherwise).  The
    complement combines the simple coordinates the witness lacks with the
    rest of the doubled-eigenvalue plane, if any: all of it, none of it, or
    a second invariant line.  A witness that splits a repeated eigenspace
    outside that plane has infinitely many g1-invariant complements, none
    of which is searched: :class:`ValueError`.
    """
    if not verify_witness(rep, w):
        raise InvalidWitness(f"not an invariant subspace: {w}")
    return _complement_found(rep, w)


# -- characters and equivalence -------------------------------------------


def _probe_traces(rep: Representation) -> tuple[FieldElement, ...]:
    """Traces of s1, s2, s1 s2, s1 s2 s1, s1^2 s2 and s1^3 s2, read off the
    diagonals: g1 is diagonal, so tr(s1^k s2) = sum x_i^k (g2)_ii, and
    s1 s2 s1 has the trace of its rotation s1^2 s2."""
    zero = rep.context.zero()
    x = [rep.g1[i, i] for i in range(rep.dim)]
    y = [rep.g2[i, i] for i in range(rep.dim)]
    sums = [sum(x, start=zero), sum(y, start=zero)]
    for _ in range(3):
        y = [a * b for a, b in zip(x, y)]
        sums.append(sum(y, start=zero))
    s1, s2, s1s2, s1sq_s2, s1cube_s2 = sums
    return (s1, s2, s1s2, s1sq_s2, s1sq_s2, s1cube_s2)


def intertwiner_exists(rep1: Representation, rep2: Representation) -> bool:
    """Is there a nonzero M with M rho1(g) = rho2(g) M for both generators?

    For irreducible representations of equal dimension this decides
    equivalence (Schur); unequal dimensions are settled without solving.
    """
    if rep1.dim != rep2.dim:
        return False
    return intertwiner_dim([(rep1.g1, rep2.g1), (rep1.g2, rep2.g2)]) > 0


# -- semisimplicity and census -------------------------------------------


@dataclass(frozen=True)
class CensusEntry:
    spec: object
    probe: tuple[FieldElement, ...]
    class_id: int


@dataclass(frozen=True, kw_only=True)
class CensusReport:
    entries: tuple[CensusEntry, ...] = ()
    deferred: tuple[DeferredRoot, ...] = ()
    sum_of_squares: int | None = None
    algebra_dim: int
    semisimple_verdict: bool
    failing_predicates: tuple[PredicateValue, ...] = ()
    mode: str | None = None


def _table(vals: tuple):
    """Every predicate over every subset of vals, in report order, as
    (level, positions, family, 0-based indices, value) with no root."""
    for level in (2, 3, 4, 5, 6):
        for pos in combinations(range(1, len(vals) + 1), min(level, 5)):
            for row in _families(tuple(vals[i - 1] for i in pos), level):
                yield (level, pos, *row)


def semisimplicity(X: ParameterSet) -> CensusReport:
    """Whole-set verdict: no predicate in any family over any subset is 0.

    Root-quantified families are evaluated as closed-form norms over all
    roots, so the verdict never needs an extension field.  Only the verdict
    fields of the report are filled; :func:`dimension_census` returns this
    same report when the verdict is negative and fills the rest otherwise.
    Each failing predicate is reported with the value ``ctx.zero()``.

    For a rational X, in any context, the predicates are evaluated on
    integers: every family is homogeneous, P(lambda X) = lambda^deg P(X),
    so X scaled by the lcm of its denominators has the same vanishing
    predicates, and each nonzero value is a rational, a unit over any
    modulus.

    Otherwise, over a reducible modulus every nonzero value must also be a
    unit, else :class:`NotInvertible` names the predicate and there is no
    verdict; the product is inverted once, as it is a unit iff each factor is.
    """
    ctx = X.context
    rational = all(v.is_rational() for v in X)
    vals = tuple(_lift_rational(X.values)[0]) if rational else tuple(X)
    failing, nonzero = [], []
    for row in _table(vals):
        if not row[-1]:
            failing.append(_predicate(*row[:-1], ctx.zero(), True))
        elif not rational:
            nonzero.append(row)
    if not rational:
        _unit_product(ctx, [row[-1] for row in nonzero],
                      label=lambda i: f"predicate {_predicate(*nonzero[i], True).name}")
    return CensusReport(algebra_dim=ALGEBRA_DIMS[len(X)], semisimple_verdict=not failing,
                        failing_predicates=tuple(failing))


def _combinatorial_count(n: int) -> int:
    """Sum of count * d^2 over the irreducibles of :data:`TAKES` on every
    subset of n eigenvalues, over an algebraically closed field."""
    return sum(comb(n, min(d, 5)) * count * d * d for d, (_, count) in TAKES.items())


def _check_sum_of_squares(total: int, algebra_dim: int) -> None:
    if total != algebra_dim:
        raise CensusMismatch(
            f"sum of squared dimensions {total} != algebra dimension {algebra_dim}"
        )


def dimension_census(
    X: ParameterSet,
    context: FieldContext | None = None,
    mode: str = "constructive",
) -> CensusReport:
    """Sum of squared irreducible dimensions against the algebra dimension.

    The semisimplicity verdict comes first: when it is negative, its
    report (with the failing predicates and no census fields) is returned
    as it is.  Combinatorial mode counts subset representatives with the
    counts of :data:`~braidreps.reps.TAKES` without building anything,
    matching the count over an algebraically closed field.
    Constructive mode builds everything :func:`enumerate_irreps` can reach
    in the context, separates the rest as deferred roots, and still counts
    the deferred variants in the sum.  Pairwise inequivalence of the built
    members is certified by character probes; equal probes go to the exact
    intertwiner solve, which decides equivalence of irreducibles (Schur).
    """
    if mode not in ("combinatorial", "constructive"):
        raise ValueError(f"unknown census mode {mode!r}")
    verdict = semisimplicity(X)
    if not verdict.semisimple_verdict:
        return verdict
    n = len(X)
    algebra_dim = ALGEBRA_DIMS[n]
    if mode == "combinatorial":
        total = _combinatorial_count(n)
        _check_sum_of_squares(total, algebra_dim)
        return CensusReport(sum_of_squares=total, algebra_dim=algebra_dim,
                            semisimple_verdict=True, mode="combinatorial")
    enum = enumerate_irreps(X, context)
    probes = [_probe_traces(r) for r in enum.reps]
    class_reps: list[int] = []
    ids: list[int] = []
    for i, rep in enumerate(enum.reps):
        assigned = None
        for cid, j in enumerate(class_reps):
            if probes[i] == probes[j] and intertwiner_exists(enum.reps[j], rep):
                assigned = cid
                break
        if assigned is None:
            class_reps.append(i)
            assigned = len(class_reps) - 1
        ids.append(assigned)
    entries = tuple(
        CensusEntry(spec=r.spec, probe=p, class_id=c)
        for r, p, c in zip(enum.reps, probes, ids)
    )
    total = sum(enum.reps[j].dim ** 2 for j in class_reps)
    total += sum(d.count * d.dim**2 for d in enum.deferred)
    _check_sum_of_squares(total, algebra_dim)
    return CensusReport(
        entries=entries,
        deferred=enum.deferred,
        sum_of_squares=total,
        algebra_dim=algebra_dim,
        semisimple_verdict=True,
        mode="constructive",
    )
