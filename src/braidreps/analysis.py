"""Irreducibility, invariant subspaces, characters and semisimplicity.

Two independent routes decide irreducibility and they are always compared:
closed-form scalar predicates in the eigenvalues (one family per dimension
class), and a Burnside closure oracle that computes the dimension of the
matrix algebra generated by g1 and g2.  The oracle first runs the closure
over F_p, p = 2^61 - 1, on rational generators: a full d*d there certifies
the full algebra over Q, since reduction mod p cannot raise a rank; any
other outcome falls back to the exact closure, so no verdict depends on
the prime.  Quantified predicates ("for every root h of t^2 = e4 ...") are
decided root-free through their closed-form norms over all roots, so no
field extension is needed to reach a verdict.

For degenerate parameters the witness search produces an explicit invariant
subspace: a coordinate subspace for dimensions up to 5, and for dimension 6
a coordinate set optionally extended by the doubled-eigenvalue plane or a
line inside it.  Witnesses are re-verified by exact rank computations
before being returned.

Semisimplicity of the whole quotient algebra reduces to the same predicate
families evaluated over all subsets, and the dimension census cross-checks
the verdict against the algebra dimension (6, 24, 96 or 600).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, prod

from .braidword import BraidWord, evaluate, parse
from .field import FieldContext, FieldElement, NotInvertible, element_kth_roots
from .linalg import (
    Matrix,
    algebra_closure_dim,
    closure_dim_mod_p,
    intertwiner_dim,
    rank,
)
from .reps import (
    DeferredRoot,
    ParameterSet,
    Representation,
    elementary_symmetric,
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
    "DEFAULT_PROBE_WORDS",
    "evaluate_predicates",
    "rep_predicates",
    "irreducible_oracle",
    "invariant_subspace_witness",
    "witness_vectors",
    "verify_witness",
    "decomposability_check",
    "character",
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
    value: FieldElement
    quantified: bool = False
    subset: tuple[int, ...] | None = None
    affects_variant: int | None = None

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero()

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


def evaluate_predicates(
    X: ParameterSet,
    level: int,
    root: FieldElement | None = None,
    positions: tuple[int, ...] | None = None,
) -> list[PredicateValue]:
    """All predicates of one dimension class at X, in a fixed order.

    ``level`` is the dimension class (2..6); |X| must match (4-element
    subsets of a larger set are the caller's job, and ``positions`` lets
    the caller keep global index labels).  With ``root`` given, the
    dimension-4/5 families are evaluated at that h or f directly; without
    it each value is its norm prod_r P(r) over the roots r of t^k - e (k = 2
    for e4, k = 5 for e5), which has a closed form per family (von zur
    Gathen & Gerhard, Modern Computer Algebra, ch. 6).  The norms are
    polynomial identities in the eigenvalues, so they hold over any modulus.
    """
    needed = {2: 2, 3: 3, 4: 4, 5: 5, 6: 5}
    if level not in needed:
        raise BadLevel(f"no predicate family for level {level}")
    n = len(X)
    if n != needed[level]:
        raise BadLevel(f"level {level} needs {needed[level]} eigenvalues, got {n}")
    pos = tuple(positions) if positions is not None else tuple(range(1, n + 1))
    vals = X.values
    quant = root is None
    out: list[PredicateValue] = []

    if level == 2:
        x, y = vals
        out.append(
            PredicateValue("I2", (pos[0], pos[1]), x * x - x * y + y * y)
        )
    elif level == 3:
        for i in range(3):
            j, k = [t for t in range(3) if t != i]
            out.append(
                PredicateValue(
                    "I3", (pos[i], pos[j], pos[k]), vals[i] ** 2 + vals[j] * vals[k]
                )
            )
    elif level == 4:
        e4 = elementary_symmetric(vals, 4)
        combos = [("I4", (i,), vals[i] ** 2) for i in range(4)]
        combos += [
            ("J4", (i, j, k, l), vals[i] * vals[j] + vals[k] * vals[l])
            for (i, j), (k, l) in _pairings((0, 1, 2, 3))
        ]
        for family, idx, c in combos:
            # c - h, or its norm over both square roots of e4: c^2 - e4
            value = c * c - e4 if quant else c - root
            out.append(
                PredicateValue(
                    family, tuple(pos[t] for t in idx), value, quant, subset=pos
                )
            )
    elif level == 5:
        e5 = elementary_symmetric(vals, 5)
        for i in range(5):
            x = vals[i]
            if quant:
                # prod_f (x^2 + x f + f^2) = (x^15 - e5^3) / (x^5 - e5)
                x5 = x**5
                value = x5 * x5 + x5 * e5 + e5 * e5
            else:
                value = x * x + x * root + root * root
            out.append(PredicateValue("I5", (pos[i],), value, quant, subset=pos))
        for i, j in combinations(range(5), 2):
            c = vals[i] * vals[j]
            # c + f^2, or its norm over the fifth roots of e5: c^5 + e5^2
            value = c**5 + e5 * e5 if quant else c + root * root
            out.append(
                PredicateValue("J5", (pos[i], pos[j]), value, quant, subset=pos)
            )
    else:
        e5 = elementary_symmetric(vals, 5)
        for i in range(5):
            out.append(
                PredicateValue(
                    "I6", (pos[i],), e5 + vals[i] ** 5, affects_variant=i + 1
                )
            )
        for i in range(5):
            for j in range(5):
                if i != j:
                    out.append(
                        PredicateValue(
                            "J6",
                            (pos[i], pos[j]),
                            e5 - vals[i] ** 3 * vals[j] ** 2,
                            affects_variant=j + 1,
                        )
                    )
        for i in range(5):
            rest = tuple(t for t in range(5) if t != i)
            for (j, k), (l, m) in _pairings(rest):
                out.append(
                    PredicateValue(
                        "K6",
                        (pos[i], pos[j], pos[k], pos[l], pos[m]),
                        vals[j] * vals[k] + vals[l] * vals[m],
                        affects_variant=i + 1,
                    )
                )
    return out


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
    preds = evaluate_predicates(spec.params, d, root={4: spec.h, 5: spec.f}.get(d))
    return preds, preds


# -- reducibility oracle and witnesses ------------------------------------


def irreducible_oracle(rep: Representation) -> bool:
    """True iff g1 and g2 generate the full matrix algebra (Burnside).

    The closure runs over F_p (p = 2^61 - 1) first: if it reaches d*d
    there, the accepted words are independent mod p and hence over Q, so
    the algebra is full.  Otherwise (a smaller F_p dimension, an irrational
    entry, or p dividing a denominator) the exact closure decides.
    """
    gens = [rep.g1, rep.g2]
    full = rep.dim * rep.dim
    if closure_dim_mod_p(gens) == full:
        return True
    dim, _ = algebra_closure_dim(gens)
    return dim == full


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
        alpha, beta = w.extra_line
        v = [ctx.zero()] * 6
        v[4] = alpha
        v[5] = beta
        vecs.append(v)
    return vecs


def verify_witness(rep: Representation, w: Witness) -> bool:
    """Exact invariance of the witness span under both generators."""
    vecs = witness_vectors(rep, w)
    k = len(vecs)
    if not 0 < k < rep.dim:
        return False
    span = Matrix.from_rows(rep.context, vecs)
    if rank(span) != k:
        return False
    # the span is invariant iff adding the rows g v, for both g, keeps rank k
    entries = span.entries
    for g in (rep.g1, rep.g2):
        entries += (span @ g.transpose()).entries
    return rank(Matrix(rep.context, 3 * k, rep.dim, entries)) == k


def _plane_block(g2: Matrix):
    """The 2x2 action on the doubled-eigenvalue plane (coordinates 5, 6)."""
    return g2[4, 4], g2[4, 5], g2[5, 4], g2[5, 5]


def _line_candidates(rep: Representation, S: tuple[int, ...]):
    """Lines (alpha, beta) in the plane that can extend coordinate set S.

    Linear conditions: columns of S must fall back into span(S) + line, and
    the line's image must have no component on coordinates outside S.  The
    surviving (alpha, beta) must then be an eigenvector of the plane block,
    a quadratic condition solved over the field; when its discriminant has
    no square root here the line simply does not exist over this field.
    """
    ctx = rep.context
    g2 = rep.g2
    conds = []
    for j in S:
        # plane component of column j must be proportional to the line
        conds.append((-g2[5, j], g2[4, j]))
    for i in range(4):
        if i not in S:
            conds.append((g2[i, 4], g2[i, 5]))
    conds = [c for c in conds if not (c[0].is_zero() and c[1].is_zero())]

    lines: list[tuple[FieldElement, FieldElement]] = []
    if conds:
        a0, b0 = conds[0]
        # all conditions must be proportional, else only (0,0) survives
        for a, b in conds[1:]:
            if a0 * b != a * b0:
                return []
        lines = [(-b0, a0)]
    else:
        # unconstrained: solve the eigenvector quadratic directly
        a, b, c, d = _plane_block(g2)
        if c.is_zero():
            lines.append((ctx.one(), ctx.zero()))
            if not (a - d).is_zero():
                lines.append((-b / (a - d), ctx.one()))
            elif b.is_zero():
                lines.append((ctx.zero(), ctx.one()))
        else:
            disc = (a - d) ** 2 + 4 * (c * b)
            for s in element_kth_roots(disc, 2):
                lines.append(((a - d + s) / (2 * c), ctx.one()))
                if s.is_zero():
                    break
    out = []
    seen = []
    for alpha, beta in lines:
        if alpha.is_zero() and beta.is_zero():
            continue
        # eigenvector condition on the plane block
        a, b, c, d = _plane_block(g2)
        if not (-c * alpha**2 + (a - d) * alpha * beta + b * beta**2).is_zero():
            continue
        if any(alpha * b2 == a2 * beta for a2, b2 in seen):
            continue
        seen.append((alpha, beta))
        out.append((alpha, beta))
    return out


def _canonical_witness(
    S: tuple[int, ...],
    kind: str,
    line: tuple[FieldElement, FieldElement] | None,
) -> Witness:
    idx = [i + 1 for i in S]
    if kind == "plane":
        idx += [5, 6]
        return Witness(tuple(idx))
    if kind == "line":
        alpha, beta = line
        if beta.is_zero():
            return Witness(tuple(idx + [5]))
        if alpha.is_zero():
            return Witness(tuple(idx + [6]))
        return Witness(tuple(idx), extra_line=(alpha, beta))
    return Witness(tuple(idx))


def _dim6_candidates(rep: Representation):
    subsets = sorted(
        (c for size in range(5) for c in combinations(range(4), size)),
        key=lambda c: (len(c), c),
    )
    for S in subsets:
        if S:
            yield _canonical_witness(S, "bare", None)
        for line in _line_candidates(rep, S):
            yield _canonical_witness(S, "line", line)
        if len(S) < 4:
            yield _canonical_witness(S, "plane", None)


def invariant_subspace_witness(rep: Representation) -> Witness | None:
    """First verified proper nonzero invariant subspace, or None.

    Dimensions up to 5 only admit coordinate witnesses; dimension 6 is
    searched over coordinate sets combined with the doubled plane or a line
    inside it, in increasing size.  Whatever the search proposes is
    re-verified by exact rank checks before being returned, and the
    complement search result is recorded on the witness.
    """
    d = rep.dim
    if d == 1:
        return None
    if d <= 5:
        g2 = rep.g2
        for size in range(1, d):
            for Y in combinations(range(d), size):
                inside = set(Y)
                if all(
                    g2[i, j].is_zero()
                    for j in Y
                    for i in range(d)
                    if i not in inside
                ):
                    w = Witness(tuple(y + 1 for y in Y))
                    return Witness(
                        w.index_set, None, decomposability_check(rep, w)
                    )
        return None
    for w in _dim6_candidates(rep):
        if verify_witness(rep, w):
            return Witness(
                w.index_set, w.extra_line, decomposability_check(rep, w)
            )
    return None


def _split_dim6_witness(w: Witness):
    S = tuple(i - 1 for i in w.index_set if i <= 4)
    has5 = 5 in w.index_set
    has6 = 6 in w.index_set
    if w.extra_line is not None:
        if has5 or has6:
            raise InvalidWitness("extra_line together with plane coordinates")
        return S, "line", w.extra_line
    if has5 and has6:
        return S, "plane", None
    if has5:
        return S, "line", None  # line resolved against the context later
    if has6:
        return S, "line", "axis6"
    return S, "bare", None


def decomposability_check(rep: Representation, w: Witness) -> bool:
    """Does the witness subspace admit an invariant complement?

    For dimensions up to 5 the only candidate is the complementary
    coordinate subspace.  For dimension 6 the complement must combine the
    remaining simple coordinates with a second, independent invariant line
    (or the absence/whole of the plane, mirroring the witness).
    """
    if not verify_witness(rep, w):
        raise InvalidWitness(f"not an invariant subspace: {w}")
    d = rep.dim
    if d <= 5:
        comp = tuple(i for i in range(1, d + 1) if i not in w.index_set)
        return verify_witness(rep, Witness(comp))
    ctx = rep.context
    S, kind, line = _split_dim6_witness(w)
    Sbar = tuple(i for i in range(4) if i not in S)
    if kind == "bare":
        return verify_witness(rep, _canonical_witness(Sbar, "plane", None))
    if kind == "plane":
        return bool(Sbar) and verify_witness(rep, _canonical_witness(Sbar, "bare", None))
    if line is None:
        line = (ctx.one(), ctx.zero())
    elif line == "axis6":
        line = (ctx.zero(), ctx.one())
    alpha, beta = line
    for cand in _line_candidates(rep, Sbar):
        ca, cb = cand
        if alpha * cb == ca * beta:
            continue  # same line, not a complement
        if verify_witness(rep, _canonical_witness(Sbar, "line", cand)):
            return True
    return False


# -- characters and equivalence -------------------------------------------


DEFAULT_PROBE_WORDS: tuple[BraidWord, ...] = tuple(
    parse(t) for t in ("s1", "s2", "s1 s2", "s1 s2 s1", "s1^2 s2", "s1^3 s2")
)


def character(rep: Representation, words) -> list[FieldElement]:
    """Traces of the given words in the representation."""
    return [evaluate(w, rep).trace() for w in words]


def _extended_probe_words() -> list[BraidWord]:
    words = []
    for length in range(1, 5):
        for gens in product(("s1", "s2"), repeat=length):
            words.append(BraidWord(tuple((g, 1) for g in gens)))
    return words


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


@dataclass(frozen=True)
class CensusReport:
    entries: tuple[CensusEntry, ...]
    deferred: tuple[DeferredRoot, ...]
    sum_of_squares: int | None
    algebra_dim: int
    semisimple_verdict: bool
    failing_predicates: tuple[PredicateValue, ...]
    mode: str | None = None


def _all_predicates(X: ParameterSet) -> list[PredicateValue]:
    n = len(X)
    preds: list[PredicateValue] = []
    for level in range(2, min(n, 4) + 1):
        for c in combinations(range(n), level):
            preds += evaluate_predicates(
                X.subset(c), level, positions=tuple(i + 1 for i in c)
            )
    if n == 5:
        preds += evaluate_predicates(X, 5)
        preds += evaluate_predicates(X, 6)
    return preds


def _require_units(preds: list[PredicateValue], ctx: FieldContext) -> None:
    try:
        prod((p.value for p in preds), start=ctx.one()).inverse()
    except NotInvertible:
        for p in preds:
            try:
                p.value.inverse()
            except NotInvertible as exc:
                raise NotInvertible(
                    f"no verdict: predicate {p.name} vanishes on a factor of the modulus ({exc})"
                ) from None
        raise


def semisimplicity(X: ParameterSet) -> CensusReport:
    """Whole-set verdict: no predicate in any family over any subset is 0.

    Root-quantified families are evaluated as closed-form norms over all
    roots, so the verdict never needs an extension field.  Only the verdict
    fields of the report are filled; :func:`dimension_census` returns this
    same report when the verdict is negative and fills the rest otherwise.

    Over a reducible modulus every nonzero value must also be a unit, else
    :class:`NotInvertible` names the predicate and there is no verdict; the
    product is inverted once, as it is a unit iff each factor is.
    """
    preds = _all_predicates(X)
    failing = tuple(p for p in preds if p.is_zero)
    if X.context.degree > 1:
        _require_units([p for p in preds if not p.is_zero], X.context)
    return CensusReport(
        entries=(),
        deferred=(),
        sum_of_squares=None,
        algebra_dim=ALGEBRA_DIMS[len(X)],
        semisimple_verdict=not failing,
        failing_predicates=failing,
        mode=None,
    )


def _combinatorial_count(n: int) -> int:
    total = comb(n, 1) * 1 + comb(n, 2) * 4 + comb(n, 3) * 9
    total += comb(n, 4) * 2 * 16
    total += comb(n, 5) * (5 * 25 + 5 * 36)
    return total


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
    as it is.  Combinatorial mode counts subset representatives with their
    root multiplicities (two h-variants, five f-variants) without building
    anything, matching the count over an algebraically closed field.
    Constructive mode builds everything :func:`enumerate_irreps` can reach
    in the context, separates the rest as deferred roots, and still counts
    the deferred variants in the sum.  Pairwise inequivalence of the built
    members is certified by character probes with an exact intertwiner
    solve as the tie-breaker.
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
        return CensusReport(
            entries=(),
            deferred=(),
            sum_of_squares=total,
            algebra_dim=algebra_dim,
            semisimple_verdict=True,
            failing_predicates=(),
            mode="combinatorial",
        )
    enum = enumerate_irreps(X, context)
    probes = [tuple(character(r, DEFAULT_PROBE_WORDS)) for r in enum.reps]
    extended: dict[int, tuple] = {}

    def ext(i: int) -> tuple:
        if i not in extended:
            extended[i] = tuple(character(enum.reps[i], _extended_probe_words()))
        return extended[i]

    class_reps: list[int] = []
    ids: list[int] = []
    for i, rep in enumerate(enum.reps):
        assigned = None
        for cid, j in enumerate(class_reps):
            other = enum.reps[j]
            if rep.dim != other.dim or probes[i] != probes[j]:
                continue
            if ext(i) != ext(j):
                continue
            if intertwiner_exists(other, rep):
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
        failing_predicates=(),
        mode="constructive",
    )
