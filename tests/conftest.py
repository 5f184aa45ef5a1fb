"""Shared randomized-sweep helpers for the test suite.

Every generator draws from a seeded ``random.Random`` so reruns are
reproducible.  Sets are retried until they are generic for their dimension
class: pairwise distinct, nonzero, and with the relevant degeneracy
predicates nonvanishing (degenerate behaviour is covered by fixed fixtures,
not by the sweep).

``reducible_plan`` is the reducible-side counterpart: it solves for one
eigenvalue so that a chosen predicate vanishes.  J4 has no rational zero,
so its plans live over ``OMEGA``, Q adjoined a primitive cube root of unity.

``sylvester_resultant`` is the reference resultant for the closed-form
norms the predicates use: the determinant of the Sylvester matrix.
``leibniz_determinant`` is the reference for :func:`determinant`.
``inverse_reference`` is the reference for ``FieldElement.inverse``: the
extended Euclidean algorithm on lists of ``Fraction``.
``character`` over ``DEFAULT_PROBE_WORDS`` is the reference for the census
probes, which are read off the diagonals: it evaluates each braid word.
``algebra_closure_dim`` is the reference for the Burnside oracle, which
decides by the witness search: it spans the algebra g1 and g2 generate.
``self_check_reference`` is the reference for ``reps._self_check`` on
FieldElement rows: it checks the two identities by matrix products.
``transpose_parameters``, ``free_reduce`` and ``matrix_image`` are
operations only the tests use.
"""

from fractions import Fraction
from itertools import combinations, permutations
import math
import random

from braidreps import (
    BadSpec,
    BraidWord,
    FieldContext,
    Matrix,
    NotInvertible,
    ParameterSet,
    RepSpec,
    ShapeMismatch,
    build_rep,
    determinant,
    evaluate,
    parse,
    rationals,
)
from braidreps.field import _poly_divmod, _trim
from braidreps.linalg import _reduce_vector

SWEEP_SEED = 20260814

_NUMS = [n for n in range(-9, 10) if n != 0]
_DENS = [1, 1, 1, 2, 3, 4]


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(_NUMS), rng.choice(_DENS))


def distinct_nonzero(rng: random.Random, n: int) -> list:
    while True:
        vals = [rand_fraction(rng) for _ in range(n)]
        if len(set(vals)) == n:
            return vals


def _e(vals, k):
    total = Fraction(0)
    for combo in combinations(vals, k):
        prod = Fraction(1)
        for v in combo:
            prod *= v
        total += prod
    return total


def sylvester_resultant(p, q):
    """Res(p, q) as the determinant of the Sylvester matrix, over p's context."""
    ctx = p.context
    m, n = p.degree, q.degree
    if m < 0 or n < 0:
        return ctx.zero()
    if m == 0:
        return p.coeffs[0] ** n
    if n == 0:
        return q.coeffs[0] ** m
    size = m + n
    rows = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for i in range(n):
        rows.append([ctx.zero()] * i + pc + [ctx.zero()] * (size - m - 1 - i))
    for i in range(m):
        rows.append([ctx.zero()] * i + qc + [ctx.zero()] * (size - n - 1 - i))
    return determinant(Matrix.from_rows(ctx, rows))


def leibniz_determinant(m):
    """Sum over permutations of signed products; for n <= 5 only."""
    n = m.rows
    assert n == m.cols and n <= 5
    total = m.context.zero()
    for perm in permutations(range(n)):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        term = m.context.one()
        for i, j in enumerate(perm):
            term = term * m[i, j]
        total = total - term if inversions % 2 else total + term
    return total


def inverse_reference(e):
    """e^-1 by the extended Euclidean algorithm on Fraction lists, for an
    element that is not rational; a zero divisor raises NotInvertible with
    the monic gcd of e and the modulus as its factor."""
    ctx = e.context
    r0, r1 = list(ctx.modulus), _trim(list(e.coeffs))
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while r1:
        q, rem = _poly_divmod(r0, r1)
        s_new = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                s_new[i + j] -= qi * sj
        r0, r1, s0, s1 = r1, rem, s1, _trim(s_new)
    if len(r0) != 1:
        factor = [c / r0[-1] for c in r0]
        raise NotInvertible("zero divisor: element shares the monic factor "
                            f"{[str(c) for c in factor]} with the modulus", factor)
    return ctx.element([c / r0[0] for c in s0][:ctx.degree])


def algebra_closure_dim(generators):
    """Span dimension of the unital matrix algebra the generators produce.

    Breadth-first span closure: seed with the identity and the generators,
    then right-multiply accepted basis matrices by each generator in order,
    keeping products that enlarge the span, until a fixpoint (or the hard
    ceiling d*d, which certifies the full matrix algebra).  The returned
    basis is reproducible: matrices appear in the order the closure
    discovered them.  Every pivot is inverted, so over a reducible modulus
    a zero-divisor pivot raises NotInvertible.
    """
    if not generators:
        raise ValueError("need at least one generator")
    d = generators[0].rows
    for g in generators:
        if g.rows != d or g.cols != d:
            raise ShapeMismatch("generators must be square of equal size")
    ctx = generators[0].context
    full = d * d
    reduced = []
    accepted = []
    queue = [Matrix.identity(ctx, d), *generators]
    qi = 0
    while qi < len(queue) and len(accepted) < full:
        mat = queue[qi]
        qi += 1
        if _reduce_vector(list(mat.entries), reduced, full) is None:
            continue
        accepted.append(mat)
        for g in generators:
            queue.append(mat @ g)
    return len(accepted), accepted


def self_check_reference(g1, g2):
    """The first identity the pair fails, for a diagonal g1 over a field:
    "braid relation" unless A g1 = g2 A with A = g1 g2, then "determinant"
    unless det g2 = det g1 by :func:`determinant`; None when both hold."""
    a = g1 @ g2
    if a @ g1 != g2 @ a:
        return "braid relation"
    if determinant(g2) != math.prod((g1[i, i] for i in range(g1.rows)), start=g1.context.one()):
        return "determinant"
    return None


DEFAULT_PROBE_WORDS = tuple(
    parse(t) for t in ("s1", "s2", "s1 s2", "s1 s2 s1", "s1^2 s2", "s1^3 s2")
)


def character(rep, words):
    """Traces of the given words in the representation."""
    return [evaluate(w, rep).trace() for w in words]


class IndexOutOfRange(ValueError):
    """A 1-based eigenvalue position outside the parameter list."""


def matrix_image(m, ctx):
    """m with every entry mapped into ctx by ``ctx.image``."""
    return Matrix(ctx, m.rows, m.cols, [ctx.image(e) for e in m.entries])


def transpose_parameters(rep, i, j):
    """Swap the eigenvalues at 1-based positions i and j, then rebuild.

    Acting twice with the same pair returns the original.  For the
    6-dimensional family this realises the transposition action that links
    the five variants.
    """
    if i == j:
        raise BadSpec("positions must be distinct")
    n = len(rep.spec.params)
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"positions {i},{j} out of range for {n} eigenvalues")
    vs = list(rep.spec.params.values)
    vs[i - 1], vs[j - 1] = vs[j - 1], vs[i - 1]
    spec = RepSpec(
        dim=rep.spec.dim,
        params=ParameterSet(tuple(vs)),
        h=rep.spec.h,
        f=rep.spec.f,
        variant=rep.spec.variant,
    )
    return build_rep(spec)


def free_reduce(w):
    """Merge adjacent equal generators and drop zero exponents, to a fixpoint."""
    factors = list(w.factors)
    changed = True
    while changed:
        changed = False
        out = []
        for gen, exp in factors:
            if exp == 0:
                changed = True
                continue
            if out and out[-1][0] == gen:
                out[-1] = (gen, out[-1][1] + exp)
                changed = True
            else:
                out.append((gen, exp))
        factors = out
    return BraidWord(tuple(factors))


def _level2_ok(x):
    return x[0] ** 2 - x[0] * x[1] + x[1] ** 2 != 0


def _level3_ok(x):
    return all(x[i] ** 2 + x[j] * x[k] != 0
               for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)))


def _level4_ok(x):
    # Quantified over both square roots of e4: the norms over both roots.
    e4 = _e(x, 4)
    if any(v ** 4 - e4 == 0 for v in x):
        return False
    pairings = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))
    return all((x[a] * x[b] + x[c] * x[d]) ** 2 - e4 != 0
               for a, b, c, d in pairings)


def _level5_ok(x):
    # Quantified over all fifth roots of e5.
    e5 = _e(x, 5)
    if any(v ** 10 + v ** 5 * e5 + e5 ** 2 == 0 for v in x):
        return False
    return all((x[i] * x[j]) ** 5 + e5 ** 2 != 0
               for i, j in combinations(range(5), 2))


def _level6_ok(x):
    e5 = _e(x, 5)
    if any(e5 + v ** 5 == 0 for v in x):
        return False
    if any(e5 - x[i] ** 3 * x[j] ** 2 == 0
           for i in range(5) for j in range(5) if i != j):
        return False
    for i in range(5):
        rest = [r for r in range(5) if r != i]
        j = rest[0]
        for k, l, m in ((rest[1], rest[2], rest[3]),
                        (rest[2], rest[1], rest[3]),
                        (rest[3], rest[1], rest[2])):
            if x[j] * x[k] + x[l] * x[m] == 0:
                return False
    return True


def gen_set_dim1(rng):
    return {"dim": 1, "values": [rand_fraction(rng)]}


def gen_set_dim2(rng):
    while True:
        vals = distinct_nonzero(rng, 2)
        if _level2_ok(vals):
            return {"dim": 2, "values": vals}


def gen_set_dim3(rng):
    while True:
        vals = distinct_nonzero(rng, 3)
        if _level3_ok(vals):
            return {"dim": 3, "values": vals}


def gen_set_dim4(rng):
    """x4 is solved from a rational h so that e4 = h^2 stays rational."""
    while True:
        x123 = distinct_nonzero(rng, 3)
        h = rand_fraction(rng)
        x4 = h ** 2 / (x123[0] * x123[1] * x123[2])
        vals = x123 + [x4]
        if x4 == 0 or len(set(vals)) != 4:
            continue
        if _level4_ok(vals):
            return {"dim": 4, "values": vals, "h": h}


def gen_set_dim5(rng):
    """x5 is solved from a rational f so that e5 = f^5 stays rational."""
    while True:
        x1234 = distinct_nonzero(rng, 4)
        f = rand_fraction(rng)
        prod = x1234[0] * x1234[1] * x1234[2] * x1234[3]
        x5 = f ** 5 / prod
        vals = x1234 + [x5]
        if x5 == 0 or len(set(vals)) != 5:
            continue
        if _level5_ok(vals) and _level6_ok(vals):
            return {"dim": 5, "values": vals, "f": f}


def gen_set_dim6(rng, variant):
    while True:
        vals = distinct_nonzero(rng, 5)
        if _level6_ok(vals):
            return {"dim": 6, "values": vals, "variant": variant}


def plan_rep(plan: dict):
    """Build the representation a sweep or reducible plan describes."""
    ctx = plan.get("context", rationals())
    roots = {k: ctx.one() * plan[k] for k in ("h", "f") if k in plan}
    return build_rep(RepSpec(dim=plan["dim"],
                             params=ParameterSet.from_rationals(ctx, plan["values"]),
                             variant=plan.get("variant"), **roots))


def sweep_plans(per_class: int, seed: int = SWEEP_SEED):
    """Build plans for every dimension class; dim-6 cycles the variant."""
    rng = random.Random(seed)
    plans = []
    for _ in range(per_class):
        plans.append(gen_set_dim1(rng))
        plans.append(gen_set_dim2(rng))
        plans.append(gen_set_dim3(rng))
        plans.append(gen_set_dim4(rng))
        plans.append(gen_set_dim5(rng))
    for k in range(per_class):
        plans.append(gen_set_dim6(rng, 1 + k % 5))
    return plans


REDUCIBLE_FAMILIES = ("I3", "I4", "J4", "J5", "I6", "J6", "K6")

OMEGA = FieldContext([1, 1, 1])  # t^2 + t + 1: Q(omega), omega^3 = 1


def reducible_plan(rng: random.Random, family: str) -> dict:
    """A plan whose representation is reducible through ``family``.

    One eigenvalue at a random position is solved so that a predicate of the
    family vanishes: I3 in dimension 3, I4 at the root h = x_i^2 in dimension
    4, J4 at h = x_i x_j + x_k x_l in dimension 4, J5 at a random root f in
    dimension 5, and I6, J6, K6 in the dimension-6 variant they affect.  Only
    sets with distinct nonzero values are kept.  A J4 plan carries its
    context, ``OMEGA``: with u = x_i x_j and v = x_k x_l, h^2 = e4 = uv asks
    for u^2 + uv + v^2 = 0, so v = omega u; every other plan is rational.
    """
    n = {"I3": 3, "I4": 4, "J4": 4}.get(family, 5)
    while True:
        x = distinct_nonzero(rng, n)
        i, j, k, l, m = rng.sample(range(n), n) + [None] * (5 - n)

        def solve(pos, numerator):
            x[pos] = numerator / math.prod(x[t] for t in range(n) if t != pos)

        plan = {"dim": 6, "variant": i + 1}
        if family == "I3":  # x_i^2 + x_j x_k
            x[k] = -x[i] ** 2 / x[j]
            plan = {"dim": 3}
        elif family == "I4":  # x_i^2 - h with e4 = h^2
            h = x[i] ** 2
            solve(j, h ** 2)
            plan = {"dim": 4, "h": h}
        elif family == "J4":  # x_i x_j + x_k x_l - h with e4 = h^2
            x = [OMEGA.from_rational(v) for v in x]
            x[l] = OMEGA.generator() * x[i] * x[j] / x[k]
            plan = {"dim": 4, "h": x[i] * x[j] + x[k] * x[l], "context": OMEGA}
        elif family == "J5":  # x_i x_j + f^2 with e5 = f^5
            f = rand_fraction(rng)
            x[j] = -f ** 2 / x[i]
            solve(k, f ** 5)
            plan = {"dim": 5, "f": f}
        elif family == "I6":  # e5 + x_i^5
            solve(j, -x[i] ** 5)
        elif family == "J6":  # e5 - x_j^3 x_i^2, affects variant i
            solve(k, x[j] ** 3 * x[i] ** 2)
        else:  # K6(i; j, k, l, m): x_j x_k + x_l x_m
            x[m] = -x[j] * x[k] / x[l]
        if 0 not in x and len(set(x)) == n:
            return {**plan, "values": x}
