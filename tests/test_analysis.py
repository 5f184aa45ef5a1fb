"""Degeneracy predicates, invariant-subspace witnesses, and the census.

Witness tuples and failing-predicate names below are frozen observations,
cross-checked against the closure oracle at the time of freezing.  Where a
fixture makes several predicates vanish at once, tests assert membership of
the distinguished one rather than equality of the whole set.
"""

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
import json
from math import prod
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from braidreps import (
    ALGEBRA_DIMS,
    BadLevel,
    CensusMismatch,
    FieldContext,
    FieldElement,
    InvalidWitness,
    Matrix,
    NotInvertible,
    ParameterSet,
    Polynomial,
    RepSpec,
    Representation,
    Witness,
    build_rep,
    cyclotomic5_context,
    decomposability_check,
    dimension_census,
    encode_element,
    enumerate_irreps,
    evaluate_predicates,
    intertwiner_dim,
    intertwiner_exists,
    invariant_subspace_witness,
    irreducibility,
    irreducible_oracle,
    minpoly,
    parse_element,
    rationals,
    rep_predicates,
    semisimplicity,
    verify_witness,
    witness_vectors,
)
from braidreps.linalg import inverse

import braidreps.analysis as analysis
import braidreps.cli as cli
from conftest import (
    DEFAULT_PROBE_WORDS,
    REDUCIBLE_FAMILIES,
    SWEEP_SEED,
    algebra_closure_dim,
    character,
    distinct_nonzero,
    gen_set_dim3,
    gen_set_dim4,
    gen_set_dim5,
    gen_set_dim6,
    plan_rep,
    rand_fraction,
    reducible_plan,
    sweep_plans,
    sylvester_resultant,
)

Q = rationals()


def ps(*vals):
    return ParameterSet.from_rationals(Q, [Fraction(v) for v in vals])


def qv(v):
    return Q.from_rational(Fraction(v))


# The six degenerate fixtures, one per predicate family.
FIX_I3 = ps(2, 1, -4)
FIX_I4 = ps(1, 2, Fraction(27, 2), 3)           # with h = 9
FIX_J5 = ps(-4, 1, 2, 4, -1)                    # with f = 2
FIX_J6 = ps(1, 2, 3, 4, 24)
FIX_K6 = ps(1, 2, -3, 6, 5)
FIX_I6 = ps(2, 3, -1, Fraction(1, 6), 1)


class TestPredicateValues:
    def test_level2(self):
        (p,) = evaluate_predicates(ps(1, 2), 2)
        assert p.name == "I2(1,2)" and p.value == 3 and not p.is_zero

    def test_level2_never_vanishes_over_q(self):
        # x^2 - xy + y^2 = (x - y/2)^2 + 3y^2/4 > 0 for nonzero rationals.
        for a, b in ((1, 2), (-3, 5), (7, 7 * 2), (Fraction(1, 3), -2)):
            if a == b:
                continue
            (p,) = evaluate_predicates(ps(a, b), 2)
            assert not p.is_zero

    def test_level3_names_and_values(self):
        preds = evaluate_predicates(ps(1, 2, 3), 3)
        got = {p.name: p.value for p in preds}
        assert got["I3(1,2,3)"] == 7
        assert got["I3(2,1,3)"] == 7
        assert got["I3(3,1,2)"] == 11

    def test_level4_with_root(self):
        preds = evaluate_predicates(ps(1, 2, 3, 6), 4, root=qv(6))
        byname = {p.name: p.value for p in preds}
        assert byname["I4(1)"] == -5
        assert byname["I4(4)"] == 30
        assert byname["J4(1,2,3,4)"] == 14
        assert byname["J4(1,3,2,4)"] == 9
        assert byname["J4(1,4,2,3)"] == 6
        assert not any(p.quantified for p in preds)

    def test_level4_quantified_surrogates(self):
        # Res over both square roots of e4 = 24: I4 -> x^4 - 24 and
        # J4 -> (pair sum)^2 - 24; frozen from the closed forms.
        preds = evaluate_predicates(ps(1, 2, 3, 4), 4)
        byname = {p.name: p.value for p in preds}
        assert all(p.quantified for p in preds)
        assert [byname[f"I4({i})"].rational_value() for i in (1, 2, 3, 4)] == \
            [-23, -8, 57, 232]
        assert byname["J4(1,2,3,4)"] == 172
        assert byname["J4(1,3,2,4)"] == 97
        assert byname["J4(1,4,2,3)"] == 76

    def test_level5_with_root(self):
        preds = evaluate_predicates(ps(1, 2, 3, 4, Fraction(4, 3)), 5, root=qv(2))
        byname = {p.name: p.value for p in preds}
        assert byname["I5(1)"] == 7            # 1 + 2 + 4
        assert byname["I5(5)"] == Fraction(76, 9)
        assert byname["J5(1,2)"] == 6          # 2 + 4
        assert byname["J5(4,5)"] == Fraction(16, 3) + 4

    def test_level5_quantified_vanishing(self):
        preds = evaluate_predicates(FIX_J5, 5)
        zeros = sorted(p.name for p in preds if p.is_zero)
        assert zeros == ["J5(1,2)", "J5(4,5)"]

    def test_level6_vanishing_and_variant_attribution(self):
        preds = evaluate_predicates(FIX_J6, 6)
        zeros = {p.name: p for p in preds if p.is_zero}
        assert set(zeros) == {"J6(1,5)", "J6(4,3)"}
        assert zeros["J6(1,5)"].affects_variant == 5
        assert zeros["J6(4,3)"].affects_variant == 3

        preds = evaluate_predicates(FIX_K6, 6)
        zeros = {p.name: p for p in preds if p.is_zero}
        assert set(zeros) == {"K6(5;1,4,2,3)"}
        assert zeros["K6(5;1,4,2,3)"].affects_variant == 5

        preds = evaluate_predicates(FIX_I6, 6)
        assert any(p.name == "I6(5)" and p.is_zero and p.affects_variant == 5
                   for p in preds)

    def test_quantified_values_are_sylvester_resultants(self):
        # Each quantified value is Res_t(t^k - e, P) for its family's P(t),
        # checked against the Sylvester determinant on seeded sets.
        rng = random.Random(SWEEP_SEED)
        contexts = (Q, FieldContext([-24, 0, 1]), cyclotomic5_context())
        for ctx in contexts:
            for level in (4, 5):
                sets = [_random_set(rng, ctx, level) for _ in range(5)]
                if ctx == Q:  # with vanishing values too
                    sets.append(FIX_I4 if level == 4 else FIX_J5)
                for X in sets:
                    preds = evaluate_predicates(X, level)
                    assert len(preds) == {4: 7, 5: 15}[level]
                    for p in preds:
                        assert p.quantified and p.subset == tuple(range(1, level + 1))
                        assert p.value == _norm_by_sylvester(X.values, p)

    def test_quantified_values_on_reducible_modulus(self):
        # Q[t]/(t^2 - 1) = Q x Q through t -> 1 and t -> -1.  The norms are
        # polynomial identities, so each value maps to the norm of the
        # mapped eigenvalues, even where the mapped set is degenerate.
        ctx = FieldContext([-1, 0, 1])
        rng = random.Random(SWEEP_SEED + 1)
        for level in (4, 5):
            for _ in range(5):
                X = _random_set(rng, ctx, level)
                for p in evaluate_predicates(X, level):
                    for sign in (1, -1):
                        at = [qv(v.coeffs[0] + sign * v.coeffs[1]) for v in X.values]
                        image = p.value.coeffs[0] + sign * p.value.coeffs[1]
                        assert _norm_by_sylvester(at, p) == image

    def test_bad_level(self):
        with pytest.raises(BadLevel):
            evaluate_predicates(ps(1, 2), 7)
        with pytest.raises(BadLevel):
            evaluate_predicates(ps(1, 2, 3), 2)


def _random_set(rng, ctx, n):
    """n distinct nonzero elements with small rational coefficients."""
    while True:
        vals = [
            ctx.element([Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                         for _ in range(ctx.degree)])
            for _ in range(n)
        ]
        try:
            return ParameterSet(tuple(vals))
        except ValueError:
            continue


def _norm_by_sylvester(vals, p):
    """Res_t(t^k - e, P): P(t) vanishes at a root t iff predicate p does."""
    ctx = vals[0].context
    x = [vals[i - 1] for i in p.indices]
    if p.family == "I4":
        coeffs, k = [x[0] ** 2, -1], 2
    elif p.family == "J4":
        coeffs, k = [x[0] * x[1] + x[2] * x[3], -1], 2
    elif p.family == "I5":
        coeffs, k = [x[0] ** 2, x[0], 1], 5
    else:
        coeffs, k = [x[0] * x[1], 0, 1], 5
    e = prod(vals)  # e_n
    radical = Polynomial.from_coeffs(ctx, [-e] + [0] * (k - 1) + [1])
    return sylvester_resultant(radical, Polynomial.from_coeffs(ctx, coeffs))


class TestWitnessMachinery:
    def test_vectors_and_validation(self):
        rep = build_rep(RepSpec(dim=3, params=FIX_I3))
        vecs = witness_vectors(rep, Witness((2, 3)))
        assert len(vecs) == 2 and vecs[0][1] == 1 and vecs[1][2] == 1
        with pytest.raises(InvalidWitness):
            witness_vectors(rep, Witness((4,)))
        with pytest.raises(InvalidWitness):
            witness_vectors(rep, Witness((1,), extra_line=(qv(1), qv(0))))

    def test_verify_rejects_non_invariant(self):
        rep = build_rep(RepSpec(dim=3, params=FIX_I3))
        assert verify_witness(rep, Witness((2, 3)))
        assert not verify_witness(rep, Witness((1,)))
        assert not verify_witness(rep, Witness((1, 2)))

    def test_verify_rejects_improper(self):
        rep = build_rep(RepSpec(dim=3, params=FIX_I3))
        assert not verify_witness(rep, Witness((1, 2, 3)))  # full space
        assert not verify_witness(rep, Witness(()))         # zero space

    def test_verify_rejects_repeated_indices(self):
        # (2, 3) is invariant, but a witness lists distinct indices
        rep = build_rep(RepSpec(dim=3, params=FIX_I3))
        assert not verify_witness(rep, Witness((2, 2)))
        assert not verify_witness(rep, Witness((2, 3, 3)))
        bad = build_rep(RepSpec(dim=4, params=FIX_I4, h=qv(9)))
        assert verify_witness(bad, Witness((1, 2, 3)))
        assert not verify_witness(bad, Witness((1, 2, 3, 3)))

    @pytest.mark.parametrize("index", [0, 4])
    def test_verify_rejects_indices_out_of_range(self, index):
        rep = build_rep(RepSpec(dim=3, params=FIX_I3))
        with pytest.raises(InvalidWitness, match=f"index {index} outside 1..3"):
            verify_witness(rep, Witness((2, index)))

    def test_decomposability_validates_first(self):
        rep = build_rep(RepSpec(dim=3, params=FIX_I3))
        with pytest.raises(InvalidWitness):
            decomposability_check(rep, Witness((1,)))


class TestDegenerateFixtures:
    def test_dim3_fixture(self):
        rep = build_rep(RepSpec(dim=3, params=FIX_I3))
        assert not irreducible_oracle(rep)
        w = invariant_subspace_witness(rep)
        assert w.index_set == (2, 3)
        assert verify_witness(rep, w)
        assert not decomposability_check(rep, w)
        assert not w.complement_found

    def test_dim4_fixture_root_split(self):
        bad = build_rep(RepSpec(dim=4, params=FIX_I4, h=qv(9)))
        assert not irreducible_oracle(bad)
        w = invariant_subspace_witness(bad)
        assert w.index_set == (1, 2, 3)
        assert verify_witness(bad, w)
        assert not decomposability_check(bad, w)
        # The other square root gives an irreducible companion.
        good = build_rep(RepSpec(dim=4, params=FIX_I4, h=qv(-9)))
        assert irreducible_oracle(good)
        assert invariant_subspace_witness(good) is None

    def test_dim5_fixture(self):
        rep = build_rep(RepSpec(dim=5, params=FIX_J5, f=qv(2)))
        assert not irreducible_oracle(rep)
        w = invariant_subspace_witness(rep)
        assert w.index_set == (3,)
        assert verify_witness(rep, w)
        assert not decomposability_check(rep, w)

    def test_dim6_j6_fixture_both_variants(self):
        v5 = build_rep(RepSpec(dim=6, params=FIX_J6, variant=5))
        assert not irreducible_oracle(v5)
        w = invariant_subspace_witness(v5)
        assert w.index_set == (1, 5) and w.extra_line is None
        assert verify_witness(v5, w)
        assert not decomposability_check(v5, w)

        v3 = build_rep(RepSpec(dim=6, params=FIX_J6, variant=3))
        assert not irreducible_oracle(v3)
        w3 = invariant_subspace_witness(v3)
        assert w3.index_set == (4,) and w3.extra_line is not None
        a, b = w3.extra_line
        assert (a.rational_value(), b.rational_value()) == \
            (Fraction(-32, 15), Fraction(1, 20))
        assert verify_witness(v3, w3)
        assert not decomposability_check(v3, w3)

        # Variants not named by the vanishing predicates stay irreducible.
        for variant in (1, 2, 4):
            rep = build_rep(RepSpec(dim=6, params=FIX_J6, variant=variant))
            assert irreducible_oracle(rep)
            assert invariant_subspace_witness(rep) is None
            assert intertwiner_dim([(rep.g1, rep.g1), (rep.g2, rep.g2)]) == 1

    def test_dim6_k6_fixture(self):
        v5 = build_rep(RepSpec(dim=6, params=FIX_K6, variant=5))
        assert not irreducible_oracle(v5)
        w = invariant_subspace_witness(v5)
        assert w.index_set == (2, 3, 6) and w.extra_line is None
        assert verify_witness(v5, w)
        assert not decomposability_check(v5, w)
        for variant in (1, 2, 3, 4):
            rep = build_rep(RepSpec(dim=6, params=FIX_K6, variant=variant))
            assert irreducible_oracle(rep)

    def test_dim6_i6_fixture_line_witness(self):
        v5 = build_rep(RepSpec(dim=6, params=FIX_I6, variant=5))
        assert not irreducible_oracle(v5)
        w = invariant_subspace_witness(v5)
        assert w.index_set == ()
        alpha, beta = w.extra_line
        assert (alpha.rational_value(), beta.rational_value()) == \
            (Fraction(-441, 5), Fraction(-63, 5))
        # Collinear with the reference eigenvector (-42, -6).
        assert alpha * Fraction(-6) - beta * Fraction(-42) == 0
        assert verify_witness(v5, w)
        assert not decomposability_check(v5, w)

    def test_oracle_matches_predicates_on_fixtures(self):
        # For dims <= 5 a degenerate rep is flagged by a vanishing
        # predicate evaluated at its own root; cross-check one per family.
        rep = build_rep(RepSpec(dim=5, params=FIX_J5, f=qv(2)))
        zeros = [p for p in evaluate_predicates(FIX_J5, 5, root=qv(2)) if p.is_zero]
        assert zeros and not irreducible_oracle(rep)


def _fixture_reps():
    """The degenerate fixtures, both reducible J6 variants included."""
    return [
        build_rep(RepSpec(dim=3, params=FIX_I3)),
        build_rep(RepSpec(dim=4, params=FIX_I4, h=qv(9))),
        build_rep(RepSpec(dim=5, params=FIX_J5, f=qv(2))),
        build_rep(RepSpec(dim=6, params=FIX_J6, variant=5)),
        build_rep(RepSpec(dim=6, params=FIX_J6, variant=3)),
        build_rep(RepSpec(dim=6, params=FIX_K6, variant=5)),
        build_rep(RepSpec(dim=6, params=FIX_I6, variant=5)),
    ]


def _swap(rep):
    """The same module with s1 and s2 exchanged (an automorphism of B3)."""
    return Representation(spec=rep.spec, g1=rep.g2, g2=rep.g1,
                          multiplicities=rep.multiplicities)


def _conjugate_by_p(rep):
    """The same rep after the change of basis diag(1, ..., 1, 2^61 - 1)."""
    d, ctx = rep.dim, rep.context
    diag = [ctx.one()] * (d - 1)
    s = Matrix.diagonal(ctx, diag + [ctx.from_rational(2**61 - 1)])
    s_inv = Matrix.diagonal(ctx, diag + [ctx.from_rational(Fraction(1, 2**61 - 1))])
    return Representation(spec=rep.spec, g1=s @ rep.g1 @ s_inv,
                          g2=s @ rep.g2 @ s_inv,
                          multiplicities=rep.multiplicities)


Z5 = cyclotomic5_context()
T2M1 = FieldContext([-1, 0, 1])  # t^2 - 1: Q x Q through t -> 1 and t -> -1
T3MT = FieldContext([0, -1, 0, 1])  # t^3 - t: Q x Q x Q through t -> 0, 1, -1


def _fractions(text):
    return [Fraction(v) for v in text.split()]


def _scaled(plan, ctx, lam):
    """The plan's set times lam over ctx (h times lam^2, f times lam): same verdict."""
    roots = {k: lam ** e * plan[k] for k, e in (("h", 2), ("f", 1)) if k in plan}
    return {**plan, **roots, "context": ctx, "values": [lam * v for v in plan["values"]]}


def _split(one, minus_one, zero=None):
    """The plan over t^2 - 1 whose images at t = 1 and t = -1 are the two plans,
    or with ``zero``, over t^3 - t with that plan's image at t = 0 as well."""
    def crt(x, y, z=None):
        if z is None:
            return T2M1.element([(x + y) / 2, (x - y) / 2])
        return T3MT.element([z, (x - y) / 2, (x + y) / 2 - z])
    plans = (one, minus_one) if zero is None else (one, minus_one, zero)
    roots = {k: crt(*(p[k] for p in plans)) for k in ("h", "f") if k in one}
    return {**one, **roots, "context": T2M1 if zero is None else T3MT,
            "values": [crt(*xs) for xs in zip(*(p["values"] for p in plans))]}


class TestModularCertificate:
    # the oracle is the witness search alone; the exact closure of conftest
    # is the reference every verdict is compared against

    def test_certified_sets_skip_the_exact_closure(self):
        rep = build_rep(RepSpec(dim=6, params=FIX_J6, variant=1))
        assert irreducible_oracle(rep)
        assert algebra_closure_dim([rep.g1, rep.g2])[0] == 36

    def test_p_in_a_denominator_takes_exact_path(self):
        # a large denominator changes nothing: the diagonal change of basis
        # keeps g1 diagonal and the zero pattern, so the search decides both
        irred = _conjugate_by_p(build_rep(RepSpec(dim=2, params=ps(1, 2))))
        red = _conjugate_by_p(build_rep(RepSpec(dim=3, params=FIX_I3)))
        for rep, verdict in ((irred, True), (red, False)):
            assert irreducible_oracle(rep) is verdict
            assert (algebra_closure_dim([rep.g1, rep.g2])[0] == rep.dim ** 2) is verdict
        assert irreducibility(red)[1] is not None

    def test_irrational_root_skips_the_exact_closure(self):
        ctx = FieldContext([-24, 0, 1])
        X = ParameterSet.from_rationals(ctx, [1, 2, 3, 4])
        rep = build_rep(RepSpec(dim=4, params=X, h=ctx.generator()))
        assert irreducible_oracle(rep)

    def test_fixture_verdicts_carry_the_witness(self):
        for rep in _fixture_reps():
            assert irreducibility(rep) == (False, invariant_subspace_witness(rep))

    def test_reducible_without_witness_is_off_the_layout(self):
        # conjugating by I + E12 leaves no invariant coordinate subspace, and
        # g1 is no longer diagonal: the search is not complete there
        rep = build_rep(RepSpec(dim=3, params=FIX_I3))
        s = Matrix(Q, 3, 3, [qv(1) if k in (0, 1, 4, 8) else qv(0) for k in range(9)])
        s_inv = inverse(s)
        conj = Representation(spec=rep.spec, g1=s @ rep.g1 @ s_inv,
                              g2=s @ rep.g2 @ s_inv, multiplicities=rep.multiplicities)
        assert algebra_closure_dim([conj.g1, conj.g2])[0] == 7
        assert invariant_subspace_witness(conj) is None
        with pytest.raises(ValueError, match="laid out"):
            irreducibility(conj)

    def test_failed_candidate_is_no_certificate(self):
        # s1 <-> s2 is an automorphism of B3; after the swap g1 is not
        # diagonal, so the coordinate line (1,) is invariant under g2 but
        # moved by g1: the search must skip it, not return or raise on it
        rep = build_rep(RepSpec(dim=3, params=FIX_I3))
        swapped = _swap(rep)
        w = invariant_subspace_witness(swapped)
        assert w == Witness((2, 3))
        assert verify_witness(swapped, w)
        assert irreducibility(swapped) == (False, w)
        for rep in _fixture_reps():
            swapped = _swap(rep)
            w = invariant_subspace_witness(swapped)
            if w is not None:
                assert verify_witness(swapped, w)
                assert w.complement_found == decomposability_check(swapped, w)

    def test_irred_command_searches_once(self, capsys, monkeypatch):
        calls = []

        def counting(rep):
            calls.append(rep)
            return invariant_subspace_witness(rep)

        monkeypatch.setattr(analysis, "invariant_subspace_witness", counting)
        monkeypatch.setattr(cli, "invariant_subspace_witness", counting, raising=False)
        for argv, reducible in ((["[2, 1, -4]"], True), (["[1, 2, 3]"], False),
                                (['["2", "3", "-1", "1/6", "1"]', "--dim", "6",
                                  "--variant", "5"], True)):
            calls.clear()
            assert cli.main(["irred", "--params", *argv]) == 0
            assert len(calls) == 1
            assert (json.loads(capsys.readouterr().out)["witness"] is None) == (not reducible)

    def test_oracle_agrees_with_exact_closure_on_sweep(self):
        rng = random.Random(SWEEP_SEED)
        plans = sweep_plans(10)
        plans += [reducible_plan(rng, f) for f in REDUCIBLE_FAMILIES for _ in range(10)]
        for rep in [plan_rep(plan) for plan in plans] + _fixture_reps():
            dim, _ = algebra_closure_dim([rep.g1, rep.g2])
            # built reps and their diagonal conjugates keep the layout
            for same in (rep, _conjugate_by_p(rep)):
                assert irreducible_oracle(same) == (dim == rep.dim ** 2), rep.spec

    def test_oracle_agrees_with_exact_closure_beyond_q(self):
        # over a field every nonzero value is a unit: the search decides alone
        rng = random.Random(SWEEP_SEED)
        rational = [p for p in sweep_plans(1) if p["dim"] > 1]
        rational += [reducible_plan(rng, f) for f in REDUCIBLE_FAMILIES if f != "J4"]
        root24, cubic = FieldContext([-24, 0, 1]), FieldContext([-2, 0, 0, 1])
        plans = [_scaled(p, root24, root24.generator()) for p in rational]
        plans += [_scaled(p, cubic, cubic.generator()) for p in rational]
        # f = zeta^k f0 for k = 1..4 are Galois conjugates: two of them suffice
        plans += [{**p, "context": Z5, "f": Z5.generator() ** k * p["f"]}
                  for p in rational if p["dim"] == 5 for k in (1, 2)]
        for plan in plans:
            rep = plan_rep(plan)
            dim, _ = algebra_closure_dim([rep.g1, rep.g2])
            assert irreducible_oracle(rep) == (dim == rep.dim ** 2), rep.spec

    def test_split_factors_agree_with_both_images(self):
        # a set over t^2 - 1 is two rational sets, its images at t = 1 and
        # t = -1: the oracle answers exactly when both images give one
        # verdict, and then gives it; otherwise the zero divisor is raised
        rng = random.Random(SWEEP_SEED)
        generic = {3: gen_set_dim3, 4: gen_set_dim4, 5: gen_set_dim5, 6: gen_set_dim6}
        pairs = []
        for family in ("I3", "I4", "J5", "I6", "J6", "K6") * 2:
            red = reducible_plan(rng, family)
            # both factors of a dimension-6 set share its variant
            variant = (red["variant"],) if red["dim"] == 6 else ()
            gen, gen2 = (generic[red["dim"]](rng, *variant) for _ in range(2))
            pairs += [(red, gen), (gen, red), (gen, gen2), (red, _scaled(red, Q, 2))]
        # golden calls: the closure answered (the certificate failed); the
        # search answered; the certificate failed and the closure met a
        # zero divisor, as the images differ
        d3, d6 = {"dim": 3}, {"dim": 6, "variant": 1}
        pairs += [({**d3, "values": _fractions("-4 -5 4")},
                   {**d3, "values": _fractions("3 1/3 -2")}),
                  ({**d6, "values": _fractions("-2 7/4 -5 1 2")},
                   {**d6, "values": _fractions("-3 9/4 243/32 3/2 -1/3")}),
                  ({**d6, "values": _fractions("-6 1/3 7 9/4 -5")},
                   {**d6, "values": _fractions("-7 -6 9 -2401/54 -1")})]
        verdicts = []
        for one, minus_one in pairs:
            rep = plan_rep(_split(one, minus_one))
            images = [plan_rep(p) for p in (one, minus_one)]
            closure = [algebra_closure_dim([r.g1, r.g2])[0] == r.dim ** 2 for r in images]
            assert [irreducible_oracle(r) for r in images] == closure
            if closure[0] != closure[1]:
                with pytest.raises(NotInvertible):
                    irreducible_oracle(rep)
                verdicts.append(None)
            else:
                assert irreducible_oracle(rep) is closure[0], rep.spec
                verdicts.append(closure[0])
        assert verdicts[-3:] == [True, True, None]
        assert {True, False, None} <= set(verdicts)

    def test_split_recurses_over_t3_minus_t(self, monkeypatch):
        # reducible at t = 0, 1 and -1 with three different witnesses: none
        # holds on the whole ring, so t^3 - t splits and one of its factors
        # splits again; one irreducible image leaves no verdict
        calls = []

        def counting(rep):
            calls.append(rep.context.degree)
            return irreducibility(rep)

        monkeypatch.setattr(analysis, "irreducibility", counting)
        rng = random.Random(SWEEP_SEED)
        red = {}
        while len(red) < 3:
            plan = reducible_plan(rng, "I3")
            red.setdefault(invariant_subspace_witness(plan_rep(plan)), plan)
        red = list(red.values())
        for plans, verdict in ((red, False), (red[:2] + [gen_set_dim3(rng)], None)):
            images = [plan_rep(p) for p in plans]
            closure = [algebra_closure_dim([r.g1, r.g2])[0] == 9 for r in images]
            assert closure == [irreducible_oracle(r) for r in images]
            rep = plan_rep(_split(*plans))
            assert invariant_subspace_witness(rep) is None
            calls.clear()
            if verdict is None:
                assert set(closure) == {True, False}
                with pytest.raises(NotInvertible):
                    irreducibility(rep)
                continue
            assert closure == [verdict] * 3
            assert irreducibility(rep) == (verdict, None)
            # the whole ring, a field and a product of two fields, then its two
            assert sorted(calls) == [1, 1, 1, 2], calls

    def test_eigenvalues_equal_on_one_factor_leave_the_layout(self):
        # g1 = diag(1, t) over t^2 - 1 is the identity at t = 1, where the
        # line (1, 1) is invariant; at t = -1 the rep is irreducible.  No
        # builder makes it: the image at t = 1 has no simple eigenvalues
        one, t = T2M1.one(), T2M1.generator()
        rep = Representation(spec=RepSpec(dim=2, params=ParameterSet((one, t))),
                             g1=Matrix.diagonal(T2M1, [one, t]),
                             g2=Matrix.from_rows(T2M1, [[1, 1], [1, 1]]),
                             multiplicities=(1, 1))
        assert invariant_subspace_witness(rep) is None
        with pytest.raises(ValueError, match="laid out"):
            irreducibility(rep)
        images = [Matrix.diagonal(Q, [qv(1), qv(r)]) for r in (1, -1)]
        ones = Matrix.from_rows(Q, [[1, 1], [1, 1]])
        assert [algebra_closure_dim([g1, ones])[0] for g1 in images] == [2, 4]

    def test_uncovered_layout_raises(self):
        # after s1 <-> s2, g1 is not diagonal
        swapped = _swap(build_rep(RepSpec(dim=3, params=ps(1, 2, 3))))
        # coordinates (5, 6, 1, 2, 3, 4): the doubled eigenvalue comes first
        rep6 = build_rep(RepSpec(dim=6, params=ps(1, 2, 3, 4, 5), variant=5))
        s = Matrix(Q, 6, 6, [qv(int(j == (i + 4) % 6)) for i in range(6) for j in range(6)])
        permuted = Representation(spec=rep6.spec, g1=s @ rep6.g1 @ inverse(s),
                                  g2=s @ rep6.g2 @ inverse(s),
                                  multiplicities=rep6.multiplicities)
        assert permuted.g1[0, 0] == permuted.g1[1, 1] == qv(5)
        # a tripled eigenvalue: span(e4) is invariant, but the search only
        # knows a doubled one on coordinates 5, 6 and never tries e4
        rng = random.Random(SWEEP_SEED)
        g2 = Matrix(Q, 6, 6, [qv(5 * (i == 3) if j == 3 else rng.randint(-3, 3))
                              for i in range(6) for j in range(6)])
        tripled = Representation(spec=rep6.spec, g2=g2, multiplicities=(1, 1, 1, 3),
                                 g1=Matrix.diagonal(Q, [qv(v) for v in (1, 2, 3, 4, 4, 4)]))
        for rep, verdict in ((swapped, True), (permuted, True), (tripled, False)):
            assert (algebra_closure_dim([rep.g1, rep.g2])[0] == rep.dim ** 2) is verdict
            assert invariant_subspace_witness(rep) is None
            with pytest.raises(ValueError, match="laid out"):
                irreducibility(rep)

    def test_doubled_eigenvalue_outside_dimension_6(self):
        # d = 4 with g1 = diag(1, 2, 3, 3): the search has no plane to offer,
        # so it tries coordinate sets of e1, e2 only and is not complete
        spec = RepSpec(dim=4, params=ps(1, 2, 3, 6), h=qv(6))
        g1 = Matrix.diagonal(Q, [qv(v) for v in (1, 2, 3, 3)])
        rng = random.Random(SWEEP_SEED)
        full = Matrix(Q, 4, 4, [qv(rng.randint(1, 3)) for _ in range(16)])
        # span(e3) is invariant, but e3 lies in the doubled eigenspace
        line = Matrix(Q, 4, 4, [qv(5 * (i == 2) if j == 2 else rng.randint(1, 3))
                                for i in range(4) for j in range(4)])
        for g2, verdict in ((full, True), (line, False)):
            rep = Representation(spec=spec, g1=g1, g2=g2, multiplicities=(1, 1, 2))
            assert (algebra_closure_dim([rep.g1, rep.g2])[0] == 16) is verdict
            assert invariant_subspace_witness(rep) is None
            with pytest.raises(ValueError, match="laid out"):
                irreducibility(rep)


class TestDecomposableExample:
    def test_artificial_direct_sum(self):
        # g1 = g2 = diag(1, 2) satisfies the braid relation and P_X trivially
        # and splits as a direct sum, so the complement must be found.
        spec = RepSpec(dim=2, params=ps(1, 2))
        diag = Matrix.diagonal(Q, [qv(1), qv(2)])
        rep = Representation(spec=spec, g1=diag, g2=diag, multiplicities=(1, 1))
        w = Witness((1,))
        assert verify_witness(rep, w)
        assert decomposability_check(rep, w)
        assert invariant_subspace_witness(rep) == Witness((1,), None, True)
        assert intertwiner_dim([(rep.g1, rep.g1), (rep.g2, rep.g2)]) >= 2


    def test_witness_splitting_a_doubled_eigenspace_outside_the_plane(self):
        # d = 4, g1 = diag(1, 2, 3, 3): span(e4) is invariant, but its
        # g1-invariant complements are span(e1, e2) plus any other line of the
        # 3-eigenspace, so the coordinate complement settles nothing
        spec = RepSpec(dim=4, params=ps(1, 2, 3, 6), h=qv(6))
        g1 = Matrix.diagonal(Q, [qv(v) for v in (1, 2, 3, 3)])
        g2 = Matrix.from_rows(Q, [[1, 0, 0, 0], [1, 2, 0, 0], [1, 1, 3, 0], [1, 1, 1, 3]])
        rep = Representation(spec=spec, g1=g1, g2=g2, multiplicities=(1, 1, 2))
        with pytest.raises(ValueError, match="splits"):
            decomposability_check(rep, Witness((4,)))
        # whole eigenspaces: the coordinate complement is the only one
        assert not decomposability_check(rep, Witness((3, 4)))


def _plane_rep(ctx, block):
    """g1 = diag(1, 2, 3, 4, 5, 5), g2 = a dense 4x4 block plus a plane block."""
    dense = [[1, 1, 1, 1], [1, 2, 1, 1], [1, 1, 3, 1], [1, 1, 1, 4]]
    rows = [row + [0, 0] for row in dense] + [[0] * 4 + list(row) for row in block]
    X = ParameterSet.from_rationals(ctx, [1, 2, 3, 4, 5])
    return Representation(spec=RepSpec(dim=6, params=X, variant=5),
                          g1=Matrix.diagonal(ctx, list(X) + [X[4]]),
                          g2=Matrix.from_rows(ctx, rows), multiplicities=(1, 1, 1, 1, 2))


class TestUnconstrainedPlaneLines:
    # the plane is g2-invariant, so no linear condition constrains a line
    # in it: the lines are the eigenvectors of the plane block
    @pytest.mark.parametrize("modulus, block, expected", [
        ([0, 1], [[1, 2], [0, 4]], ((5,), None)),
        ([0, 1], [[3, 0], [0, 3]], ((5,), None)),
        ([0, 1], [[1, 2], [2, 1]], ((), ([1], [1]))),
        ([0, 1], [[1, 2], [3, 4]], ((5, 6), None)),
        ([-33, 0, 1], [[1, 2], [3, 4]], ((), ([Fraction(-1, 2), Fraction(1, 6)], [1]))),
        ([-1, 0, 1], [[[1, 1], 1], [0, 2]], None),
    ], ids=["triangular", "scalar", "split-over-Q", "no-line-over-Q",
            "split-over-Q(sqrt33)", "zero-divisor"])
    def test_witness_against_the_closure(self, modulus, block, expected):
        ctx = FieldContext(modulus)
        rep = _plane_rep(ctx, [[ctx.element(e) if isinstance(e, list) else e
                                for e in row] for row in block])
        full = algebra_closure_dim([rep.g1, rep.g2])[0] == 36
        if expected is None:
            # a - d = t - 1 is a zero divisor: the search raises, and on
            # both images, at t = 1 and t = -1, the line e5 is invariant
            with pytest.raises(NotInvertible):
                invariant_subspace_witness(rep)
            assert irreducibility(rep) == (False, None) and not full
            return
        index_set, line = expected
        if line is not None:
            line = tuple(ctx.element(c) for c in line)
        witness = Witness(index_set, line, complement_found=True)
        assert irreducibility(rep) == (full, witness)
        assert verify_witness(rep, witness) and decomposability_check(rep, witness)


class TestPlaneWitnesses:
    # g2 keeps the plane span(e5, e6) and, for this block, the line e5
    def rep(self):
        return _plane_rep(Q, [[1, 2], [0, 4]])

    def test_line_span_dependent_or_too_large(self):
        rep = self.rep()
        assert verify_witness(rep, Witness((5,), extra_line=(qv(0), qv(1))))
        # e5 and the line (1, 0) on coordinates 5, 6 are one vector twice
        assert not verify_witness(rep, Witness((5,), extra_line=(qv(1), qv(0))))
        # six independent vectors span the whole space, seven are dependent
        assert not verify_witness(rep, Witness((1, 2, 3, 4, 5), extra_line=(qv(0), qv(1))))
        assert not verify_witness(rep, Witness((1, 2, 3, 4, 5, 6), extra_line=(qv(1), qv(1))))

    def test_decomposability_refuses_a_line_with_plane_coordinates(self):
        # span(e5) plus the line e6 is the invariant plane, a verified
        # witness, but the complement search takes the plane in one form only
        w = Witness((5,), extra_line=(qv(0), qv(1)))
        with pytest.raises(InvalidWitness, match="extra_line together with plane coordinates"):
            decomposability_check(self.rep(), w)


class TestReducibleSweep:
    @pytest.mark.parametrize("family", REDUCIBLE_FAMILIES)
    def test_vanishing_predicate_gives_verified_witness(self, family):
        rng = random.Random(SWEEP_SEED)
        for _ in range(10):
            plan = reducible_plan(rng, family)
            rep = plan_rep(plan)
            _, deciding = rep_predicates(rep)
            assert any(p.is_zero and p.family == family for p in deciding), plan
            irreducible, w = irreducibility(rep)
            assert not irreducible, plan
            assert w == invariant_subspace_witness(rep)
            if rep.dim <= 5:
                assert w is not None, plan
            if w is None:
                continue
            assert verify_witness(rep, w), plan
            assert w.complement_found == decomposability_check(rep, w), plan
            if w.complement_found:
                assert intertwiner_dim([(rep.g1, rep.g1), (rep.g2, rep.g2)]) >= 2

    @pytest.mark.parametrize("family", ["I3", "I4", "J4", "J5"])
    def test_witness_without_complement_below_dimension_6(self, family):
        # a verified invariant subspace with no invariant complement makes the
        # rep reducible but indecomposable, so the algebra is not semisimple
        rng = random.Random(SWEEP_SEED)
        for _ in range(10):
            plan = reducible_plan(rng, family)
            rep = plan_rep(plan)
            w = invariant_subspace_witness(rep)
            assert w is not None and verify_witness(rep, w), plan
            assert not w.complement_found and not decomposability_check(rep, w), plan
            assert not semisimplicity(rep.spec.params).semisimple_verdict, plan


def _verify_job(rep) -> str:
    """The ``verify --params`` job that rebuilds rep from its spec."""
    spec = rep.spec
    job = {"X": [encode_element(v) for v in rep.values], "dim": spec.dim,
           "context": [str(c) for c in rep.context.modulus]}
    job.update({k: encode_element(getattr(spec, k)) for k in ("h", "f")
                if getattr(spec, k) is not None})
    if spec.variant is not None:
        job["variant"] = spec.variant
    return json.dumps(job)


_SPLIT_ROOTS = {T2M1.modulus: (1, -1), T3MT.modulus: (0, 1, -1)}


def _images(rep):
    """(g2, eigenvalues) of rep, or of its image at each root of t^2 - 1 or t^3 - t."""
    roots = _SPLIT_ROOTS.get(rep.context.modulus)
    if roots is None:
        return [(rep.g2, list(rep.values))]

    def at(e, r):
        return qv(sum(c * r ** k for k, c in enumerate(e.coeffs)))

    return [(Matrix(Q, rep.dim, rep.dim, [at(e, r) for e in rep.g2.entries]),
             [at(v, r) for v in rep.values]) for r in roots]


# sets whose X has a difference that is a zero divisor: the four answered
# through the Krylov minpoly before verify read it off build_rep, and the
# last two exited 2 on a zero-divisor pivot of that run
ZERO_DIVISOR_SETS = [
    (T3MT, ["[0,4/3,-4/3]"]),
    (T2M1, ["[-6,-5]", "[-5,5]"]),
    (T2M1, ["[9,-2]", "[3,-3]", "[1,8]"]),
    (T3MT, ["[5/3,-1,3]", "[0,5/4,-5/4]", "[-2,-2/3,3/2]"]),
    (T3MT, ["[9,6,6]", "[1,3/4,-3]", "[0,3/2,-3/2]"]),
    (T2M1, ["[7,-5/4]", "[-2,5]", "[4,-4]"]),
]


@pytest.fixture
def minpoly_calls(monkeypatch):
    """Records each Krylov minpoly run made through any name the package binds."""
    calls = []

    def counting(m):
        calls.append(m)
        return minpoly(m)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "braidreps" and hasattr(module, "minpoly"):
            monkeypatch.setattr(module, "minpoly", counting)
    return calls


class TestVerifyMinpolyShortcut:
    # build_rep proves minpoly(g2) = P_X for every rep it returns (see
    # reps._self_check), so verify runs no Krylov minpoly; that minpoly on
    # each factor image stays the reference for minpoly_ok

    def test_shortcut_agrees_with_minpoly(self, capsys, minpoly_calls):
        rng = random.Random(SWEEP_SEED)
        rational = sweep_plans(2) + [reducible_plan(rng, f) for f in REDUCIBLE_FAMILIES]
        root24 = FieldContext([-24, 0, 1])
        plans = rational + [_scaled(p, root24, root24.generator())
                            for p in rational if "context" not in p]
        plans += [_scaled(p, Z5, Z5.generator()) for p in sweep_plans(1)]
        plans += [{**p, "context": Z5, "f": Z5.generator() ** k * p["f"]}
                  for p in rational if p["dim"] == 5 and "context" not in p for k in (1, 2)]
        # over t^2 - 1: generic on both factors, degenerate on one, or with
        # an eigenvalue that vanishes on one factor
        gen = sweep_plans(2, seed=SWEEP_SEED + 1)
        plans += [_split(a, b) for a, b in zip(sweep_plans(2), gen)]
        plans += [_split(reducible_plan(rng, "I3"), gen[2]),
                  {"dim": 3, "context": T2M1, "values": [T2M1.element([1, 1]), 3, 5]},
                  {"dim": 2, "context": T2M1, "values": [T2M1.element([1, 1]), 3]}]
        plans += [{"dim": len(xs), "context": ctx,
                   "values": [parse_element(ctx, x) for x in xs]}
                  for ctx, xs in ZERO_DIVISOR_SETS]
        reps = [plan_rep(p) for p in plans] + _fixture_reps()
        for rep in reps:
            code = cli.main(["verify", "--params", _verify_job(rep)])
            out = capsys.readouterr()
            assert code == 0, (rep.spec, out.err)
            assert json.loads(out.out)["minpoly_ok"] is True, rep.spec
            assert all(minpoly(g2) == Polynomial.from_roots(g2.context, xs)
                       for g2, xs in _images(rep)), rep.spec
        assert minpoly_calls == []

    def test_no_minpoly_behind_a_zero_divisor(self, capsys, minpoly_calls):
        for argv in (["--params", "[1, 2, 3]"],
                     ["--context", "t^2-24", "--params", "[1, 2, 3, 4]"],
                     ["--context", "t^4+t^3+t^2+t+1", "--params", '[1, 2, "-3/2", 5, "7/3"]',
                      "--dim", "6", "--variant", "3"],
                     # det g1 = 3 (1 + t) is a zero divisor: the similarity is
                     # not proved, and the direct checks of build_rep decide
                     ["--context", "t^2-1", "--params", '["[1,1]", 3]']):
            assert cli.main(["verify", *argv]) == 0
            assert json.loads(capsys.readouterr().out)["minpoly_ok"] is True
        assert minpoly_calls == []


class TestFloatSpectrum:
    # a floating-point check of the similarity verify relies on, sharing no
    # code with it: g2 has the eigenvalues of g1, with multiplicities, and
    # P_X(g2) = 0
    def test_g2_has_the_spectrum_of_g1(self):
        import numpy as np

        for plan in sweep_plans(10):
            rep = plan_rep(plan)
            d = rep.dim
            g2 = np.array([[float(rep.g2[i, j].rational_value()) for j in range(d)]
                           for i in range(d)])
            diag = sorted(float(rep.g1[i, i].rational_value()) for i in range(d))
            eig = sorted(np.linalg.eigvals(g2), key=lambda z: (z.real, z.imag))
            scale = max(abs(x) for x in diag)
            assert max(abs(z - x) for z, x in zip(eig, diag)) <= 1e-8 * scale, rep.spec
            p_x = np.eye(d)
            for x in set(diag):
                m = g2 - x * np.eye(d)
                p_x = p_x @ (m / (np.linalg.norm(m, 2) or 1.0))
            assert np.linalg.matrix_rank(p_x, tol=1e-8) == 0, rep.spec


class TestSemisimplicity:
    def test_generic_sets_pass(self):
        for vals in ((1, 2), (1, 2, 3), (1, 2, 3, 6), (1, 2, 3, 4, Fraction(4, 3))):
            report = semisimplicity(ps(*vals))
            assert report.semisimple_verdict
            assert report.failing_predicates == ()
            assert report.algebra_dim == ALGEBRA_DIMS[len(vals)]

    def test_fixture_verdicts(self):
        expected = {
            FIX_I3: "I3(1,2,3)",
            FIX_I4: "I4(4)",
            FIX_J5: "J5(1,2)",
            FIX_J6: "J6(1,5)",
            FIX_K6: "K6(5;1,4,2,3)",
            FIX_I6: "I6(5)",
        }
        for fixture, name in expected.items():
            report = semisimplicity(fixture)
            assert not report.semisimple_verdict
            assert name in [p.name for p in report.failing_predicates]

    def test_zero_divisor_gives_no_verdict(self):
        # over Q[t]/(t^2 - 1) = Q x Q the set maps to the fixture (2, 1, -4)
        # at t = 1 and to (3, 1, 5) at t = -1: I3 vanishes on one factor only
        ctx = FieldContext([-1, 0, 1])
        X = ParameterSet((ctx.element([Fraction(5, 2), Fraction(-1, 2)]), ctx.one(),
                          ctx.element([Fraction(1, 2), Fraction(-9, 2)])))
        with pytest.raises(NotInvertible, match=r"I3\(1,2,3\).*\['-1', '1'\]"):
            semisimplicity(X)
        # a set that is generic on both factors still gets its verdict
        report = semisimplicity(ParameterSet.from_rationals(ctx, [1, 2, 3, 6]))
        assert report.semisimple_verdict and report.failing_predicates == ()

    def test_j5_fixture_full_failing_set(self):
        names = [p.name for p in semisimplicity(FIX_J5).failing_predicates]
        assert names == ["I3(3,1,2)", "I3(3,4,5)", "J5(1,2)", "J5(4,5)"]

    def test_i6_fixture_full_failing_set(self):
        names = [p.name for p in semisimplicity(FIX_I6).failing_predicates]
        assert names == ["I4(5)", "J5(3,5)", "I6(5)", "J6(3,5)"]


class TestPermutationSymmetry:
    # the quotient algebra depends only on the set X: no reordering of X may
    # change the verdict, the census sum or how many predicates of each
    # family vanish; only the failing names move with the positions
    @staticmethod
    def _invariants(values):
        X = (ParameterSet(tuple(values)) if isinstance(values[0], FieldElement)
             else ParameterSet.from_rationals(Q, values))
        report = semisimplicity(X)
        return (report.semisimple_verdict,
                dimension_census(X, mode="combinatorial").sum_of_squares,
                Counter(p.family for p in report.failing_predicates))

    def test_reorderings_of_x_keep_verdict_sum_and_family_counts(self):
        rng = random.Random(SWEEP_SEED)
        sets = [reducible_plan(rng, f)["values"] for f in REDUCIBLE_FAMILIES for _ in range(4)]
        assert not any(self._invariants(values)[0] for values in sets)
        # random sets too, so that some census sums are compared
        sets += [distinct_nonzero(rng, n) for n in (3, 4, 5) for _ in range(3)]
        assert any(self._invariants(values)[0] for values in sets)
        for values in sets:
            want = self._invariants(values)
            n = len(values)
            for _ in range(6):
                order = rng.sample(range(n), n)
                assert self._invariants([values[i] for i in order]) == want, (values, order)

    def test_reorderings_of_x_build_equivalent_irreducibles(self):
        # Tuba and Wenzl (Pacific J. Math. 197, 2001): for d <= 5 an
        # irreducible is determined up to equivalence by its eigenvalues and
        # h or f, so reordering X gives an equivalent rep (Schur: a 1-dim
        # space of intertwiners)
        rng = random.Random(SWEEP_SEED + 28)
        plans = [p for p in sweep_plans(6, seed=SWEEP_SEED + 28) if 2 <= p["dim"] <= 5]
        checked = 0
        for plan in plans:
            rep = plan_rep(plan)
            if not irreducibility(rep)[0]:
                continue
            checked += 1
            n = len(plan["values"])
            for _ in range(6):
                order = rng.sample(range(n), n)
                other = plan_rep({**plan, "values": [plan["values"][i] for i in order]})
                pairs = [(rep.g1, other.g1), (rep.g2, other.g2)]
                assert intertwiner_dim(pairs) == 1, (plan, order)
        assert checked >= 20


@st.composite
def rational_sets(draw):
    """Generic sets, rational reducible plans, and scan-style 5-sets that
    hide a plan's values among fresh ones in random order."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    source = draw(st.sampled_from(("distinct", "reducible", "scan")))
    if source == "distinct":
        return distinct_nonzero(rng, draw(st.integers(2, 5)))
    family = draw(st.sampled_from([f for f in REDUCIBLE_FAMILIES if f != "J4"]))
    vals = reducible_plan(rng, family)["values"]
    if source == "scan":
        while len(vals) < 5:
            v = rand_fraction(rng)
            if v not in vals:
                vals.append(v)
        rng.shuffle(vals)
    return vals


def _failing_by_field_elements(X):
    """The vanishing predicates of every subset of X, in report order, each
    evaluated by :func:`evaluate_predicates` on X's field elements."""
    vals = tuple(X)
    preds = []
    for level in (2, 3, 4, 5, 6):
        for c in combinations(range(len(vals)), min(level, 5)):
            preds += evaluate_predicates([vals[i] for i in c], level,
                                         positions=tuple(i + 1 for i in c))
    return [p for p in preds if p.is_zero]


EXTENSIONS = (cyclotomic5_context(), FieldContext([-24, 0, 1]))


class TestIntegerRoute:
    # a rational X is decided on X scaled to integers in every context; an
    # irrational one (x_1 times the generator of a field) on field elements
    @settings(max_examples=200, deadline=None)
    @given(vals=rational_sets(),
           ctx=st.sampled_from([Q, FieldContext([5, 1]), *EXTENSIONS, FieldContext([-1, 0, 1])]),
           lam=st.fractions(-40, 40, max_denominator=1000003).filter(bool),
           irrational=st.booleans())
    @example(vals=[Fraction(1, 2), Fraction(-3, 4), 3, Fraction(9, 2), Fraction(-1, 3)],
             ctx=Q, lam=Fraction(-7, 1000003), irrational=False)
    def test_scaled_integers_match_field_elements(self, vals, ctx, lam, irrational):
        def params(values):
            if irrational and ctx in EXTENSIONS:
                values = [ctx.from_rational(values[0]) * ctx.generator(), *values[1:]]
            return ParameterSet.from_rationals(ctx, values)

        X = params(vals)
        failing = semisimplicity(X).failing_predicates
        assert list(failing) == _failing_by_field_elements(X)  # names, order, every field
        assert all(isinstance(p.value, FieldElement) and p.value == ctx.zero()
                   for p in failing)
        scaled = params([lam * v for v in vals])
        assert [p.name for p in semisimplicity(scaled).failing_predicates] == \
            [p.name for p in failing]


class TestCensus:
    def test_combinatorial_anchors(self):
        for vals, want in (((1, 2), 6), ((1, 2, 3), 24),
                           ((1, 2, 3, 6), 96),
                           ((1, 2, 3, 4, Fraction(4, 3)), 600)):
            report = dimension_census(ps(*vals), mode="combinatorial")
            assert report.sum_of_squares == want == report.algebra_dim

    def test_unknown_mode_refused(self):
        with pytest.raises(ValueError, match="unknown census mode 'x'"):
            dimension_census(ps(1, 2), mode="x")

    def test_constructive_small(self):
        report = dimension_census(ps(1, 2))
        assert report.sum_of_squares == 6
        assert report.deferred == ()
        assert len(report.entries) == 3

    def test_constructive_square_e4(self):
        report = dimension_census(ps(1, 2, 3, 6))
        assert report.sum_of_squares == 96
        assert report.deferred == ()
        ids = [e.class_id for e in report.entries]
        assert len(set(ids)) == len(ids)  # pairwise inequivalent

    def test_constructive_deferred_counted(self):
        report = dimension_census(ps(1, 2, 3, 4))
        assert report.sum_of_squares == 96
        assert len(report.deferred) == 1
        assert report.deferred[0].radicand == 24

    def test_intertwiner_alone_separates_classes(self, monkeypatch):
        # with empty probes every pair reaches the exact intertwiner
        # solve, which decides equivalence of irreducibles (Schur)
        sets = (ps(1, 2, 3, 6), ps(1, 2, 3, 4, Fraction(4, 3)))
        before = [dimension_census(X) for X in sets]
        pairs = []

        def counting(rep1, rep2):
            pairs.append((rep1, rep2))
            return intertwiner_exists(rep1, rep2)

        monkeypatch.setattr(analysis, "_probe_traces", lambda rep: ())
        monkeypatch.setattr(analysis, "intertwiner_exists", counting)
        for X, report in zip(sets, before):
            pairs.clear()
            after = dimension_census(X)
            assert [e.class_id for e in after.entries] == \
                [e.class_id for e in report.entries]
            assert after.sum_of_squares == report.sum_of_squares
            # all classes are distinct, so each member meets every one before it
            n = len(after.entries)
            assert len(pairs) == n * (n - 1) // 2

    def test_equivalent_member_joins_its_class(self, monkeypatch):
        # a rebuilt copy of the last member has its probes and an intertwiner
        # to it, so it takes its class id and the sum counts the class once
        real = analysis.enumerate_irreps

        def with_copy(X, context=None):
            enum = real(X, context)
            return replace(enum, reps=enum.reps + (build_rep(enum.reps[-1].spec),))

        monkeypatch.setattr(analysis, "enumerate_irreps", with_copy)
        report = dimension_census(ps(1, 2, 3, 6))
        ids = [e.class_id for e in report.entries]
        assert ids[-1] == ids[-2] and len(set(ids)) == len(ids) - 1
        assert report.sum_of_squares == 96

    def test_degenerate_raises(self):
        report = dimension_census(FIX_J6)
        assert not report.semisimple_verdict
        assert "J6(1,5)" in [p.name for p in report.failing_predicates]
        assert report.sum_of_squares is None and report.entries == ()

    def test_sum_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(analysis, "_combinatorial_count", lambda n: 5)
        with pytest.raises(CensusMismatch, match="5 != algebra dimension 6"):
            dimension_census(ps(1, 2), mode="combinatorial")

    def test_zeta5_fixture(self):
        ctx = cyclotomic5_context()
        report = dimension_census(ps(1, 2, 3, 4, Fraction(4, 3)), context=ctx)
        assert report.sum_of_squares == 600
        # All five fifth roots exist in the cyclotomic context, so every
        # 5-dimensional member is built; only square roots get deferred.
        assert all(d.root_order == 2 for d in report.deferred)
        dims5 = [e for e in report.entries if e.spec.dim == 5]
        assert len(dims5) == 5
        ids = [e.class_id for e in report.entries]
        assert len(set(ids)) == len(ids)


def _pset(ctx, *vals):
    """A parameter set over ctx; a list is a coefficient vector."""
    return ParameterSet(tuple(ctx.element(v if isinstance(v, list) else [v]) for v in vals))


class TestDiagonalProbes:
    # the census reads its probes off the diagonals; the reference evaluates
    # every braid word of DEFAULT_PROBE_WORDS and takes its trace
    @pytest.mark.parametrize("X", [
        ps(1, 2, 3, 6),
        _pset(Z5, 1, 2, 3, 4, Fraction(4, 3)),
        # 2 zeta, 2 zeta^4, 1, 4, 2: three 4-subsets with both h-roots
        _pset(Z5, [0, 2], [-2, -2, -2, -2], 1, 4, 2),
        _pset(FieldContext([-24, 0, 1]), 1, 2, 3, 4, 5),
        # images (1, 2, 3, 6, -5) at t = 1 and (2, 1, 6, 3, -7) at t = -1
        _pset(T2M1, [Fraction(3, 2), Fraction(-1, 2)], [Fraction(3, 2), Fraction(1, 2)],
              [Fraction(9, 2), Fraction(-3, 2)], [Fraction(9, 2), Fraction(3, 2)], [-6, 1]),
    ], ids=["Q", "zeta5", "zeta5-irrational", "sqrt24", "t2-1"])
    def test_diagonal_probes_equal_braid_word_traces(self, X):
        reps = enumerate_irreps(X).reps
        for rep in reps:
            assert analysis._probe_traces(rep) == tuple(character(rep, DEFAULT_PROBE_WORDS)), \
                rep.spec
        h_roots = Counter(r.spec.subset for r in reps if r.dim == 4)
        assert h_roots and all(count >= 2 for count in h_roots.values())
        if len(X) == 5:
            assert sorted(r.spec.variant for r in reps if r.dim == 6) == [1, 2, 3, 4, 5]


class TestEquivalenceTools:
    def test_character_probe_frozen(self):
        rep = build_rep(RepSpec(dim=2, params=ps(1, 2)))
        values = [v.rational_value() for v in analysis._probe_traces(rep)]
        assert values == [3, 3, 2, 0, 0, -4]

    def test_intertwiner_reflexive_and_dim_gate(self):
        r2 = build_rep(RepSpec(dim=2, params=ps(1, 2)))
        r3 = build_rep(RepSpec(dim=3, params=ps(1, 2, 3)))
        assert intertwiner_exists(r2, r2)
        assert not intertwiner_exists(r2, r3)

    def test_intertwiner_finds_conjugated_copy(self):
        rep = build_rep(RepSpec(dim=2, params=ps(1, 2)))
        p = Matrix.from_rows(Q, [[1, 1], [0, 1]])
        pinv = Matrix.from_rows(Q, [[1, -1], [0, 1]])
        twin = Representation(
            spec=rep.spec,
            g1=p @ rep.g1 @ pinv,
            g2=p @ rep.g2 @ pinv,
            multiplicities=rep.multiplicities,
        )
        assert intertwiner_exists(rep, twin)

    def test_root_twins_are_inequivalent(self):
        pos = build_rep(RepSpec(dim=4, params=ps(1, 2, 3, 6), h=qv(6)))
        neg = build_rep(RepSpec(dim=4, params=ps(1, 2, 3, 6), h=qv(-6)))
        assert not intertwiner_exists(pos, neg)
