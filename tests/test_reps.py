"""Construction of the irreducible families and the enumeration sweep."""

from fractions import Fraction
from math import prod
import random

import pytest
from hypothesis import given, settings, strategies as st

from braidreps import (
    BadSpec,
    ConstructionFailed,
    DeferredRoot,
    FieldContext,
    Matrix,
    MissingRoot,
    NotInvertible,
    ParameterSet,
    Polynomial,
    RepSpec,
    build_rep,
    charpoly,
    compose_fifth_roots,
    cyclotomic5_context,
    determinant,
    enumerate_irreps,
    parse_element,
    poly_eval_matrix,
    rationals,
)
from braidreps.reps import _esym, _lifted_pair, _self_check
from conftest import (SWEEP_SEED, IndexOutOfRange, matrix_image, self_check_reference,
                      sweep_plans, transpose_parameters)

Q = rationals()


def pset(*vals):
    return ParameterSet.from_rationals(Q, [Fraction(v) for v in vals])


def qval(v):
    return Q.from_rational(Fraction(v))


def lifted_rows(g1, g2):
    """E and N of the pair as _lifted_pair gives them, over one denominator."""
    e, l, n, q = _lifted_pair(g1, g2)
    return [q * x for x in e], [[l * x for x in row] for row in n]


def field_rows(g1, g2):
    """g1's diagonal and the rows of g2, as FieldElements."""
    return [g1[i, i] for i in range(g1.rows)], [list(g2.row(i)) for i in range(g2.rows)]


class TestParameterSet:
    def test_rejects_zero_and_repeats(self):
        with pytest.raises(BadSpec):
            pset(1, 0)
        with pytest.raises(BadSpec):
            pset(1, 1)
        with pytest.raises(BadSpec):
            pset(1, 2, 3, 4, 5, 6)

    def test_subset_keeps_order(self):
        s = pset(5, 7, 11).subset([0, 2])
        assert [v.rational_value() for v in s] == [5, 11]

    def test_elementary_symmetric(self):
        assert _esym(pset(1, 2, 3).values) == [1, 6, 11, 6]


class TestSpecValidation:
    def test_low_dims_take_no_roots(self):
        with pytest.raises(BadSpec):
            RepSpec(dim=2, params=pset(1, 2), variant=1)
        with pytest.raises(BadSpec):
            RepSpec(dim=3, params=pset(1, 2))

    def test_dim4_root_checked(self):
        with pytest.raises(MissingRoot, match=r"dimension 4 needs h with h\^2 = e4\(X\)"):
            RepSpec(dim=4, params=pset(1, 2, 3, 6))
        with pytest.raises(BadSpec):
            RepSpec(dim=4, params=pset(1, 2, 3, 6), h=qval(5))
        RepSpec(dim=4, params=pset(1, 2, 3, 6), h=qval(-6))  # e4 = 36

    def test_dim5_root_checked(self):
        with pytest.raises(MissingRoot, match=r"dimension 5 needs f with f\^5 = e5\(X\)"):
            RepSpec(dim=5, params=pset(1, 2, 3, 4, Fraction(4, 3)))
        with pytest.raises(BadSpec):
            RepSpec(dim=5, params=pset(1, 2, 3, 4, Fraction(4, 3)), f=qval(3))
        RepSpec(dim=5, params=pset(1, 2, 3, 4, Fraction(4, 3)), f=qval(2))

    def test_dim6_variant_range(self):
        with pytest.raises(BadSpec):
            RepSpec(dim=6, params=pset(1, 2, 3, 4, 5), variant=0)
        with pytest.raises(BadSpec):
            RepSpec(dim=6, params=pset(1, 2, 3, 4, 5), variant=6)

    def test_unknown_dimension(self):
        with pytest.raises(BadSpec):
            RepSpec(dim=7, params=pset(1, 2, 3, 4, 5))


class TestFrozenMatrices:
    def test_dim1(self):
        rep = build_rep(RepSpec(dim=1, params=pset(Fraction(3, 2))))
        assert rep.g1 == rep.g2 == Matrix.from_rows(Q, [[Fraction(3, 2)]])
        assert rep.multiplicities == (1,)

    def test_dim2_at_1_2(self):
        rep = build_rep(RepSpec(dim=2, params=pset(1, 2)))
        assert rep.g1 == Matrix.diagonal(Q, [qval(1), qval(2)])
        assert rep.g2 == Matrix.from_rows(Q, [[4, 2], [-3, -1]])

    def test_dim3_at_1_2_3(self):
        rep = build_rep(RepSpec(dim=3, params=pset(1, 2, 3)))
        assert [e.rational_value() for e in rep.g2.row(0)] == [15, Fraction(21, 2), 7]
        assert rep.g2.trace() == 6
        assert determinant(rep.g2) == 6

    def test_dim6_variant2_diagonal(self):
        rep = build_rep(RepSpec(dim=6, params=pset(1, 2, 3, 4, 24), variant=2))
        diag = [rep.g1[i, i].rational_value() for i in range(6)]
        assert diag == [1, 24, 3, 4, 2, 2]
        assert rep.multiplicities == (1, 2, 1, 1, 1)

    def test_dim6_variant5_diagonal(self):
        rep = build_rep(RepSpec(dim=6, params=pset(1, 2, 3, 4, 24), variant=5))
        diag = [rep.g1[i, i].rational_value() for i in range(6)]
        assert diag == [1, 2, 3, 4, 24, 24]


class TestSelfCheck:
    def test_corrupted_matrix_rejected(self):
        rep = build_rep(RepSpec(dim=2, params=pset(1, 2)))
        rows = [list(rep.g2.row(0)), list(rep.g2.row(1))]
        rows[0][0] = rows[0][0] + 1
        bad = Matrix.from_rows(Q, rows)
        with pytest.raises(ConstructionFailed):
            _self_check(rep.spec, *lifted_rows(rep.g1, bad))

    def test_braid_violation_detected(self):
        # g1 is diagonal, as build_rep lays it out, with its eigenvalues
        # permuted: it fails on integers and on FieldElements; a g1 that is
        # not diagonal has no rows to check
        rep = build_rep(RepSpec(dim=3, params=pset(1, 2, 3)))
        g1 = Matrix.diagonal(Q, rep.values[1:] + rep.values[:1])
        for rows in (lifted_rows, field_rows):
            with pytest.raises(ConstructionFailed, match="braid relation"):
                _self_check(rep.spec, *rows(g1, rep.g2))
        with pytest.raises(ValueError, match="g1 is not diagonal"):
            _lifted_pair(rep.g2, rep.g1 @ rep.g2)

    def test_determinant_identity_detected(self):
        # g2 = 0 satisfies the braid relation with any g1
        rep = build_rep(RepSpec(dim=3, params=pset(1, 2, 3)))
        with pytest.raises(ConstructionFailed, match="determinant"):
            _self_check(rep.spec, *lifted_rows(rep.g1, Matrix.zeros(Q, 3, 3)))

    def test_zero_divisor_eigenvalue_takes_the_direct_checks(self, monkeypatch):
        # over Q[t]/(t^2 - 1) = Q x Q the eigenvalue 1 + t maps to (2, 0):
        # det g1 is no unit, so P_X(g2) and charpoly(g2) are checked directly
        import braidreps.reps as reps

        ctx = FieldContext([-1, 0, 1])
        calls = []
        real = reps.charpoly
        monkeypatch.setattr(reps, "charpoly", lambda m: calls.append(m) or real(m))
        x = ctx.element([1, 1])
        rep = build_rep(RepSpec(dim=1, params=ParameterSet((x,))))
        assert rep.g1 == rep.g2 == Matrix.diagonal(ctx, [x])
        assert len(calls) == 1
        # y maps to (2, 5): x y x = y x y holds, but P_X(y) = y - x maps to (0, 5)
        y = ctx.element([Fraction(7, 2), Fraction(-3, 2)])
        assert x * y * x == y * x * y
        with pytest.raises(ConstructionFailed, match="generator relation"):
            _self_check(rep.spec, [x], [[y]])

    def test_charpoly_mismatch_detected(self):
        # over Q[t]/(t^2 - 1) X = (1 + t, 7/2 - 3/2 t) maps to (2, 2) at t = 1
        # and (0, 5) at t = -1, so det g1 is a zero divisor.  g2 = x2 I passes
        # the braid relation and P_X(g2) = 0, but its charpoly is (L - x2)^2
        ctx = FieldContext([-1, 0, 1])
        x1, x2 = ctx.element([1, 1]), ctx.element([Fraction(7, 2), Fraction(-3, 2)])
        spec = RepSpec(dim=2, params=ParameterSet((x1, x2)))
        with pytest.raises(ConstructionFailed, match="characteristic polynomial"):
            _self_check(spec, [x1, x2], [[x2, 0], [0, x2]])

    def test_singular_g1_has_no_construction(self):
        # over Q[t]/(t^2 - 1) the eigenvalues 5 + 5t and 5 - 5t map to (10, 0)
        # and (0, 10): both are nonzero, but det g1 = 25(1 - t^2) is exactly 0,
        # so g1 is singular on every factor and nothing is built
        ctx = FieldContext([-1, 0, 1])
        X = ParameterSet((ctx.element([5, 5]), ctx.element([5, -5])))
        with pytest.raises(NotInvertible, match=r"\['-1', '0', '1'\]"):
            build_rep(RepSpec(dim=2, params=X))

    def test_spectral_identities_hold_on_sweep(self):
        # the identities the build no longer checks directly, kept here as
        # the reference: charpoly(g2) = prod (t - x_i)^{m_i} and P_X(g2) = 0
        for plan in sweep_plans(5, seed=SWEEP_SEED + 2):
            roots = {k: qval(plan[k]) for k in ("h", "f") if k in plan}
            spec = RepSpec(dim=plan["dim"], params=pset(*plan["values"]),
                           variant=plan.get("variant"), **roots)
            rep = build_rep(spec)
            with_mult = [v for v, m in zip(rep.values, rep.multiplicities)
                         for _ in range(m)]
            assert charpoly(rep.g2) == Polynomial.from_roots(Q, with_mult), spec
            p_x = Polynomial.from_roots(Q, rep.values)
            assert poly_eval_matrix(p_x, rep.g2) == Matrix.zeros(Q, rep.dim, rep.dim)


@st.composite
def _distinct_rationals(draw, n):
    vals = draw(st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(lambda v: v != 0),
        min_size=n, max_size=n, unique=True,
    ))
    return [Fraction(v) for v in vals]


class TestStructuralProperties:
    @settings(max_examples=60, deadline=None)
    @given(vals=_distinct_rationals(2))
    def test_dim2_trace_det(self, vals):
        rep = build_rep(RepSpec(dim=2, params=pset(*vals)))
        assert rep.g2.trace() == vals[0] + vals[1]
        assert determinant(rep.g2) == vals[0] * vals[1]
        assert charpoly(rep.g1) == charpoly(rep.g2)

    @settings(max_examples=40, deadline=None)
    @given(vals=_distinct_rationals(3))
    def test_dim3_trace_det(self, vals):
        rep = build_rep(RepSpec(dim=3, params=pset(*vals)))
        assert rep.g2.trace() == sum(vals)
        assert determinant(rep.g2) == vals[0] * vals[1] * vals[2]
        assert charpoly(rep.g1) == charpoly(rep.g2)


class TestTranspose:
    def test_involution_on_rep(self):
        rep = build_rep(RepSpec(dim=3, params=pset(1, 2, 3)))
        back = transpose_parameters(transpose_parameters(rep, 1, 2), 1, 2)
        assert back.g1 == rep.g1 and back.g2 == rep.g2

    def test_swapped_values(self):
        rep = build_rep(RepSpec(dim=3, params=pset(1, 2, 3)))
        swapped = transpose_parameters(rep, 2, 3)
        assert [v.rational_value() for v in swapped.values] == [1, 3, 2]

    def test_bad_positions(self):
        rep = build_rep(RepSpec(dim=2, params=pset(1, 2)))
        with pytest.raises(BadSpec):
            transpose_parameters(rep, 1, 1)
        with pytest.raises(IndexOutOfRange):
            transpose_parameters(rep, 1, 5)

    def test_dim6_variant_follows_moved_eigenvalue(self):
        # Swapping the doubled eigenvalue to a new slot keeps the same
        # multiset of diagonal entries.
        rep = build_rep(RepSpec(dim=6, params=pset(1, 2, 3, 4, 24), variant=5))
        moved = transpose_parameters(rep, 1, 5)
        orig = sorted(e.rational_value() for i in range(6) for e in [rep.g1[i, i]])
        after = sorted(e.rational_value() for i in range(6) for e in [moved.g1[i, i]])
        assert after == [1, 1, 2, 3, 4, 24]
        assert orig == [1, 2, 3, 4, 24, 24]


class TestFifthRoots:
    def test_orbit_in_cyclotomic_context(self):
        ctx = cyclotomic5_context()
        roots = compose_fifth_roots(ctx.from_rational(2))
        assert len(set(roots)) == 5
        assert all(r ** 5 == 32 for r in roots)

    def test_requires_primitive_root(self):
        with pytest.raises(ValueError):
            compose_fifth_roots(Q.from_rational(2))


class TestEnumeration:
    def test_pair_set(self):
        result = enumerate_irreps(pset(1, 2))
        dims = sorted(r.dim for r in result.reps)
        assert dims == [1, 1, 2]
        assert result.deferred == ()
        assert sum(r.dim ** 2 for r in result.reps) == 6

    def test_triple_set(self):
        result = enumerate_irreps(pset(1, 2, 3))
        assert sum(r.dim ** 2 for r in result.reps) == 24
        assert result.deferred == ()

    def test_subsets_visited_in_lex_order(self):
        result = enumerate_irreps(pset(1, 2, 3))
        seen = [r.spec.subset for r in result.reps]
        assert seen == [(1,), (1, 2), (1, 2, 3), (1, 3), (2,), (2, 3), (3,)]

    def test_square_e4_builds_both_roots(self):
        result = enumerate_irreps(pset(1, 2, 3, 6))
        four = [r for r in result.reps if r.dim == 4]
        assert sorted(r.spec.h.rational_value() for r in four) == [-6, 6]
        assert result.deferred == ()
        assert sum(r.dim ** 2 for r in result.reps) == 96

    def test_nonsquare_e4_deferred(self):
        result = enumerate_irreps(pset(1, 2, 3, 4))
        assert [r.dim for r in result.reps if r.dim == 4] == []
        (d,) = result.deferred
        assert isinstance(d, DeferredRoot)
        assert (d.subset, d.dim, d.root_order, d.count) == ((1, 2, 3, 4), 4, 2, 2)
        assert d.radicand == 24
        assert [c.rational_value() for c in d.suggested_modulus.coeffs] == [-24, 0, 1]
        built = sum(r.dim ** 2 for r in result.reps)
        assert built + d.count * d.dim ** 2 == 96

    def test_e5_without_rational_fifth_root_defers_all_five(self):
        result = enumerate_irreps(pset(1, 2, 3, 4, 5))
        assert [r for r in result.reps if r.dim == 5] == []
        (d,) = [d for d in result.deferred if d.dim == 5]
        assert (d.subset, d.root_order, d.count) == ((1, 2, 3, 4, 5), 5, 5)
        assert d.radicand == 120
        assert [c.rational_value() for c in d.suggested_modulus.coeffs] == [-120, 0, 0, 0, 0, 1]

    def test_rational_fifth_root_defers_the_other_four(self):
        # f = 2 is built; the four f = 2 zeta^k need the fifth cyclotomic modulus
        result = enumerate_irreps(pset(1, 2, 3, 4, Fraction(4, 3)))
        assert [r.spec.f for r in result.reps if r.dim == 5] == [2]
        (d,) = [d for d in result.deferred if d.dim == 5]
        assert (d.subset, d.root_order, d.count) == ((1, 2, 3, 4, 5), 5, 4)
        assert d.radicand == 32
        assert [c.rational_value() for c in d.suggested_modulus.coeffs] == [1] * 5  # Phi5

    def test_five_set_has_all_variants(self):
        result = enumerate_irreps(pset(1, 2, 3, 4, Fraction(4, 3)))
        six = [r for r in result.reps if r.dim == 6]
        assert sorted(r.spec.variant for r in six) == [1, 2, 3, 4, 5]
        five = [r for r in result.reps if r.dim == 5]
        assert len(five) == 1 and five[0].spec.f == 2

    def test_context_lift(self):
        ctx = FieldContext([-24, 0, 1])
        result = enumerate_irreps(pset(1, 2, 3, 4), context=ctx)
        four = [r for r in result.reps if r.dim == 4]
        t = ctx.generator()
        assert {r.spec.h for r in four} == {t, -t}
        assert result.deferred == ()

    def test_context_lift_refuses_irrational(self):
        ctx = FieldContext([-24, 0, 1])
        X = ParameterSet.from_rationals(ctx, [1, 2, ctx.generator()])
        with pytest.raises(BadSpec, match="cannot move non-rational eigenvalues"):
            enumerate_irreps(X, context=Q)


ZETA5 = cyclotomic5_context()
# rational specs (dim, X, root): d = 4 takes h, d = 5 takes f
RATIONAL_SPECS = [
    (1, [3], {}),
    (2, [1, 2], {}),
    (3, [1, -2, "1/3"], {}),
    (4, [1, 2, 3, 6], {"h": -6}),
    (5, [1, 2, 4, 8, "1/2"], {"f": 2}),
    (6, [1, 2, 3, 4, 5], {"variant": 2}),
]


def _recording_checks(monkeypatch):
    """Record (spec, dim, number type) for every _self_check call: "Z" for
    rows of ints, the degree of their context for rows of FieldElements."""
    import braidreps.reps as reps

    calls, real = [], reps._self_check

    def recording(spec, e, n):
        calls.append((spec, spec.dim, "Z" if type(e[0]) is int else e[0].context.degree))
        return real(spec, e, n)

    monkeypatch.setattr(reps, "_self_check", recording)
    return calls


class TestSmallestField:
    @pytest.mark.parametrize("modulus", [[1, 1, 1, 1, 1], [-24, 0, 1], [-1, 0, 1], [0, -1, 0, 1]],
                             ids=["zeta5", "sqrt24", "t^2-1", "t^3-t"])
    def test_rational_spec_built_over_q_matches_direct_build(self, modulus, monkeypatch):
        import braidreps.reps as reps

        ctx = FieldContext(modulus)
        calls = _recording_checks(monkeypatch)
        for dim, values, extra in RATIONAL_SPECS:
            X = ParameterSet.from_rationals(ctx, [Fraction(v) for v in values])
            kw = {k: v if k == "variant" else ctx.from_rational(v) for k, v in extra.items()}
            spec = RepSpec(dim=dim, params=X, **kw)
            rep = build_rep(spec)
            # checked once, on integers, naming the caller's spec
            assert calls == [(spec, dim, "Z")]
            calls.clear()
            roots = tuple(kw[k] for k in ("h", "f") if k in kw)
            g1, g2, mults = reps._construct(spec, X.values + roots)  # the builder in ctx
            assert calls == [(spec, dim, ctx.degree)]
            calls.clear()
            assert rep.spec is spec
            assert rep.g1.context == ctx and rep.g2.context == ctx
            assert (rep.g1, rep.g2, rep.multiplicities) == (g1, g2, mults)
            assert all(len(e.coeffs) == ctx.degree for e in rep.g2.entries)

    def test_failure_names_the_callers_spec(self, monkeypatch):
        import braidreps.reps as reps

        # diag(x2, x1) commutes with g1 but breaks the braid relation
        monkeypatch.setattr(reps, "_build_dim2", lambda values: [[values[1], 0], [0, values[0]]])
        spec = RepSpec(dim=2, params=ParameterSet.from_rationals(ZETA5, [1, 2]))
        with pytest.raises(ConstructionFailed) as err:
            build_rep(spec)
        assert str(err.value) == f"braid relation failed for {spec}"

    @pytest.mark.parametrize("values", [
        [1, 2, 3, 4, "4/3"], [1, 2, 3, 6, "8/9"], [-4, 1, 2, 4, -1], ["1/2", 3, -5, 7, "1/1680"],
    ])
    def test_conjugates_equal_direct_builds(self, values):
        X = ParameterSet.from_rationals(ZETA5, [Fraction(v) for v in values])
        five = [r for r in enumerate_irreps(X).reps if r.dim == 5]
        assert tuple(r.spec.f for r in five) == compose_fifth_roots(five[0].spec.f)
        assert five[0].spec.f.is_rational()
        for k in (2, 3, 4):
            direct = build_rep(five[k].spec)
            assert (five[k].g1, five[k].g2) == (direct.g1, direct.g2)
            assert five[k].multiplicities == direct.multiplicities
            assert five[k].g2 != five[1].g2

    def test_zeta_component_takes_the_direct_path(self, monkeypatch):
        # 2 zeta and 2 zeta^4 are moved by sigma_k: all five f-variants are built
        calls = _recording_checks(monkeypatch)
        z = ZETA5.generator()
        X = ParameterSet.from_rationals(ZETA5, [2 * z, 2 * z ** 4, 1, 4, 2])
        five = [r for r in enumerate_irreps(X).reps if r.dim == 5]
        assert len(five) == 5 and five[0].spec.f == 2
        assert [c[1:] for c in calls if c[1] == 5] == [(5, 4)] * 5

    def test_rational_census_checks_once_in_degree_four_per_five_subset(self, monkeypatch):
        calls = _recording_checks(monkeypatch)
        for values in ([1, 2, 3, 6], [1, 2, 3, 4, "4/3"], [1, 2, 3, 6, "8/9"]):
            calls.clear()
            X = ParameterSet.from_rationals(ZETA5, [Fraction(v) for v in values])
            result = enumerate_irreps(X)
            assert len(result.reps) == len(calls) + 3 * (len(values) == 5)
            five_subsets = len(values) == 5
            assert [c[1:] for c in calls if c[2] == 4] == [(5, 4)] * five_subsets
            assert [c[2] for c in calls].count("Z") == len(calls) - five_subsets


SQRT24 = FieldContext([-24, 0, 1])


def _outcome(spec, e, n):
    try:
        _self_check(spec, e, n)
    except ConstructionFailed as exc:
        return str(exc)
    return None


class TestIntegerSelfCheck:
    @pytest.mark.parametrize("dim, values, extra", RATIONAL_SPECS[1:],
                             ids=[f"d{s[0]}" for s in RATIONAL_SPECS[1:]])
    def test_same_message_as_the_matrix_path(self, dim, values, extra):
        # the integer rows of a rational pair and its FieldElement rows, over
        # Q and over Q(sqrt 24), name the same first failing identity
        kw = {k: v if k == "variant" else qval(v) for k, v in extra.items()}
        rep = build_rep(RepSpec(dim=dim, params=pset(*map(Fraction, values)), **kw))
        rng = random.Random(2700 + dim)
        g1 = matrix_image(rep.g1, SQRT24)
        pairs = [rep.g2, Matrix.zeros(Q, dim, dim)]
        for _ in range(50):
            entries = list(rep.g2.entries)
            k = rng.randrange(dim * dim)
            entries[k] = entries[k] + Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                               rng.randint(1, 4))
            pairs.append(Matrix(Q, dim, dim, entries))
        seen = []
        for g2 in pairs:
            e, n = lifted_rows(rep.g1, g2)
            assert all(type(x) is int for x in e + [x for row in n for x in row])
            seen.append(_outcome(rep.spec, e, n))
            assert seen[-1] == _outcome(rep.spec, *field_rows(rep.g1, g2)), g2
            assert seen[-1] == _outcome(rep.spec, *field_rows(g1, matrix_image(g2, SQRT24))), g2
        assert seen[0] is None and "determinant" in seen[1]
        assert all("braid relation" in m for m in seen[2:])

    def test_dim6_forms_six_inverses_from_the_first_ten(self, monkeypatch):
        # _d6_r (four calls) and 1/x_1, 1/x_2 in rows 1..2 take products of
        # the ten first inverses, Delta_1..5, x_1^2..x_4^2 and x_5, in that
        # order; the entries are those of the direct divisions
        import braidreps.reps as reps
        from braidreps.field import FieldElement

        def direct(x):  # the six entries by division, as the table states them
            def r(y):
                d3 = (y[1] - y[3]) * (y[4] - y[3]) * (y[5] - y[3])
                return y[3] / (y[1] * (y[2] - y[1]) * d3)

            s13, sw = 1 / reps.delta(x[1:], 4), reps._sig
            return [reps._d6_q(x, 4) * r(x), reps._d6_q(x, 3) * r(sw(x, (3, 4))),
                    r(sw(x, (1, 2))), r(sw(x, (1, 2), (3, 4))),
                    reps._d6_z(x) / x[1] * s13, reps._d6_z(sw(x, (1, 2))) / x[2] * s13]

        calls, real = [], FieldElement.inverse
        z = SQRT24.generator()
        for values in ([SQRT24.from_rational(v) for v in (1, 2, 3, 4, 5)],
                       [SQRT24.from_rational(v) for v in (11, 3, 5, 7, 2)],
                       [z, SQRT24.from_rational(2), 3 - z, SQRT24.from_rational(-5), z / 7]):
            expected = direct((None, *values))
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(FieldElement, "inverse", lambda e: calls.append(e) or real(e))
                g2 = reps._build_dim6(values)
            assert len(calls) == 12
            first_ten = [reps.delta(values, i) for i in range(5)]
            assert calls[:10] == first_ten + [x * x for x in values[:4]] + values[4:]
            assert [g2[4][2], g2[4][3], g2[5][2], g2[5][3], g2[0][4], g2[1][5]] == expected



# irrational specs, built on FieldElements: (context, dim, X, h / f / variant)
IRRATIONAL_SPECS = [
    (ZETA5, 5, [1, 2, 3, 4, "4/3"], {"f": "[0,2]"}),
    (SQRT24, 4, [1, 2, 3, 4], {"h": "[0,1]"}),
    (SQRT24, 6, ["[0,1]", 2, 3, "-1/2", 5], {"variant": 1}),
]


class TestFieldElementSelfCheck:
    @pytest.mark.parametrize("ctx, dim, values, extra", IRRATIONAL_SPECS,
                             ids=["d5.zeta5", "d4.sqrt24", "d6.sqrt24"])
    def test_names_the_identity_the_matrix_reference_names(self, ctx, dim, values, extra):
        # _self_check on FieldElement rows against conftest's matrix products:
        # the built rep, 30 one-entry perturbations of g2, and g2 = 0
        X = ParameterSet(tuple(parse_element(ctx, v) for v in values))
        kw = {k: v if k == "variant" else parse_element(ctx, v) for k, v in extra.items()}
        rep = build_rep(RepSpec(dim=dim, params=X, **kw))
        assert not all(x.is_rational() for x in rep.g2.entries)
        rng = random.Random(3000 + dim)
        pairs = [rep.g2, Matrix.zeros(ctx, dim, dim)]
        for _ in range(30):
            entries = list(rep.g2.entries)
            k = rng.randrange(dim * dim)
            entries[k] = entries[k] + ctx.element(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ctx.degree)])
            pairs.append(Matrix(ctx, dim, dim, entries))
        seen = []
        for g2 in pairs:
            expected = self_check_reference(rep.g1, g2)
            seen.append(_outcome(rep.spec, *field_rows(rep.g1, g2)))
            assert (seen[-1] is None) == (expected is None), g2
            assert expected is None or seen[-1].startswith(expected), g2
        assert seen[0] is None and seen[1].startswith("determinant")
        # a perturbation that moves g2 breaks the braid relation
        assert all(m.startswith("braid relation")
                   for g2, m in zip(pairs[2:], seen[2:]) if g2 != rep.g2)

def _scaled_sweep(seed=2801, per_case=3):
    """(dim, X, {h, f or variant}) for every dimension and variant: X has
    negative values and denominators 2..7, d = 4 and 5 solve their last
    eigenvalue from a drawn root, and d = 4 takes both signs of h."""
    rng = random.Random(seed)

    def draw(n):
        while True:
            vals = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 7))
                    for _ in range(n)]
            if len(set(vals)) == n:
                return vals

    cases = []
    for _ in range(per_case):
        cases += [(d, draw(d), {}) for d in (1, 2, 3)]
        for d, root, power in ((4, "h", 2), (5, "f", 5)):
            while True:
                vals, r = draw(d - 1), draw(1)[0]
                vals.append(r ** power / prod(vals))
                if len(set(vals)) == d:
                    break
            cases += [(d, vals, {root: s * r}) for s in ((1, -1) if d == 4 else (1,))]
        cases += [(6, draw(5), {"variant": v}) for v in range(1, 6)]
    return cases


class TestIntegerBuild:
    # build_rep builds a rational spec on the integers D X and rescales once;
    # the FieldElement builders, run by _construct, are its reference
    @pytest.mark.parametrize("modulus", [[0, 1], [-24, 0, 1]], ids=["Q", "sqrt24"])
    def test_scaled_build_equals_the_field_element_build(self, modulus):
        import braidreps.reps as reps

        ctx = FieldContext(modulus)
        for dim, values, extra in _scaled_sweep():
            kw = {k: v if k == "variant" else ctx.from_rational(v) for k, v in extra.items()}
            spec = RepSpec(dim=dim, params=ParameterSet.from_rationals(ctx, values), **kw)
            rep = build_rep(spec)
            roots = tuple(kw[k] for k in ("h", "f") if k in kw)
            g1, g2, mults = reps._construct(spec, spec.params.values + roots)
            assert rep.multiplicities == mults, spec
            for mine, ref in ((rep.g1, g1), (rep.g2, g2)):
                assert mine.context is ctx
                assert [e.coeffs for e in mine.entries] == [e.coeffs for e in ref.entries], spec

    def test_every_coefficient_of_a_rational_build_is_a_fraction(self):
        for modulus in ([0, 1], [-24, 0, 1], [1, 1, 1, 1, 1]):
            ctx = FieldContext(modulus)
            for dim, values, extra in _scaled_sweep(seed=2802, per_case=1):
                kw = {k: v if k == "variant" else ctx.from_rational(v) for k, v in extra.items()}
                rep = build_rep(RepSpec(dim=dim, params=ParameterSet.from_rationals(ctx, values),
                                        **kw))
                coeffs = [c for m in (rep.g1, rep.g2) for e in m.entries for c in e.coeffs]
                assert all(type(c) is Fraction for c in coeffs), (dim, values)
                assert all(len(e.coeffs) == ctx.degree for e in rep.g2.entries)

    def test_entries_are_homogeneous_with_the_shift_table(self):
        # g2(lam X)_ij = lam^(1 + s_i - s_j) g2(X)_ij, with h of weight 2 and f
        # of weight 1, run on Fractions through the same layout and builders
        import braidreps.reps as reps

        assert reps._SHIFTS == {4: (2, 0, 0, 0), 6: (7, 5, 5, 5, 2, 0)}
        rng = random.Random(2803)
        for dim, values, extra in _scaled_sweep(seed=2803, per_case=2):
            spec = RepSpec(dim=dim, params=ParameterSet.from_rationals(Q, values),
                           **{k: v if k == "variant" else qval(v) for k, v in extra.items()})
            lam = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 7))
            weights = {"h": 2, "f": 1}
            roots = [(extra[k], weights[k]) for k in ("h", "f") if k in extra]
            _, _, rows = reps._layout(spec, values + [r for r, _ in roots])
            _, _, scaled = reps._layout(spec, [lam * v for v in values]
                                        + [r * lam ** w for r, w in roots])
            s = reps._SHIFTS.get(dim, (0,) * dim)
            for i, j in ((i, j) for i in range(dim) for j in range(dim)):
                assert scaled[i][j] == lam ** (1 + s[i] - s[j]) * rows[i][j], (spec, i, j)
