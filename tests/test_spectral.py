"""Central scalar, trace identities, and characteristic polynomials of
A = g1 g2 and B = g1 g2 g1.

Expected coefficient lists below were computed independently by expanding
the closed-form factorizations with plain integer convolution before the
library code existed; they are frozen here as regression anchors.
"""

import random
from dataclasses import replace
from fractions import Fraction
from math import prod

import pytest

import braidreps.linalg as linalg
import braidreps.spectral as spectral
from braidreps import (
    ConstructionFailed,
    FieldContext,
    FieldElement,
    Matrix,
    NotScalar,
    ParameterSet,
    Polynomial,
    RepSpec,
    Representation,
    SpectralReport,
    build_rep,
    charpoly,
    cyclotomic5_context,
    parse_element,
    rationals,
    spectral_report,
)
from braidreps.reps import _lifted_pair, _self_check
from conftest import (REDUCIBLE_FAMILIES, SWEEP_SEED, matrix_image, plan_rep, reducible_plan,
                      sweep_plans)

Q = rationals()


def pset(*vals):
    return ParameterSet.from_rationals(Q, [Fraction(v) for v in vals])


def rep2():
    return build_rep(RepSpec(dim=2, params=pset(1, 2)))


def rep3():
    return build_rep(RepSpec(dim=3, params=pset(1, 2, 3)))


def rep4(sign=1):
    return build_rep(RepSpec(dim=4, params=pset(1, 2, 3, 6),
                             h=Q.from_rational(6 * sign)))


def rep5():
    return build_rep(RepSpec(dim=5, params=pset(1, 2, 3, 4, Fraction(4, 3)),
                             f=Q.from_rational(2)))


def rep6(variant=5):
    return build_rep(RepSpec(dim=6, params=pset(1, 2, 3, 4, 24), variant=variant))


class TestCentralValue:
    def test_frozen_scalars(self):
        assert spectral_report(rep2()).C_rho == -8          # -e2^3, e2 = 2
        assert spectral_report(rep3()).C_rho == 36          # e3^2, e3 = 6
        assert spectral_report(rep4()).C_rho == 216         # h^3, h = 6
        assert spectral_report(rep4(-1)).C_rho == -216
        assert spectral_report(rep5()).C_rho == 64          # f^6, f = 2
        assert spectral_report(rep6()).C_rho == -13824      # -x5 e5 = -24 * 576

    def test_dim1(self):
        rep = build_rep(RepSpec(dim=1, params=pset(Fraction(2, 3))))
        assert spectral_report(rep).C_rho == Fraction(64, 729)

    def test_matches_closed_form(self):
        for rep in (rep2(), rep3(), rep4(), rep5(), rep6(1), rep6(3)):
            report = spectral_report(rep)
            assert report.C_rho == report.C_expected

    def test_not_scalar_raised_on_broken_pair(self):
        good = rep2()
        broken = Representation(
            spec=good.spec,
            g1=good.g1,
            g2=Matrix.from_rows(Q, [[1, 1], [0, 2]]),
            multiplicities=good.multiplicities,
        )
        with pytest.raises(NotScalar, match=r"\(g1 g2\)\^3 is not scalar"):
            spectral_report(broken)

    def test_not_scalar_raised_when_only_b_squared_differs(self):
        # g1 = I and g2 a 3-cycle: A^3 = g2^3 = I is scalar, B^2 = g2^2 is
        # not.  The pair breaks the braid relation, so build_rep refuses it
        # and spectral_report, which checks B^2 alone, never sees it.
        with pytest.raises(ConstructionFailed, match="braid relation"):
            _self_check(rep3().spec, [1, 1, 1], [[0, 0, 1], [1, 0, 0], [0, 1, 0]])


class TestTraces:
    def test_frozen_trace_triples(self):
        r = spectral_report(rep2())
        assert (r.trA, r.trA2, r.trB) == (2, -4, 0)
        r = spectral_report(rep3())
        assert (r.trA, r.trA2, r.trB) == (0, 0, -6)
        r = spectral_report(rep4())
        assert (r.trA, r.trA2, r.trB) == (6, 36, 0)
        r = spectral_report(rep5())
        assert (r.trA, r.trA2, r.trB) == (-4, -16, 8)
        r = spectral_report(rep6())
        assert (r.trA, r.trA2, r.trB) == (0, 0, 0)

    def test_reports_flag_everything_ok(self):
        for rep in (rep2(), rep3(), rep4(-1), rep5(), rep6(2)):
            report = spectral_report(rep)
            assert report.all_ok


class TestCharpolys:
    def test_dim2_expansions(self):
        report = spectral_report(rep2())
        assert [c.rational_value() for c in report.charpoly_A.coeffs] == [4, -2, 1]
        assert [c.rational_value() for c in report.charpoly_B.coeffs] == [8, 0, 1]
        assert report.charpoly_A == report.charpoly_A_expected
        assert report.charpoly_B == report.charpoly_B_expected

    def test_dim3_expansions(self):
        report = spectral_report(rep3())
        assert [c.rational_value() for c in report.charpoly_A.coeffs] == [-36, 0, 0, 1]
        assert [c.rational_value() for c in report.charpoly_B.coeffs] == [-216, -36, 6, 1]

    def test_dim4_expansions(self):
        report = spectral_report(rep4())
        assert [c.rational_value() for c in report.charpoly_A.coeffs] == \
            [1296, -216, 0, -6, 1]
        assert [c.rational_value() for c in report.charpoly_B.coeffs] == \
            [46656, 0, -432, 0, 1]

    def test_dim5_expansions(self):
        report = spectral_report(rep5())
        assert [c.rational_value() for c in report.charpoly_A.coeffs] == \
            [-1024, -256, -64, 16, 4, 1]
        assert [c.rational_value() for c in report.charpoly_B.coeffs] == \
            [-32768, 4096, 1024, -128, -8, 1]

    def test_dim6_expansions(self):
        report = spectral_report(rep6())
        assert [c.rational_value() for c in report.charpoly_A.coeffs] == \
            [191102976, 0, 0, 27648, 0, 0, 1]
        assert [c.rational_value() for c in report.charpoly_B.coeffs] == \
            [2641807540224, 0, 573308928, 0, 41472, 0, 1]

    def test_full_report_all_ok(self):
        for rep in (rep2(), rep3(), rep4(), rep4(-1), rep5(),
                    rep6(1), rep6(2), rep6(3), rep6(4), rep6(5)):
            report = spectral_report(rep)
            assert report.all_ok, report.checks


SQRT24 = FieldContext([-24, 0, 1])
SPLIT = FieldContext([-1, 0, 1])  # t^2 - 1: Q x Q


def _built(ctx, params, dim=None, variant=None, **roots):
    X = ParameterSet(tuple(parse_element(ctx, v) for v in params))
    roots = {k: parse_element(ctx, v) for k, v in roots.items()}
    return build_rep(RepSpec(dim=dim or len(X), params=X, variant=variant, **roots))


def _agreement_reps():
    """The sweep, the fixtures, the reducible plans and reps over extensions."""
    rng = random.Random(SWEEP_SEED + 3)
    reps = [plan_rep(plan) for plan in sweep_plans(3, seed=SWEEP_SEED + 3)]
    reps += [plan_rep(reducible_plan(rng, f)) for f in REDUCIBLE_FAMILIES for _ in range(3)]
    reps += [rep2(), rep3(), rep4(), rep4(-1), rep5(), *(rep6(v) for v in range(1, 6))]
    zeta5 = cyclotomic5_context()
    reps += [
        _built(SQRT24, ["2/3"]),
        _built(SQRT24, ["[1,1]", 2, "-1/3"]),
        _built(SQRT24, [1, 2, 3, 4], h="[0,1]"),
        _built(SQRT24, ["[0,1]", 2, 3, "-1/2", 5], dim=6, variant=1),
        _built(zeta5, [1, 2, 3, 6], h=6),
        _built(zeta5, [-4, 1, 2, 4, -1], f="[0,2]"),
        _built(zeta5, [1, 2, "-3/2", 5, "7/3"], dim=6, variant=3),
        _built(SPLIT, ["[2,1]", 5, -3]),
        _built(SPLIT, ["[3,1]", 5, -7, "1/2", 11], dim=6, variant=1),
        *(_built(SPLIT, ["-4", "3/2", "[0,3]", "-1", "1/2"], dim=6, variant=v)
          for v in range(1, 6)),
    ]
    return reps


class TestCharpolysFromRelations:
    def test_match_charpoly_of_the_products(self):
        for rep in _agreement_reps():
            report = spectral_report(rep)
            A = rep.g1 @ rep.g2
            assert report.charpoly_A == charpoly(A), rep.spec
            assert report.charpoly_B == charpoly(A @ rep.g1), rep.spec
            assert report.all_ok, rep.spec

    @staticmethod
    def _counting(monkeypatch):
        """Record every Matrix product and every charpoly call."""
        calls, products = [], []
        real = Matrix.__matmul__
        monkeypatch.setattr(linalg, "charpoly", lambda m: calls.append(m))
        monkeypatch.setattr(spectral, "charpoly", lambda m: calls.append(m), raising=False)
        monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append(a) or real(a, b))
        return calls, products

    def test_no_matrix_product_over_q(self, monkeypatch):
        # over Q the products run on integers (B = E N E and its square)
        built = [rep2(), rep3(), rep4(), rep5(), rep6(),
                 build_rep(RepSpec(dim=1, params=pset(Fraction(2, 3))))]
        calls, products = self._counting(monkeypatch)
        for rep in built:
            assert spectral_report(rep).all_ok, rep.spec
        assert products == [] and calls == []

    def test_three_products_over_an_extension(self, monkeypatch):
        # A = g1 g2, B = A g1 and B^2 run on reps._lifted_pair's rows, not
        # as Matrix products: integers for a rational pair, in any context,
        # and FieldElements otherwise
        zeta5 = cyclotomic5_context()
        built = [_built(zeta5, [1, 2, 3, 4, 5], dim=6, variant=1),
                 _built(SPLIT, [1, 2, 3, 6], h=-6),
                 _built(SQRT24, [1, 2, 3, 4], h="[0,1]"),
                 _built(SQRT24, ["[0,1]", 2, 3, "-1/2", 5], dim=6, variant=1),
                 _built(zeta5, [-4, 1, 2, 4, -1], f="[0,2]"),
                 _built(SQRT24, ["[0,1]"])]
        calls, products = self._counting(monkeypatch)
        for rep in built:
            assert spectral_report(rep).all_ok, rep.spec
        assert products == [] and calls == []

def _image(rep, ctx):
    """rep with its spec, g1 and g2 mapped into ctx entry by entry."""
    s, im = rep.spec, ctx.image
    spec = replace(s, params=ParameterSet(tuple(map(im, s.params.values))),
                   h=s.h and im(s.h), f=s.f and im(s.f))
    return replace(rep, spec=spec, g1=matrix_image(rep.g1, ctx), g2=matrix_image(rep.g2, ctx))


def _conjugated(rep):
    """The image of rep over Q(sqrt 24) with g2 conjugated by D = diag(t^i):
    D commutes with the diagonal g1, so A, B and B^2 are conjugated alike and
    every quantity of the report stays, but g2 is no longer rational."""
    image, t = _image(rep, SQRT24), SQRT24.generator()
    powers = [t ** i for i in range(rep.dim)]
    g2 = [[x * image.g2[i, j] * y.inverse() for j, y in enumerate(powers)]
          for i, x in enumerate(powers)]
    return replace(image, g2=Matrix.from_rows(SQRT24, g2))


def _with_denominators(seed):
    """One rational rep per dimension 1-6, X drawn with denominators 2-7
    (for d = 4 and 5 the last value is solved for a rational h or f)."""
    rng = random.Random(seed)

    def frac():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 7))

    plans = []
    for d in range(1, 7):
        while True:
            xs, plan = [frac() for _ in range(min(d, 5))], {"dim": d}
            if d == 4:
                plan["h"] = frac()
                xs[3] = plan["h"] ** 2 / prod(xs[:3])
            elif d == 5:
                plan["f"] = frac()
                xs[4] = plan["f"] ** 5 / prod(xs[:4])
            if len(set(xs)) == len(xs):
                break
        plans.append({**plan, "values": xs, "variant": 1 + rng.randrange(5) if d == 6 else None})
    return [plan_rep(plan) for plan in plans]


class TestIntegerReport:
    @staticmethod
    def _assert_report_of_the_image(rep):
        # the report over Q, read off integers, equals that of the image over
        # Q(sqrt 24), also on integers, and that of its conjugate, whose g2 is
        # not rational: read off FieldElements
        assert rep.context is Q
        conjugate = _conjugated(rep)
        assert rep.dim == 1 or isinstance(_lifted_pair(conjugate.g1, conjugate.g2)[0][0],
                                          FieldElement), rep.spec
        here = spectral_report(rep)
        for there in (spectral_report(_image(rep, SQRT24)), spectral_report(conjugate)):
            for name in SpectralReport.__dataclass_fields__:
                a, b = getattr(here, name), getattr(there, name)
                if isinstance(a, FieldElement):
                    a = SQRT24.image(a)
                elif isinstance(a, Polynomial):
                    a = Polynomial(SQRT24, tuple(map(SQRT24.image, a.coeffs)))
                assert a == b, (name, rep.spec)
        return here

    def test_equals_the_report_of_the_image(self):
        rng = random.Random(SWEEP_SEED + 5)
        reps = [plan_rep(plan) for plan in sweep_plans(3, seed=SWEEP_SEED + 5)]
        reps += [plan_rep(reducible_plan(rng, f)) for f in REDUCIBLE_FAMILIES if f != "J4"]
        reps += [rep2(), rep3(), rep4(), rep4(-1), rep5(), *(rep6(v) for v in range(1, 6))]
        reps += _with_denominators(SWEEP_SEED + 6)
        for rep in reps:
            self._assert_report_of_the_image(rep)
            # with s1 and s2 exchanged g1 is not diagonal (d > 1): no report
            if rep.dim > 1:
                with pytest.raises(ValueError, match="g1 is not diagonal"):
                    spectral_report(replace(rep, g1=rep.g2, g2=rep.g1))

    @pytest.mark.parametrize("lam", [Fraction(2), Fraction(1, 3), Fraction(-5, 7)])
    def test_broken_pairs_equal_the_report_of_the_image(self, lam):
        # (g1, lam g2) breaks the braid relation unless lam = 1, but B^2 stays
        # scalar: the report is computed and names its failed checks, and
        # no division on integers may assume the relation
        for rep in _with_denominators(SWEEP_SEED + 7) + [rep4(-1), rep6(3)]:
            report = self._assert_report_of_the_image(replace(rep, g2=rep.g2.scale(lam)))
            assert not report.all_ok, rep.spec

    def test_no_field_multiplication_over_q(self, monkeypatch):
        # a rational rep is reported on integers over Q and over extensions
        reps = _with_denominators(SWEEP_SEED + 8) + [rep4(-1), rep5(), rep6(2)]
        reps += [_image(rep, ctx) for ctx in (cyclotomic5_context(), SQRT24, SPLIT)
                 for rep in reps]
        products = []
        real = FieldElement.__mul__

        def counting(a, b):
            products.append((a, b))
            return real(a, b)

        monkeypatch.setattr(FieldElement, "__mul__", counting)
        monkeypatch.setattr(FieldElement, "__rmul__", counting)
        for rep in reps:
            assert spectral_report(rep).all_ok
        assert products == []


def _newton_reference(sums):
    """Ascending charpoly coefficients by the Fraction recurrence
    c_k = -(c_(k-1) p_1 + ... + c_0 p_k) / k."""
    cs = [Fraction(1)]
    for k in range(1, len(sums) + 1):
        cs.append(-sum(c * p for c, p in zip(reversed(cs), sums)) / k)
    return cs[::-1]


class TestNewtonKernel:
    @pytest.mark.parametrize("rational", [False, True])
    def test_matches_the_fraction_recurrence(self, rational):
        rng = random.Random(SWEEP_SEED + 9)
        for _ in range(60):
            n = rng.randint(1, 6)
            sums = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 30) if rational else 1)
                    for _ in range(n)]
            if not rational:
                sums = [int(p) for p in sums]
            scale = rng.choice([1, 2, 7, 360])
            got = linalg._charpoly_from_power_sums(Q, sums, scale)
            # the roots divided by scale have the power sums p_k / scale^k
            want = _newton_reference([p / Fraction(scale) ** k for k, p in enumerate(sums, 1)])
            assert [c.rational_value() for c in got.coeffs] == want, (sums, scale)

    def test_over_an_extension(self):
        rng = random.Random(SWEEP_SEED + 10)
        for n in range(1, 7):
            sums = [SQRT24.element([rng.randint(-50, 50), Fraction(rng.randint(-50, 50), 3)])
                    for _ in range(n)]
            cs = [SQRT24.one()]
            for k in range(1, n + 1):
                acc = sum((c * p for c, p in zip(reversed(cs), sums)), start=SQRT24.zero())
                cs.append(acc * Fraction(-1, k))
            assert linalg._charpoly_from_power_sums(SQRT24, sums).coeffs == tuple(cs[::-1])


class TestDeterminantConstraint:
    def test_on_fixtures(self):
        for rep in (rep2(), rep3(), rep4(), rep5(), rep6(4)):
            assert spectral_report(rep).det_constraint_ok

    def test_closed_form_dim6(self):
        # (prod x_i^m_i)^6 = C^6 with C = -x5 e5; both sides frozen.
        rep = rep6()
        report = spectral_report(rep)
        assert report.det_constraint_ok
        prod = Fraction(1)
        for v, m in zip(rep.values, rep.multiplicities):
            prod *= v.rational_value() ** m
        assert prod ** 6 == Fraction(-13824) ** 6
