"""Seeded input generators and closed-form predicates for the benchmark.

Everything here is plain ``fractions.Fraction`` arithmetic and imports
nothing from ``braidreps``: the benchmark checks the program's verdicts
against these closed forms, so they must not share code with it.

Drawn entries are p/q with 0 < |p| <= 9 and q <= 4 (denominator 1 weighted
three times), the range of the test sweep.  Values solved from a root or a
target predicate may fall outside it.

Predicate names and their order follow the program's report: a family name
and 1-based indices, ``K6(i;j,k,l,m)`` for the level-6 pairing family.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

NUMS = [n for n in range(-9, 10) if n != 0]
DENS = [1, 1, 1, 2, 3, 4]


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(NUMS), rng.choice(DENS))


def product(vals) -> Fraction:
    out = Fraction(1)
    for v in vals:
        out *= v
    return out


def _name(family: str, idx) -> str:
    return f"{family}({','.join(map(str, idx))})"


def _pairings(a, b, c, d):
    return (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))


# -- closed forms ------------------------------------------------------------
# Each family function takes the values of one subset and their 1-based
# positions, and returns (name, value, affects_variant) triples in the
# program's order.  ``root`` evaluates a level-4/5 family at that h or f;
# without it the family is quantified over all roots by its closed norm:
# x^4 - e4 and (x_a x_b + x_c x_d)^2 - e4 for level 4, x^10 + x^5 e5 + e5^2
# and (x_i x_j)^5 + e5^2 for level 5.


def level2(x, pos):
    a, b = x
    return [(_name("I2", pos), a * a - a * b + b * b, None)]


def level3(x, pos):
    out = []
    for i in range(3):
        j, k = [t for t in range(3) if t != i]
        out.append((_name("I3", (pos[i], pos[j], pos[k])), x[i] ** 2 + x[j] * x[k], None))
    return out


def level4(x, pos, root=None):
    e4 = product(x)
    out = []
    for i in range(4):
        v = x[i] ** 2 - root if root is not None else x[i] ** 4 - e4
        out.append((_name("I4", (pos[i],)), v, None))
    for (i, j), (k, l) in _pairings(0, 1, 2, 3):
        combo = x[i] * x[j] + x[k] * x[l]
        v = combo - root if root is not None else combo**2 - e4
        out.append((_name("J4", (pos[i], pos[j], pos[k], pos[l])), v, None))
    return out


def level5(x, pos, root=None):
    e5 = product(x)
    out = []
    for i in range(5):
        if root is not None:
            v = x[i] ** 2 + x[i] * root + root**2
        else:
            v = x[i] ** 10 + x[i] ** 5 * e5 + e5**2
        out.append((_name("I5", (pos[i],)), v, None))
    for i, j in combinations(range(5), 2):
        if root is not None:
            v = x[i] * x[j] + root**2
        else:
            v = (x[i] * x[j]) ** 5 + e5**2
        out.append((_name("J5", (pos[i], pos[j])), v, None))
    return out


def level6(x, pos):
    e5 = product(x)
    out = []
    for i in range(5):
        out.append((_name("I6", (pos[i],)), e5 + x[i] ** 5, i + 1))
    for i in range(5):
        for j in range(5):
            if i != j:
                out.append((_name("J6", (pos[i], pos[j])), e5 - x[i] ** 3 * x[j] ** 2, j + 1))
    for i in range(5):
        rest = [t for t in range(5) if t != i]
        for (j, k), (l, m) in _pairings(*rest):
            name = f"K6({pos[i]};{pos[j]},{pos[k]},{pos[l]},{pos[m]})"
            out.append((name, x[j] * x[k] + x[l] * x[m], i + 1))
    return out


def all_predicates(x):
    """Every family over every subset, as the semisimplicity verdict sees it."""
    n = len(x)
    out = []
    for size, family in ((2, level2), (3, level3), (4, level4)):
        for c in combinations(range(n), size):
            out += family([x[i] for i in c], [i + 1 for i in c])
    if n == 5:
        out += level5(x, list(range(1, 6)))
        out += level6(x, list(range(1, 6)))
    return out


def vanishing(x) -> list[str]:
    """Names of the vanishing predicates over all subsets, in program order."""
    return [name for name, v, _ in all_predicates(x) if v == 0]


def rep_predicates(spec: dict):
    """The predicates that decide irreducibility of one representation."""
    x, d = spec["values"], spec["dim"]
    pos = list(range(1, len(x) + 1))
    if d == 2:
        return level2(x, pos)
    if d == 3:
        return level3(x, pos)
    if d == 4:
        return level4(x, pos, spec["h"])
    if d == 5:
        return level5(x, pos, spec["f"])
    return [p for p in level6(x, pos) if p[2] == spec["variant"]]


def rep_vanishing(spec: dict) -> list[str]:
    return [name for name, v, _ in rep_predicates(spec) if v == 0]


# -- generators --------------------------------------------------------------


def _valid(vals) -> bool:
    return all(v != 0 for v in vals) and len(set(vals)) == len(vals)


def _solve_product(rng, n, target, fixed):
    """n values with the entries in ``fixed`` (index -> value) kept, the rest
    drawn, and one free entry solved so that their product is ``target``."""
    free = [i for i in range(n) if i not in fixed]
    solved = rng.choice(free)
    vals = [fixed.get(i) for i in range(n)]
    for i in free:
        if i != solved:
            vals[i] = rand_fraction(rng)
    vals[solved] = target / product(v for i, v in enumerate(vals) if i != solved)
    return vals


def _draw(make, want):
    """Draw from ``make`` until the set is valid and vanishes as wanted."""
    while True:
        spec = make()
        if _valid(spec["values"]) and want(spec):
            return spec


def _only(zeros, target) -> bool:
    """No zero for a generic set; exactly one, of the target family, else."""
    if target is None:
        return not zeros
    return len(zeros) == 1 and zeros[0].startswith(target + "(")


def rep_spec(rng: random.Random, dim: int, target: str | None = None, variant: int = 5) -> dict:
    """One representation input.  ``target`` names a family whose predicate
    (at a randomly chosen index) must be the only one vanishing for this
    representation; ``None`` asks for a generic set where none vanishes.

    Dimension 4 and 5 sets carry a rational root: x4 or x5 is solved from
    e4 = h^2 or e5 = f^5 as in the test generators.  Targets: I3; I4; J5;
    and I6, J6 or K6 on the given dimension-6 variant.  The remaining
    families have no rational zero (I2, J4, I5 are definite at a root).
    """

    def make():
        if dim in (2, 3):
            x = [rand_fraction(rng) for _ in range(dim)]
            if target == "I3":
                i, j, k = rng.sample(range(3), 3)
                x[k] = -x[i] ** 2 / x[j]
            return {"dim": dim, "values": x}
        if dim == 4:
            fixed = {}
            if target == "I4":
                i = rng.randrange(4)
                fixed[i] = rand_fraction(rng)
                h = fixed[i] ** 2
            else:
                h = rand_fraction(rng)
            return {"dim": 4, "values": _solve_product(rng, 4, h * h, fixed), "h": h}
        if dim == 5:
            f = rand_fraction(rng)
            fixed = {}
            if target == "J5":
                i, j = rng.sample(range(5), 2)
                fixed[i] = rand_fraction(rng)
                fixed[j] = -f * f / fixed[i]
            return {"dim": 5, "values": _solve_product(rng, 5, f**5, fixed), "f": f}
        v = variant - 1
        if target is None:
            x = [rand_fraction(rng) for _ in range(5)]
        elif target == "K6":
            j, k, l, m = rng.sample([t for t in range(5) if t != v], 4)
            x = [rand_fraction(rng) for _ in range(5)]
            x[m] = -x[j] * x[k] / x[l]
        else:
            # I6(v): e5 = -x_v^5; J6(i, v): e5 = x_i^3 x_v^2.  Draw all but
            # one other entry and solve it from the product.
            i = rng.choice([t for t in range(5) if t != v])
            fixed = {v: rand_fraction(rng), i: rand_fraction(rng)}
            e5 = -fixed[v] ** 5 if target == "I6" else fixed[i] ** 3 * fixed[v] ** 2
            x = _solve_product(rng, 5, e5, fixed)
        return {"dim": 6, "values": x, "variant": variant}

    return _draw(make, lambda spec: _only(rep_vanishing(spec), target))


SCAN_TARGETS = ("I3", "I4", "J5", "I6", "J6", "K6")


def scan_set(rng: random.Random, target: str | None = None) -> tuple[list, list[str]]:
    """A 5-element set for the semisimplicity scan and its vanishing
    predicates.  ``target`` picks a family (from SCAN_TARGETS) one of whose
    predicates, over some subset, must be the only one vanishing; ``None``
    asks for a generic set."""

    def make():
        if target in ("J5", "I6", "J6", "K6"):
            # a zero for one representation is a zero for the whole set:
            # (x_i x_j)^5 + e5^2 vanishes where x_i x_j + f^2 does
            dim = 5 if target == "J5" else 6
            return {"values": rep_spec(rng, dim, target, rng.randrange(1, 6))["values"]}
        x = [rand_fraction(rng) for _ in range(5)]
        if target == "I3":
            i, j, k = rng.sample(range(5), 3)
            x[k] = -x[i] ** 2 / x[j]
        elif target == "I4":
            # x_i^4 = e4 on the subset {i, j, k, l}: x_i^3 = x_j x_k x_l
            i, j, k, l = rng.sample(range(5), 4)
            x[l] = x[i] ** 3 / (x[j] * x[k])
        return {"values": x}

    def want(spec):
        spec["zeros"] = vanishing(spec["values"])
        return _only(spec["zeros"], target)

    spec = _draw(make, want)
    return spec["values"], spec["zeros"]


def census_set(rng: random.Random) -> tuple[list, Fraction]:
    """A generic 5-element set whose e5 is a rational fifth power f^5, with
    x5 solved from f, so that all five fifth roots of e5 lie in Q(zeta5)."""

    def make():
        f = rand_fraction(rng)
        x = [rand_fraction(rng) for _ in range(4)]
        x.append(f**5 / product(x))
        return {"values": x, "f": f}

    spec = _draw(make, lambda s: not vanishing(s["values"]))
    return spec["values"], spec["f"]


def encode(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
