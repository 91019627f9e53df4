"""integral_round brackets each draw before it limits the float's
denominator.  The reference below is the per-pair rounding it replaced:
every draw limited to denominator 2^40 by the standard library, the
pair's flow summed in Fractions and the first path whose prefix sum
reaches the draw taken.  Both must pick the same paths in the same
order, on seeded draws and on floats placed at, next to and just off a
prefix boundary, where the bracket cannot decide and
Fraction.limit_denominator has to run."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from routerlab import resilience
from routerlab.graph import Demand, Routing, _key
from routerlab.resilience import integral_round

MARGIN = Fraction(1, 1 << 41)


def reference_round(d, base, draw):
    """The rounding before the bracket, one pair at a time, in
    Fractions; draw() gives the random floats in turn."""
    by_pair = {}
    for path, pair, val in base.flow_paths:
        by_pair.setdefault(_key(*pair), []).append((path, val))
    out = []
    for pair, want in sorted(d.values.items()):
        opts = by_pair[pair]
        prefix = list(itertools.accumulate(v for _p, v in opts))
        for _unit in range(int(want)):
            x = Fraction(draw()).limit_denominator(1 << 40) * prefix[-1]
            chosen = next((p for (p, _v), acc in zip(opts, prefix)
                           if x <= acc), opts[-1][0])
            out.append((chosen, pair, 1))
    return out


def seeded_base(rng):
    """Pairs with one to six paths of uneven Fraction values, some with
    a single path, each asked for one to five units."""
    base = Routing()
    d = Demand()
    for a in range(0, 24, 2):
        b = a + 1
        for j in range(rng.choice([1, 1, 2, 3, 4, 6])):
            base.add((a, 100 + j, b), (a, b),
                     Fraction(rng.randrange(1, 40), rng.randrange(1, 30)))
        d.add(a, b, rng.randrange(1, 6))
    return d, base


def flows(r):
    return [(p, pair, v) for p, pair, v in r.flow_paths]


def test_bracketed_draw_matches_reference_on_seeded_bases():
    rng = random.Random(2026)
    picks = set()
    for _case in range(60):
        d, base = seeded_base(rng)
        for seed in (0, 5, rng.randrange(1 << 30)):
            got = flows(integral_round(None, d, base, 1, 1, seed))
            want = reference_round(d, base, random.Random(seed).random)
            assert got == want
            picks.update(p for p, _pair, _v in got)
    # the seeded bases reach deep options, not only the first path
    assert any(p[1] >= 103 for p in picks)


def boundary_floats(bounds):
    """Floats on, one ulp either side of, and within 2^-42 of each
    boundary in bounds (fractions of a pair's total in (0, 1))."""
    out = []
    for b in bounds:
        x = float(b)
        out += [x, math.nextafter(x, 0), math.nextafter(x, 1)]
        for e in (42, 43, 45, 50):
            out += [float(b - Fraction(1, 1 << e)),
                    float(b + Fraction(1, 1 << e))]
    return [x for x in out if 0 <= x < 1]


class StubRandom:
    """Stands in for random.Random: random() returns the given floats in
    turn, whatever the seed."""

    floats = []

    def __init__(self, seed=None):
        self._it = iter(StubRandom.floats)

    def random(self):
        return next(self._it)


def test_crafted_draws_run_the_fallback_and_match(monkeypatch):
    # one pair with dyadic boundaries 1/8, 3/8, 1/2, 1 and one whose
    # boundaries 1/3, 1/2, 5/6 are not floats
    base = Routing()
    for j, v in enumerate([Fraction(1, 8), Fraction(1, 4), Fraction(1, 8),
                           Fraction(1, 2)]):
        base.add((0, 10 + j, 1), (0, 1), v)
    for j, v in enumerate([Fraction(2, 3), Fraction(1, 3), Fraction(2, 3),
                           Fraction(1, 3)]):
        base.add((2, 20 + j, 3), (2, 3), v)
    base.add((4, 5), (4, 5), Fraction(7, 3))
    dyadic = [Fraction(1, 8), Fraction(3, 8), Fraction(1, 2)]
    thirds = [Fraction(1, 3), Fraction(1, 2), Fraction(5, 6)]
    # plus draws away from every boundary, which the bracket decides
    floats_a = boundary_floats(dyadic) + [0.05, 0.3, 0.7]
    floats_b = boundary_floats(thirds) + [0.2, 0.4, 0.6]
    d = Demand([(0, 1, len(floats_a)), (2, 3, len(floats_b)), (4, 5, 3)])
    draws = floats_a + floats_b + [0.5, 0.25, 0.0]

    calls = []
    limit = Fraction.limit_denominator

    def counted(x, max_den):
        calls.append(x)
        return limit(x, max_den)

    StubRandom.floats = draws
    monkeypatch.setattr(resilience.random, "Random", StubRandom)
    monkeypatch.setattr(Fraction, "limit_denominator", counted)
    got = flows(integral_round(None, d, base, 1, 1, 0))
    monkeypatch.undo()

    assert got == reference_round(d, base, iter(draws).__next__)
    # the limit ran for the draws next to a boundary and for no other
    assert len(calls) == len(draws) - 6 - 3
    # every option of both four-path pairs was picked
    assert {p[1] for p, _pair, _v in got} >= set(range(10, 14)) | set(
        range(20, 24))


def test_limited_draw_lies_within_the_bracket():
    """|limit(r) - r| <= 2^-41 for r a float in [0, 1), limit the
    closest fraction with denominator at most 2^40."""
    rng = random.Random(41)
    floats = [rng.random() for _ in range(10000)]
    floats += [rng.random() * 2.0 ** -rng.randrange(1, 60)
               for _ in range(2000)]
    floats += boundary_floats([Fraction(j, 1 << 41) for j in range(1, 40, 3)])
    floats += boundary_floats([Fraction(1, q) for q in range(2, 50)])
    floats += [0.0, 5e-324, 2.0 ** -41, 2.0 ** -42, 1 - 2.0 ** -53,
               math.nextafter(1.0, 0)]
    assert len(floats) >= 10 ** 4
    for r in floats:
        f = Fraction(r).limit_denominator(1 << 40)
        assert f.denominator <= 1 << 40
        assert abs(f - Fraction(r)) <= MARGIN, r


@pytest.mark.parametrize("r,want", [
    (Fraction(1, 1 << 41), (0, 1)),
    (1 - Fraction(1, 1 << 41), (1, 1)),
    (Fraction(3, 1 << 41), (1, 733007751851)),
])
def test_limit_denominator_tie_rule(r, want):
    """integral_round's fallback hands ties to the standard library.
    2^-41 and 1 - 2^-41 lie halfway between two fractions with
    denominator at most 2^40, and the smaller denominator wins; 3*2^-41
    lies halfway between 1/2^40 and 2/2^40 but closer still to a
    fraction with another denominator."""
    f = Fraction(float(r)).limit_denominator(1 << 40)
    assert (f.numerator, f.denominator) == want
