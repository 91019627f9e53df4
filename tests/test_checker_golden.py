"""Checker golden: `PrunedRouter.is_properly_pruned` must report the
same violations, in the same order, as when these lists were recorded.

Every case corrupts a fresh router's membership masks (`mask`), bundle
copies (`rem`), bundle presence (`in_w`) or destroyed-star marks
(`star_destroyed`) on build(4,2,8) and build(3,3,8) under both presets.
Between them the cases make each of the nine violation kinds fire.
The "scramble" cases run a short seeded deletion trace, then corrupt
many seeded entries at once and pin the violation list by hash, so
order changes in a long list show as well.  A fresh router, and a
router after each deletion of a seeded trace, must report none.
"""

import hashlib
import random

import pytest

from routerlab.pruning import PruningConfig, new_pruned
from routerlab.router_template import build

from _support import num_stars, u_set

KINDS = {"prefix", "P1-missing-bundle", "P1-thin-bundle", "P1-stale-bundle",
         "P2-thin-star", "P2-dead-center", "P2-destroyed-mark",
         "P3-isolated", "P4-thin-cluster"}

TEMPLATES = [(4, 2, 8), (3, 3, 8)]
PRESETS = ["paper", "relaxed"]


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _fresh(N, k, delta, preset):
    return new_pruned(build(N, k, delta),
                      getattr(PruningConfig, preset)(k))


def _drop(s, v, levels):
    """Take v out of U_i for every i in levels, leaving its bundles."""
    for i in levels:
        s.mask[v] &= ~(1 << i)


# Each case corrupts the fresh router s in place.

def _prefix(s):
    _drop(s, 1, [1])                     # in U_2.. but not U_1


def _missing_bundle(s):
    s.in_w[(1, 1)] = False


def _thin_bundle(s):
    s.rem[(s.t.k, 2)] = 1


def _stale_bundle(s):
    _drop(s, s.t.N + 1, [s.t.k])         # a leaf out of U_k, bundle in W


def _thin_star(s):
    # two leaves of level-1 star 0 leave every level and lose their bundles
    for v in (1, 2):
        _drop(s, v, range(1, s.t.k + 1))
        for i in range(1, s.t.k + 1):
            s.in_w[(i, v)] = False


def _dead_center(s):
    _drop(s, 0, [s.t.k])                 # center 0 out of U_k only


def _destroyed_mark(s):
    s.star_destroyed.add((1, 1))
    s.star_destroyed.add((s.t.k, 0))


def _isolated(s):
    for i in range(1, s.t.k + 1):
        s.in_w[(i, 1)] = False


def _thin_cluster(s):
    # level-1 cluster 1 keeps U_1 but leaves U_2.. entirely
    N, k = s.t.N, s.t.k
    for v in range(N, 2 * N):
        _drop(s, v, range(2, k + 1))


def _scramble(seed):
    def corrupt(s):
        rng = random.Random(seed)
        t = s.t
        ses = [(l, c) for i in range(1, t.k + 1)
               for (l, c) in t.superedges(i)]
        for _ in range(10):
            s.delete_edge(*rng.choice(ses))
        verts = list(t.vertices())
        keys = sorted(s.rem)
        for v in rng.sample(verts, len(verts) // 4):
            s.mask[v] = rng.randrange(1 << (t.k + 1)) & s.full_mask
        for key in rng.sample(keys, len(keys) // 5):
            s.in_w[key] = not s.in_w[key]
        for key in rng.sample(keys, len(keys) // 5):
            s.rem[key] = rng.randrange(t.delta + 1)
        for i in range(1, t.k + 1):
            for sid in rng.sample(range(num_stars(t, i)), 2):
                s.star_destroyed.add((i, sid))
    return corrupt


CASES = {
    "prefix": _prefix,
    "missing-bundle": _missing_bundle,
    "thin-bundle": _thin_bundle,
    "stale-bundle": _stale_bundle,
    "thin-star": _thin_star,
    "dead-center": _dead_center,
    "destroyed-mark": _destroyed_mark,
    "isolated": _isolated,
    "thin-cluster": _thin_cluster,
}
SCRAMBLES = {"scramble-%d" % seed: _scramble(seed) for seed in (1, 2, 3)}


def _violations(N, k, delta, preset, corrupt):
    s = _fresh(N, k, delta, preset)
    corrupt(s)
    return s.is_properly_pruned().violations


GOLDEN = {
    (4, 2, "paper", "dead-center"): [("P2-dead-center", 2, 0, 3)],
    (4, 2, "paper", "destroyed-mark"): [
        ("P2-destroyed-mark", 1, 1),
        ("P2-destroyed-mark", 2, 0),
    ],
    (4, 2, "paper", "isolated"): [
        ("P1-missing-bundle", 1, 1),
        ("P1-missing-bundle", 2, 1),
        ("P3-isolated", 1),
    ],
    (4, 2, "paper", "missing-bundle"): [("P1-missing-bundle", 1, 1)],
    (4, 2, "paper", "prefix"): [("prefix", 1), ("P1-stale-bundle", 1, 1)],
    (4, 2, "paper", "stale-bundle"): [("P1-stale-bundle", 2, 5)],
    (4, 2, "paper", "thin-bundle"): [("P1-thin-bundle", 2, 2, 1)],
    (4, 2, "paper", "thin-cluster"): [
        ("P1-stale-bundle", 2, 5),
        ("P1-stale-bundle", 2, 6),
        ("P1-stale-bundle", 2, 7),
        ("P2-dead-center", 2, 1, 3),
        ("P4-thin-cluster", 1, 1, 0),
    ],
    (4, 2, "paper", "thin-star"): [("P2-thin-star", 1, 0, 1)],
    (4, 2, "relaxed", "dead-center"): [("P2-dead-center", 2, 0, 3)],
    (4, 2, "relaxed", "destroyed-mark"): [
        ("P2-destroyed-mark", 1, 1),
        ("P2-destroyed-mark", 2, 0),
    ],
    (4, 2, "relaxed", "isolated"): [
        ("P1-missing-bundle", 1, 1),
        ("P1-missing-bundle", 2, 1),
        ("P3-isolated", 1),
    ],
    (4, 2, "relaxed", "missing-bundle"): [("P1-missing-bundle", 1, 1)],
    (4, 2, "relaxed", "prefix"): [("prefix", 1), ("P1-stale-bundle", 1, 1)],
    (4, 2, "relaxed", "stale-bundle"): [("P1-stale-bundle", 2, 5)],
    (4, 2, "relaxed", "thin-bundle"): [("P1-thin-bundle", 2, 2, 1)],
    (4, 2, "relaxed", "thin-cluster"): [
        ("P1-stale-bundle", 2, 5),
        ("P1-stale-bundle", 2, 6),
        ("P1-stale-bundle", 2, 7),
        ("P2-dead-center", 2, 1, 3),
        ("P4-thin-cluster", 1, 1, 0),
    ],
    (4, 2, "relaxed", "thin-star"): [("P2-thin-star", 1, 0, 1)],
    (3, 3, "paper", "dead-center"): [("P2-dead-center", 3, 0, 2)],
    (3, 3, "paper", "destroyed-mark"): [
        ("P2-destroyed-mark", 1, 1),
        ("P2-destroyed-mark", 3, 0),
    ],
    (3, 3, "paper", "isolated"): [
        ("P1-missing-bundle", 1, 1),
        ("P1-missing-bundle", 2, 1),
        ("P1-missing-bundle", 3, 1),
        ("P3-isolated", 1),
    ],
    (3, 3, "paper", "missing-bundle"): [("P1-missing-bundle", 1, 1)],
    (3, 3, "paper", "prefix"): [
        ("prefix", 1),
        ("P1-stale-bundle", 1, 1),
        ("P2-thin-star", 1, 0, 1),
    ],
    (3, 3, "paper", "stale-bundle"): [
        ("P1-stale-bundle", 3, 4),
        ("P2-thin-star", 3, 5, 1),
    ],
    (3, 3, "paper", "thin-bundle"): [("P1-thin-bundle", 3, 2, 1)],
    (3, 3, "paper", "thin-cluster"): [
        ("P1-stale-bundle", 2, 4),
        ("P1-stale-bundle", 2, 5),
        ("P2-thin-star", 2, 0, 1),
        ("P2-dead-center", 2, 1, 2),
        ("P2-thin-star", 2, 2, 1),
        ("P1-stale-bundle", 3, 4),
        ("P1-stale-bundle", 3, 5),
        ("P2-dead-center", 3, 1, 2),
        ("P2-thin-star", 3, 5, 1),
        ("P2-thin-star", 3, 6, 1),
        ("P4-thin-cluster", 1, 1, 0),
    ],
    (3, 3, "paper", "thin-star"): [
        ("P2-thin-star", 1, 0, 0),
        ("P2-thin-star", 2, 1, 1),
        ("P2-thin-star", 2, 2, 1),
        ("P2-thin-star", 3, 3, 1),
        ("P2-thin-star", 3, 4, 1),
    ],
    (3, 3, "relaxed", "dead-center"): [("P2-dead-center", 3, 0, 2)],
    (3, 3, "relaxed", "destroyed-mark"): [
        ("P2-destroyed-mark", 1, 1),
        ("P2-destroyed-mark", 3, 0),
    ],
    (3, 3, "relaxed", "isolated"): [
        ("P1-missing-bundle", 1, 1),
        ("P1-missing-bundle", 2, 1),
        ("P1-missing-bundle", 3, 1),
        ("P3-isolated", 1),
    ],
    (3, 3, "relaxed", "missing-bundle"): [("P1-missing-bundle", 1, 1)],
    (3, 3, "relaxed", "prefix"): [
        ("prefix", 1),
        ("P1-stale-bundle", 1, 1),
        ("P2-thin-star", 1, 0, 1),
    ],
    (3, 3, "relaxed", "stale-bundle"): [
        ("P1-stale-bundle", 3, 4),
        ("P2-thin-star", 3, 5, 1),
    ],
    (3, 3, "relaxed", "thin-bundle"): [("P1-thin-bundle", 3, 2, 1)],
    (3, 3, "relaxed", "thin-cluster"): [
        ("P1-stale-bundle", 2, 4),
        ("P1-stale-bundle", 2, 5),
        ("P2-thin-star", 2, 0, 1),
        ("P2-dead-center", 2, 1, 2),
        ("P2-thin-star", 2, 2, 1),
        ("P1-stale-bundle", 3, 4),
        ("P1-stale-bundle", 3, 5),
        ("P2-dead-center", 3, 1, 2),
        ("P2-thin-star", 3, 5, 1),
        ("P2-thin-star", 3, 6, 1),
        ("P4-thin-cluster", 1, 1, 0),
    ],
    (3, 3, "relaxed", "thin-star"): [
        ("P2-thin-star", 1, 0, 0),
        ("P2-thin-star", 2, 1, 1),
        ("P2-thin-star", 2, 2, 1),
        ("P2-thin-star", 3, 3, 1),
        ("P2-thin-star", 3, 4, 1),
    ],
}

SCRAMBLE_GOLDEN = {
    (4, 2, "paper", "scramble-1"): (
        13,
        "e71ed1f9820a34429e90314d3612a02e2a05f877695054104673741f40fb657e",
    ),
    (4, 2, "paper", "scramble-2"): (
        23,
        "445517f80b1d5b8fa4f3c8b4c85d20501810ab526f9dfa0b70fefbb54061f86e",
    ),
    (4, 2, "paper", "scramble-3"): (
        14,
        "d2a7cfd4f4c4974dae2fc534fa483547d1301a2d81099b2229bfe6f22df21da8",
    ),
    (4, 2, "relaxed", "scramble-1"): (
        13,
        "e71ed1f9820a34429e90314d3612a02e2a05f877695054104673741f40fb657e",
    ),
    (4, 2, "relaxed", "scramble-2"): (
        23,
        "445517f80b1d5b8fa4f3c8b4c85d20501810ab526f9dfa0b70fefbb54061f86e",
    ),
    (4, 2, "relaxed", "scramble-3"): (
        14,
        "d2a7cfd4f4c4974dae2fc534fa483547d1301a2d81099b2229bfe6f22df21da8",
    ),
    (3, 3, "paper", "scramble-1"): (
        27,
        "6f7d2392f7be22f30fa8a36f1906ec129937a0fe7245fb093f43da5b43de7d0b",
    ),
    (3, 3, "paper", "scramble-2"): (
        42,
        "05b5d8b61290d9e98f97ecf280abb3c584946808cc1f376d0d37cc6313937a6e",
    ),
    (3, 3, "paper", "scramble-3"): (
        36,
        "a926a539f6e1a262b150ea1caac407ce74001bbf0a5b9d0e210791462641aa52",
    ),
    (3, 3, "relaxed", "scramble-1"): (
        34,
        "ceee0ff558db9ab5bb559949315b91020612acc521b1801ed8a57561f5614b81",
    ),
    (3, 3, "relaxed", "scramble-2"): (
        42,
        "05b5d8b61290d9e98f97ecf280abb3c584946808cc1f376d0d37cc6313937a6e",
    ),
    (3, 3, "relaxed", "scramble-3"): (
        28,
        "4696292369cb84bd21efd9f6a1b884e6572d744ccebf6c03964a7ab52cabed16",
    ),
}


@pytest.mark.parametrize("N,k,delta", TEMPLATES)
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_checker_golden(N, k, delta, preset, case):
    got = _violations(N, k, delta, preset, CASES[case])
    assert got == GOLDEN[(N, k, preset, case)]


@pytest.mark.parametrize("N,k,delta", TEMPLATES)
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("case", sorted(SCRAMBLES))
def test_checker_scramble(N, k, delta, preset, case):
    got = _violations(N, k, delta, preset, SCRAMBLES[case])
    assert (len(got), _sha(got)) == SCRAMBLE_GOLDEN[(N, k, preset, case)]


def test_every_kind_fires():
    seen = {v[0] for got in GOLDEN.values() for v in got}
    assert seen == KINDS


@pytest.mark.parametrize("N,k,delta", TEMPLATES)
@pytest.mark.parametrize("preset", PRESETS)
def test_fresh_router_clean(N, k, delta, preset):
    assert _fresh(N, k, delta, preset).is_properly_pruned().violations == []


@pytest.mark.parametrize("N,k", [(4, 2), (3, 3)])
@pytest.mark.parametrize("preset", PRESETS)
def test_trace_reports_none(N, k, preset):
    """Deletions drawn as acceptance test 2 draws them: no violation
    after any of them, and some trace leaves U_k shrunk but U_1 whole."""
    partial = False
    for seed in range(5):
        s = _fresh(N, k, 32, preset)
        t = s.t
        rng = random.Random(seed)
        ses = [(l, c) for i in range(1, k + 1)
               for (l, c) in t.superedges(i)]
        for _ in range(60):
            if rng.random() < 0.05 and s.tau + 1 < s.cfg.phases:
                s.begin_phase()
            s.delete_edge(*rng.choice(ses))
            assert s.is_properly_pruned().violations == []
            partial |= len(u_set(s, k)) < len(u_set(s, 1)) == t.num_vertices()
    assert partial
