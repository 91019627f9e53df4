"""Cross-check of `PrunedRouter.is_properly_pruned` against a reference.

The reference below is the per-vertex scan the checker used before it
became one table pass per level: stars counted member by member, P3 from
one `_has_w_edge`-style walk per vertex, clusters counted mask by mask.
The two must report identical violation lists, in the same order, on
routers driven through deletion traces that drain (a few bundles hit
again and again) and then corrupted in `mask` (non-prefix masks
included), `in_w`, `rem` and `star_destroyed`.  A check must also leave
the router as it found it: the same state and the same routing memo.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from routerlab.decompose import PipelineConfig
from routerlab.pruning import PruningConfig, new_pruned
from routerlab.router_template import build
from routerlab.routing import route_u1_to_uk

from _support import num_stars

PRESETS = ["paper", "relaxed"]

# The sampled configs: (N, k, pruning config), both presets on three
# shapes, plus the pipeline's narrow-template config on build(3, 4, .),
# whose relaxed leaf floor and zero edge budget drain on every deletion.
CONFIGS = {"%s-%dx%d" % (p, N, k): (N, k, getattr(PruningConfig, p)(k))
           for (N, k) in [(4, 2), (3, 3), (5, 2)] for p in PRESETS}
CONFIGS["narrow-3x4"] = (3, 4, PipelineConfig(2, 4, 16, template_n=3)
                         .pruning_cfg(3))


def _has_w_edge(s, v):
    """v has a W bundle at some level i with v in U_1 .. U_i."""
    t = s.t
    for i in range(1, t.k + 1):
        if not s.in_u(v, i):
            break
        if t.is_center(v):
            if any(s.in_w.get((i, m))
                   for m in t.star_members(i, t.star_id(i, v)) if m != v):
                return True
        elif s.in_w.get((i, v)):
            return True
    return False


def reference_violations(s):
    t, cfg = s.t, s.cfg
    N, k = t.N, t.k
    masks = [s.mask[v] for v in t.vertices()]
    prefixes = {((1 << l) - 1) << 1 for l in range(k + 1)}
    viol = [("prefix", v) for v, m in enumerate(masks) if m not in prefixes]
    bundle_floor = math.ceil(cfg.min_bundle_frac * t.delta)
    star_floor = math.ceil(cfg.star_keep_frac * N)
    for i in range(1, k + 1):
        bit = 1 << i
        for leaf in t.vertices():
            if t.is_center(leaf):
                continue
            key = (i, leaf)
            if masks[leaf] & bit:
                if not s.in_w.get(key):
                    viol.append(("P1-missing-bundle", i, leaf))
                elif s.rem[key] < bundle_floor:
                    viol.append(("P1-thin-bundle", i, leaf, s.rem[key]))
            elif s.in_w.get(key):
                viol.append(("P1-stale-bundle", i, leaf))
        for sid in range(num_stars(t, i)):
            center = t.star_center(i, sid)
            alive = sum(1 for m in t.star_members(i, sid) if masks[m] & bit)
            if masks[center] & bit:
                if alive - 1 < star_floor:
                    viol.append(("P2-thin-star", i, sid, alive - 1))
            elif alive:
                viol.append(("P2-dead-center", i, sid, alive))
            if alive and (i, sid) in s.star_destroyed:
                viol.append(("P2-destroyed-mark", i, sid))
    for v, m in enumerate(masks):
        if m & 2 and not _has_w_edge(s, v):
            viol.append(("P3-isolated", v))
    for i in range(1, k):
        bit = 1 << (i + 1)
        size = N ** i
        cluster_floor = math.ceil(cfg.cluster_keep_frac * size)
        for c in range(N ** (k - i)):
            ms = masks[c * size:(c + 1) * size]
            if any(m & 2 for m in ms):
                alive = sum(1 for m in ms if m & bit)
                if alive < cluster_floor:
                    viol.append(("P4-thin-cluster", i, c, alive))
    return viol


def _state(s):
    return (dict(s.mask), dict(s.in_w), dict(s.rem), set(s.star_destroyed),
            {name: id(value) for name, value in s._memo.items()})


def _drive(s, rng, deletions, hot, phase_p=0.05):
    """Deletions on `hot` bundles drawn from the template, so per-phase
    budgets overflow and _drain runs."""
    t = s.t
    ses = [(l, c) for i in range(1, t.k + 1) for (l, c) in t.superedges(i)]
    pool = rng.sample(ses, hot)
    for _ in range(deletions):
        if rng.random() < phase_p and s.tau + 1 < s.cfg.phases:
            s.begin_phase()
        s.delete_edge(*rng.choice(pool if rng.random() < 0.8 else ses))


def _random_mask(s, rng):
    """Any subset of bits 1..k, prefix or not."""
    return rng.randrange(1 << (s.t.k + 1)) & s.full_mask


def _corrupt(s, rng, n_mask, n_in_w, n_rem, n_star, n_cut=0):
    """Seeded corruptions.  A cut vertex loses every W bundle it touches
    at levels 1..j and gets a random mask, so a center with a gap in its
    mask can keep bundles only above the gap."""
    t = s.t
    keys = sorted(s.rem)
    for v in rng.sample(range(t.num_vertices()), n_mask):
        s.mask[v] = _random_mask(s, rng)
    for v in rng.sample(range(t.num_vertices()), n_cut):
        for i in range(1, rng.randrange(1, t.k + 1) + 1):
            for m in t.star_members(i, t.star_id(i, v)):
                if not t.is_center(m) and v in (m, t.level_center(i, m)):
                    s.in_w[(i, m)] = False
        s.mask[v] = _random_mask(s, rng)
    for key in rng.sample(keys, n_in_w):
        s.in_w[key] = not s.in_w[key]
    for key in rng.sample(keys, n_rem):
        s.rem[key] = rng.randrange(t.delta + 1)
    for _ in range(n_star):
        i = rng.randrange(1, t.k + 1)
        s.star_destroyed.add((i, rng.randrange(num_stars(t, i))))


def _cross_check(s):
    before = _state(s)
    got = s.is_properly_pruned().violations
    assert _state(s) == before
    assert got == reference_violations(s)
    return got


def _isolated(violations):
    return [v for v in violations if v[0] == "P3-isolated"]


@settings(max_examples=120, deadline=None)
@given(config=st.sampled_from(sorted(CONFIGS)),
       seed=st.integers(0, 2 ** 32 - 1),
       deletions=st.integers(0, 60),
       hot=st.integers(1, 4),
       n_mask=st.integers(0, 12), n_in_w=st.integers(0, 12),
       n_rem=st.integers(0, 12), n_star=st.integers(0, 4),
       n_cut=st.integers(0, 6))
def test_checker_matches_reference(config, seed, deletions, hot,
                                   n_mask, n_in_w, n_rem, n_star, n_cut):
    N, k, cfg = CONFIGS[config]
    s = new_pruned(build(N, k, 8), cfg)
    rng = random.Random(seed)
    _drive(s, rng, deletions, hot)
    # V(W) = U_1 holds by construction: only corruption makes P3 fire
    assert _isolated(_cross_check(s)) == []
    route_u1_to_uk(s)
    _corrupt(s, rng, min(n_mask, N ** k), n_in_w, n_rem, n_star, n_cut)
    _cross_check(s)


def test_drained_traces_are_exercised():
    """The hypothesis traces' generator does reach _drain and corrupts
    into non-prefix masks on these templates, and its traces drain the
    narrow-template config too, leaving no vertex isolated."""
    drained = nonprefix = 0
    for seed in range(20):
        s = new_pruned(build(4, 2, 8), PruningConfig.paper(2))
        rng = random.Random(seed)
        _drive(s, rng, 40, 2)
        drained += any(m != s.full_mask for m in s.mask.values())
        _corrupt(s, rng, 12, 4, 4, 2)
        got = _cross_check(s)
        nonprefix += any(v[0] == "prefix" for v in got)
    assert drained and nonprefix
    N, k, cfg = CONFIGS["narrow-3x4"]
    narrow = 0
    for seed in range(20):
        s = new_pruned(build(N, k, 8), cfg)
        _drive(s, random.Random(seed), 20, 2)
        narrow += any(m != s.full_mask for m in s.mask.values())
        assert _isolated(_cross_check(s)) == []
    assert narrow == 20


def test_checker_matches_reference_large():
    """One seeded run each on the benchmark's templates."""
    for N, k in [(32, 2), (10, 3)]:
        for preset in PRESETS:
            s = new_pruned(build(N, k, 32), getattr(PruningConfig, preset)(k))
            rng = random.Random(N * 100 + k)
            _drive(s, rng, 400, 8, phase_p=0.02)
            assert _cross_check(s) == []
            route_u1_to_uk(s)
            _corrupt(s, rng, 60, 40, 40, 6, 30)
            assert _cross_check(s)
