import math
import random
from fractions import Fraction

import pytest

from routerlab.decompose import PipelineConfig
from routerlab.graph import _key
from routerlab.router_template import build
from routerlab.pruning import (DIRECT, PruningConfig, _ceil_mul,
                               _floor_mul, new_pruned)

from _support import check_invariants, thinned_reference, u_set


def fresh(N=4, k=2, delta=32, preset="relaxed"):
    t = build(N, k, delta)
    cfg = PruningConfig.paper(k) if preset == "paper" else \
        PruningConfig.relaxed(k)
    return t, new_pruned(t, cfg)


def test_presets_validate():
    for k in (2, 3, 4):
        PruningConfig.paper(k)
        PruningConfig.relaxed(k)


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        PruningConfig(phases=3, edge_budget_frac=Fraction(1, 2),
                      star_budget_frac=Fraction(1, 100),
                      cluster_survival_frac=Fraction(1, 4),
                      min_bundle_frac=Fraction(1, 2),
                      star_keep_frac=Fraction(1, 2),
                      cluster_keep_frac=Fraction(1, 64)).validate()


def test_fresh_router_is_properly_pruned():
    _t, s = fresh()
    assert s.is_properly_pruned().ok
    assert check_invariants(s).ok


def test_narrow_star_keep_rejected():
    # relaxed(4) keeps 3/4 of each star's leaves, unattainable at N=2
    t = build(2, 4, 8)
    with pytest.raises(ValueError):
        new_pruned(t, PruningConfig.relaxed(4))


def test_star_budget_that_can_empty_a_star_rejected():
    """A router needs phases * star_budget < N - 1, so that a level-1
    star that keeps its center keeps a leaf.  With a star budget of 4 on
    N = 4, center 0 could lose all three leaves' bundles and stay in U_1
    with no W edge."""
    cfg = PruningConfig(1, 0, 1, Fraction(1, 4), 0, 0, Fraction(1, 4))
    assert _floor_mul(cfg.star_budget_frac, 4) == 4
    with pytest.raises(ValueError, match="phases\\*star_budget < N-1"):
        new_pruned(build(4, 1, 1), cfg)
    # at phases * star_budget = N - 2 the router builds
    half = PruningConfig(1, 0, Fraction(1, 2), Fraction(1, 4), 0, 0,
                         Fraction(1, 4))
    assert new_pruned(build(4, 1, 1), half).star_budget == 2


def _cli_and_pipeline_configs(N):
    """(k, cfg) for every config the CLI (a preset for the template's k)
    and the pipeline (pruning_cfg(N) at k_hat = k^2) make, k_hat <= 16."""
    for preset in ("paper", "relaxed"):
        for k in range(1, 17):
            yield k, PruningConfig.preset(preset, k)
        for k in (2, 3, 4):
            pc = PipelineConfig(k, 4, 2 * k * k, preset=preset)
            yield pc.k_hat, pc.pruning_cfg(N)


def test_cli_and_pipeline_configs_keep_a_leaf_per_star():
    """Both presets for k = 1..16 and the pipeline's narrow-template
    override satisfy phases * star_budget < N - 1 for N = 2..80, and a
    router builds wherever N^k <= 4096 unless its leaf floor is
    unattainable, which the star keep check rejects on its own."""
    built = 0
    for N in range(2, 81):
        for k, cfg in _cli_and_pipeline_configs(N):
            star_budget = math.floor(cfg.star_budget_frac * N)
            assert cfg.phases * star_budget < N - 1, (N, k)
            if N ** k > 4096:
                continue
            if N - 1 < cfg.star_keep_frac * N:
                with pytest.raises(ValueError, match="star keep fraction"):
                    new_pruned(build(N, k, 1), cfg)
            else:
                new_pruned(build(N, k, 1), cfg)
                built += 1
    assert built > 300


def test_delete_edge_noop_on_dead_bundle():
    t, s = fresh(delta=4)
    (leaf, c) = next(iter(t.superedges(1)))
    for _ in range(4):
        s.delete_edge(leaf, c)
    rpt = s.delete_edge(leaf, c)
    assert rpt.noop


def test_phases_exhaust():
    _t, s = fresh()
    for _ in range(s.cfg.phases - 1):
        s.begin_phase()
    with pytest.raises(ValueError):
        s.begin_phase()


def test_current_graph_mirrors_rem():
    t, s = fresh(delta=8)
    g = s.current_graph()
    (leaf, c) = next(iter(t.superedges(1)))
    assert g.multiplicity(leaf, c) == 8
    s.delete_edge(leaf, c)
    g2 = s.current_graph()
    assert g2.multiplicity(leaf, c) == 7


def run_fuzz_trace(N, k, delta, preset, seed, deletions):
    t, s = fresh(N, k, delta, preset)
    rng = random.Random(seed)
    ses = [(l, c) for i in range(1, k + 1) for (l, c) in t.superedges(i)]
    bad = 0
    for step in range(deletions):
        if rng.random() < 0.05 and s.tau + 1 < s.cfg.phases:
            s.begin_phase()
        s.delete_edge(*rng.choice(ses))
        if not s.is_properly_pruned():
            bad += 1
    return s, bad


@pytest.mark.parametrize("preset", ["paper", "relaxed"])
def test_live_bundles_and_thinned_router(preset):
    """On seeded deletion traces, live_bundles() lists the superedges of
    current_graph() with their multiplicities, in bundle order, and the
    test-side thinned_reference(s, d) keeps every U_i, gives every live
    bundle d copies and leaves s unchanged."""
    thinner = dead = 0
    for seed in range(12):
        s, _bad = run_fuzz_trace(4, 2, 32, preset, seed, 25)
        t = s.t
        live = s.live_bundles()
        order = [(i, leaf) for i in range(1, t.k + 1)
                 for (leaf, _c) in t.superedges(i)]
        assert list(live) == [key for key in order if key in live]
        want = {}
        for (i, leaf), copies in live.items():
            e = _key(leaf, t.level_center(i, leaf))
            want[e] = want.get(e, 0) + copies
        assert dict(s.current_graph().superedges) == want
        thinner += sum(1 for copies in live.values() if copies < t.delta)
        dead += len(order) - len(live)

        view = thinned_reference(s, 3)
        assert view.t.delta == 3 and s.live_bundles() == live
        for i in range(1, t.k + 1):
            assert u_set(view, i) == u_set(s, i)
        assert view.live_bundles() == {key: 3 for key in live}
        w = view.current_graph()
        assert all(w.multiplicity(leaf, t.level_center(i, leaf)) == 3
                   for (i, leaf) in live)
    # the traces thin some bundles and drop others from W
    assert thinner and dead


def test_fuzz_properly_pruned_small():
    for seed in range(40):
        for preset in ("paper", "relaxed"):
            _s, bad = run_fuzz_trace(4, 2, 32, preset, seed, 25)
            assert bad == 0, (preset, seed)


def phase_bound_violations(s, k):
    """The per-phase loss bounds; only meaningful for k >= 2."""
    out = []
    delta = s.t.delta
    for tau in range(s.tau + 1):
        st = s.phase_stats(tau)
        e = st["deleted"]
        if st["deleted_from_u_k"] * delta > e * k ** (4 * k):
            out.append((tau, "u_k"))
        if st["edges_deleted_from_w"] > e * k ** (7 * k + 3):
            out.append((tau, "w_edges"))
        if st["deleted_from_u_1"] * delta > 2 * k ** (7 * k + 2) * e:
            out.append((tau, "u_1"))
    return out


def test_phase_stats_bounds_k23():
    for seed in range(20):
        for (N, k) in ((4, 2), (3, 3), (5, 3)):
            s, bad = run_fuzz_trace(N, k, 32, "relaxed", seed, 30)
            assert bad == 0
            assert not phase_bound_violations(s, k), (N, k, seed)


# -- integer budgets -------------------------------------------------------

BUDGET_SHAPES = [(1, 4), (1, 9), (2, 12), (2, 16), (3, 5), (3, 16), (4, 4)]


def _cut_leaf(s, leaf):
    """Delete one more copy of leaf's level-1 bundle than its budget."""
    c = s.t.level_center(1, leaf)
    for _ in range(s.edge_budget + 1):
        s.delete_edge(leaf, c)


@pytest.mark.parametrize("preset", ["paper", "relaxed"])
@pytest.mark.parametrize("k,N", BUDGET_SHAPES)
@pytest.mark.parametrize("delta", [1, 7, 8, 9, 24, 25])
def test_edge_and_star_budgets_are_exact(preset, k, N, delta):
    """Budgets are floor(frac * size), and deletions trigger exactly past
    them: a bundle survives edge_budget deletions in a phase and leaves
    at the next; a star survives star_budget lost leaves and is
    destroyed at the next."""
    t, s = fresh(N, k, delta, preset)
    cfg = s.cfg
    assert s.edge_budget == math.floor(cfg.edge_budget_frac * delta)
    assert s.star_budget == math.floor(cfg.star_budget_frac * N)
    assert s.edge_budget + 1 <= delta and s.star_budget + 1 <= N - 1
    for n in range(delta + 2):
        assert (n > s.edge_budget) == (n > cfg.edge_budget_frac * delta)
    for n in range(N + 1):
        assert (n > s.star_budget) == (n > cfg.star_budget_frac * N)

    leaf, c = 1, t.level_center(1, 1)
    for _ in range(s.edge_budget):
        assert not s.delete_edge(leaf, c).removed
    assert s.in_u(leaf, 1)
    assert (leaf, DIRECT) in s.delete_edge(leaf, c).removed[1]
    assert not s.in_u(leaf, 1)

    t, s = fresh(N, k, delta, preset)
    for leaf in range(1, s.star_budget + 1):
        _cut_leaf(s, leaf)
    assert (1, 0) not in s.star_destroyed and s.in_u(0, 1)
    _cut_leaf(s, s.star_budget + 1)
    assert (1, 0) in s.star_destroyed and not s.in_u(0, 1)


@pytest.mark.parametrize("preset", ["paper", "relaxed"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_integer_floor_and_ceil_are_exact(preset, k):
    """For every fraction of both presets, _floor_mul and _ceil_mul give
    floor(f*x) and ceil(f*x), so n > _floor_mul(f, x) iff n > f*x and
    n < _ceil_mul(f, x) iff n < f*x, on both sides of every boundary up
    to x = 300 (the cluster survival test compares left with hn so)."""
    cfg = getattr(PruningConfig, preset)(k)
    for f in (cfg.edge_budget_frac, cfg.star_budget_frac,
              cfg.cluster_survival_frac, cfg.min_bundle_frac,
              cfg.star_keep_frac, cfg.cluster_keep_frac):
        for x in range(301):
            lo, hi = _floor_mul(f, x), _ceil_mul(f, x)
            assert lo == math.floor(f * x) and hi == math.ceil(f * x)
            for n in (lo - 1, lo, lo + 1):
                assert (n > lo) == (n > f * x)
            for n in (hi - 1, hi, hi + 1):
                assert (n < hi) == (n < f * x)


def test_tau_follows_begin_phase():
    """tau is the index of the phase log's last entry: it starts at 0,
    each begin_phase moves it and the deletions' tallies to a new entry,
    and it stops where begin_phase reports the phases exhausted."""
    t, s = fresh()
    leaf = next(v for v in t.vertices() if not t.is_center(v))
    c = t.level_center(1, leaf)
    assert s.tau == 0
    for tau in range(1, s.cfg.phases):
        assert s.begin_phase() == tau == s.tau
        assert len(s.phase_log) == tau + 1
        s.delete_edge(leaf, c)
        assert [s.phase_stats(p)["deleted"] for p in range(tau + 1)] == (
            [0] + [1] * tau)
    with pytest.raises(ValueError, match="phases exhausted"):
        s.begin_phase()
    assert s.tau == s.cfg.phases - 1 == len(s.phase_log) - 1
    with pytest.raises(AttributeError):
        s.tau = 0
