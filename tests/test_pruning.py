import random
from fractions import Fraction

import pytest

from routerlab.graph import _key
from routerlab.router_template import build
from routerlab.pruning import PruningConfig, new_pruned


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
    assert s.check_invariants().ok


def test_narrow_star_keep_rejected():
    # relaxed(4) keeps 3/4 of each star's leaves, unattainable at N=2
    t = build(2, 4, 8)
    with pytest.raises(ValueError):
        new_pruned(t, PruningConfig.relaxed(4))


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
    current_graph() with their multiplicities, in bundle order, and
    thinned(d) keeps every U_i and gives every live bundle d copies."""
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

        view = s.thinned(3)
        assert view.t.delta == 3 and s.live_bundles() == live
        for i in range(1, t.k + 1):
            assert view.u_set(i) == s.u_set(i)
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
