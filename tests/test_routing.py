import random
from fractions import Fraction

import pytest

from routerlab.graph import Demand, verify_routing
from routerlab.router_template import build
from routerlab.pruning import PruningConfig, new_pruned
from routerlab import routing
from routerlab.routing import (RoutingError, route_level, route_u1_to_uk,
                               route_demand)
from routerlab import witness
from routerlab.witness import sparsified_route, sparsify, witness_route

from _support import identity_witness, thinned_reference, u_set
from test_pruning import run_fuzz_trace


def pruned(N, k, delta, seed=None, deletions=0):
    t = build(N, k, delta)
    s = new_pruned(t, PruningConfig.relaxed(k))
    if deletions:
        rng = random.Random(seed)
        ses = [(l, c) for i in range(1, k + 1) for (l, c) in t.superedges(i)]
        for _ in range(deletions):
            s.delete_edge(*rng.choice(ses))
        assert s.is_properly_pruned().ok
    return t, s


def test_route_level_one_star():
    t, s = pruned(4, 1, 32)
    d = Demand([(1, 2, 1)])
    r = route_level(s, 1, d)
    rep = verify_routing(s.current_graph(), d, r, 2, 1)
    assert rep.ok and rep.worst_length == 2


def test_route_level_rejects_unrestricted():
    t, s = pruned(4, 1, 32)
    with pytest.raises(RoutingError):
        route_level(s, 1, Demand([(1, 2, 33)]))


def test_route_level_rejects_bad_level():
    t, s = pruned(4, 2, 64)
    with pytest.raises(RoutingError):
        route_level(s, 3, Demand())


def test_route_level_two():
    rng = random.Random(7)
    for trial in range(12):
        t, s = pruned(4, 2, 4096, seed=trial, deletions=rng.randrange(0, 30))
        u2 = sorted(u_set(s, 2))
        r2 = Fraction(t.delta, 32 ** 2)
        d = Demand()
        budget = {v: r2 for v in u2}
        for _ in range(10):
            a, b = rng.sample(u2, 2)
            if d.value(a, b) > 0:
                continue
            val = Fraction(rng.randrange(1, 5), rng.choice([1, 2, 4]))
            if budget[a] >= val and budget[b] >= val:
                d.add(a, b, val)
                budget[a] -= val
                budget[b] -= val
        r = route_level(s, 2, d)
        rep = verify_routing(s.current_graph(), d, r, 8, 1)
        assert rep.ok, (trial, rep.violations[:5])


def test_u1_to_uk_sink_map():
    for (N, k, delta) in [(4, 2, 4096), (3, 3, 512)]:
        t, s = pruned(N, k, delta, seed=N * k, deletions=20)
        flow, paths = route_u1_to_uk(s)
        assert set(paths) == u_set(s, 1)
        for v, p in paths.items():
            assert p[0] == v
            assert s.in_u(p[-1], k)
        dem = Demand()
        for v, p in sorted(paths.items()):
            if v != p[-1]:
                dem.add(v, p[-1], t.delta)
        rep = verify_routing(s.current_graph(), dem, flow, (4 * k) ** 2,
                             Fraction(32 ** k * 3 ** (3 * k)))
        assert rep.ok, rep.violations[:5]
        assert flow.is_integral()


def random_restricted_demand(rng, verts, cap, tries=12):
    d = Demand()
    budget = {v: cap for v in verts}
    for _ in range(tries if len(verts) >= 2 else 0):
        a, b = rng.sample(verts, 2)
        if d.value(a, b) > 0:
            continue
        val = min(budget[a], budget[b], Fraction(1))
        if val > 0:
            d.add(a, b, val)
            budget[a] -= val
            budget[b] -= val
    return d


def test_route_demand_verifies():
    rng = random.Random(11)
    for (N, k, delta, ntr) in [(4, 2, 4096, 10), (3, 3, 32 ** 3, 4)]:
        for trial in range(ntr):
            t, s = pruned(N, k, delta, seed=trial * 13 + N,
                          deletions=rng.randrange(0, 40))
            u1 = sorted(u_set(s, 1))
            cap = Fraction(t.delta, k ** (4 * k))
            d = random_restricted_demand(rng, u1, cap)
            if not len(d):
                continue
            r = route_demand(s, d)
            rep = verify_routing(s.current_graph(), d, r, 20 * k * k, 1)
            assert rep.ok, (N, k, trial, rep.violations[:3])
            if d.is_integral():
                assert r.is_integral()


def test_route_demand_single_flow_path_per_pair():
    t, s = pruned(4, 2, 4096)
    d = Demand([(1, 2, 1), (1, 3, Fraction(1, 2))])
    r = route_demand(s, d)
    pairs = [pr for _p, pr, _v in r.flow_paths]
    assert len(pairs) == len(set(pairs)) == 2


def test_route_demand_shared_sink():
    """A pair whose two U_1 paths end at one sink is joined there, with
    no middle route.  Deleting leaf 1's level-2 bundle takes its level-1
    star out of U_2, and 0 and 3 both drain to sink 0."""
    t, s = pruned(4, 2, 8)
    for _ in range(t.delta):
        s.delete_edge(1, t.level_center(2, 1))
    assert s.is_properly_pruned().ok
    _r, paths = route_u1_to_uk(s)
    a, b = 0, 3
    assert paths[a][-1] == paths[b][-1]
    d = Demand([(a, b, Fraction(t.delta, 2 ** 8))])
    r = route_demand(s, d)
    assert [p for p, _pr, _v in r.flow_paths] == [
        tuple(paths[a]) + tuple(reversed(paths[b]))[1:]]
    assert verify_routing(s.current_graph(), d, r, 20 * 2 * 2, 1).ok


def test_route_demand_rejects_unrestricted():
    t, s = pruned(4, 2, 64)
    cap = Fraction(t.delta, 2 ** 8)
    with pytest.raises(RoutingError):
        route_demand(s, Demand([(1, 2, cap + 1)]))


def test_restriction_boundary_in_units():
    """The Delta/k^4k check is exact on integer totals: a heaviest vertex
    total of exactly Delta/k^4k = 16 routes and 1/L more does not, for a
    Demand (L = 3) and for the core's own entries in units of 1/lcm with
    a Fraction lcm, as witness routing calls it."""
    t, s = pruned(4, 2, 4096)
    cap = Fraction(t.delta, 2 ** 8)
    third = Fraction(1, 3)
    route_demand(s, Demand([(1, 2, cap - third), (1, 3, third)]))
    with pytest.raises(RoutingError, match="restricted"):
        route_demand(s, Demand([(1, 2, cap - third), (1, 3, 2 * third)]))
    lcm = Fraction(7, 2)                     # 56 units make 16
    paths = routing._route_units(s, [(1, 2, 40, "a"), (1, 3, 16, "b")], lcm)
    assert set(paths) == {"a", "b"}
    with pytest.raises(RoutingError, match="restricted"):
        routing._route_units(s, [(1, 2, 40, "a"), (1, 3, 17, "b")], lcm)


def _flows(r):
    return [(p, pair, val) for p, pair, val in r.flow_paths]


def _outcome(f):
    """f()'s value, or the message of the RoutingError it raises."""
    try:
        return "ok", f()
    except RoutingError as exc:
        return "error", str(exc)


def _draining_trace(t, cfg, seed, drains):
    """Seeded deletions: `drains` random bundles each lose one copy more
    than the per-phase edge budget, which drains them, with a random
    single deletion elsewhere after about one in twenty of them."""
    rng = random.Random(seed)
    ses = [(l, c) for i in range(1, t.k + 1) for (l, c) in t.superedges(i)]
    budget = int(cfg.edge_budget_frac * t.delta)
    trace = []
    for e in rng.sample(ses, drains):
        for _ in range(budget + 1):
            trace.append(e)
            if rng.random() < 0.05:
                trace.append(rng.choice(ses))
    return trace


def _replay(t, cfg, trace):
    s = new_pruned(t, cfg)
    for e in trace:
        s.delete_edge(*e)
    return s


@pytest.mark.parametrize("preset", ["paper", "relaxed"])
@pytest.mark.parametrize("shape,drains", [((16, 2, 4096), 2),
                                          ((3, 3, 32 ** 3), 1)])
def test_sink_memo_never_stale(preset, shape, drains):
    """After every deletion, draining or not, the memoized sink paths
    equal a fresh _u1_to_ui, and route_demand equals its output on a new
    router replayed to the same state (rebuilt from the trace whenever
    membership changed, otherwise fed the same deletion)."""
    N, k, delta = shape
    t = build(N, k, delta)
    cfg = getattr(PruningConfig, preset)(k)
    trace = _draining_trace(t, cfg, N * k, drains)
    survivors = sorted(u_set(_replay(t, cfg, trace), 1))
    d = random_restricted_demand(random.Random(k), survivors,
                                 Fraction(delta, k ** (4 * k)))
    assert len(d)

    s, ref = new_pruned(t, cfg), new_pruned(t, cfg)
    ref_members = [u_set(s, i) for i in range(1, k + 1)]
    changes = 0
    for step, e in enumerate(trace):
        s.delete_edge(*e)
        members = [u_set(s, i) for i in range(1, k + 1)]
        if members != ref_members:
            changes += 1
            ref, ref_members = _replay(t, cfg, trace[:step + 1]), members
        else:
            ref.delete_edge(*e)
        assert (_outcome(lambda: s.memo("sinks", routing._sinks))
                == _outcome(lambda: routing._u1_to_ui(s, k, 0))), step
        assert (_outcome(lambda: _flows(route_demand(s, d)))
                == _outcome(lambda: _flows(route_demand(ref, d)))), step
    assert changes >= drains


def test_sink_memo_is_hit_and_isolated(monkeypatch):
    calls = []
    sinks = routing._sinks

    def counted(s):
        calls.append(s)
        return sinks(s)

    def computed(s):
        return sum(c is s for c in calls)

    monkeypatch.setattr(routing, "_sinks", counted)
    t = build(16, 2, 4096)
    cfg = PruningConfig.relaxed(2)
    budget = int(cfg.edge_budget_frac * t.delta)
    s = new_pruned(t, cfg)
    e = (1, t.level_center(2, 1))
    d = random_restricted_demand(random.Random(3), sorted(u_set(s, 1)),
                                 Fraction(16))

    first = _flows(route_demand(s, d))
    for _ in range(19):
        assert _flows(route_demand(s, d)) == first
    assert computed(s) == 1

    assert not s.delete_edge(*e).removed
    assert _flows(route_demand(s, d)) == first
    assert computed(s) == 1
    for _ in range(budget):
        rpt = s.delete_edge(*e)
    assert rpt.removed                       # leaf 1 left U_2
    drained = _flows(route_demand(s, d))
    assert computed(s) == 2
    assert drained != first
    assert drained == _flows(route_demand(_replay(t, cfg, [e] * (budget + 1)), d))

    _r, paths = route_u1_to_uk(s)
    paths.clear()
    assert _flows(route_demand(s, d)) == drained
    assert computed(s) == 2

    view = _replay(t, cfg, [e] * (budget + 1))
    assert _flows(route_demand(view, d)) == drained
    assert computed(view) == 1
    for _ in range(budget + 1):
        view.delete_edge(2, t.level_center(2, 2))
    route_demand(view, d)
    assert computed(view) == 2
    assert _flows(route_demand(s, d)) == drained
    assert computed(s) == 2

    # witness routing and sparsified routing share the witness's router,
    # and with it one set of sink paths
    routed = []
    route_units = witness._route_units

    def spied(router, entries, lcm):
        routed.append(router)
        return route_units(router, entries, lcm)

    monkeypatch.setattr(witness, "_route_units", spied)
    ws = new_pruned(build(4, 2, 8), cfg)
    w = identity_witness(ws)
    sp = sparsify(w, 2 * 2 * w.emb.d_star * 4)
    leaves = [v for v in sorted(w.host.vertices) if not ws.t.is_center(v)]
    hd = Demand([(leaves[0], leaves[-1], Fraction(1, 2)),
                 (leaves[1], leaves[-2], Fraction(1, 2))])
    assert computed(ws) == 0
    witness_route(w, hd)
    assert computed(ws) == 1
    sparsified_route(sp, w, hd)
    assert routed == [ws, ws]
    assert computed(ws) == 1


@pytest.mark.parametrize("preset", ["paper", "relaxed"])
def test_thinned_router_routes_as_scaled_lcm(preset):
    """The scale identity sparsified_route relies on: routing keyed
    entries in the router rebuilt with delta' copies per live bundle
    (thinned_reference) gives the paths, and the restriction errors, of
    routing them in s itself with lcm scaled by delta'/Delta.  Seeded
    deletion traces, some of which drain part of the router and some all
    of it (then the entries name vertices outside V(W)), under both
    presets."""
    k, scale = 2, 2 ** 8                         # k^(4k)
    partial = routed = restricted = 0
    for seed in range(10):
        s, _bad = run_fuzz_trace(4, k, 32, preset, seed, 40)
        t = s.t
        u1 = sorted(u_set(s, 1))
        partial += bool(u1) and any(m != s.full_mask
                                    for m in s.mask.values())
        if not u1:
            u1 = list(t.vertices())
        rng = random.Random(seed)
        for dp in (1, 3, 8):
            ref = thinned_reference(s, dp)
            for lcm in (5 * scale, Fraction(7 * scale, 3)):
                cap = dp * lcm // scale          # units a vertex may carry
                for _ in range(4):
                    pairs = {}
                    for _ in range(rng.randint(1, 6)):
                        a, b = sorted(rng.sample(u1, 2))
                        pairs[(a, b)] = rng.randint(1, max(1, cap // 2))
                    entries = [(a, b, u, (a, b))
                               for (a, b), u in sorted(pairs.items())]
                    scaled = lcm * Fraction(dp, t.delta)
                    got = _outcome(lambda: routing._route_units(
                        s, entries, scaled))
                    want = _outcome(lambda: routing._route_units(
                        ref, entries, lcm))
                    assert got == want, (seed, dp, lcm, entries)
                    # restricted entries leave admissibility slack, so
                    # the paths seldom show r_0: compare it too
                    assert (routing._scaled_r0(s, k, entries, scaled)
                            == routing._scaled_r0(ref, k, entries, lcm))
                    routed += got[0] == "ok"
                    restricted += got == (
                        "error", "demand is not Delta/k^4k-restricted")
    assert partial and routed and restricted, (partial, routed, restricted)



def test_proxy_outside_u_i_is_skipped():
    """A proxy must lie in U_i, not just in U_(i-1).  Vertex 1 is the
    first member of its level-2 star, where a pair from that star to
    another would take its proxy.  With its mask cut to U_1 alone (set
    by hand: under the small-N budgets a vertex leaving U_2 takes its
    whole star with it), the pair is handed off further along the star,
    avoiding vertex 1."""
    t, s = pruned(4, 2, 4)
    sa = t.star_id(2, 1)
    members, ca = t.star_members(2, sa), t.star_center(2, sa)
    assert members[0] == 1 and ca != 1
    a = max(v for v in members if v != ca)
    b = min(v for v in range(t.num_vertices()) if t.star_id(2, v) != sa
            and not t.is_center(t.star_members(2, t.star_id(2, v))[0]))
    d = Demand([(a, b, Fraction(t.delta, 32 ** 2))])
    (path, _pair, _val), = route_level(s, 2, d).flow_paths
    assert 1 in path
    s.mask[1] = 1 << 1
    r = route_level(s, 2, d)
    (path, _pair, _val), = r.flow_paths
    assert 1 not in path
    assert verify_routing(s.current_graph(), d, r, 8, 1).ok
