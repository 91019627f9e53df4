import math
import random
from fractions import Fraction

import pytest

from routerlab.graph import (MultiGraph, Demand, ball, is_restricted,
                             verify_routing)
from routerlab.router_template import build, realize
from routerlab.pruning import PruningConfig, new_pruned
from routerlab.routing import RoutingError
from routerlab.witness import (Embedding, RouterWitness, ScatteredCert,
                               _iroot_ceil, _proxy_route, greedy_embed,
                               lower_degrees,
                               scattered_or_ball, sparsify, sparsified_route,
                               validate_witness, witness_route)

from _support import identity_witness, thinned_reference

K = 2


def setup_identity(delta=8):
    t = build(4, K, delta)
    s = new_pruned(t, PruningConfig.relaxed(K))
    return t, s, identity_witness(s)


def route_bounds(w):
    maxlen = 22 * w.emb.d_star * K * K
    maxcong = (2 * w.alpha * w.beta * K ** (4 * K + 1)
               * w.emb.d_star * w.emb.eta_star)
    return maxlen, maxcong


def test_identity_witness_validates():
    _t, _s, w = setup_identity()
    rep = validate_witness(w)
    assert rep.ok, [c for c in rep.checks if not c[1]]
    assert w.emb.d_star == 1 and w.emb.eta_star == 1
    assert (w.alpha, w.beta, w.q) == (6, 1, 8)


def test_witness_checked_once_when_built(monkeypatch):
    """RouterWitness runs validate_witness once, when it is built, and
    raises naming the failed checks; witness_route and sparsified_route
    on a built witness run it no more."""
    from routerlab import witness
    calls = []
    real = witness.validate_witness

    def counting(w):
        calls.append(w)
        return real(w)

    monkeypatch.setattr(witness, "validate_witness", counting)
    t, s, w = setup_identity()
    assert calls == [w]
    sp = sparsify(w, 2 * K * 1 * 8)
    leaves = [v for v in sorted(w.host.vertices) if not t.is_center(v)]
    d = Demand([(leaves[0], leaves[7], Fraction(1, 2))])
    for _ in range(3):
        witness_route(w, d)
        sparsified_route(sp, w, d)
    assert calls == [w]
    assert identity_witness(s) is calls[1] and len(calls) == 2

    paths = dict(w.emb.paths)
    del paths[min(paths)]
    with pytest.raises(ValueError,
                       match=r"^invalid witness: \['one-path-per-live-copy'"):
        RouterWitness(w.host, s, Embedding(w.emb.vertex_map, paths, w.host))
    assert len(calls) == 3


def test_witness_route_within_bounds():
    t, _s, w = setup_identity()
    leaves = [v for v in sorted(w.host.vertices) if not t.is_center(v)]
    maxlen, maxcong = route_bounds(w)

    d = Demand([(leaves[0], leaves[7], 1)])
    vr = verify_routing(w.host, d, witness_route(w, d), maxlen, maxcong)
    assert vr.ok, vr.violations[:5]

    d2 = Demand()
    for i in range(0, 10, 2):
        d2.add(leaves[i], leaves[i + 1], 2)
    vr2 = verify_routing(w.host, d2, witness_route(w, d2), maxlen, maxcong)
    assert vr2.ok, vr2.violations[:5]

    assert len(witness_route(w, Demand())) == 0


def test_sparsify_identity_gives_skeleton():
    _t, _s, w = setup_identity()
    sp = sparsify(w, 2 * K * 1 * 8)
    assert sp.delta_prime == 8
    assert set(sp.cprime.superedges) == set(w.host.superedges)
    assert all(m == 1 for m in sp.cprime.superedges.values())
    assert sp.cprime.num_edges() <= len(w.host.vertices) * sp.delta_star
    assert w.pruned.is_properly_pruned().ok


def test_sparsified_route_within_bounds():
    t, _s, w = setup_identity()
    sp = sparsify(w, 2 * K * 1 * 8)
    leaves = [v for v in sorted(w.host.vertices) if not t.is_center(v)]
    d = Demand([(leaves[0], leaves[5], Fraction(1, 2))])
    assert is_restricted(d, lambda v: sp.delta_star)
    r = sparsified_route(sp, w, d)
    mc = 8 * sp.gamma * w.emb.d_star ** 2 * w.emb.eta_star * K ** (4 * K + 1)
    vr = verify_routing(sp.cprime, d, r, 22 * w.emb.d_star * K * K, mc)
    assert vr.ok, vr.violations[:5]


def test_sparsified_route_matches_thinned_reference():
    """sparsified_route, which routes in the witness's router with lcm
    scaled by delta'/Delta, gives the paths and errors of routing in the
    router rebuilt with delta' copies per live bundle.  gamma is swept
    across the value where the proxy demand leaves the Delta/k^4k
    restriction, so a wrong scale shows."""
    t, s, w = setup_identity()
    sp = sparsify(w, 2 * K * 1 * 4)
    dp = sp.delta_prime
    assert dp < t.delta
    ref = thinned_reference(s, dp)
    leaves = [v for v in sorted(w.host.vertices) if not t.is_center(v)]
    d = Demand([(leaves[0], leaves[5], Fraction(1, 2))])
    kinds = set()
    for g in (Fraction(1, 128), Fraction(99, 6400), Fraction(1, 64),
              Fraction(101, 6400), Fraction(1, 32), sp.gamma):
        sp.gamma = g
        factor = 4 * g * w.emb.d_star * K ** (4 * K + 1)
        got, want = [], []
        for out, route in (
                (got, lambda: sparsified_route(sp, w, d)),
                (want, lambda: _proxy_route(ref, w.emb, sp.qsets, dp, d,
                                            factor, ref.live_bundles()))):
            try:
                out.append(route().flow_paths)
            except RoutingError as exc:
                out.append(str(exc))
        assert got == want, g
        kinds.add(type(got[0]))
    assert kinds == {str, list}


def test_sparsified_route_needs_delta_prime_entries():
    """A demand vertex with fewer than delta' selected paths is named in
    the one width error of the proxy routing."""
    t, _s, w = setup_identity()
    sp = sparsify(w, 2 * K * 1 * 8)
    leaves = [v for v in sorted(w.host.vertices) if not t.is_center(v)]
    a, b = leaves[0], leaves[5]
    sp.qsets[b] = sp.qsets[b][:sp.delta_prime - 1]
    with pytest.raises(ValueError, match=r"^vertex %r lies on fewer than %d "
                       % (b, sp.delta_prime)):
        sparsified_route(sp, w, Demand([(a, b, Fraction(1, 2))]))


def test_iroot_ceil_is_exact():
    """The least g with g^r >= x, with no float: on seeded x < 10^200
    and r < 40, on exact powers and their neighbours, on 3^1000 (too
    large for a float) and on 10^120 + 12345 (whose float root is far
    off)."""
    rng = random.Random(17)
    cases = [(rng.randrange(1, 10 ** rng.randrange(1, 201)),
              rng.randrange(1, 40)) for _ in range(2000)]
    for _ in range(300):
        g, r = rng.randrange(1, 10 ** 20), rng.randrange(1, 40)
        cases += [(g ** r - 1, r), (g ** r, r), (g ** r + 1, r)]
    for x, r in cases:
        g = _iroot_ceil(x, r)
        assert g ** r >= x > (g - 1) ** r, (x, r, g)
    assert _iroot_ceil(3 ** 1000, 5) == 3 ** 200
    x = 10 ** 120 + 12345
    assert _iroot_ceil(x, 2) == math.isqrt(x - 1) + 1
    assert ([_iroot_ceil(x, 3) for x in (-5, 0, 1, 2, 8, 9)]
            == [1, 1, 1, 2, 2, 3])


def test_identity_witness_survives_pruning():
    t, s, _w = setup_identity()
    rng = random.Random(0)
    bundles = [(i, leaf) for (i, leaf), live in s.in_w.items() if live]
    for _ in range(10):
        i, leaf = rng.choice(bundles)
        s.delete_edge(leaf, t.level_center(i, leaf))
    assert s.is_properly_pruned().ok
    w2 = identity_witness(s)
    assert validate_witness(w2).ok
    lv = [v for v in sorted(w2.host.vertices)
          if not t.is_center(v) and w2.host.degree(v) >= 1]
    d = Demand([(lv[0], lv[-1], 1)])
    maxlen, maxcong = route_bounds(w2)
    vr = verify_routing(w2.host, d, witness_route(w2, d), maxlen, maxcong)
    assert vr.ok, vr.violations[:5]


def test_greedy_embed_realized_template_is_identity():
    t = build(4, K, 8)
    emb, fakes = greedy_embed(realize(t), t, 4, 4, 0)
    assert not fakes and emb.d_star == 1


def test_greedy_embed_clique_host():
    kq = MultiGraph()
    for i in range(20):
        kq.add_vertex(i)
    for i in range(20):
        for j in range(i + 1, 20):
            kq.add_edge(i, j, 4)
    res = greedy_embed(kq, build(3, 1, 2), 2, 8, 0)
    assert res is not None and res[0].d_star <= 2


def test_greedy_embed_path_host_fails():
    pth = MultiGraph()
    for i in range(30):
        pth.add_vertex(i)
    for i in range(29):
        pth.add_edge(i, i + 1)
    assert greedy_embed(pth, build(3, 1, 4), 2, 1, 0) is None


@pytest.mark.parametrize("eta_max", [0, -1])
def test_greedy_embed_rejects_nonpositive_eta_max(eta_max):
    # under eta_max <= 0 every edge cap is 0, and below 0 the weights
    # turn negative, so no search could terminate with a valid embedding
    with pytest.raises(ValueError, match="eta_max"):
        greedy_embed(realize(build(3, 4, 4)), build(3, 3, 4), 2, eta_max,
                     10 ** 6)


@pytest.mark.parametrize("d_max", [0, -1])
def test_greedy_embed_rejects_d_max_below_one(d_max):
    # no path has fewer than one hop, so every copy would be fake, or
    # placed on its direct edge against the hop limit
    with pytest.raises(ValueError, match="d_max"):
        greedy_embed(realize(build(3, 2, 4)), build(3, 2, 4), d_max, 4,
                     10 ** 6)


def test_scattered_or_ball_clique():
    g = MultiGraph()
    for i in range(100):
        g.add_vertex(i)
    for i in range(100):
        for j in range(i + 1, 100):
            g.add_edge(i, j)
    r = scattered_or_ball(g, 1, Fraction(1, 2))
    assert not isinstance(r, ScatteredCert)


def test_scattered_or_ball_many_small_cliques():
    g = MultiGraph()
    for c in range(20):
        for i in range(5):
            g.add_vertex(5 * c + i)
        for i in range(5):
            for j in range(i + 1, 5):
                g.add_edge(5 * c + i, 5 * c + j)
    assert isinstance(scattered_or_ball(g, 2, Fraction(3, 10)), ScatteredCert)


def test_scattered_or_ball_cycle_dichotomy():
    g = MultiGraph()
    n = 100
    for i in range(n):
        g.add_vertex(i)
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    eps = Fraction(1, 4)
    r = scattered_or_ball(g, 1, eps)
    if isinstance(r, ScatteredCert):
        assert all(len(ball(g, v, 1)) ** 4 < n ** 3 for v in g.vertices)
    else:
        assert len(ball(g, r, 16)) ** 4 >= n ** 3


def test_lower_degrees_bipartite():
    h = {x: list(range(4)) for x in "abcd"}
    out = lower_degrees(h, 2, 2, 1, 16)
    assert all(len(v) == 2 for v in out.values())
    cnt = {}
    for v in out.values():
        for y in v:
            cnt[y] = cnt.get(y, 0) + 1
    assert max(cnt.values()) <= 32


def test_translation_takes_the_least_loaded_copy():
    """Each bundle of build(3,2,2) has two copies with different host
    paths: copy 0 the direct edge, copy 1 a detour through a host
    vertex of its own.  Units of unequal value cross shared bundles, and
    each takes the copy least loaded so far, the first on a tie.  Copy 0
    every time, or copies in turn, would differ: after the unit of
    value 3, the unit of value 1 takes copy 1 and so does the next one,
    of value 2, since 1 < 3."""
    t = build(3, 2, 2)
    s = new_pruned(t, PruningConfig.relaxed(2))
    host = MultiGraph()
    paths = {}
    detour = {}                     # detour vertex -> its bundle
    for n, (i, leaf) in enumerate(sorted(s.live_bundles())):
        center = t.level_center(i, leaf)
        detour[100 + n] = (i, leaf)
        paths[(i, leaf, 0)] = (leaf, center)
        paths[(i, leaf, 1)] = (leaf, 100 + n, center)
        host.add_edge(leaf, center)
        host.add_edge(leaf, 100 + n)
        host.add_edge(100 + n, center)
    emb = Embedding({v: v for v in t.vertices()}, paths, host)
    # width 1: each demand vertex hands off to itself as a leaf
    entries = {v: [((1, v, 0), 0)] for v in t.vertices()
               if not t.is_center(v)}
    d = Demand([(1, 4, 3), (1, 7, 1), (2, 5, 1), (4, 8, 2)])
    r = _proxy_route(s, emb, entries, 1, d, 10 ** 6, s.live_bundles())

    def hops(path):
        """(router edge, copy) per hop of a translated path."""
        out = []
        it = iter(path)
        x = next(it)
        for y in it:
            copy = 0
            if y in detour:
                copy, mid, y = 1, y, next(it)
                leaf = y if t.is_center(x) else x
                assert detour[mid] == (t.superedge_level(x, y), leaf)
            out.append(((x, y), copy))
            x = y
        return out

    got = {pair: (val, hops(p)) for p, pair, val in r.flow_paths}
    assert got == {
        (1, 4): (3, [((1, 3), 0), ((3, 8), 0), ((8, 6), 0), ((6, 7), 0),
                     ((7, 0), 0), ((0, 4), 0)]),
        (1, 7): (1, [((1, 3), 1), ((3, 8), 1), ((8, 6), 1), ((6, 7), 1)]),
        (2, 5): (1, [((2, 6), 0), ((6, 5), 0)]),
        (4, 8): (2, [((4, 0), 1), ((0, 7), 1), ((7, 6), 1), ((6, 8), 1)]),
    }
    assert [pair for _p, pair, _v in r.flow_paths] == sorted(got)
