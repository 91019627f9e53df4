"""Differential tests of the embedding search.

The first reference below is the embedding search written directly over
Fraction weights 1 + 4*load/(mult*eta_max), with usability
load < eta_max*mult.  witness._embed_with_map must choose exactly the
same paths and fakes, or give up exactly when the reference does.

The second is a textbook Dijkstra on index graphs: witness._dijkstra,
an A* search with a canonical trace-back, must return the same vertices
and edge indices on graphs whose weights tie often.
"""

import heapq
import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from routerlab import witness
from routerlab.graph import MultiGraph, _key
from routerlab.router_template import build, realize


def _ref_dijkstra(host, src, dst, weight, usable):
    dist = {src: Fraction(0)}
    prev = {}
    heap = [(Fraction(0), src)]
    while heap:
        dv, v = heapq.heappop(heap)
        if dv > dist[v]:
            continue
        if v == dst:
            break
        for u in host.neighbors(v):
            e = _key(v, u)
            if not usable(e):
                continue
            nd = dv + weight(e)
            if u not in dist or nd < dist[u]:
                dist[u] = nd
                prev[u] = v
                heapq.heappush(heap, (nd, u))
    if dst not in dist:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    path.reverse()
    return tuple(path)


def _ref_hop_path(host, src, dst, usable, d_max):
    seen = {src: None}
    frontier = [src]
    for _ in range(d_max):
        nxt = []
        for v in frontier:
            for u in sorted(host.neighbors(v)):
                if u not in seen and usable(_key(v, u)):
                    seen[u] = v
                    nxt.append(u)
                    if u == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(seen[path[-1]])
                        path.reverse()
                        return tuple(path)
        if not nxt:
            break
        frontier = nxt
    return None


def _ref_embed_with_map(c, t, vm, d_max, eta_max, fake_budget, seen):
    """Rational reference; counts in seen["penalised"] the copies whose
    congestion-penalized path differs from the hop-shortest one, and in
    seen["fallback_path"] and seen["fallback_none"] the hop-limited
    fallbacks that found a path and that found none."""
    load = {}

    def usable(e):
        return load.get(e, 0) < eta_max * c.multiplicity(*e)

    def weight(e):
        return 1 + Fraction(4 * load.get(e, 0),
                            c.multiplicity(*e)) / eta_max

    paths = {}
    fakes = set()
    for i in range(1, t.k + 1):
        for (leaf, center) in t.superedges(i):
            src, dst = vm[leaf], vm[center]
            for copy in range(t.delta):
                key = (i, leaf, copy)
                p = _ref_dijkstra(c, src, dst, weight, usable)
                if p != _ref_dijkstra(c, src, dst, lambda e: 1, usable):
                    seen["penalised"] += 1
                if p is not None and len(p) - 1 > d_max:
                    p = _ref_hop_path(c, src, dst, usable, d_max)
                    seen["fallback_none" if p is None else "fallback_path"] += 1
                if p is None or len(p) - 1 > d_max:
                    fakes.add(key)
                    continue
                paths[key] = p
                for a, b in zip(p, p[1:]):
                    e = _key(a, b)
                    load[e] = load.get(e, 0) + 1
    if len(fakes) > fake_budget:
        return None
    return witness.Embedding(vm, paths, c), fakes


def _outcome(got):
    if got is None:
        return None
    emb, fakes = got
    return (emb.vertex_map, emb.paths, fakes, emb.d_star, emb.eta_star)


def _random_host(rng, nv):
    g = MultiGraph()
    n = nv + rng.randrange(0, 4)
    for v in range(n):
        g.add_vertex(v)
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):          # a spanning path
        g.add_edge(a, b, rng.randint(1, 5))
    for _ in range(rng.randrange(0, 2 * n)):
        a, b = rng.sample(range(n), 2)
        if not g.has_edge(a, b):
            g.add_edge(a, b, rng.randint(1, 5))
    return g


def _realized_host(rng, t):
    """The template's own realization with random multiplicities and a
    few extra edges, embedded on the identity map."""
    base = realize(t)
    g = MultiGraph()
    for v in base.vertices:
        g.add_vertex(v)
    for (a, b) in base.superedges:
        g.add_edge(a, b, rng.randint(1, 5))
    verts = sorted(g.vertices)
    for _ in range(rng.randrange(1, len(verts))):
        a, b = rng.sample(verts, 2)
        if not g.has_edge(a, b):
            g.add_edge(a, b, rng.randint(1, 5))
    return g


ETAS = [Fraction(1), Fraction(3, 2), Fraction(7, 3), Fraction(4)]
LARGE = 10 ** 6


def test_integer_search_matches_rational_reference():
    rng = random.Random(20260118)
    seen = {"penalised": 0, "accepted": 0, "accepted_with_fakes": 0,
            "none": 0, "cases": 0, "fallback_path": 0, "fallback_none": 0}
    for trial in range(300):
        delta = rng.randint(1, 4)
        t = rng.choice([build(3, 1, delta), build(2, 2, delta),
                        build(3, 2, 2)])
        tv = sorted(t.vertices())
        if trial % 4 == 0:
            c = _realized_host(rng, t)
            vm = {v: v for v in tv}
        else:
            c = _random_host(rng, len(tv))
            vm = dict(zip(tv, rng.sample(sorted(c.vertices), len(tv))))
        d_max = rng.randint(1, 4)
        eta = rng.choice(ETAS)
        full = _ref_embed_with_map(c, t, vm, d_max, eta, LARGE, seen)
        nf = len(full[1])
        for budget in sorted({0, max(nf - 1, 0), nf, LARGE}):
            want = _outcome(_ref_embed_with_map(
                c, t, vm, d_max, eta, budget, Counter()))
            got = _outcome(witness._embed_with_map(
                c, t, vm, d_max, eta, budget))
            assert got == want, (trial, d_max, eta, budget)
            seen["cases"] += 1
            if want is None:
                seen["none"] += 1
            else:
                seen["accepted"] += 1
                seen["accepted_with_fakes"] += bool(want[2])
    # the sample must exercise every outcome, or the test shows nothing
    assert seen["cases"] >= 600, seen
    assert seen["accepted"] >= 200, seen
    assert seen["accepted_with_fakes"] >= 50, seen
    assert seen["none"] >= 100, seen
    assert seen["penalised"] >= 100, seen
    # the hop-limited fallback must both find paths and find none
    assert seen["fallback_path"] >= 50, seen
    assert seen["fallback_none"] >= 200, seen


def test_greedy_embed_matches_reference_on_fixed_hosts():
    """greedy_embed's public path agrees with the reference on the map it
    chose, for a clique host and a realized router."""
    kq = MultiGraph()
    for i in range(12):
        for j in range(i + 1, 12):
            kq.add_edge(i, j, 1 + (i * j) % 3)
    t = build(3, 1, 4)
    for host, tmpl in ((kq, t), (realize(build(3, 2, 4)), build(3, 2, 4))):
        for eta in ETAS:
            got = witness.greedy_embed(host, tmpl, 2, eta, LARGE)
            want = _ref_embed_with_map(host, tmpl, got[0].vertex_map, 2, eta,
                                       LARGE, Counter())
            assert _outcome(got) == _outcome(want)


def _textbook_dijkstra(adj, src, dst, weight):
    """Pops (dist, vertex), keeps the first strict improvement and stops
    at dst.  Returns (vertices, edge indices nearest dst first, dist), or
    None without a usable path."""
    dist = {src: 0}
    prev = {}
    heap = [(0, src)]
    while heap:
        dv, v = heapq.heappop(heap)
        if dv > dist[v]:
            continue
        if v == dst:
            break
        for u, e in adj[v]:
            if weight[e] == witness._UNUSABLE:
                continue
            nd = dv + weight[e]
            if u not in dist or nd < dist[u]:
                dist[u] = nd
                prev[u] = (v, e)
                heapq.heappush(heap, (nd, u))
    if dst not in dist:
        return None
    path, edges = [dst], []
    while path[-1] != src:
        v, e = prev[path[-1]]
        path.append(v)
        edges.append(e)
    path.reverse()
    return tuple(path), edges, dist


def _search_case(rng, n, base):
    """An index graph on n + 2 vertices: a random connected graph on n of
    them and an edge between the other two, which no hop path joins to
    the rest.  Weights come from a few values >= base, so ties are
    common, and about one edge in six is at capacity.  Each adjacency
    list is shuffled.  Drawn until src reaches dst over usable edges;
    returns (adj, weight, src, dst, lower bounds, textbook result)."""
    while True:
        label = list(range(n + 2))
        rng.shuffle(label)
        pairs = {(min(a, b), max(a, b))
                 for a, b in zip(label[:n], label[1:n])}
        for _ in range(rng.randrange(0, 3 * n)):
            a, b = rng.sample(label[:n], 2)
            pairs.add((min(a, b), max(a, b)))
        pairs.add((min(label[n:]), max(label[n:])))
        adj = [[] for _ in label]
        weight = []
        for a, b in sorted(pairs):
            adj[a].append((b, len(weight)))
            adj[b].append((a, len(weight)))
            weight.append(witness._UNUSABLE if rng.randrange(6) == 0
                          else rng.choice((base, base, base, 2 * base,
                                           2 * base + 1)))
        for lst in adj:
            rng.shuffle(lst)
        src, dst = rng.sample(label[:n], 2)
        want = _textbook_dijkstra(adj, src, dst, weight)
        if want is not None:
            return adj, weight, src, dst, _lower_bounds(adj, dst, base), want


def _lower_bounds(adj, dst, base):
    hop = {dst: 0}
    layer = [dst]
    while layer:
        nxt = []
        for v in layer:
            for u, _e in adj[v]:
                if u not in hop:
                    hop[u] = hop[v] + 1
                    nxt.append(u)
        layer = nxt
    return [base * hop[v] if v in hop else witness._UNUSABLE
            for v in range(len(adj))]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 14),
       base=st.sampled_from([1, 2, 3, 12]))
def test_search_matches_textbook_dijkstra(seed, n, base):
    rng = random.Random(seed)
    adj, weight, src, dst, h, want = _search_case(rng, n, base)
    w_star = want[2][dst]
    bound = rng.randint(w_star, 2 * w_star)
    got = witness._dijkstra(adj, src, dst, weight, bound, h)
    assert got == want[:2]


def test_search_cases_tie_and_slack():
    """The generator above gives paths through vertices with several
    least-weight predecessors, and bounds above W*."""
    tied = slack = 0
    for seed in range(200):
        rng = random.Random(seed)
        adj, weight, src, dst, h, (path, _edges, dist) = _search_case(
            rng, 2 + seed % 13, 1 + seed % 3)
        tied += any(
            sum(dist.get(v, witness._UNUSABLE) + weight[e] == dist[u]
                for v, e in adj[u]) > 1
            for u in path[1:])
        slack += rng.randint(dist[dst], 2 * dist[dst]) > dist[dst]
    assert tied >= 25 and slack >= 100, (tied, slack)


def test_search_settles_tied_paths_past_dst():
    """Two least paths 9-8-1-0 and 9-3-2-0 under unit weights, where the
    lower bounds are exact: A* pops 3 and 2 before dst 0, and 8 and 1 only
    after it.  Dijkstra's predecessor of 0 is 1, so the search must settle
    the path through 8 and 1 before it traces back."""
    edges = [(9, 8), (8, 1), (1, 0), (9, 3), (3, 2), (2, 0)]
    adj = [[] for _ in range(10)]
    for e, (a, b) in enumerate(edges):
        adj[a].append((b, e))
        adj[b].append((a, e))
    weight = [1] * len(edges)
    want = _textbook_dijkstra(adj, 9, 0, weight)
    assert want[0] == (9, 8, 1, 0)
    got = witness._dijkstra(adj, 9, 0, weight, 3, _lower_bounds(adj, 0, 1))
    assert got == want[:2]
