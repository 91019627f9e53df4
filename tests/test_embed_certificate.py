"""The embedding search's up-front fake certificate.

A copy whose mapped ends lie more than d_max hops apart in the unloaded
host has no usable path of at most d_max hops under any load, so it is
fake.  witness._embed_with_map gives up before searching when those
copies alone exceed the fake budget.  Here F, the number of such copies,
is counted with a plain breadth-first search, and _embed_with_map must
agree with the rational reference of test_embed_search at budgets on
both sides of F; when F exceeds the budget it must run no search.
"""

import random
from collections import Counter, deque

from routerlab import decompose, witness
from routerlab.decompose import PipelineConfig, build_decomposition
from routerlab.graph import MultiGraph
from routerlab.router_template import build, realize

from test_embed_search import (ETAS, LARGE, _outcome, _random_host,
                               _ref_embed_with_map)

# the pipeline options of test_embed_golden
CFG = dict(k=2, delta=4, delta_star=16, d_cap=2, template_n=3)
SEARCHES = ("_dijkstra", "_hop_path", "hop_dist")


def _far_fakes(c, t, vm, d_max):
    """Delta times the bundles whose mapped ends are more than d_max hops
    apart in c."""
    far = 0
    for i in range(1, t.k + 1):
        for (leaf, center) in t.superedges(i):
            dist = {vm[center]: 0}
            queue = deque([vm[center]])
            while queue:
                v = queue.popleft()
                for u in c.neighbors(v):
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        queue.append(u)
            far += dist.get(vm[leaf], d_max + 1) > d_max
    return far * t.delta


def _cut_realized_host(rng, t):
    """The template's realization with random multiplicities, a few of
    its bundle edges removed and a few extra edges added, so that some
    bundles are far and some removed ones are still near."""
    base = realize(t)
    edges = sorted(base.superedges)
    cut = set(rng.sample(edges, rng.randint(1, max(1, len(edges) // 3))))
    g = MultiGraph()
    for v in base.vertices:
        g.add_vertex(v)
    for (a, b) in edges:
        if (a, b) not in cut:
            g.add_edge(a, b, rng.randint(1, 5))
    verts = sorted(g.vertices)
    for _ in range(rng.randrange(0, len(verts) // 2 + 1)):
        a, b = rng.sample(verts, 2)
        if not g.has_edge(a, b) and (min(a, b), max(a, b)) not in cut:
            g.add_edge(a, b, rng.randint(1, 5))
    return g


def _counting(monkeypatch, module, names):
    calls = Counter()
    for name in names:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_certificate_matches_rational_reference(monkeypatch):
    rng = random.Random(20261019)
    calls = _counting(monkeypatch, witness, SEARCHES)
    seen = Counter()
    for trial in range(300):
        delta = rng.randint(1, 4)
        t = rng.choice([build(3, 1, delta), build(2, 2, delta),
                        build(3, 2, 2)])
        tv = sorted(t.vertices())
        if trial % 2 == 0:
            c = _cut_realized_host(rng, t)
            vm = {v: v for v in tv}
        else:
            c = _random_host(rng, len(tv))
            vm = dict(zip(tv, rng.sample(sorted(c.vertices), len(tv))))
        d_max = rng.randint(1, 3)
        eta = rng.choice(ETAS)
        f = _far_fakes(c, t, vm, d_max)
        for budget in sorted({0, max(f - 1, 0), f, f + 1, LARGE}):
            want = _outcome(_ref_embed_with_map(
                c, t, vm, d_max, eta, budget, Counter()))
            calls.clear()
            got = _outcome(witness._embed_with_map(
                c, t, vm, d_max, eta, budget))
            assert got == want, (trial, d_max, eta, budget)
            seen["cases"] += 1
            if f > budget:
                # the certificate decides it: nothing is searched
                assert not calls, (trial, budget, calls)
                seen["fired"] += 1
            elif want is None:
                seen["searched_none"] += 1
            elif f:
                seen["accepted_far"] += 1
    assert seen["fired"] >= 100, seen
    assert seen["searched_none"] >= 50, seen
    assert seen["accepted_far"] >= 50, seen


def test_doomed_pipeline_runs_no_search(monkeypatch):
    """On realize(build(4,4,4)) every embedding the pipeline tries has
    more far copies than its budget, so none is searched."""
    calls = _counting(monkeypatch, witness, SEARCHES)
    embeds = _counting(monkeypatch, decompose, ["greedy_embed"])
    rd = build_decomposition(realize(build(4, 4, 4)), PipelineConfig(**CFG))
    assert embeds["greedy_embed"] > 0 and not rd.clusters
    assert not calls, calls


def test_direct_edges_skip_the_certificate(monkeypatch):
    """On realize(build(3,5,4)) every bundle keeps its direct edge, so the
    certificate runs no breadth-first search."""
    balls = _counting(monkeypatch, witness, ["ball"])
    embeds = _counting(monkeypatch, decompose, ["greedy_embed"])
    host = realize(build(3, 5, 4))
    rd = build_decomposition(host, PipelineConfig(**CFG))
    assert embeds["greedy_embed"] > 0 and rd.clusters
    got = witness.greedy_embed(host, build(3, 5, 4), 1, 4, 0)
    assert got is not None and not got[1]
    assert not balls, balls
