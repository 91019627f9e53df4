"""The witness passes that walk each distinct host path once, weighted by
its copies, against the per-copy references in _support: the same
checks, loads, d*, eta*, path index, path counts and C' edge order, on
the ladder's cluster witnesses, on K_82 and on corrupted witnesses.
Proxy routing, which settles steps shared by every copy once per call,
against the unit-by-unit translation on the same witnesses and on a
detour embedding."""

import copy
import random
from collections import Counter
from fractions import Fraction

import pytest

from routerlab import witness
from routerlab.decompose import PipelineConfig, build_decomposition
from routerlab.graph import Demand, MultiGraph, verify_routing
from routerlab.pruning import PruningConfig, new_pruned
from routerlab.router_template import build, realize
from routerlab.witness import (Embedding, RouterWitness, _congestion,
                               sparsified_route, sparsify, validate_witness,
                               witness_route)

from _support import (cprime_edges_ref, edge_loads_ref, path_counts_ref,
                      path_sets_ref, proxy_route_ref, validate_witness_ref)

LADDER_CFG = dict(k=2, delta=4, delta_star=16, d_cap=2, template_n=3,
                  batch_bound=6)
K82_CFG = dict(k=2, delta=12, delta_star=16, d_cap=2, template_n=3)


def _clusters(name):
    if name == "K82":
        g = MultiGraph()
        for u in range(82):
            for v in range(u + 1, 82):
                g.add_edge(u, v)
        return build_decomposition(g, PipelineConfig(**K82_CFG)).clusters
    k = int(name.split(",")[1])
    rd = build_decomposition(realize(build(3, k, 4)),
                             PipelineConfig(**LADDER_CFG))
    return rd.clusters


HOSTS = ["router(3,4,4)", "router(3,5,4)", "router(3,6,4)", "K82"]


@pytest.fixture(scope="module")
def built():
    return {name: _clusters(name) for name in HOSTS}


def _same_witness_work(w):
    """validate_witness and the embedding's loads, d* and eta* of
    witness w equal their per-copy references."""
    emb = w.emb
    assert validate_witness(w).checks == validate_witness_ref(w).checks
    loads = edge_loads_ref(emb)
    assert list(emb.edge_loads().items()) == list(loads.items())
    assert emb.d_star == max(max(len(p) - 1 for p in emb.paths.values()), 1)
    assert emb.eta_star == _congestion(loads, w.host)


def _sharing(w):
    """(bundles whose copies take two or more distinct paths, paths
    carrying two or more copies) of witness w."""
    by_bundle = {}
    by_path = {}
    for (i, leaf, _c), p in w.emb.paths.items():
        by_bundle.setdefault((i, leaf), set()).add(p)
        by_path[p] = by_path.get(p, 0) + 1
    return (sum(len(ps) > 1 for ps in by_bundle.values()),
            sum(n > 1 for n in by_path.values()))


def test_grouped_passes_match_per_copy_reference(built):
    split = shared = 0
    for name in HOSTS:
        clusters = built[name]
        assert clusters, name
        for wc in clusters:
            w = wc.witness
            _same_witness_work(w)
            assert w.path_sets == path_sets_ref(w.host, w.emb)
            assert list(wc.path_counts().items()) == list(
                path_counts_ref(wc).items())
            assert list(wc.sparse.cprime.superedges) == cprime_edges_ref(
                w, wc.sparse)
            b, p = _sharing(w)
            split += b
            shared += p
    # the grouping is tested both ways: some bundle spreads its copies
    # over several paths, and some path carries several copies
    assert split > 0 and shared > 0, (split, shared)


def test_path_index_holds_first_positions(built):
    """Every index entry (key, idx) of v gives v's first position on
    its path.  K_82's witness has entries strictly inside multi-hop
    paths among a vertex's first q, and witness_route hands a unit of
    such a vertex off along the path prefix reversed."""
    inner = []
    for name in HOSTS:
        for wc in built[name]:
            w = wc.witness
            for v, entries in w.path_sets.items():
                for j, (key, idx) in enumerate(entries):
                    p = w.emb.paths[key]
                    assert p[idx] == v and v not in p[:idx]
                    if name == "K82" and j < w.q and 0 < idx < len(p) - 1:
                        inner.append((w, v, j, p, idx))
    assert inner
    w, a, j, p, idx = inner[0]
    b = max(w.host.vertices)
    assert a < b
    r = witness_route(w, Demand([(a, b, 1)]))
    k, d_star = w.pruned.t.k, w.emb.d_star
    assert verify_routing(w.host, Demand([(a, b, 1)]), r,
                          22 * d_star * k * k,
                          2 * w.alpha * w.beta * k ** (4 * k + 1) * d_star
                          * w.emb.eta_star)
    assert r.flow_paths[j][0][:idx + 1] == p[idx::-1]


@pytest.mark.parametrize("delta_star", [32, 48])
def test_cprime_walks_every_selected_copy(built, delta_star):
    """With delta' >= 2 copies per bundle, C' holds edges that only a
    bundle's later copies use, and keeps them in order of first use."""
    w = built["K82"][0].witness
    sp = sparsify(w, delta_star)
    assert sp.delta_prime >= 2
    want = cprime_edges_ref(w, sp)
    assert list(sp.cprime.superedges) == want
    first_copies = copy.copy(sp)
    first_copies.delta_prime = 1
    assert len(cprime_edges_ref(w, first_copies)) < len(want)


def _corrupt(w, paths=None, beta=None):
    """A shallow copy of witness w with other paths or another beta;
    the copy is never validated at construction."""
    bad = copy.copy(w)
    if paths is not None:
        bad.emb = Embedding(w.emb.vertex_map, paths, w.host)
    if beta is not None:
        bad.beta = beta
    return bad


def _shared_copy(w):
    """A key whose path is shared with another copy, and that path."""
    seen = {}
    for key, p in sorted(w.emb.paths.items()):
        if p in seen:
            return key, p
        seen[p] = key
    raise AssertionError("no shared path")


CORRUPTIONS = ["wrong-endpoint", "non-host-edge", "missing-copy",
               "extra-key", "beta"]


@pytest.mark.parametrize("how", CORRUPTIONS)
@pytest.mark.parametrize("name", HOSTS)
def test_corrupted_witness_matches_per_copy_reference(built, name, how):
    w = built[name][0].witness
    host = w.host
    key, p = _shared_copy(w)
    paths = dict(w.emb.paths)
    if how == "wrong-endpoint":
        # one copy of a shared path ends at another neighbour of its
        # last-but-one vertex
        u = min(x for x in host.neighbors(p[-2]) if x not in p)
        paths[key] = p[:-1] + (u,)
        bad = _corrupt(w, paths)
        want = "paths-well-formed"
    elif how == "non-host-edge":
        # one copy of a shared path detours through a vertex outside
        # the host
        paths[key] = (p[0], max(host.vertices) + 1, p[-1])
        bad = _corrupt(w, paths)
        want = "paths-well-formed"
    elif how == "missing-copy":
        del paths[key]
        bad = _corrupt(w, paths)
        want = "one-path-per-live-copy"
    elif how == "extra-key":
        i, leaf, _c = key
        paths[(i, leaf, w.pruned.t.delta)] = p
        bad = _corrupt(w, paths)
        want = "one-path-per-live-copy"
    else:
        bad = _corrupt(w, beta=Fraction(1, 2))
        want = "beta-at-least-one"
    got = validate_witness(bad)
    assert want in [c[0] for c in got.checks if not c[1]]
    _same_witness_work(bad)
    if bad.emb is not w.emb:
        # built as a witness, the corruption is named, not a crash
        with pytest.raises(ValueError, match="invalid witness: .*" + want):
            RouterWitness(host, w.pruned, bad.emb)


def _against_reference(monkeypatch, route):
    """Run route() with every _proxy_route call checked, entry by entry,
    against proxy_route_ref on the same arguments.  Returns the number
    of checked calls and a Counter of the walks' steps by kind: fixed
    (every copy spread over takes one host path) or balanced."""
    kinds = Counter()
    walk, proxy_route = witness._walk, witness._proxy_route

    def counted_walk(steps, wpath):
        for xy in zip(wpath, wpath[1:]):
            kinds["fixed" if steps[xy][0] is None else "balanced"] += 1
        return walk(steps, wpath)

    calls = []

    def checked(*args):
        got = proxy_route(*args)
        assert got.flow_paths == proxy_route_ref(*args).flow_paths
        calls.append(len(got.flow_paths))
        return got

    monkeypatch.setattr(witness, "_walk", counted_walk)
    monkeypatch.setattr(witness, "_proxy_route", checked)
    route()
    assert calls and all(calls)
    return len(calls), kinds


def test_sparsified_route_matches_reference_on_fixed_steps(built,
                                                           monkeypatch):
    """lc_embed's demand (a scaled unit on every cluster edge) on the
    ladder's cluster witnesses: every copy of a bundle takes its direct
    host edge, so every step is fixed."""
    clusters = [wc for name in HOSTS[:3] for wc in built[name]]

    def route():
        for wc in clusters:
            graph = wc.witness.host
            d = Demand()
            d.values = dict.fromkeys(
                sorted(graph.superedges),
                min(Fraction(LADDER_CFG["delta_star"],
                             wc.witness.max_degree), Fraction(1)))
            sparsified_route(wc.sparse, wc.witness, d)

    calls, kinds = _against_reference(monkeypatch, route)
    assert calls == len(clusters) == 3
    assert kinds["fixed"] > 0 and kinds["balanced"] == 0, kinds


def test_witness_route_matches_reference_on_balanced_steps(built,
                                                           monkeypatch):
    """Ten unit pairs through K_82's witness over all live copies: its
    copies mostly take host paths of their own, so every step is
    balanced and units take the least-loaded copy."""
    w = built["K82"][0].witness
    rng = random.Random(10)
    pairs = set()
    while len(pairs) < 10:
        a, b = sorted(rng.sample(sorted(w.host.vertices), 2))
        pairs.add((a, b, 1))
    d = Demand(sorted(pairs))
    _calls, kinds = _against_reference(monkeypatch,
                                       lambda: witness_route(w, d))
    assert kinds["balanced"] > 0 and kinds["fixed"] == 0, kinds


def _detour_router():
    """build(3,2,2) embedded on its own ids, each bundle's copy 0 along
    the direct edge and copy 1 through a host vertex of its own (the
    embedding of test_witness's least-loaded copy test)."""
    t = build(3, 2, 2)
    s = new_pruned(t, PruningConfig.relaxed(2))
    host = MultiGraph()
    paths = {}
    for n, (i, leaf) in enumerate(sorted(s.live_bundles())):
        center = t.level_center(i, leaf)
        paths[(i, leaf, 0)] = (leaf, center)
        paths[(i, leaf, 1)] = (leaf, 100 + n, center)
        host.add_edge(leaf, center)
        host.add_edge(leaf, 100 + n)
        host.add_edge(100 + n, center)
    emb = Embedding({v: v for v in t.vertices()}, paths, host)
    entries = {v: [((1, v, 0), 0)] for v in t.vertices()
               if not t.is_center(v)}
    return s, emb, entries


@pytest.mark.parametrize("spread", ["alternate", "all"])
def test_mixed_steps_match_reference(monkeypatch, spread):
    """On the detour embedding, bundles spread over one copy give fixed
    steps and bundles spread over both copies balanced ones; walks mix
    them, with fixed runs before, between and after balanced steps."""
    s, emb, entries = _detour_router()
    live = sorted(s.live_bundles())
    copies = ({b: 1 + n % 2 for n, b in enumerate(live)}
              if spread == "alternate" else dict.fromkeys(live, 2))
    leaves = sorted(entries)
    d = Demand([(a, b, 1 + (a * b) % 3) for a in leaves for b in leaves
                if a < b])
    _calls, kinds = _against_reference(
        monkeypatch,
        lambda: witness._proxy_route(s, emb, entries, 1, d, 10 ** 6, copies))
    assert kinds["balanced"] > 0, kinds
    if spread == "alternate":
        assert kinds["fixed"] > 0, kinds
