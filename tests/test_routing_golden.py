"""Routing fingerprints: the routing stack must produce the same flow
paths and values, in the same order, as when these fingerprints were
recorded.

Each entry hashes the flow paths, pairs and exact values of one routing
function on fixed seeded instances: route_level, route_u1_to_uk,
route_demand under both pruning presets, witness_route,
sparsified_route, integral_round and lc_embed.  The demands carry
non-unit rational values, so flow in units of 1/L needs L > 1.

witness-route and sparsified-route run on an identity witness, where
d* = eta* = 1.  host-witness-route and host-sparsified-route run on the
cluster witness of K_82 at Delta = 12, a real embedding with d* = 2
and eta* = 4, and ladder-witness-route and ladder-sparsified-route on
the cluster witness of realize(build(3, 4, 4)) under the golden
options, so the proxy handoff and the translation through the
embeddings that build_decomposition builds are pinned too.

"level-tight" is built so that the admissibility test of the proxy
router is met with equality: in build(32, 2, 1024) every member of one
level-2 star sends its full r_2 = 1 to members of another star, so the
shared proxy of the first child ends at load exactly r_1 = 32.  A strict
comparison there sends the last pair through another child.
"""

import functools
import hashlib
import random
from fractions import Fraction

import pytest

from routerlab import spanner
from routerlab.decompose import PipelineConfig, build_decomposition
from routerlab.graph import Demand, MultiGraph, Routing, verify_routing
from routerlab.pruning import PruningConfig, new_pruned
from routerlab.resilience import integral_round
from routerlab.router_template import build, realize
from routerlab.routing import route_demand, route_level, route_u1_to_uk
from routerlab.witness import sparsified_route, sparsify, witness_route

from _support import identity_witness, u_set

VALUES = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(3, 4),
          Fraction(1), Fraction(5, 6)]


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _flows(r):
    return [(p, pair, val) for p, pair, val in r.flow_paths]


def _pruned(N, k, delta, preset, seed, bundles, copies=1):
    """Router with `copies` copies deleted from each of `bundles` random
    bundles."""
    t = build(N, k, delta)
    s = new_pruned(t, getattr(PruningConfig, preset)(k))
    rng = random.Random(seed)
    ses = [(l, c) for i in range(1, k + 1) for (l, c) in t.superedges(i)]
    for e in rng.sample(ses, bundles):
        for _ in range(copies):
            s.delete_edge(*e)
    assert s.is_properly_pruned().ok
    return t, s


def _demand(rng, verts, cap, tries):
    """Random demand on verts with every vertex total at most cap."""
    d = Demand()
    budget = {v: Fraction(cap) for v in verts}
    for _ in range(tries):
        a, b = rng.sample(verts, 2)
        if d.value(a, b) > 0:
            continue
        val = min(budget[a], budget[b], rng.choice(VALUES) * cap)
        if val > 0:
            d.add(a, b, val)
            budget[a] -= val
            budget[b] -= val
    return d


def level_random():
    t, s = _pruned(4, 2, 4096, "relaxed", 3, 20)
    rng = random.Random(5)
    u2 = sorted(u_set(s, 2))
    d = _demand(rng, u2, Fraction(t.delta, 32 ** 2), 14)
    out = [_flows(route_level(s, 2, d))]
    u1 = [v for v in sorted(u_set(s, 1)) if t.cluster_id(1, v) == 2]
    d1 = _demand(rng, u1, Fraction(t.delta, 32), 4)
    out.append(_flows(route_level(s, 1, d1)))
    return out


def level_tight():
    t, s = _pruned(32, 2, 1024, "relaxed", 0, 0)
    sa, sb = t.star_id(2, 1), t.star_id(2, 2)
    ma, mb = t.star_members(2, sa), t.star_members(2, sb)
    d = Demand()
    for m in range(32):
        d.add(ma[m], mb[m], Fraction(1, 3))
        d.add(ma[m], mb[(m + 1) % 32], Fraction(2, 3))
    return _flows(route_level(s, 2, d))


def u1_to_uk():
    out = []
    for args in [(4, 2, 4096, "relaxed", 8, 20), (3, 3, 512, "paper", 9, 6),
                 (4, 2, 48, "paper", 0, 2, 7)]:
        _t, s = _pruned(*args)
        r, paths = route_u1_to_uk(s)
        out.append((_flows(r), sorted(paths.items())))
    return out


def demand_preset(preset):
    """Two bundles lose 7 of 48 copies: the paper preset's edge budget
    (1/8) prunes them and the relaxed one (1/6) does not."""
    out = []
    for trial, args in enumerate([(4, 2, 48, 0, 2, 7), (5, 2, 48, 0, 2, 7),
                                  (3, 3, 32 ** 3, 17, 8)]):
        N, k, delta = args[:3]
        t, s = _pruned(N, k, delta, preset, *args[3:])
        rng = random.Random(trial)
        cap = Fraction(t.delta, k ** (4 * k))
        d = _demand(rng, sorted(u_set(s, 1)), cap, 16)
        out.append(_flows(route_demand(s, d)))
    return out


def _witness():
    t, s = _pruned(4, 2, 8, "relaxed", 4, 2)
    w = identity_witness(s)
    leaves = [v for v in sorted(w.host.vertices)
              if not t.is_center(v) and w.host.degree(v) >= 1]
    return w, leaves


def witness():
    w, leaves = _witness()
    rng = random.Random(21)
    out = []
    for _ in range(3):
        out.append(_flows(witness_route(w, _demand(rng, leaves, 1, 8))))
    return out


def sparsified():
    w, leaves = _witness()
    sp = sparsify(w, 2 * 2 * w.emb.d_star * 4)
    rng = random.Random(22)
    out = []
    for _ in range(3):
        d = _demand(rng, leaves, Fraction(1, 2), 8)
        out.append(_flows(sparsified_route(sp, w, d)))
    return out


def rounding():
    w, leaves = _witness()
    rng = random.Random(23)
    d = Demand()
    for a, b in zip(leaves[0::2], leaves[1::2]):
        d.add(a, b, rng.randrange(1, 4))
    out = []
    base = witness_route(w, d)
    for seed in range(3):
        out.append(_flows(integral_round(w.host, d, base, 1, 1, seed)))
    # uneven rational splits whose totals differ from the demand
    a, b, c = leaves[:3]
    uneven = Routing()
    for path, val in [((a, b), Fraction(1, 6)), ((a, c, b), Fraction(1, 3)),
                      ((a, 0, b), Fraction(2, 7))]:
        uneven.add(path, (a, b), val)
    uneven.add((a, c), (a, c), Fraction(3, 5))
    uneven.add((a, b, c), (a, c), Fraction(1, 10))
    dd = Demand([(a, b, 9), (a, c, 5)])
    for seed in range(3):
        out.append(_flows(integral_round(w.host, dd, uneven, 1, 1, seed)))
    return out


def _complete(n):
    g = MultiGraph()
    for a in range(n):
        for b in range(a + 1, n):
            g.add_edge(a, b)
    return g


@functools.lru_cache(maxsize=None)
def _k82():
    """The one cluster witness and sparsifier that K_82 at Delta = 12
    decomposes into: d* = 2, eta* = 4, q = 12 and delta' = 1."""
    cfg = PipelineConfig(2, 12, 16, d_cap=2, template_n=3)
    wc = build_decomposition(_complete(82), cfg).clusters[0]
    return wc.witness, wc.sparse


@functools.lru_cache(maxsize=None)
def _ladder():
    """The one cluster witness and sparsifier of realize(build(3, 4, 4))
    under the golden options: d* = eta* = 1, q = 4 and delta' = 2."""
    cfg = PipelineConfig(k=2, delta=4, delta_star=16, d_cap=2, template_n=3)
    wc = build_decomposition(realize(build(3, 4, 4)), cfg).clusters[0]
    return wc.witness, wc.sparse


def _matching(rng, verts, cap, pairs):
    """Random matching of `pairs` pairs on verts, each valued a random
    share of cap."""
    verts = list(verts)
    rng.shuffle(verts)
    return Demand([(a, b, rng.choice(VALUES) * cap)
                   for a, b in zip(verts[:pairs], verts[pairs:2 * pairs])])


def _host_demands(cluster, seed, cap):
    w, _sp = cluster()
    rng = random.Random(seed)
    return [_matching(rng, sorted(w.host.vertices), cap, 8) for _ in range(3)]


def _min_degree(w):
    return min(w.host.degree(v) for v in w.host.vertices)


def host_witness(cluster):
    w, _sp = cluster()
    return [_flows(witness_route(w, d))
            for d in _host_demands(cluster, 31, _min_degree(w))]


def host_sparsified(cluster):
    w, sp = cluster()
    return [_flows(sparsified_route(sp, w, d))
            for d in _host_demands(cluster, 32, sp.delta_star)]


def lc_embed():
    cfg = PipelineConfig(k=2, delta=4, delta_star=16, d_cap=2, template_n=3)
    rd = build_decomposition(realize(build(3, 4, 4)), cfg)
    return [sorted(spanner.lc_embed(rd, seed=seed).paths.items())
            for seed in (3, 4)]


CASES = {
    "level-random": level_random,
    "level-tight": level_tight,
    "u1-to-uk": u1_to_uk,
    "demand-relaxed": lambda: demand_preset("relaxed"),
    "demand-paper": lambda: demand_preset("paper"),
    "witness-route": witness,
    "sparsified-route": sparsified,
    "integral-round": rounding,
    "lc-embed": lc_embed,
    "host-witness-route": lambda: host_witness(_k82),
    "host-sparsified-route": lambda: host_sparsified(_k82),
    "ladder-witness-route": lambda: host_witness(_ladder),
    "ladder-sparsified-route": lambda: host_sparsified(_ladder),
}

# sha256 of each case's repr, recorded before routing moved to integer
# flow units; level-random (re-recorded without its scaled draw when
# route_level lost its scale option) and the two host cases were
# recorded before witness routing handed its proxy demand to the routing
# core directly; the two ladder cases were recorded before graphs were
# built in one pass and the search adjacency on demand
GOLDEN = {
    "demand-paper":
        "f0ac793ac9a5e2cc3872d365eab8aa327ef9ccc753c5f06304f47a23936e161a",
    "demand-relaxed":
        "9a88db8f8b0a5d4220029aa4dd6dd1f988c3a40cb256bf32f03cbcf234b2295a",
    "integral-round":
        "1064213345f2074d96374b15194ebdec426eec0131bbceac83f81d789fb1c86c",
    "lc-embed":
        "a8fa41496ce265e82e9488dcc3b6af992a57d630350498954b5e28b1b3407425",
    "level-random":
        "31de14e42b1aa50dd0bc432a14a0e1fde84f2e82aea47a428cb6661e98adfdb3",
    "level-tight":
        "6a1ee582ae76fd9dc1ffdb62611b70e9cfb0e4b80a2fc602155f0105b9dbf4f7",
    "sparsified-route":
        "d151a7a65b11e0a834cc5c9f33b814cb527f9bf8a1a35dba80855920d3c1c7b5",
    "u1-to-uk":
        "359f6e3691e98d6ab335ddf5f59bc7adb501e336d34a38844bb86b7f20e47775",
    "witness-route":
        "cdcf4c06387cdb4b92c1d1c0271682bda8e8d7a28854509c1fceaa42248b855d",
    "host-sparsified-route":
        "c3f24a1ce5886e60ed50dcb6672dd76c276fd816fb92e5079b4effa61fd405b4",
    "host-witness-route":
        "8ab33fec46a5c58e29f4ec34a1c34f953910cf239c2310d7923b2a0ea0356124",
    "ladder-sparsified-route":
        "8d62a4dc998bf5b74f0f6bf4d7f7b20b25539767527ce51c7304d7f5d01d7352",
    "ladder-witness-route":
        "a9a1001cfa7dbfb6c6b7a1559b8f94761b4f430b88954f6f00b56c2c1de68cf6",
}


def test_host_routes_within_bounds():
    """The routings on the K_82 and ladder witnesses verify against the
    stated bounds, and are not vacuous: some proxy pair joins two
    leaves, so the router routes and its paths are translated, and some
    path has more than two hops."""
    for cluster in (_k82, _ladder):
        w, sp = cluster()
        kh, d_star, eta = w.pruned.t.k, w.emb.d_star, w.emb.eta_star
        max_len = 22 * d_star * kh * kh
        runs = [
            (witness_route, (w,), w.host, w.path_sets, w.q,
             2 * w.alpha * w.beta * kh ** (4 * kh + 1) * d_star * eta,
             _host_demands(cluster, 31, _min_degree(w))),
            (sparsified_route, (sp, w), sp.cprime, sp.qsets, sp.delta_prime,
             8 * sp.gamma * d_star ** 2 * eta * kh ** (4 * kh + 1),
             _host_demands(cluster, 32, sp.delta_star)),
        ]
        for route, args, host, entries, width, max_cong, demands in runs:
            routed = longest = 0
            for d in demands:
                r = route(*args, d)
                vr = verify_routing(host, d, r, max_len, max_cong)
                assert vr.ok, vr.violations[:5]
                longest = max(longest, vr.worst_length)
                routed += sum(entries[a][j][0][1] != entries[b][j][0][1]
                              for a, b in d.values for j in range(width))
            assert routed > 0 and longest > 2, (cluster.__name__,
                                                route.__name__, routed,
                                                longest)


@pytest.mark.parametrize("name", sorted(CASES))
def test_routing_fingerprint(name):
    assert _sha(CASES[name]()) == GOLDEN[name]
