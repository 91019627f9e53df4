"""Helpers only the tests use: independent cross-check oracles and
small accessors the library itself never needs.

- dist_matrix / enum_paths: exact small-instance oracles.
- approx_feasible / router_probe: an approximate concurrent-flow
  feasibility test and an adversarial search over restricted demands.
  The feasibility test packs flow on the explicit path system produced
  by enum_paths, using the usual multiplicative-weights scheme.  It is
  only approximate, so negative guarantees elsewhere always go through
  the exact verifier; here the contract is one-sided: a demand that
  some verified routing realizes must never be called infeasible.
- identity_witness, total_at, check_invariants.
- u_set, num_stars: membership and star-count accessors.
- thinned_reference: the pruned router rebuilt with thinner bundles,
  the reference for sparsified routing's scale identity.
- validate_witness_ref, edge_loads_ref, path_sets_ref, path_counts_ref,
  cprime_edges_ref: the witness passes as they walked every edge copy
  before they grouped copies by distinct host path; the reference the
  grouped passes are compared with.

Test modules import these with `from _support import ...`; pytest puts
this directory on sys.path.
"""

from fractions import Fraction

from routerlab.graph import Demand, _key, hop_dist
from routerlab.pruning import CheckReport, PrunedRouter, _ceil_mul
from routerlab.router_template import build
from routerlab.witness import (Embedding, RouterWitness, WitnessReport,
                               _congestion)


class CapExceeded(ValueError):
    pass


def dist_matrix(g, cap=4000):
    """All-pairs hop distances by BFS from every vertex."""
    if len(g.vertices) > cap:
        raise CapExceeded("vertex cap exceeded")
    return {s: hop_dist(g, s) for s in sorted(g.vertices)}


def enum_paths(g, u, v, d, cap=200000):
    """All simple u-v paths with at most d edges, by bounded DFS."""
    if u not in g.vertices or v not in g.vertices:
        raise KeyError("endpoint not in graph")
    out = []
    stack = [(u, (u,))]
    while stack:
        x, path = stack.pop()
        if x == v:
            out.append(path)
            if len(out) > cap:
                raise CapExceeded("path cap exceeded")
            continue
        if len(path) - 1 >= d:
            continue
        for y in sorted(g.neighbors(x), reverse=True):
            if y not in path:
                stack.append((y, path + (y,)))
    return out


class FeasibilityReport:
    def __init__(self, feasible, ratio, flow, dual):
        self.feasible = feasible
        self.ratio = ratio          # achieved concurrent throughput
        self.flow = flow            # {pair: {path: value}}
        self.dual = dual            # None, or (edges, total weight) witness

    def __bool__(self):
        return self.feasible


def approx_feasible(g, demand, d, eta, eps=Fraction(1, 20), iters=None,
                    cap=200000):
    """Can the demand be routed via paths of <= d edges with congestion
    <= eta?  Multiplicative-weights packing over the explicit path
    system; answers up to a (1 - eps) factor."""
    eps = Fraction(eps)
    eta = Fraction(eta)
    pairs = sorted(demand.values.items())
    if not pairs:
        return FeasibilityReport(True, Fraction(1), {}, None)
    systems = {}
    for (a, b), _val in pairs:
        ps = enum_paths(g, a, b, d, cap)
        if not ps:
            return FeasibilityReport(False, Fraction(0), {},
                                     ((a, b), "no path of length <= %d" % d))
        systems[(a, b)] = ps
    caps = {e: eta * m for e, m in g.superedges.items()}
    weights = {e: 1.0 / float(c) for e, c in caps.items()}
    flow = {pair: {} for pair, _ in pairs}
    if iters is None:
        iters = max(40, int(8 / float(eps)))
    epsf = float(eps) / 4

    def path_weight(p):
        return sum(weights[_key(a, b)] for a, b in zip(p, p[1:]))

    for _round in range(iters):
        for (pair, val) in pairs:
            p = min(systems[pair], key=lambda q: (path_weight(q), q))
            flow[pair][p] = flow[pair].get(p, Fraction(0)) + val
            for a, b in zip(p, p[1:]):
                e = _key(a, b)
                weights[e] *= 1.0 + epsf * float(val / caps[e])
    # scale the accumulated flow back to feasibility
    worst = Fraction(0)
    loads = {}
    for pair, paths in flow.items():
        for p, v in paths.items():
            for a, b in zip(p, p[1:]):
                e = _key(a, b)
                loads[e] = loads.get(e, Fraction(0)) + v
    for e, load in loads.items():
        worst = max(worst, load / caps[e])
    # every pair accumulated iters*val flow; throughput is limited by the
    # most loaded edge
    ratio = Fraction(iters) / worst if worst > 0 else Fraction(1)
    scale = Fraction(1) / max(worst, Fraction(iters))
    out_flow = {pair: {p: v * scale for p, v in paths.items()}
                for pair, paths in flow.items()}
    feasible = ratio >= 1 - eps
    if not feasible and iters < 2000:
        # MW may just not have converged; one deeper pass before giving
        # a negative verdict
        return approx_feasible(g, demand, d, eta, eps, iters=8 * iters,
                               cap=cap)
    dual = None
    if not feasible:
        hot = sorted(loads, key=lambda e: -(loads[e] / caps[e]))[:5]
        dual = (hot, float(sum(weights[e] for e in hot)))
    return FeasibilityReport(feasible, ratio, out_flow, dual)


def _restricted_value(w, a, b, used):
    room_a = w[a] - used.get(a, Fraction(0))
    room_b = w[b] - used.get(b, Fraction(0))
    return min(room_a, room_b)


def _candidate_demands(g, weight):
    verts = sorted(g.vertices)
    # exact, since the star demand divides weights
    w = {v: Fraction(weight(v)) for v in verts}
    out = []
    # greedy matching over vertex pairs
    d = Demand()
    used = {}
    for a, b in zip(verts[::2], verts[1::2]):
        val = _restricted_value(w, a, b, used)
        if val > 0:
            d.add(a, b, val)
            used[a] = used.get(a, Fraction(0)) + val
            used[b] = used.get(b, Fraction(0)) + val
    if len(d):
        out.append(("matching", d))
    # star-concentrated on the max-weight vertex
    c = max(verts, key=lambda v: (w[v], v))
    d = Demand()
    others = [v for v in verts if v != c]
    if others:
        share = w[c] / len(others)
        for v in others:
            val = min(share, w[v])
            if val > 0:
                d.add(c, v, val)
        if len(d):
            out.append(("star", d))
    # A/B bisection matched in order
    half = len(verts) // 2
    a_side, b_side = verts[:half], verts[half:]
    d = Demand()
    used = {}
    for a, b in zip(a_side, b_side):
        val = _restricted_value(w, a, b, used)
        if val > 0:
            d.add(a, b, val)
            used[a] = used.get(a, Fraction(0)) + val
            used[b] = used.get(b, Fraction(0)) + val
    if len(d):
        out.append(("bisection", d))
    return out


def router_probe(g, w, d, eta, eps=Fraction(1, 20)):
    """Adversarial search over extremal restricted demands, each vertex
    v's total at most w(v); reports the hardest one found for the
    (d, eta) routing definition."""
    worst = None
    for name, dem in _candidate_demands(g, w):
        rep = approx_feasible(g, dem, d, eta, eps)
        if worst is None or rep.ratio < worst[2].ratio:
            worst = (name, dem, rep)
    if worst is None:
        return {"demand": None, "kind": "empty", "feasible": True,
                "ratio": Fraction(1)}
    name, dem, rep = worst
    return {"demand": dem, "kind": name, "feasible": rep.feasible,
            "ratio": rep.ratio, "dual": rep.dual}


def identity_witness(s):
    """Witness for the pruned router embedded into its own realization:
    every surviving copy maps to itself."""
    host = s.current_graph()
    t = s.t
    vm = {v: v for v in host.vertices}
    paths = {}
    for (i, leaf), copies in sorted(s.live_bundles().items()):
        center = t.level_center(i, leaf)
        for c in range(copies):
            paths[(i, leaf, c)] = (leaf, center)
    return RouterWitness(host, s, Embedding(vm, paths, host))


def total_at(d, v):
    """Sum of demand d's values on the pairs that have v as an endpoint."""
    return sum((val for (a, b), val in d.values.items() if v == a or v == b),
               Fraction(0))


def check_invariants(s):
    """Per-phase invariants on pruned router s's live counters (I1..I3)."""
    t = s.t
    viol = []
    for (i, leaf), n in s.n_edge.items():
        if s.in_u(leaf, i) and n > s.edge_budget:
            viol.append(("I1", i, leaf, n))
    for (i, st), n in s.n_star.items():
        if s.in_u(t.star_center(i, st), i) and n > s.star_budget:
            viol.append(("I2", i, st, n))
    for (lv, c), hn in s.hn.items():
        vs = t.cluster_vertices(lv, c)
        if any(s.in_u(x, 1) for x in vs):
            left = t.N ** lv - s.n2.get((lv, c), 0)
            if left < _ceil_mul(s.cfg.cluster_survival_frac, hn):
                viol.append(("I3", lv, c, left, hn))
    return CheckReport(viol)


def u_set(s, i):
    """U_i of pruned router s."""
    return {v for v in s.t.vertices() if s.in_u(v, i)}


def num_stars(t, level):
    """Stars per level of template t: N^(k-1) at every level."""
    return t.N ** (t.k - 1)


def thinned_reference(s, delta_prime):
    """A new router over the template with bundles of delta_prime
    copies, carrying s's membership sets and destroyed marks, in which
    every live bundle holds delta_prime copies and every other bundle
    is out of W.  s is left unchanged."""
    t = s.t
    view = PrunedRouter(build(t.N, t.k, delta_prime), s.cfg)
    view.mask = dict(s.mask)
    view.star_destroyed = set(s.star_destroyed)
    view.cluster_destroyed = set(s.cluster_destroyed)
    view.n2 = dict(s.n2)
    live = s.live_bundles()
    for key in view.in_w:
        view.in_w[key] = key in live
        view.rem[key] = delta_prime if key in live else 0
    return view


def edge_loads_ref(emb):
    """Paths through each host edge, summed copy by copy."""
    loads = {}
    for p in emb.paths.values():
        for a, b in zip(p, p[1:]):
            e = _key(a, b)
            loads[e] = loads.get(e, 0) + 1
    return loads


def validate_witness_ref(w):
    """validate_witness walking every copy's path: same checks, same
    order, the loads from edge_loads_ref."""
    checks = []
    host, emb, s = w.host, w.emb, w.pruned
    t = s.t
    images = list(emb.vertex_map.values())
    checks.append(("vertex-map-injective", len(set(images)) == len(images), None))
    bad = []
    for key, p in emb.paths.items():
        i, leaf, _c = key
        center = t.level_center(i, leaf)
        if t.is_center(leaf) or not t.is_center(center):
            bad.append(("edge-shape", key))
        if p[0] != emb.vertex_map.get(leaf) or p[-1] != emb.vertex_map.get(center):
            bad.append(("endpoints", key))
        for a, b in zip(p, p[1:]):
            if not host.has_edge(a, b):
                bad.append(("missing-host-edge", key, (a, b)))
    checks.append(("paths-well-formed", not bad, bad[:5]))
    want = {(i, leaf, c) for (i, leaf), copies in s.live_bundles().items()
            for c in range(copies)}
    have = set(emb.paths)
    checks.append(("one-path-per-live-copy", want == have,
                   (len(want - have), len(have - want))))
    loads = edge_loads_ref(emb)
    uncovered = [e for e in host.superedges if e not in loads]
    checks.append(("every-host-edge-covered", not uncovered, uncovered[:5]))
    q = w.q
    counts = {v: 0 for v in host.vertices}
    for p in emb.paths.values():
        for v in set(p):
            if v in counts:
                counts[v] += 1
    low = [v for v, c in counts.items() if c < q]
    checks.append(("path-count-at-least-q", not low, low[:5]))
    cap = w.alpha * t.delta
    high = [v for v in host.vertices if host.degree(v) > cap]
    checks.append(("degree-at-most-alpha-delta", not high, high[:5]))
    checks.append(("beta-at-least-one", w.beta >= 1, w.beta))
    d_star = max(max((len(p) - 1 for p in emb.paths.values()), default=1), 1)
    eta = _congestion(loads, host)
    checks.append(("stats-consistent",
                   emb.d_star == d_star and emb.eta_star == eta,
                   (emb.d_star, d_star, emb.eta_star, eta)))
    pp = s.is_properly_pruned()
    checks.append(("properly-pruned", bool(pp), getattr(pp, "violations", None)))
    return WitnessReport(checks)


def path_sets_ref(host, emb):
    """A witness's path index built copy by copy: per host vertex, one
    (key, first position on the path) entry per path through it, in key
    order."""
    out = {v: [] for v in host.vertices}
    for key in sorted(emb.paths):
        p = emb.paths[key]
        for idx, v in enumerate(p):
            if v in out and v not in p[:idx]:
                out[v].append((key, idx))
    return out


def path_counts_ref(wc):
    """Surviving paths through each host vertex of a witnessed cluster,
    counted copy by copy."""
    counts = {}
    for p in (p for key in sorted(wc.bundles) for p in wc.bundles[key]):
        for v in set(p):
            counts[v] = counts.get(v, 0) + 1
    return counts


def cprime_edges_ref(w, sp):
    """sparsify's C' edges in order of first use, walking the selected
    entries' paths and then copies 0 .. delta_prime-1 of every live
    bundle, copy by copy."""
    edges = {}

    def add_path(p):
        for a, b in zip(p, p[1:]):
            edges[_key(a, b)] = 1

    for entries in sp.qsets.values():
        for key, _idx in entries:
            add_path(w.emb.paths[key])
    for (i, leaf) in w.pruned.live_bundles():
        for c in range(sp.delta_prime):
            add_path(w.emb.paths[(i, leaf, c)])
    return list(edges)
