"""Consumers of a router decomposition: the sparse spanner H', its
low-congestion embedding, fault-tolerant distance checks and
connectivity certificates.

A router decomposition splits the host into edge-disjoint clusters, each
carrying a witness and a sparsified subgraph C'.  H' is the union of the
deleted edges and all the C'; every cluster edge then has a short detour
inside its own C', which is what all the checks below lean on.
"""

import math
import random
from fractions import Fraction

from .graph import MultiGraph, Demand, _key, hop_dist
from .resilience import integral_round
from .witness import validate_witness, sparsified_route

FD_LEN_CONST = 32       # fd_spanner_check's detour bound, in units of k * d_t
FD_CHECK_CAP = 10 ** 4  # fd_spanner_check samples this many edges at most


class RouterDecomposition:
    def __init__(self, host, clusters, e_del, delta_star, d_t, eta_t, rho):
        self.host = host
        # clusters in id order; each has id, graph (its edges as a
        # MultiGraph), witness and sparse
        self.clusters = clusters
        self.e_del = e_del      # host edges in no cluster; may be a live view
        self.delta_star = delta_star
        self.d_t = d_t                  # length bound of sparsified_route
        self.eta_t = eta_t              # congestion bound of sparsified_route
        self.rho = rho

    def check_valid(self, witnesses=True):
        """Edge-disjointness, size budgets and, unless witnesses is
        False, witness validity.  Returns a list of violations."""
        errs = []
        owner = {}
        for c in self.clusters:
            for e in c.graph.superedges:
                if e in owner:
                    errs.append(("edge-in-two-clusters", e))
                owner[e] = c.id
        for e in self.host.superedges:
            if (e in owner) == (e in self.e_del):
                errs.append(("partition-broken", e))
        for e in self.e_del:
            if e not in self.host.superedges:
                errs.append(("stale-del-edge", e))
        n = len(self.host.vertices)
        sum_v = sum(len(c.graph.vertices) for c in self.clusters)
        if sum_v > self.rho * n:
            errs.append(("vertex-budget", sum_v))
        sum_e = sum(c.sparse.cprime.num_edges() for c in self.clusters)
        if sum_e > self.rho * self.delta_star * n:
            errs.append(("sparse-edge-budget", sum_e))
        if not witnesses:
            return errs
        for c in self.clusters:
            rep = validate_witness(c.witness)
            if not rep:
                errs.append(("bad-witness", c.id,
                             [x for x in rep.checks if not x[1]][:3]))
        return errs


def _spanner_edges(rd):
    """The edges of H' as a superedge dict, each of multiplicity 1: the
    deleted edges and then each cluster's C' in cluster order, each part
    in sorted order."""
    edges = dict.fromkeys(sorted(rd.e_del), 1)
    for c in rd.clusters:
        edges.update(dict.fromkeys(sorted(c.sparse.cprime.superedges), 1))
    # clusters are edge-disjoint, C' subsets its cluster and E^del holds
    # no cluster edge, so the union must not merge any two edges
    expected = len(rd.e_del) + sum(len(c.sparse.cprime.superedges)
                                   for c in rd.clusters)
    if len(edges) != expected:
        raise AssertionError("spanner size accounting broken")
    return edges


def extract_spanner(rd):
    """H' = deleted edges plus the union of the sparsified clusters,
    deduplicated to a simple graph on the host's vertex set, built in
    one pass (MultiGraph.of) from _spanner_edges."""
    return MultiGraph.of(rd.host.vertices, _spanner_edges(rd))


def _far_detours(h, far):
    """((u, v), hop distance in h or None) for each edge of the sorted
    list far, in that order.  One search per source u, run until its
    partners' distances are final, and only once the pairs before them
    are consumed."""
    partners = {}
    for (u, v) in far:
        partners.setdefault(u, []).append(v)
    for u, vs in partners.items():
        dist = hop_dist(h, u, vs)
        for v in vs:
            yield (u, v), dist.get(v)


def stretch_check(g, h):
    """Max hop stretch of H over the edges of g, with a witness pair:
    the least edge (u, v) of g, u < v, that attains it.

    Checking edges suffices for subgraph spanners: any g-path expands
    edge by edge into H-paths, so pair stretch never exceeds the worst
    edge stretch.  Disconnected edge pairs report stretch infinity.
    An edge of g that H holds has stretch 1, read off H's superedge
    dict with no search; any other edge joins two vertices that are not
    neighbours in H, so its stretch is at least 2, and only those edges
    are searched, grouped by source.  With none, the stretch is 1 and
    the pair is g's least edge.
    """
    hs = h.superedges
    far = sorted(e for e in g.superedges if e not in hs)
    if not far:
        return (1, min(g.superedges)) if g.superedges else (0, None)
    worst = 0
    pair = None
    for e, dh in _far_detours(h, far):
        if dh is None:
            return math.inf, e
        if dh > worst:
            worst = dh
            pair = e
    return worst, pair


class LcEmbedding:
    """Embedding of every host edge into H', with length and congestion
    stats over H' edges."""

    def __init__(self, paths, d, eta):
        self.paths = paths          # host superedge -> path in H'
        self.d = d
        self.eta = eta


def lc_embed(rd, seed=0):
    """Embed E(G) into H': deleted edges map to themselves; cluster
    edges route in their C' at a down-scaled value and are rounded to
    single paths, each of which must stay inside that C'.

    Each deleted edge is its own one-hop path, so the H' edge loads
    start at 1 on E^del.  One pass over each cluster's rounded paths
    then checks that they stay in C' and adds them to the loads and to
    the longest path length d."""
    n = len(rd.host.vertices)
    logn = max(1, (max(n, 2) - 1).bit_length())
    paths = {e: e for e in sorted(rd.e_del)}
    loads = dict.fromkeys(rd.e_del, 1)
    d_obs = 1
    one = Fraction(1)
    for c in rd.clusters:
        edges = sorted(c.graph.superedges)
        if not edges:
            continue
        # c.graph is the witness's host, whose max degree it keeps
        dmax = c.witness.max_degree
        # unit demand per edge is dmax-restricted; scale to delta_star
        d, scaled = Demand(), Demand()
        d.values = dict.fromkeys(edges, one)
        scaled.values = dict.fromkeys(edges,
                                      min(Fraction(rd.delta_star, dmax), one))
        frac = sparsified_route(c.sparse, c.witness, scaled)
        rounded = integral_round(c.sparse.cprime, d, frac, 1, rd.eta_t,
                                 seed=seed)
        cprime = c.sparse.cprime.superedges
        for p, pr, _val in rounded.flow_paths:
            d_obs = max(d_obs, len(p) - 1)
            for a, b in zip(p, p[1:]):
                key = (a, b) if a < b else (b, a)
                if key not in cprime:
                    raise AssertionError("embedded path leaves C'")
                loads[key] = loads.get(key, 0) + 1
            paths[_key(*pr)] = p
    eta_obs = max(loads.values(), default=1)
    if d_obs > rd.d_t:
        raise AssertionError("lc embedding length bound broken")
    # the bound is max(16*eta_t*dmax_g/delta_star, 16*log n); the host's
    # degrees are summed only when eta_obs exceeds the second term
    if eta_obs > 16 * logn and eta_obs > Fraction(
            16 * rd.eta_t * max((rd.host.degree(v) for v in rd.host.vertices),
                                default=1), rd.delta_star):
        raise AssertionError("lc embedding congestion bound broken")
    return LcEmbedding(paths, d_obs, eta_obs)


def fd_spanner_check(rd, faults, k, seed=0):
    """For host edges surviving the faults: their detour length in H'
    minus the faults, against the resilient-routing length bound
    FD_LEN_CONST * k * d_t.  faults is an iterable of edges (u, v), such
    as a FaultSet; a faulted edge is removed with all its copies, as H'
    is simple.  Over FD_CHECK_CAP surviving edges, that many are
    checked, sampled by seed.

    A checked edge is no fault, so when H' holds it, it is an edge of
    H' minus the faults and its detour is 1, found with no search.  That
    membership is read off an unsorted set of H''s edges (E^del and
    each C').  Any other checked edge joins two vertices that are not
    neighbours there, so its detour is at least 2, or it is cut off.
    Only those far edges are sorted and searched, grouped by source,
    and H' minus the faults is built as a graph only when there is one.
    The worst pair is the least checked edge of the largest detour: a
    detour of 1 comes from the least checked edge H' holds, which a
    longer detour replaces.  A sample is drawn from the sorted surviving
    edges, so the seed picks the same edges whatever the set's order."""
    bound = FD_LEN_CONST * k * rd.d_t
    fe = {_key(u, v) for u, v in faults}
    check = [e for e in rd.host.superedges if e not in fe]
    if len(check) > FD_CHECK_CAP:
        rng = random.Random(seed)
        check = rng.sample(sorted(check), FD_CHECK_CAP)
    held = set(rd.e_del)
    for c in rd.clusters:
        held.update(c.sparse.cprime.superedges)
    near = [e for e in check if e in held]
    worst = 1 if near else 0
    worst_pair = min(near, default=None)
    # a detour of 1 breaks the bound only when the bound is below 1
    far = sorted(check if bound < 1 else [e for e in check if e not in held])
    violations = []
    if far:
        edges = _spanner_edges(rd)
        for e in fe:
            edges.pop(e, None)
        hf = MultiGraph.of(rd.host.vertices, edges)
        for e, dh in _far_detours(hf, far):
            if dh is None or dh > bound:
                violations.append((e, dh))
            if dh is not None and dh > worst:
                worst = dh
                worst_pair = e
    return {"checked": len(check), "bound": bound, "max_detour": worst,
            "worst_pair": worst_pair, "violations": violations,
            "ok": not violations}


def _components(g):
    """Component id of every vertex, ids numbered in order of each
    component's least vertex."""
    comp = {}
    cid = 0
    for v in sorted(g.vertices):
        if v not in comp:
            comp.update(dict.fromkeys(hop_dist(g, v), cid))
            cid += 1
    return comp


def connectivity_certificate_check(g, h, faults):
    """True iff g and h, both minus the faults, have the same connected
    components on V(g).  faults is an iterable of edges (u, v), such as a
    FaultSet; a faulted edge is removed with all its copies."""
    fe = {_key(u, v) for u, v in faults}
    cg = _components(g.without_edges(fe))
    ch = _components(h.without_edges(fe))
    for v in g.vertices:
        if v not in ch:
            return False
    rep = {}
    for v in sorted(g.vertices):
        key = (cg[v])
        if key not in rep:
            rep[key] = ch[v]
        elif rep[key] != ch[v]:
            return False
    return len(set(rep.values())) == len(rep)

