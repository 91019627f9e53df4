"""Router witnesses: embeddings of a pruned router into a host graph,
and routing host demands through them.

An embedding maps router vertices to distinct host vertices and assigns
every live edge copy a host path between the mapped endpoints.  A
witness adds two parameters: every host vertex lies on at least
Delta/beta embedding paths, and every host degree is at most
alpha*Delta.  Host demands are then routed by handing each pair off to
proxy leaves of the router (picked positionally from the per-vertex path
sets), routing the proxy demand inside the router, and translating the
result back through the embedding.

Also here: the sparsified router (a low-degree subgraph of the host that
still routes Delta*-restricted demands), the bipartite degree-lowering
selection it relies on, and the scattered-or-large-ball search.
"""

import heapq
import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import chain

from .graph import (MultiGraph, Routing, _key,
                    ball, bfs_layers, flow_units, hop_dist, is_restricted)
from .routing import _route_units


class Embedding:
    """Injective vertex map plus one host path per live edge copy.

    Paths are keyed (level, leaf, copy) and stored oriented from the
    mapped leaf to the mapped center.  d_star, the longest path's hop
    count (at least 1), and eta_star, the per-copy congestion on the
    host, are computed when first read and then kept, so an embedding
    whose paths alone are read costs neither."""

    def __init__(self, vertex_map, paths, host):
        self.vertex_map = dict(vertex_map)
        self.paths = {k: tuple(p) for k, p in paths.items()}
        self.host = host

    @cached_property
    def d_star(self):
        return max(max(map(len, self.paths.values()), default=0) - 1, 1)

    @cached_property
    def eta_star(self):
        return _congestion(self.edge_loads(), self.host)

    def edge_loads(self):
        """Paths through each host edge: each distinct path is walked
        once and counts as many times as copies share it."""
        loads = {}
        for p, n in Counter(self.paths.values()).items():
            for a, b in zip(p, p[1:]):
                e = _key(a, b)
                loads[e] = loads.get(e, 0) + n
        return loads


def _congestion(loads, host):
    """max(1, max load(e)/mult(e)) over the host's edges as a Fraction,
    comparing the ratios by cross-multiplication.  A loaded pair the
    host lacks is left out: validate_witness reports it as a missing
    host edge."""
    num, den = 1, 1
    for e, cnt in loads.items():
        mult = host.multiplicity(*e)
        if mult and cnt * den > num * mult:
            num, den = cnt, mult
    return Fraction(num, den)


class RouterWitness:
    """A pruned router embedded into a host, with its path index and
    fitted parameters, all computed once here.

    path_sets maps each host vertex v to one (path key, position) entry
    per embedding path through v, in key order; the position is v's
    first on emb.paths[key].  witness_route hands demand off from v
    along the path's prefix up to that position, reversed, to the
    mapped leaf; sparsify selects sparsified_route's entries from them,
    and a cluster's rebuild takes its path counts from them.

    alpha = max(max degree / Delta, 1).  beta = max(1, Delta / fewest
    paths through a host vertex), or 1 when that count is 0.

    Construction runs validate_witness once and raises ValueError naming
    the failed checks.  Pruning the router later makes the witness
    stale: build a new one."""

    def __init__(self, host, pruned, emb):
        self.host = host
        self.pruned = pruned
        self.emb = emb
        self.path_sets = path_sets = {v: [] for v in host.vertices}
        for key in sorted(emb.paths):
            p = emb.paths[key]
            for idx, v in enumerate(p):
                if v in path_sets and p.index(v) == idx:
                    path_sets[v].append((key, idx))
        delta = pruned.t.delta
        max_deg = max((host.degree(v) for v in host.vertices), default=delta)
        fewest = min((len(lst) for lst in path_sets.values()), default=delta)
        self.alpha = max(Fraction(max_deg, delta), Fraction(1))
        self.beta = (max(Fraction(1), Fraction(delta, fewest)) if fewest
                     else Fraction(1))
        rep = validate_witness(self)
        if not rep:
            raise ValueError("invalid witness: %r" %
                             [c[0] for c in rep.checks if not c[1]])

    @property
    def q(self):
        return math.ceil(Fraction(self.pruned.t.delta) / self.beta)


class WitnessReport:
    def __init__(self, checks):
        self.checks = checks                     # list of (name, ok, detail)
        self.ok = all(ok for _, ok, _ in checks)

    def __bool__(self):
        return self.ok


def validate_witness(w):
    """Check a witness in full, from its inputs alone: the embedding's
    paths and vertex map, the host and the pruned router.  It reads
    neither path_sets nor the embedding's cached d_star and eta_star,
    which it recomputes and compares; RouterWitness runs it once, when
    it is built, and RouterDecomposition.check_valid again on demand.

    The checks, in this order, as (name, ok, detail) in a WitnessReport:
    vertex-map-injective; paths-well-formed (each key's bundle is a
    leaf-to-center superedge, its path runs from the mapped leaf to the
    mapped center, and every step is a host edge); one-path-per-live-copy;
    every-host-edge-covered; path-count-at-least-q (each host vertex on
    at least q paths); degree-at-most-alpha-delta; beta-at-least-one;
    stats-consistent (d* and eta* as recomputed); properly-pruned.

    Many copies often share one host path, and what a path holds does
    not depend on which copy it serves.  So edge loads, per-vertex path
    counts and d* are worked out once per distinct path and weighted by
    the number of copies on it, and host-edge membership once per
    loaded pair; the shape is checked once per bundle, and the
    endpoints once per copy.  Failures are still listed copy by copy,
    in path order."""
    checks = []
    host, emb, s = w.host, w.emb, w.pruned
    t = s.t
    vm = emb.vertex_map
    images = list(vm.values())
    checks.append(("vertex-map-injective", len(set(images)) == len(images), None))
    weights = Counter(emb.paths.values())      # distinct path -> copies
    loads = {}
    counts = {v: 0 for v in host.vertices}
    for p, n in weights.items():
        for a, b in zip(p, p[1:]):
            e = _key(a, b)
            loads[e] = loads.get(e, 0) + n
        for v in set(p):
            if v in counts:
                counts[v] += n
    # every step of every path is a loaded pair, so the steps that are no
    # host edge are the loaded pairs the host lacks
    off_host = {e for e in loads if e not in host.superedges}
    bad = []
    ends = {}           # bundle -> (mapped leaf, mapped center, shape ok)
    for key, p in emb.paths.items():
        i, leaf, _c = key
        end = ends.get((i, leaf))
        if end is None:
            center = t.level_center(i, leaf)
            end = ends[(i, leaf)] = (
                vm.get(leaf), vm.get(center),
                not t.is_center(leaf) and t.is_center(center))
        if not end[2]:
            bad.append(("edge-shape", key))
        if p[0] != end[0] or p[-1] != end[1]:
            bad.append(("endpoints", key))
        if off_host:
            bad.extend(("missing-host-edge", key, (a, b))
                       for a, b in zip(p, p[1:]) if _key(a, b) in off_host)
    checks.append(("paths-well-formed", not bad, bad[:5]))
    want = {(i, leaf, c) for (i, leaf), copies in s.live_bundles().items()
            for c in range(copies)}
    have = set(emb.paths)
    checks.append(("one-path-per-live-copy", want == have,
                   (len(want - have), len(have - want))))
    uncovered = [e for e in host.superedges if e not in loads]
    checks.append(("every-host-edge-covered", not uncovered, uncovered[:5]))
    q = w.q
    low = [v for v, c in counts.items() if c < q]
    checks.append(("path-count-at-least-q", not low, low[:5]))
    cap = w.alpha * t.delta
    high = [v for v in host.vertices if host.degree(v) > cap]
    checks.append(("degree-at-most-alpha-delta", not high, high[:5]))
    checks.append(("beta-at-least-one", w.beta >= 1, w.beta))
    d_star = max(max((len(p) - 1 for p in weights), default=1), 1)
    eta = _congestion(loads, host)
    checks.append(("stats-consistent",
                   emb.d_star == d_star and emb.eta_star == eta,
                   (emb.d_star, d_star, emb.eta_star, eta)))
    pp = s.is_properly_pruned()
    checks.append(("properly-pruned", bool(pp), getattr(pp, "violations", None)))
    return WitnessReport(checks)


def _trace_back(prev, src, dst):
    """Vertex path and edge indices from src to dst along prev links."""
    path = [dst]
    edges = []
    while path[-1] != src:
        v, e = prev[path[-1]]
        path.append(v)
        edges.append(e)
    path.reverse()
    return tuple(path), edges


# weight of an edge at capacity: above every bound a search compares with
_UNUSABLE = math.inf


def _dijkstra(adj, src, dst, weight, bound, h):
    """Least-weight path from src to dst, as (vertices, edge indices
    with the edge nearest dst first, as _trace_back gives them).
    Vertices are the ranks 0 .. len(h) - 1, so g and h are lists, and
    adj[v] lists v's (neighbour, edge index) pairs.  Edge e
    weighs weight[e] >= base, or _UNUSABLE at capacity, and
    h[v] = base*hop(v, dst), or _UNUSABLE when no hop path exists.  Some
    usable src->dst path must exist, of least weight W* <= bound (the
    caller passes the weight of a usable path).

    A* search on f = g + h.  h never overestimates the weight left from
    v, and h[v] <= w(v, u) + h[u] on every edge, so a vertex popped at
    f <= W* has its least weight g from src.  A vertex is pushed only
    while f <= bound, and bound falls to W* once dst pops; popping goes
    on until the least f exceeds W*.  Every vertex on a least-weight
    path has f <= W*, so all of them are settled with exact g.

    The path is traced back from dst: each step goes to the neighbour v
    with g[v] + w(v, u) == g[u] that minimises (g[v], v).  The
    neighbours with g*(v) + w(v, u) == g*(u) lie on least-weight paths,
    so they are settled and pass the test; a neighbour with g[v] > g*(v)
    fails it, as g*(v) + w(v, u) >= g*(u).  Plain Dijkstra with heap ties
    to the smaller vertex pops in (g, vertex) order and keeps the first
    strict improvement, so its predecessor of u is the same minimiser:
    the path is the one Dijkstra picks, whatever the order of adj."""
    g = [_UNUSABLE] * len(h)
    g[src] = 0
    heap = [(h[src], src)]
    while heap:
        f, v = heapq.heappop(heap)
        if f > bound:
            break
        gv = g[v]
        if f > gv + h[v]:
            continue
        if v == dst:
            bound = gv
            continue
        for u, e in adj[v]:
            nd = gv + weight[e]
            if nd < g[u] and nd + h[u] <= bound:
                g[u] = nd
                heapq.heappush(heap, (nd + h[u], u))
    path = [dst]
    edges = []
    while path[-1] != src:
        gu = g[path[-1]]
        _, v, e = min((g[v], v, e) for v, e in adj[path[-1]]
                      if g[v] + weight[e] == gu)
        path.append(v)
        edges.append(e)
    path.reverse()
    return tuple(path), edges


def _hop_path(adj, src, dst, weight, d_max):
    """Breadth-first path of at most d_max >= 1 hops over usable edges,
    scanning each adjacency list (sorted by neighbour id) in order, or
    None.  The last round reads only the edges into dst: the scan would
    end at the first frontier vertex with a usable edge to dst, and adj
    holds at most one edge per pair."""
    prev = {src: None}
    frontier = [src]
    for _ in range(d_max - 1):
        nxt = []
        for v in frontier:
            for u, e in adj[v]:
                if u not in prev and weight[e] < _UNUSABLE:
                    prev[u] = (v, e)
                    nxt.append(u)
                    if u == dst:
                        return _trace_back(prev, src, dst)
        if not nxt:
            return None
        frontier = nxt
    into = {u: e for u, e in adj[dst] if weight[e] < _UNUSABLE}
    for v in frontier:
        if v in into:
            prev[dst] = (v, into[v])
            return _trace_back(prev, src, dst)
    return None


def greedy_embed(c, t, d_max, eta_max, fake_budget):
    """Map the template into host c and embed each edge copy along a
    congestion-penalized shortest path of hop length at most d_max.
    Copies that cannot be placed go to the fake set F; returns
    (Embedding, F) when |F| <= fake_budget, else None.

    An edge e carrying load(e) paths weighs 1 + 4*load(e)/(mult(e)*eta_max)
    and is usable while load(e) < eta_max*mult(e), so eta_max must be
    positive (ValueError otherwise).  The search compares
    these weights exactly as integers, scaled by S = p*M for eta_max = p/q
    and M the lcm of the host's multiplicities; a uniform positive scale
    keeps every comparison and tie, so the chosen paths are those of the
    rational weights.  The search gives up, returning None, as soon as
    |F| exceeds fake_budget, or before it starts when the copies that
    must be fake already exceed it (the first step below).

    Each copy is placed by the rule: take the least-weight usable path
    (the one Dijkstra picks when heap ties go to the smaller vertex); if
    it has more than d_max hops, take the first breadth-first path of at
    most d_max hops instead; if there is none, the copy is fake.  d_max
    must be at least 1 (ValueError otherwise).  Four steps decide it.
    First, before any copy is placed: a copy whose mapped ends are more
    than d_max hops apart in the unloaded c is fake under every load, as
    loads only grow and an edge at capacity never becomes usable again.
    So F holds every such copy, and when they number more than
    fake_budget, None is returned with no search run.  Only bundles
    without a direct host edge are tested, each against the radius-d_max
    ball of its mapped center, computed once per center.  Then, per
    copy: when the direct edge is usable and weighs under 2*S, it is the
    least path and no search runs: every other path has two or more
    hops, and every edge weighs at least S.  Otherwise the breadth-first
    path of at most d_max hops is found first.  When there is none, no
    usable path has at most d_max hops, so the rule ends in a fake and
    no search runs.  Otherwise its weight is at least W*, the least weight,
    and bounds the search, whose path is taken unless it has more than
    d_max hops; then the breadth-first path is.

    The search is A* towards the copy's mapped center.  Every edge
    weighs at least S, so S*hop(v, center) never overestimates the
    weight left from v; the hop distances come from one breadth-first
    search of c per center, run at its first search and kept for the
    call.  The search pushes only vertices whose estimate is within the
    breadth-first path's weight, and within W* once the center pops,
    keeps popping until every vertex of every least-weight path is
    settled, and traces the path back through the predecessors Dijkstra
    would record (see _dijkstra); any bound of at least W* gives that
    path.

    Both searches read one adjacency row per vertex they expand: its
    (neighbour, edge) pairs sorted by neighbour.  A row is built the
    first time a search reads it and kept for the call, so a vertex no
    search expands costs no row, and a copy the direct edge takes reads
    none."""
    if t.num_vertices() > len(c.vertices):
        raise ValueError("template larger than host")
    eta_max = Fraction(eta_max)
    if eta_max <= 0:
        raise ValueError("eta_max must be positive, got %s" % eta_max)
    if d_max < 1:
        raise ValueError("d_max must be at least 1, got %s" % d_max)
    if (all(v in c.vertices for v in t.vertices())
            and all(c.has_edge(leaf, center)
                    for i in range(1, t.k + 1)
                    for (leaf, center) in t.superedges(i))):
        # host already contains the template on the same ids; keep them
        vm = {v: v for v in t.vertices()}
        return _embed_with_map(c, t, vm, d_max, eta_max, fake_budget)
    seed = max(sorted(c.vertices), key=lambda v: c.degree(v))
    order = []
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for v in frontier:
            order.append(v)
            for u in sorted(c.neighbors(v)):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    for v in sorted(c.vertices):
        if v not in seen:
            order.append(v)
            seen.add(v)
    vm = {}
    for tv, hv in zip(sorted(t.vertices()), order):
        vm[tv] = hv
    return _embed_with_map(c, t, vm, d_max, eta_max, fake_budget)


class _Rows(dict):
    """Search adjacency by vertex rank: adj[r] is the sorted list of
    (neighbour rank, edge index) pairs of vertex verts[r], built when a
    search first reads it."""

    def __init__(self, c, verts, rank, index):
        super().__init__()
        self.c, self.verts, self.rank, self.index = c, verts, rank, index

    def __missing__(self, r):
        v = self.verts[r]
        rank, index = self.rank, self.index
        row = self[r] = sorted((rank[u], index[_key(v, u)])
                               for u in self.c.neighbors(v))
        return row


def _embed_with_map(c, t, vm, d_max, eta_max, fake_budget):
    # copies whose ends are more than d_max hops apart in the unloaded c
    # are fake under every load (greedy_embed's first step)
    far = 0
    balls = {}          # center -> its radius-d_max ball
    for i in range(1, t.k + 1):
        for (leaf, center) in t.superedges(i):
            a, b = vm[leaf], vm[center]
            if not c.has_edge(a, b):
                if b not in balls:
                    balls[b] = ball(c, b, d_max)
                far += a not in balls[b]
    if far * t.delta > fake_budget:
        return None
    # eta_max = p/q; M = lcm of the multiplicities.  Scaling the weight
    # 1 + 4*load/(mult*eta_max) by S = p*M gives the integer
    # S + 4*q*load*(M // mult), and load < eta_max*mult becomes
    # load < ceil(p*mult/q).
    p, q = eta_max.numerator, eta_max.denominator
    m_lcm = math.lcm(*c.superedges.values()) if c.superedges else 1
    base = p * m_lcm
    index = {}
    slope = []
    cap = []
    for e, mult in c.superedges.items():
        index[e] = len(slope)
        slope.append(4 * q * (m_lcm // mult))
        cap.append(-(-p * mult // q))
    # searches run on vertex ranks in sorted(c.vertices), which order
    # like the vertices, so every heap tie and sorted scan is unchanged
    verts = sorted(c.vertices)
    rank = {v: r for r, v in enumerate(verts)}
    adj = _Rows(c, verts, rank, index)
    load = [0] * len(slope)
    weight = [base] * len(slope)        # every cap is at least 1
    paths = {}
    fakes = set()
    lower = {}          # dst -> its A* lower bounds, built at its first search
    for i in range(1, t.k + 1):
        for (leaf, center) in t.superedges(i):
            direct = (vm[leaf], vm[center])
            src, dst = rank[direct[0]], rank[direct[1]]
            de = index.get(_key(*direct))      # the direct edge, if any
            for copy in range(t.delta):
                key = (i, leaf, copy)
                if de is not None and weight[de] < 2 * base:
                    # every other path has two or more hops and every edge
                    # weighs at least base: the direct edge is the least path
                    paths[key] = direct
                    edges = (de,)
                else:
                    short = _hop_path(adj, src, dst, weight, d_max)
                    if short is None:
                        fakes.add(key)
                        if len(fakes) > fake_budget:
                            return None
                        continue
                    if dst not in lower:
                        hop = hop_dist(c, direct[1])
                        lower[dst] = [base * hop[v] if v in hop else _UNUSABLE
                                      for v in verts]
                    found = _dijkstra(adj, src, dst, weight,
                                      sum(map(weight.__getitem__, short[1])),
                                      lower[dst])
                    if len(found[0]) - 1 > d_max:
                        found = short
                    paths[key] = tuple(map(verts.__getitem__, found[0]))
                    edges = found[1]
                for e in edges:
                    load[e] += 1
                    weight[e] = (base + slope[e] * load[e]
                                 if load[e] < cap[e] else _UNUSABLE)
    return Embedding(vm, paths, c), fakes


class ScatteredCert:
    """Asserts every radius-d ball of the input graph has fewer than
    n^(1-eps) vertices."""

    def __init__(self, d, eps, n):
        self.d = d
        self.eps = Fraction(eps)
        self.n = n


def scattered_or_ball(g, d, eps):
    """Either a ScatteredCert, or a vertex whose radius-4d/eps ball
    holds at least n^(1-eps) vertices."""
    eps = Fraction(eps)
    if not (0 < eps < 1) or d < 1:
        raise ValueError("need 0 < eps < 1 and d >= 1")
    p, q = eps.numerator, eps.denominator
    n = len(g.vertices)
    if n == 0:
        return ScatteredCert(d, eps, n)
    if n == 1:
        return next(iter(g.vertices))
    m = max(g.num_edges(), 1)
    gp = g.copy()
    scattered = set()

    def big(size):
        # size >= n^(1 - eps)
        return size ** q >= n ** (q - p)

    while True:
        for v in [v for v in gp.vertices if not gp.neighbors(v)]:
            gp.remove_vertex(v)
            scattered.add(v)
        live_u = [v for v in sorted(gp.vertices) if v not in scattered]
        if not live_u or not big(len(gp.vertices)):
            return ScatteredCert(d, eps, n)
        u = live_u[0]
        # one search; edge_at[r] counts the edges from ring r back into
        # B(u, r), cumulated over r (an edge inside ring r counts twice)
        dist = {}
        edge_at = []
        cum = 0
        for r, layer in enumerate(bfs_layers(gp, u)):
            dist.update(dict.fromkeys(layer, r))
            for x in layer:
                cum += sum(gp.multiplicity(x, y) for y in gp.neighbors(x)
                           if y in dist)
            edge_at.append(cum)

        def e_j(j):
            # edges inside B(u, 2(j+1)d)
            return edge_at[min(2 * (j + 1) * d, len(edge_at) - 1)]

        j = 1
        while e_j(j + 1) ** q > (m ** p) * (e_j(j) ** q):
            j += 1
        s_radius = 2 * (j + 1) * d
        s = {v for v, dv in dist.items() if dv <= s_radius}
        s2 = {v for v, dv in dist.items() if dv <= 2 * (j + 2) * d}
        s1 = {v for v, dv in dist.items() if dv <= s_radius + d}
        if big(len(s2)):
            return u
        for v in s:
            gp.remove_vertex(v)
        scattered |= s1


def _log_rounds(n):
    """max(1, ceil(log2 n)): lower_degrees' round cap on n left vertices."""
    return max(1, (n - 1).bit_length())


def lower_degrees(h, z, delta_hat, gamma_p, r_hat):
    """Pick ceil(delta_hat) incident edges per left vertex of a bipartite
    graph so that no right vertex is overused.

    h maps each left vertex x to its list of right endpoints (one entry
    per edge).  Requires deg(x) >= z*delta_hat and deg(y) <=
    gamma_p*z*delta_hat.  Runs rounds of greedy selection with
    overload counters; each round settles at least half of the remaining
    left vertices.  Returns {x: selected right endpoints}.
    """
    delta_hat = Fraction(delta_hat)
    z = Fraction(z)
    gamma_p = Fraction(gamma_p)
    r_hat = Fraction(r_hat)
    if z < 2:
        raise ValueError("need z >= 2")
    xs = sorted(h)
    if not xs:
        return {}
    ydeg = {}
    for x in xs:
        if len(h[x]) < z * delta_hat:
            raise ValueError("left vertex %r has degree below z*delta_hat" % (x,))
        for y in h[x]:
            ydeg[y] = ydeg.get(y, 0) + 1
    cap = gamma_p * z * delta_hat
    for y, dy in ydeg.items():
        if dy > cap:
            raise ValueError("right vertex %r exceeds gamma'*z*delta_hat" % (y,))
    rounds_cap = _log_rounds(len(xs))
    r = r_hat / rounds_cap
    if r <= 4 * gamma_p:
        raise ValueError("r_hat too small: r_hat/ceil(log|X|) must exceed "
                         "4*gamma'")
    dh = math.ceil(delta_hat)
    # counts are integers: n >= (r-1)*dh iff n >= ceil((r-1)*dh), and
    # len >= delta_hat iff len >= dh
    limit = math.ceil((r - 1) * dh)
    out = {}
    remaining = list(xs)
    guard = 0
    while remaining:
        guard += 1
        if guard > rounds_cap + 2:
            raise AssertionError("round-halving guarantee failed")
        n_y = {}
        settled = []
        for x in remaining:
            usable = [y for y in h[x] if n_y.get(y, 0) < limit]
            if len(usable) >= dh:
                pick = usable[:dh]
                out[x] = pick
                for y in pick:
                    n_y[y] = n_y.get(y, 0) + 1
                settled.append(x)
        if not settled:
            raise AssertionError("no left vertex settled in a round")
        remaining = [x for x in remaining if x not in out]
    return out


def _proxy_route(pruned, emb, path_sets, width, demand, factor, copies):
    """Shared core of witness_route and sparsified_route: positional
    proxy matching, router routing at a scaled-down value, translation
    back through the embedding.  path_sets must give each demand vertex
    width (path key, position) entries of a RouterWitness's index; the
    j-th unit of a pair goes from the leaf of its endpoints' j-th
    entries, along the path prefix up to that position, reversed.
    Translation spreads each bundle (level, leaf) a router path uses
    over its first copies[bundle] copies: each unit takes the copy
    least loaded so far, the first on a tie.  A router path is resolved
    once per call, oriented from its source leaf, into its steps: the
    bundle's copy-load list and every copy's host segment, sliced once,
    since neither depends on the unit; per unit only the least-loaded
    pick and the append remain.

    Each pair's value splits into width units of val/width.  Proxy
    demand sums and per-copy loads count these in units of 1/L, L the
    lcm of the unit denominators, so they stay integers; a uniform scale
    keeps every comparison and the first-minimum tie-break.  The router
    gets the proxy demand in units of 1/(L*factor), scaled down by
    factor.  Fractions appear only in the returned Routing."""
    t = pruned.t
    items = sorted(demand.values.items())
    for v in sorted(demand.support()):
        if len(path_sets[v]) < width:
            raise ValueError("vertex %r lies on fewer than %d of the given "
                             "paths" % (v, width))
    units = [val / width for _pair, val in items]
    unit_lcm, scaled = flow_units(units)
    proxy = {}           # proxy pair -> summed units * L
    plan = []            # (a, b, unit, unit * L, a_leaf, r_a, b_leaf, r_b)
    for ((a, b), _val), unit, n in zip(items, units, scaled):
        for j in range(width):
            a_key, a_idx = path_sets[a][j]
            b_key, b_idx = path_sets[b][j]
            r_a = emb.paths[a_key][a_idx::-1]
            r_b = emb.paths[b_key][b_idx::-1]
            a_leaf, b_leaf = a_key[1], b_key[1]
            plan.append((a, b, unit, n, a_leaf, r_a, b_leaf, r_b))
            if a_leaf != b_leaf:
                key = _key(a_leaf, b_leaf)
                proxy[key] = proxy.get(key, 0) + n
    # partial-flow congestion along the handoff subpaths stays within
    # d* * eta* * (per-path demand cap); checked by callers' verify.
    # With no proxy pair the router is not asked, so no sinks are built.
    mid_paths = _route_units(
        pruned, [(x, y, n, (x, y)) for (x, y), n in sorted(proxy.items())],
        unit_lcm * factor) if proxy else {}

    copy_load = {}       # (level, leaf) -> per-copy accumulated flow * L
    steps = {}           # router edge (x, y) -> (copy loads, segment per copy)
    walks = {}           # (a_leaf, b_leaf) -> steps of its router path

    def resolve(a_leaf, b_leaf):
        """The steps of the router path between two proxy leaves,
        oriented from a_leaf.  A step (x, y) holds its bundle's copy
        loads, one list shared by both orientations, and each copy's
        host path from the image of x to that of y, without its first
        vertex."""
        wpath = mid_paths[_key(a_leaf, b_leaf)]
        if wpath[0] != a_leaf:
            wpath = wpath[::-1]
        walk = []
        for x, y in zip(wpath, wpath[1:]):
            st = steps.get((x, y))
            if st is None:
                leaf = x if not t.is_center(x) else y
                bundle = (t.superedge_level(x, y), leaf)
                loads = copy_load.get(bundle)
                if loads is None:
                    loads = copy_load[bundle] = [0] * copies[bundle]
                eps = [emb.paths[bundle + (c,)]
                       for c in range(copies[bundle])]
                st = steps[x, y] = loads, (
                    [ep[1:] for ep in eps] if x == leaf
                    else [ep[-2::-1] for ep in eps])
            walk.append(st)
        return walk

    # every unit is positive and every path a tuple, so entries go
    # straight into the Routing
    out = Routing()
    add = out.flow_paths.append
    for a, b, unit, n, a_leaf, r_a, b_leaf, r_b in plan:
        if a_leaf == b_leaf:
            add((r_a + r_b[-2::-1], (a, b), unit))
            continue
        walk = walks.get((a_leaf, b_leaf))
        if walk is None:
            walk = walks[a_leaf, b_leaf] = resolve(a_leaf, b_leaf)
        # r_a ends at vm[a_leaf], where the first segment starts; the
        # last ends at vm[b_leaf], r_b's last vertex
        full = list(r_a)
        for loads, segs in walk:
            c = loads.index(min(loads))
            loads[c] += n
            full += segs[c]
        full += r_b[-2::-1]
        add((tuple(full), (a, b), unit))
    return out


def witness_route(w, demand):
    """Route a degree-restricted host demand through the witness.

    The result verifies with length at most 22*d*(k^2) and congestion at
    most 2*alpha*beta*k^(4k+1)*d**eta*.
    """
    if not is_restricted(demand, w.host.degree):
        raise ValueError("demand exceeds the degree restriction")
    k = w.pruned.t.k
    factor = w.alpha * w.beta * (k ** (4 * k + 1)) * w.emb.d_star
    return _proxy_route(w.pruned, w.emb, w.path_sets, w.q, demand, factor,
                        w.pruned.live_bundles())


class SparsifiedRouter:
    """The sparse subgraph C' of a witness and what routes inside it.
    qsets maps each host vertex to its selected entries of the witness's
    path_sets.  The copies selected per bundle are copies
    0 .. delta_prime-1 of every bundle live in the witness's pruned
    router."""

    def __init__(self, cprime, qsets, delta_star, delta_prime, gamma):
        self.cprime = cprime            # simple host subgraph
        self.qsets = qsets              # host vertex -> selected entries
        self.delta_star = delta_star
        self.delta_prime = delta_prime
        self.gamma = gamma


def _iroot_ceil(x, r):
    """Smallest integer g >= 1 with g**r >= x, with no float: one more
    than the floor r-th root of x - 1, by integer Newton steps from
    2**ceil(bits/r), which is above that root."""
    if x <= 1:
        return 1
    n = x - 1
    g = 1 << -(-n.bit_length() // r)
    while True:
        h = ((r - 1) * g + n // g ** (r - 1)) // r
        if h >= g:
            return g + 1
        g = h


def sparsify(w, delta_star):
    """Select copies 0 .. delta_prime-1 of every live bundle of the
    witness's pruned router and delta_prime paths per host vertex, and
    return the union of their embedding paths as a sparse routable
    subgraph."""
    s = w.pruned
    t = s.t
    k = t.k
    d_star = w.emb.d_star
    delta_prime = delta_star // (2 * k * d_star)
    if delta_prime < 1:
        raise ValueError("delta_star below 2*k*d*")
    for (i, leaf), copies in s.live_bundles().items():
        if copies < delta_prime:
            raise ValueError("bundle (%d,%r) thinner than delta_prime" %
                             (i, leaf))

    # bipartite selection: host vertex x -> paths through x, grouped by
    # the path's distinguished leaf
    h = {x: [key[1] for key, _idx in entries]
         for x, entries in w.path_sets.items()}
    min_deg = min((len(lst) for lst in h.values()), default=0)
    if min_deg < 2 * delta_prime:
        raise ValueError("some host vertex lies on fewer than 2*delta_prime "
                         "embedding paths; selection cap infeasible")
    z = Fraction(min_deg, delta_prime)
    ydeg = {}
    for lst in h.values():
        for y in lst:
            ydeg[y] = ydeg.get(y, 0) + 1
    # z * delta_prime == min_deg, so gamma' = max(1, ceil(max ydeg / min_deg))
    gamma_p = max(1, -(-max(ydeg.values()) // min_deg))
    # gamma/rounds >= 8*gamma' clears lower_degrees' need of 4*gamma'
    gamma = max(_iroot_ceil(len(w.host.vertices) ** 16, k),
                8 * gamma_p * _log_rounds(len(h)))
    sel_leaves = lower_degrees(h, z, delta_prime, gamma_p, gamma)
    # convert selected leaf picks back to index entries per vertex,
    # first entries of each leaf first
    qsets = {}
    for x, picks in sel_leaves.items():
        want = {}
        for y in picks:
            want[y] = want.get(y, 0) + 1
        chosen = []
        for entry in w.path_sets[x]:
            leaf = entry[0][1]
            if want.get(leaf, 0) > 0:
                want[leaf] -= 1
                chosen.append(entry)
        qsets[x] = chosen

    # C' is simple: each edge of a selected path once, in order of first
    # use.  Copies share paths, so each distinct path is walked once, in
    # the order the paths first occur.
    paths = w.emb.paths
    used = dict.fromkeys(chain(
        (paths[key] for entries in qsets.values() for key, _idx in entries),
        (paths[(i, leaf, c)] for (i, leaf) in s.live_bundles()
         for c in range(delta_prime))))
    edges = {}
    for p in used:
        for a, b in zip(p, p[1:]):
            edges[_key(a, b)] = 1
    if len(edges) > len(w.host.vertices) * delta_star:
        raise AssertionError("sparsified edge bound violated")
    return SparsifiedRouter(MultiGraph.of(w.host.vertices, edges), qsets,
                            delta_star, delta_prime, gamma)


def sparsified_route(sp, w, demand):
    """Route a Delta*-restricted host demand inside the sparsified
    subgraph; verifies with length 22*d*(k^2) and congestion
    8*gamma*(d*)^2*eta**k^(4k+1)."""
    if not is_restricted(demand, lambda v: sp.delta_star):
        raise ValueError("demand is not delta_star-restricted")
    s = w.pruned
    k = s.t.k
    factor = 4 * sp.gamma * w.emb.d_star * (k ** (4 * k + 1))
    # Route in s itself, with lcm times delta_prime/Delta: that routes
    # as the router with delta_prime copies per live bundle would.
    # Routing reads Delta only in the restriction tot*k^4k <= Delta*lcm
    # (_route_units) and in r_0 = Delta*lcm (_scaled_r0), and both see
    # delta_prime*lcm either way.  The sink paths do not depend on
    # Delta: _u1_to_ui gives every entry Delta units, so its
    # comparisons all scale together.  Translation spreads each bundle
    # over its delta_prime copies in C'.
    return _proxy_route(s, w.emb, sp.qsets, sp.delta_prime, demand,
                        factor * Fraction(sp.delta_prime, s.t.delta),
                        dict.fromkeys(s.live_bundles(), sp.delta_prime))
