"""Decremental low-diameter clustering by ball growing.

A cluster is settled when it is small (at most n^(1/k) vertices) or some
vertex's ball of radius d = 4k^3 covers at least |V(C)|^(1-1/k) of it.
Unsettled clusters are split: grow a BFS ball from the lowest-id vertex
until a layer is found where both vertex and edge growth stall (an
eligible index), cut the ball off as a piece whose inner part is the
piece's core, and continue on the residue.  If no layer stalls, the
radius-d ball is already large and the residue is settled as-is.

All power-law thresholds (sizes vs n^(1/k), growth vs N^(1/k^3)) are
compared exactly on big integers: a <= b^(p/q) iff a^q <= b^p.
"""

from .graph import MultiGraph, ball, bfs_layers


def pow_le(a, b, p, q):
    """a <= b**(p/q) exactly, for non-negative integers."""
    return a ** q <= b ** p


def pow_lt(a, b, p, q):
    return a ** q < b ** p


def grow_le(a, b, base, p, q):
    """a <= b * base**(p/q) exactly."""
    return a ** q <= (b ** q) * (base ** p)


class LargeBallCert:
    """Certifies |B(center, radius)| >= |V(C)|^(1-1/k)."""

    def __init__(self, center, radius, size):
        self.center = center
        self.radius = radius
        self.size = size


class Cluster:
    def __init__(self, cid, graph):
        self.id = cid
        self.graph = graph      # MultiGraph holding this cluster's edges
        self.active = True

    def vertices(self):
        return self.graph.vertices

    def num_vertices(self):
        return len(self.graph.vertices)


def is_settled(c, k, n):
    nv = c.num_vertices()
    if not c.graph.superedges:
        # edgeless clusters are settled only as singletons
        return nv <= 1
    if pow_le(nv, n, 1, k):
        return True
    d = 4 * k ** 3
    for v in sorted(c.vertices()):
        if len(ball(c.graph, v, d)) ** k >= nv ** (k - 1):
            return True
    return False


def eligible_index(c, v, k):
    """First BFS layer around v where growth stalls, or a LargeBallCert.

    Layer i is eligible when N_i <= N_{i-1} * Nh^(1/k^3), N_i < Nh^(1-1/k)
    and E_i <= E_{i-1} * Nh^(1/k^3), where Nh is the cluster's vertex
    count, N_i the ball size and E_i the edge count inside the ball.
    """
    g = c.graph
    if v not in g.vertices:
        raise KeyError("vertex not in cluster")
    if not g.neighbors(v):
        raise ValueError("eligible_index on isolated vertex")
    nh = c.num_vertices()
    d = 4 * k ** 3
    kc = k ** 3
    seen = set()
    prev_n = prev_e = e_i = 0
    for i, layer in enumerate(bfs_layers(g, v, d)):
        for y in layer:
            seen.add(y)
            # each ball edge is charged when its second endpoint
            # enters the ball, so e_i stays exact per layer
            e_i += sum(g.multiplicity(y, z)
                       for z in g.neighbors(y) if z in seen)
        n_i = len(seen)
        if (i and grow_le(n_i, prev_n, nh, 1, kc)
                and pow_lt(n_i, nh, k - 1, k)
                and grow_le(e_i, prev_e, nh, 1, kc)):
            return i
        prev_n, prev_e = n_i, e_i
    if i < d and pow_lt(n_i, nh, k - 1, k):
        # the component ends before radius d: layer i+1 is empty, so
        # nothing grows there and it is eligible iff the ball is small
        return i + 1
    return LargeBallCert(v, d, len(seen))


def _induced(g, verts):
    return MultiGraph.of(verts, {e: m for e, m in g.superedges.items()
                                 if e[0] in verts and e[1] in verts})


def process_cluster(c, k, next_id=0):
    """Split an unsettled cluster into settled pieces.

    Returns (residual, pieces, cores, next_id).  The residual keeps the
    cluster's id; pieces are new clusters numbered from next_id, and
    cores[j] is the core of pieces[j].
    """
    g = c.graph.copy()
    pieces = []
    cores = []
    while True:
        for v in sorted(g.vertices):
            if not g.neighbors(v):
                sub = MultiGraph()
                sub.add_vertex(v)
                pieces.append(Cluster(next_id, sub))
                cores.append({v})
                next_id += 1
                g.remove_vertex(v)
        live = sorted(g.vertices)
        if not live:
            break
        res = eligible_index(Cluster(c.id, g), live[0], k)
        if isinstance(res, LargeBallCert):
            break
        # the piece is B(v, i) and its core B(v, i-1), also when the
        # component ends before radius i
        layers = list(bfs_layers(g, live[0], res))
        core = set().union(*layers[:res])
        sub = _induced(g, set().union(*layers))
        pieces.append(Cluster(next_id, sub))
        cores.append(core)
        next_id += 1
        for x in core:
            g.remove_vertex(x)
        for (a, b) in sub.superedges:
            if g.has_edge(a, b):
                g.remove_edge(a, b)
    residual = Cluster(c.id, g)
    return residual, pieces, cores, next_id


class ClusteringState:
    def __init__(self, g, k):
        self.host = g
        self.k = k
        self.n = len(g.vertices)
        self.d = 4 * k ** 3
        self.clusters = {}           # id -> Cluster
        self.n_v = {}
        self._next_id = 0
        for v in sorted(v for v in g.vertices if not g.neighbors(v)):
            sub = MultiGraph()
            sub.add_vertex(v)
            self._add_cluster(Cluster(self._next_id, sub))
            self._next_id += 1
        rest = {v for v in g.vertices if g.neighbors(v)}
        if rest:
            self._add_cluster(Cluster(self._next_id, _induced(g, rest)))
            self._next_id += 1
        self.split_log = []
        self._settle_all()

    def _add_cluster(self, c):
        self.clusters[c.id] = c
        for v in c.vertices():
            self.n_v[v] = self.n_v.get(v, 0) + 1

    def active_clusters(self):
        return [self.clusters[i] for i in sorted(self.clusters)
                if self.clusters[i].active]

    def _settle_all(self):
        log = []
        queue = [c.id for c in self.active_clusters()]
        while queue:
            cid = queue.pop(0)
            c = self.clusters.get(cid)
            if c is None or not c.active or is_settled(c, self.k, self.n):
                continue
            parent_size = c.num_vertices()
            residual, pieces, cores, self._next_id = process_cluster(
                c, self.k, self._next_id)
            if residual.num_vertices():
                self.clusters[cid] = residual
                queue.append(cid)
            else:
                del self.clusters[cid]
            for p, u in zip(pieces, cores):
                self._add_cluster(p)
                log.append({"parent": cid, "piece": p.id,
                            "parent_size": parent_size,
                            "piece_size": p.num_vertices(),
                            "core_size": len(u), "core": u})
                queue.append(p.id)
        self.split_log.extend(log)
        return log

    def find_cluster_of_edge(self, u, v):
        for i in sorted(self.clusters):
            if self.clusters[i].graph.has_edge(u, v):
                return self.clusters[i]
        return None

    def run_phase(self, deletions, deactivate=()):
        """Apply edge deletions and deactivations, then re-settle.

        Each deletion removes the whole edge (all copies) from its
        cluster and from the host graph.  Returns the split log.
        """
        for (u, v) in deletions:
            c = self.find_cluster_of_edge(u, v)
            if c is None:
                continue
            if not c.active:
                raise ValueError("deletion targets inactive cluster %d" % c.id)
            c.graph.remove_edge(u, v)
            if self.host.has_edge(u, v):
                self.host.remove_edge(u, v)
            for x in (u, v):
                if x in c.graph.vertices and not c.graph.neighbors(x):
                    c.graph.remove_vertex(x)
        for cid in deactivate:
            if cid in self.clusters:
                self.clusters[cid].active = False
        return self._settle_all()

    def total_n_v(self):
        return sum(self.n_v.values())

    def check_valid(self):
        """Exact edge partition against the host plus settled actives
        and the lifetime-counter budget.  Returns a list of violations."""
        errs = []
        seen = {}
        for i in sorted(self.clusters):
            for e, m in self.clusters[i].graph.superedges.items():
                if e in seen:
                    errs.append(("edge-in-two-clusters", e))
                seen[e] = m
        for e, m in self.host.superedges.items():
            if seen.get(e) != m:
                errs.append(("edge-not-covered", e, seen.get(e), m))
        for e in seen:
            if e not in self.host.superedges:
                errs.append(("stale-edge", e))
        for c in self.active_clusters():
            if not is_settled(c, self.k, self.n):
                errs.append(("unsettled-active", c.id))
        total = self.total_n_v()
        # total <= 2 * n^(1 + 1/k), compared exactly
        if total ** self.k > (2 ** self.k) * self.n ** (self.k + 1):
            errs.append(("n_v-budget", total))
        return errs


def init_clustering(g, k):
    """The settled clustering of g for k >= 1.  A smaller k would make
    every size threshold n^(1/k) trivial or fractional."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return ClusteringState(g, k)
