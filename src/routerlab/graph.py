"""Undirected multigraphs, demands, and exact flow verification.

Parallel edges are stored as a single superedge (u,v) with an integer
multiplicity, never materialized individually.  Edges have no length:
every distance in the library is a hop count.  Flow is exact and no
float ever enters the accounting.  Demand and Routing values are
Fractions; code that sums or compares many of them first rescales them
with flow_units to integers in units of 1/L, L the lcm of their
denominators, and turns a result back into a Fraction only where it
builds a Demand or Routing.  verify_routing, the independent checker,
stays on Fraction throughout.

bfs_layers is the one breadth-first search: ball, hop_dist and every
hop-ball, distance and component search elsewhere run on it.
"""

from fractions import Fraction
import math


def _key(u, v):
    return (u, v) if u < v else (v, u)


def flow_units(values):
    """(L, [v*L for v in values]) for L the lcm of the denominators of
    the given Fractions: the values as integers in units of 1/L."""
    values = list(values)
    lcm = math.lcm(*(v.denominator for v in values))
    return lcm, [v.numerator * (lcm // v.denominator) for v in values]


class MultiGraph:
    """Multigraph over dense integer vertex ids.

    superedges maps (u,v) with u<v to a positive multiplicity.  Removing
    the last copy removes the superedge.  Self-loops are rejected.  A
    graph is grown by add_vertex and add_edge, or built whole by of();
    degree is summed on demand, so the mutators keep no per-vertex
    totals.  vertices is the live key view of adj, so it iterates in
    insertion order and no mutator keeps it in step.
    """

    def __init__(self):
        self.superedges = {}     # (u,v) u<v -> multiplicity
        self.adj = {}            # v -> set of neighbors
        self.vertices = self.adj.keys()

    @classmethod
    def of(cls, vertices, superedges):
        """The graph on the given vertices whose superedges are the dict
        superedges, {(u,v) with u<v: multiplicity}, which the graph takes
        over as its own.  Equal, orders included, to the graph built by
        add_vertex on each vertex and then add_edge on each superedge in
        dict order, but filled in one pass.  ValueError on a self-loop,
        a multiplicity below 1, a key with u > v, or an endpoint that is
        not among the vertices."""
        g = cls()
        adj = g.adj = {v: set() for v in vertices}
        g.vertices = adj.keys()
        try:
            for (u, v), m in superedges.items():
                if u >= v or m < 1:     # one test on the common path
                    if u == v:
                        raise ValueError("self-loop rejected: %r" % (u,))
                    if m < 1:
                        raise ValueError("multiplicity must be >= 1")
                    raise ValueError("superedge key %r is not ordered u < v"
                                     % ((u, v),))
                adj[u].add(v)
                adj[v].add(u)
        except KeyError:
            raise ValueError("superedge %r has an endpoint that is not a"
                             " vertex" % ((u, v),)) from None
        g.superedges = superedges
        return g

    def add_vertex(self, v):
        if v not in self.adj:
            self.adj[v] = set()

    def add_edge(self, u, v, mult=1):
        if u == v:
            raise ValueError("self-loop rejected: %r" % (u,))
        if mult < 1:
            raise ValueError("multiplicity must be >= 1")
        self.add_vertex(u)
        self.add_vertex(v)
        k = _key(u, v)
        self.superedges[k] = self.superedges.get(k, 0) + mult
        self.adj[u].add(v)
        self.adj[v].add(u)

    def remove_copies(self, u, v, count=1):
        k = _key(u, v)
        if count < 1:
            raise ValueError("removing %d copies of %r, at least 1 needed"
                             % (count, k))
        m = self.superedges.get(k, 0)
        if m < count:
            raise ValueError("removing %d copies of %r, only %d present" % (count, k, m))
        if m == count:
            self.remove_edge(u, v)
        else:
            self.superedges[k] = m - count

    def remove_edge(self, u, v):
        """Remove the superedge (u,v) with all its copies."""
        k = _key(u, v)
        del self.superedges[k]
        self.adj[u].discard(v)
        self.adj[v].discard(u)

    def remove_vertex(self, v):
        for u in list(self.adj.get(v, ())):
            del self.superedges[_key(u, v)]
            self.adj[u].discard(v)
        self.adj.pop(v, None)

    def multiplicity(self, u, v):
        return self.superedges.get(_key(u, v), 0)

    def has_edge(self, u, v):
        return _key(u, v) in self.superedges

    def degree(self, v):
        sup = self.superedges
        return sum([sup[v, u] if v < u else sup[u, v]
                    for u in self.adj.get(v, ())])

    def neighbors(self, v):
        return self.adj.get(v, set())

    def num_edges(self):
        """Total number of edge copies."""
        return sum(self.superedges.values())

    def copy(self):
        g = MultiGraph()
        g.superedges = dict(self.superedges)
        g.adj = {v: set(s) for v, s in self.adj.items()}
        g.vertices = g.adj.keys()
        return g

    def without_edges(self, edges):
        """Copy with every listed superedge removed entirely."""
        g = self.copy()
        for (u, v) in edges:
            if g.has_edge(u, v):
                g.remove_edge(u, v)
        return g


class Demand:
    """A set of unordered vertex pairs with positive rational values."""

    def __init__(self, pairs=()):
        self.values = {}         # (a,b) a<b -> Fraction > 0
        for a, b, val in pairs:
            self.add(a, b, val)

    def add(self, a, b, value):
        if a == b:
            raise ValueError("demand pair endpoints must differ")
        if type(value) is not Fraction:
            value = Fraction(value)
        if value.numerator <= 0:        # the denominator is positive
            raise ValueError("demand values must be positive")
        k = _key(a, b)
        if k in self.values:
            raise ValueError("pair %r listed twice" % (k,))
        self.values[k] = value

    def value(self, a, b):
        return self.values.get(_key(a, b), Fraction(0))

    def support(self):
        s = set()
        for (a, b) in self.values:
            s.add(a)
            s.add(b)
        return s

    def is_integral(self):
        return all(v.denominator == 1 for v in self.values.values())

    def __len__(self):
        return len(self.values)


class Routing:
    """Flow paths: (vertex sequence, demand pair, positive rational value)."""

    def __init__(self):
        self.flow_paths = []

    def add(self, path, pair, value):
        if not isinstance(value, Fraction):
            value = Fraction(value)
        if value <= 0:
            raise ValueError("flow value must be positive")
        self.flow_paths.append((tuple(path), pair, value))

    def is_integral(self):
        return all(v.denominator == 1 for _, _, v in self.flow_paths)

    def __len__(self):
        return len(self.flow_paths)


class VerifyReport:
    def __init__(self, ok, worst_congestion, worst_length, violations):
        self.ok = ok
        self.worst_congestion = worst_congestion
        self.worst_length = worst_length
        self.violations = violations

    def __bool__(self):
        return self.ok


def bfs_layers(g, src, depth=None):
    """Breadth-first rings around src: [src], then each ring of vertices
    one hop further, in discovery order, up to depth hops (to the end of
    src's component when depth is None).  An empty ring ends the search
    and is not yielded."""
    seen = {src}
    layer = [src]
    hops = 0
    while layer:
        yield layer
        if hops == depth:
            return
        hops += 1
        nxt = []
        for x in layer:
            for y in g.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        layer = nxt


def hop_dist(g, src, targets=None):
    """Hop distances from src over its component.  Given targets, the
    search stops at the first ring by which every target has one."""
    dist = {}
    want = set(targets) if targets is not None else None
    for hops, layer in enumerate(bfs_layers(g, src)):
        for v in layer:
            dist[v] = hops
        if want is not None and want <= dist.keys():
            break
    return dist


def ball(g, v, d):
    """Vertices at hop distance at most d from v (multiplicities irrelevant)."""
    if v not in g.vertices:
        raise KeyError("unknown vertex %r" % (v,))
    return set().union(*bfs_layers(g, v, d))


def is_restricted(d, weight):
    """True iff every vertex v's total incident demand is at most
    weight(v), an int or a Fraction.  Totals are summed in units of 1/L
    and compared with each weight by cross-multiplication."""
    lcm, units = flow_units(d.values.values())
    totals = {}
    for (a, b), u in zip(d.values, units):
        totals[a] = totals.get(a, 0) + u
        totals[b] = totals.get(b, 0) + u
    for v, tot in totals.items():
        wv = weight(v)
        if tot * wv.denominator > wv.numerator * lcm:
            return False
    return True


def verify_routing(g, d, r, max_len, max_cong):
    """Check a routing against its demand and a (length, congestion) contract.

    Each parallel copy has unit capacity, so a superedge of multiplicity m
    may carry up to m * max_cong total flow.  All checks are exact.
    """
    max_cong = Fraction(max_cong)
    violations = []
    edge_flow = {}
    pair_totals = {}
    worst_length = 0
    for path, pair, value in r.flow_paths:
        a, b = pair
        if not path or path[0] != a or path[-1] != b:
            violations.append(("endpoints", path, pair))
            continue
        ok_path = True
        for x, y in zip(path, path[1:]):
            if not g.has_edge(x, y):
                violations.append(("missing-edge", (x, y), pair))
                ok_path = False
                break
        if not ok_path:
            continue
        if len(path) - 1 > max_len:
            violations.append(("length", len(path) - 1, pair))
        worst_length = max(worst_length, len(path) - 1)
        for x, y in zip(path, path[1:]):
            k = _key(x, y)
            edge_flow[k] = edge_flow.get(k, Fraction(0)) + value
        pair_totals[_key(a, b)] = pair_totals.get(_key(a, b), Fraction(0)) + value

    for k, val in d.values.items():
        if pair_totals.get(k, Fraction(0)) != val:
            violations.append(("pair-total", k, pair_totals.get(k, Fraction(0)), val))
    for k in pair_totals:
        if k not in d.values:
            violations.append(("unrequested-pair", k))

    worst_congestion = Fraction(0)
    for k, flow in edge_flow.items():
        # every edge that carries flow passed has_edge above
        cong = flow / g.superedges[k]
        worst_congestion = max(worst_congestion, cong)
        if cong > max_cong:
            violations.append(("congestion", k, cong))
    return VerifyReport(not violations, worst_congestion, worst_length, violations)

