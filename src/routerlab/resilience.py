"""Fault-tolerant routing on top of an abstract restricted-routing
oracle.

The oracle answers integral routing requests in the intact graph with
bounded length and congestion.  Given a set F of faulty edges with
bounded per-vertex incidence, fd_route first routes everything as if F
were absent, keeps the safe paths, and then repeatedly re-routes the
stuck endpoint pairs: each stuck endpoint grows a tree whose nodes are
fault endpoints, matched leaves of the two trees exchange lambda flow
units per round, and a pair is done the moment one of its matched-leaf
paths misses F.  The leaf populations grow geometrically, so with
lambda large enough the process must finish within 10k rounds.
"""

from fractions import Fraction
import itertools
import math
import random

from .graph import Demand, Routing, _key, flow_units

ROUNDS_PER_K = 10       # fd_route gives up after ROUNDS_PER_K * k rounds


class FaultSet:
    """Per-copy edge faults: for each superedge, how many of its
    parallel copies are down.  Copies with the lowest indices are the
    faulted ones by convention."""

    def __init__(self, g, copies):
        self.counts = {}
        for item in copies:
            if len(item) == 3:
                u, v, c = item
            else:
                (u, v), c = item, 1
            e = _key(u, v)
            if not g.has_edge(*e):
                raise KeyError("fault %r is not a host edge" % (e,))
            self.counts[e] = self.counts.get(e, 0) + c
            if self.counts[e] > g.multiplicity(*e):
                raise ValueError("more faulted copies than exist on %r" % (e,))
        self.deg = faulty_degree(self.counts, g)

    def count(self, u, v):
        return self.counts.get(_key(u, v), 0)

    def vertices(self):
        out = set()
        for (u, v) in self.counts:
            out.add(u)
            out.add(v)
        return out

    def reduced_graph(self, g):
        """The host with every faulted copy removed."""
        out = g.copy()
        for e, c in self.counts.items():
            out.remove_copies(e[0], e[1], c)
        return out


def faulty_degree(copies, g):
    """Max per-vertex number of faulted copies.  Accepts a mapping
    edge -> count or an iterable of edges (one copy each)."""
    counts = {}
    items = copies.items() if hasattr(copies, "items") else \
        [( _key(u, v), 1) for (u, v) in copies]
    per_edge = {}
    for e, c in items:
        e = _key(*e)
        if not g.has_edge(*e):
            raise KeyError("edge %r not in graph" % (e,))
        per_edge[e] = per_edge.get(e, 0) + c
    for (u, v), c in per_edge.items():
        counts[u] = counts.get(u, 0) + c
        counts[v] = counts.get(v, 0) + c
    return max(counts.values(), default=0)


def _limit_denominator(n, d, max_den):
    """Fraction(n, d).limit_denominator(max_den) as a (numerator,
    denominator) pair, for n/d in lowest terms: the closest fraction
    with denominator at most max_den, the one with the smaller
    denominator on a tie.  Same continued-fraction walk as the standard
    library, with the closeness test cross-multiplied."""
    if d <= max_den:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    n0, d0 = n, d
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_den - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # |p1/q1 - n0/d0| <= |p2/q2 - n0/d0|, both sides times d0*q1*q2
    if abs(p1 * d0 - n0 * q1) * q2 <= abs(p2 * d0 - n0 * q2) * q1:
        return p1, q1
    return p2, q2


def integral_round(g, d, base, alpha, eta, seed):
    """Round a fractional routing to one unit path per demand unit
    (Raghavan & Thompson randomized rounding).

    base must route d fractionally (pair totals exact).  Per demand
    unit, a path is sampled from the pair's flow distribution; choices
    are independent given the seed.  A draw x = f*total, f the random
    float limited to denominator 2^40, takes the first path whose
    prefix sum of flow reaches x.  The flow values of a pair are summed
    as integers in units of 1/L and x is compared with each prefix sum
    by cross-multiplication.
    """
    by_pair = {}
    for path, pair, val in base.flow_paths:
        by_pair.setdefault(_key(*pair), []).append((path, val))
    rng = random.Random(seed)
    out = Routing()
    one = Fraction(1)
    for (a, b), want in sorted(d.values.items()):
        if want.denominator != 1:
            raise ValueError("demand value %s is not integral" % (want,))
        opts = by_pair.get((a, b))
        if not opts:
            raise ValueError("base routing has no flow for pair %r" % ((a, b),))
        _lcm, units = flow_units(v for _p, v in opts)
        prefix = list(itertools.accumulate(units))
        total = prefix[-1]
        if total <= 0:
            raise ValueError("base routing infeasible for pair %r" % ((a, b),))
        for _unit in range(int(want)):
            fn, fd = _limit_denominator(*rng.random().as_integer_ratio(),
                                        1 << 40)
            # f*total/L <= prefix/L  <=>  fn*total <= prefix*fd
            x = fn * total
            chosen = opts[-1][0]
            for (p, _v), acc in zip(opts, prefix):
                if x <= acc * fd:
                    chosen = p
                    break
            out.add(chosen, (a, b), one)
    return out


class FdReport:
    def __init__(self):
        self.rounds = []                 # per-round audit dicts
        self.safe_at_start = 0
        self.total_pairs = 0


class _CopyAssigner:
    """Hands out parallel-copy indices round robin per superedge, so a
    routing with congestion c uses each copy about c times.  A path is
    then faulted exactly where one of its assigned copies is."""

    def __init__(self, g, faults):
        self.g = g
        self.faults = faults
        self.counters = {}

    def faulted_positions(self, path):
        out = []
        for idx, (a, b) in enumerate(zip(path, path[1:])):
            e = _key(a, b)
            c = self.counters.get(e, 0)
            self.counters[e] = c + 1
            if c % self.g.multiplicity(*e) < self.faults.count(a, b):
                out.append(idx)
        return out


def _first_fault_cut(path, fault_vertices, from_start=True):
    """Index of the fault vertex closest to the chosen end of the path."""
    rng = range(len(path)) if from_start else range(len(path) - 1, -1, -1)
    for idx in rng:
        if path[idx] in fault_vertices:
            return idx
    return None


def fd_route(oracle, g, faults, demand, k, d, eta, delta, scale=None,
             report=None):
    """Route a delta-restricted demand in g minus the faulty edges.

    oracle(demand) must return an integral unit-path routing in the
    intact g with length <= d and congestion <= eta_prime = 16*eta*n.
    Each demand pair becomes ceil(value*scale) unit pairs, scale
    defaulting to n.  Returns a Routing whose paths avoid the faults
    entirely.
    """
    n = len(g.vertices)
    eta = Fraction(eta)
    eta_p = 16 * eta * n
    delta_p = 2 * n * Fraction(delta)
    f = faults.deg
    z = ROUNDS_PER_K * k
    lam = int(delta_p // (f * eta_p)) if f else 0
    if f and (lam < 1 or Fraction(lam) ** (z - 1) <= n * f * eta_p):
        raise ValueError("lambda too small: %s^%d does not clear n*f*eta'"
                         % (lam, z - 1))
    if scale is None:
        scale = n
    fv = faults.vertices()
    assigner = _CopyAssigner(g, faults)

    # integralize: m_ab unit pairs per demand pair
    units = {}
    for (a, b), val in sorted(demand.values.items()):
        m = math.ceil(val * scale)
        units[(a, b)] = m
    d_int = Demand()
    for pair, m in units.items():
        d_int.values[pair] = Fraction(m)

    out = Routing()
    if not units:
        return out

    base = oracle(d_int)
    by_pair = {}
    for path, pair, _val in base.flow_paths:
        by_pair.setdefault(_key(*pair), []).append(path)

    rep = report if report is not None else FdReport()
    # split unit paths into safe ones and stuck endpoint pairs
    final_paths = {pair: [] for pair in units}
    stuck = []           # (pair, prefix path, suffix path, x, y)
    for pair, m in units.items():
        paths = by_pair.get(pair, [])
        if len(paths) != m:
            raise ValueError("oracle returned %d paths for %r, wanted %d"
                             % (len(paths), pair, m))
        for p in paths:
            if p[0] != pair[0]:
                p = tuple(reversed(p))
            if not assigner.faulted_positions(p):
                final_paths[pair].append(p)
                continue
            xi = _first_fault_cut(p, fv, True)
            yi = _first_fault_cut(p, fv, False)
            stuck.append((pair, p[:xi + 1], p[yi:], p[xi], p[yi]))
    rep.total_pairs = sum(units.values())
    rep.safe_at_start = rep.total_pairs - len(stuck)

    # trees: per stuck entry, one tree per side; nodes carry the
    # embedding path of the edge to their parent
    entries = []
    for (pair, pre, suf, x, y) in stuck:
        # leaves hold (vertex, walk): the composed fault-free path from
        # the tree root down to that leaf
        entries.append({"pair": pair, "pre": pre, "suf": suf,
                        "x_leaves": [(x, (x,))], "y_leaves": [(y, (y,))],
                        "done": None})
    unresolved = list(range(len(entries)))

    i = 0
    while unresolved:
        i += 1
        if i > z:
            raise AssertionError("fault-tree rounds exhausted")
        # matched-leaf demand, lambda units per matched pair
        agg = {}
        leaves = lam ** (i - 1)
        for ei in unresolved:
            e = entries[ei]
            if len(e["x_leaves"]) != leaves or len(e["y_leaves"]) != leaves:
                raise AssertionError("fault-tree leaf count broken")
            for (u, _wu), (w, _ww) in zip(e["x_leaves"], e["y_leaves"]):
                if u != w:
                    key = _key(u, w)
                    agg[key] = agg.get(key, 0) + lam
        # audit: the leaf demand must stay delta'-restricted
        tot = {}
        for (u, w), m in agg.items():
            tot[u] = tot.get(u, 0) + m
            tot[w] = tot.get(w, 0) + m
        if any(t > delta_p for t in tot.values()):
            raise AssertionError("D^i not restricted")
        if agg:
            di = Demand()
            for key, m in sorted(agg.items()):
                di.values[key] = Fraction(m)
            qi = oracle(di)
            pool = {}
            for path, pair, _val in qi.flow_paths:
                pool.setdefault(_key(*pair), []).append(path)
            for key, m in agg.items():
                if len(pool.get(key, [])) != m:
                    raise ValueError("oracle returned wrong path count for %r"
                                     % (key,))
        else:
            pool = {}
        taken = {key: 0 for key in pool}
        still = []
        round_audit = {"round": i, "pairs": len(unresolved), "good": 0}
        for ei in unresolved:
            e = entries[ei]
            # gather this entry's lambda paths per matched leaf pair
            per_leaf = []
            good = None
            for j, ((u, wu), (w, ww)) in enumerate(
                    zip(e["x_leaves"], e["y_leaves"])):
                if u == w:
                    paths = [((u,), [])] * lam
                else:
                    key = _key(u, w)
                    start = taken[key]
                    taken[key] += lam
                    raw = pool[key][start:start + lam]
                    raw = [p if p[0] == u else tuple(reversed(p))
                           for p in raw]
                    paths = [(p, assigner.faulted_positions(p)) for p in raw]
                per_leaf.append((j, u, wu, w, ww, paths))
                if good is None:
                    for p, fp in paths:
                        if not fp:
                            good = (wu, p, ww)
                            break
            if good is not None:
                wu, mid, ww = good
                full = (tuple(e["pre"]) + tuple(wu[1:]) + tuple(mid[1:])
                        + tuple(reversed(ww))[1:] + tuple(e["suf"][1:]))
                e["done"] = full
                round_audit["good"] += 1
                continue
            # bad pair: every path hits F; expand both trees
            nx, ny = [], []
            for j, u, wu, w, ww, paths in per_leaf:
                # child = near endpoint of the first faulted copy, reached
                # by the path's maximal fault-free prefix
                for p, fp in paths:
                    cut = fp[0]
                    nx.append((p[cut], tuple(wu) + tuple(p[1:cut + 1])))
                    cut2 = fp[-1] + 1
                    ny.append((p[cut2],
                               tuple(ww) + tuple(reversed(p[cut2:]))[1:]))
            e["x_leaves"], e["y_leaves"] = nx, ny
            still.append(ei)
        rep.rounds.append(round_audit)
        unresolved = still

    for e in entries:
        final_paths[e["pair"]].append(e["done"])

    for (a, b), val in sorted(demand.values.items()):
        m = units[(a, b)]
        share = val / m
        for p in final_paths[(a, b)]:
            out.add(p, (a, b), share)
    return out
