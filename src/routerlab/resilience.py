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

from bisect import bisect_left
from fractions import Fraction
import itertools
import math
import random

from .graph import Demand, Routing, _key, flow_units

ROUNDS_PER_K = 10       # fd_route gives up after ROUNDS_PER_K * k rounds


class FaultSet:
    """Per-copy edge faults: for each superedge, how many of its
    parallel copies are down.  Copies with the lowest indices are the
    faulted ones by convention.  Built from (u, v, count) triples, each
    count at least 1; iterating yields the faulted superedges."""

    def __init__(self, g, copies):
        self.counts = {}
        for u, v, c in copies:
            e = _key(u, v)
            if not g.has_edge(*e):
                raise KeyError("fault %r is not a host edge" % (e,))
            if c < 1:
                raise ValueError("fault count %r on %r is below 1" % (c, e))
            self.counts[e] = self.counts.get(e, 0) + c
            if self.counts[e] > g.multiplicity(*e):
                raise ValueError("more faulted copies than exist on %r" % (e,))
        # max per-vertex number of faulted copies
        per_vertex = {}
        for (u, v), c in self.counts.items():
            per_vertex[u] = per_vertex.get(u, 0) + c
            per_vertex[v] = per_vertex.get(v, 0) + c
        self.deg = max(per_vertex.values(), default=0)

    def __iter__(self):
        return iter(self.counts)

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


def _pick(prefix, num, den):
    """Index of the first prefix sum at least (num/den) * prefix[-1],
    the last index if there is none: y*total <= prefix[i] <=> prefix[i]
    >= ceil(y*total), prefix sums being integers."""
    return min(bisect_left(prefix, -(-num * prefix[-1] // den)),
               len(prefix) - 1)


def integral_round(g, d, base, alpha, eta, seed):
    """Round a fractional routing to one unit path per demand unit
    (Raghavan & Thompson randomized rounding).

    base must route d fractionally (pair totals exact).  Per demand
    unit, a path is sampled from the pair's flow distribution; choices
    are independent given the seed.  A draw x = f*total, f the random
    float r limited to denominator 2^40, takes the first path whose
    prefix sum of flow reaches x.  Flow values are integers in units of
    1/L, L the lcm of all their denominators (a common scale moves no
    pick), so the pick is the first prefix sum at least ceil(x), found
    by bisection.

    Most draws never compute f: each is bracketed first.  f lies within
    2^-41 of r, because every j/2^40 is a candidate, the nearest one is
    within half a step of r, and f is at least as close.  The pick can
    only move forward as x grows, so when r - 2^-41 and r + 2^-41 pick
    the same path, f picks it too; only otherwise is f computed, by
    Fraction.limit_denominator.  Both ends are exact, over r's power-of-
    two denominator times 2^41.  A pair with one path takes it without a
    comparison, but its draws are still made, so later pairs see the
    same random stream.
    """
    _lcm, scaled = flow_units(val for _p, _pair, val in base.flow_paths)
    by_pair = {}         # pair -> (its paths, their flow in units of 1/L)
    for (path, pair, _val), u in zip(base.flow_paths, scaled):
        opts = by_pair.setdefault(_key(*pair), ([], []))
        opts[0].append(path)
        opts[1].append(u)
    draw = random.Random(seed).random
    out = Routing()
    add = out.flow_paths.append
    one = Fraction(1)
    for pair, want in sorted(d.values.items()):
        if want.denominator != 1:
            raise ValueError("demand value %s is not integral" % (want,))
        if pair not in by_pair:
            raise ValueError("base routing has no flow for pair %r" % (pair,))
        paths, units = by_pair[pair]
        prefix = list(itertools.accumulate(units))
        if prefix[-1] <= 0:
            raise ValueError("base routing infeasible for pair %r" % (pair,))
        for _unit in range(int(want)):
            n, den = draw().as_integer_ratio()
            i = 0
            if len(prefix) > 1:
                # r -+ 2^-41 = (n*2^41 -+ den) / (den*2^41)
                i = _pick(prefix, (n << 41) - den, den << 41)
                if i != _pick(prefix, (n << 41) + den, den << 41):
                    f = Fraction(n, den).limit_denominator(1 << 40)
                    i = _pick(prefix, f.numerator, f.denominator)
            add((paths[i], pair, one))
    return out


class FdReport:
    def __init__(self):
        self.rounds = []                 # per-round audit dicts
        self.safe_at_start = 0
        self.total_pairs = 0


def fd_route(oracle, g, faults, demand, k, d, eta, delta, report=None):
    """Route a delta-restricted demand in g minus the faulty edges.

    oracle(demand) must return an integral unit-path routing in the
    intact g with length <= d and congestion <= eta_prime = 16*eta*n.
    A demand pair of value x becomes m = ceil(x*n) unit pairs, n the
    number of vertices of g.  Returns a Routing whose paths avoid the
    faults entirely.
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
    fv = faults.vertices()
    # parallel-copy indices are handed out round robin per superedge, so
    # a routing with congestion c uses each copy about c times; a path
    # is faulted exactly where one of its assigned copies is
    copy_counters = {}

    def faulted_positions(path):
        out = []
        for idx, (a, b) in enumerate(zip(path, path[1:])):
            e = _key(a, b)
            c = copy_counters.get(e, 0)
            copy_counters[e] = c + 1
            if c % g.multiplicity(*e) < faults.count(a, b):
                out.append(idx)
        return out

    def unit_paths(units):
        """The oracle's paths for units[pair] unit pairs of each pair,
        grouped by pair."""
        dm = Demand()
        for pair, m in sorted(units.items()):
            dm.values[pair] = Fraction(m)
        by_pair = {}
        for path, pair, _val in oracle(dm).flow_paths:
            by_pair.setdefault(_key(*pair), []).append(path)
        for pair, m in units.items():
            got = len(by_pair.get(pair, ()))
            if got != m:
                raise ValueError("oracle returned %d paths for %r, wanted %d"
                                 % (got, pair, m))
        return by_pair

    # integralize: m unit pairs per demand pair
    units = {pair: math.ceil(val * n)
             for pair, val in sorted(demand.values.items())}
    out = Routing()
    if not units:
        return out

    rep = report if report is not None else FdReport()
    by_pair = unit_paths(units)
    # split unit paths into safe ones and stuck endpoint pairs; a stuck
    # one keeps its path up to its first and from its last fault vertex,
    # and one tree per side whose leaves hold (vertex, walk): the
    # composed fault-free path from the tree root down to that leaf
    final_paths = {pair: [] for pair in units}
    stuck = []
    for pair in units:
        for p in by_pair[pair]:
            if p[0] != pair[0]:
                p = tuple(reversed(p))
            if not faulted_positions(p):
                final_paths[pair].append(p)
                continue
            on_f = [idx for idx, v in enumerate(p) if v in fv]
            x, y = p[on_f[0]], p[on_f[-1]]
            stuck.append({"pair": pair, "pre": p[:on_f[0] + 1],
                          "suf": p[on_f[-1]:], "x_leaves": [(x, (x,))],
                          "y_leaves": [(y, (y,))], "done": None})
    rep.total_pairs = sum(units.values())
    rep.safe_at_start = rep.total_pairs - len(stuck)

    unresolved = stuck
    i = 0
    while unresolved:
        i += 1
        if i > z:
            raise AssertionError("fault-tree rounds exhausted")
        # matched-leaf demand, lambda units per matched pair
        agg = {}
        leaves = lam ** (i - 1)
        for e in unresolved:
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
        pool = unit_paths(agg) if agg else {}
        taken = dict.fromkeys(pool, 0)
        still = []
        round_audit = {"round": i, "pairs": len(unresolved), "good": 0}
        for e in unresolved:
            # gather this entry's lambda paths per matched leaf pair; the
            # copy counters advance for all of them, also after a good
            # path is found
            per_leaf = []
            good = None
            for (u, wu), (w, ww) in zip(e["x_leaves"], e["y_leaves"]):
                if u == w:
                    paths = [((u,), [])] * lam
                else:
                    key = _key(u, w)
                    start = taken[key]
                    taken[key] += lam
                    paths = []
                    for p in pool[key][start:start + lam]:
                        if p[0] != u:
                            p = tuple(reversed(p))
                        paths.append((p, faulted_positions(p)))
                per_leaf.append((wu, ww, paths))
                if good is None:
                    for p, fp in paths:
                        if not fp:
                            good = (wu, p, ww)
                            break
            if good is not None:
                wu, mid, ww = good
                e["done"] = (tuple(e["pre"]) + tuple(wu[1:]) + tuple(mid[1:])
                             + tuple(reversed(ww))[1:] + tuple(e["suf"][1:]))
                round_audit["good"] += 1
                continue
            # bad pair: every path hits F; expand both trees
            nx, ny = [], []
            for wu, ww, paths in per_leaf:
                # child = near endpoint of the first faulted copy, reached
                # by the path's maximal fault-free prefix
                for p, fp in paths:
                    cut = fp[0]
                    nx.append((p[cut], tuple(wu) + tuple(p[1:cut + 1])))
                    cut2 = fp[-1] + 1
                    ny.append((p[cut2],
                               tuple(ww) + tuple(reversed(p[cut2:]))[1:]))
            e["x_leaves"], e["y_leaves"] = nx, ny
            still.append(e)
        rep.rounds.append(round_audit)
        unresolved = still

    # safe paths first, then the stuck ones in entry order
    for e in stuck:
        final_paths[e["pair"]].append(e["done"])
    for pair, m in units.items():
        share = demand.values[pair] / m
        for p in final_paths[pair]:
            out.add(p, pair, share)
    return out
