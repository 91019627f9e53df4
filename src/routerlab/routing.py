"""Short-path demand routing inside a properly pruned router.

Three layers, mirroring the pruned structure:

  route_level    routes a demand living on U_i using edges of level <= i:
                 pairs sharing a level-i star go through the star center;
                 other pairs are handed to proxy vertices inside a common
                 admissible child cluster and recursed one level down.
  route_u1_to_uk ships Delta units from every U_1 vertex to a sink in
                 U_k, cluster by cluster, with bounded fan-in.
  route_demand   composes the two: source -> sink, sink-level routing,
                 sink -> target.

Every demand pair keeps its identity through the recursion and ends up
on exactly one flow-path, so integral demands produce integral flows.
Restriction thresholds r_i = Delta/32^i may be scaled by a configurable
multiplier; proxy demands are scaled down by the exact realized
restriction ratio rather than the worst-case constant.
"""

from fractions import Fraction

from .graph import Demand, Routing, Weighting, is_restricted


class RoutingError(ValueError):
    pass


class LoadTable:
    """Proxy load per vertex at one recursion level."""

    def __init__(self):
        self.load = {}

    def get(self, v):
        return self.load.get(v, Fraction(0))

    def add(self, v, value):
        self.load[v] = self.get(v) + value


class SinkMap:
    """Assignment of every U_1 vertex to its sink in U_k, with paths."""

    def __init__(self, paths):
        self.paths = paths                       # v -> vertex tuple ending at sigma(v)
        self.sigma = {v: p[-1] for v, p in paths.items()}

    def fan_in(self):
        counts = {}
        for u in self.sigma.values():
            counts[u] = counts.get(u, 0) + 1
        return max(counts.values(), default=0)


def _r(s, i, scale):
    return Fraction(s.t.delta, 32 ** i) * Fraction(scale)


def _star_path(t, i, a, target, center):
    """Walk from a to target inside one level-i star, through the center."""
    if a == target:
        return (a,)
    if a == center:
        return (a, target)
    if target == center:
        return (a, target)
    return (a, center, target)


def _members_by_child(s, i, star):
    """Star member in each child (level i-1) cluster, keyed by cluster id."""
    t = s.t
    return {t.cluster_id(i - 1, m): m for m in t.star_members(i, star)}


def _route_entries(s, i, entries, scale):
    """Route keyed demand entries (a, b, value, key), all inside one
    level-i cluster, on edges of level <= i.  One path per entry."""
    t = s.t
    out = {}
    if i == 1:
        for a, b, _val, key in entries:
            center = t.star_center(1, t.star_id(1, a))
            if t.star_id(1, a) != t.star_id(1, b):
                raise RoutingError("level-1 pair spans two stars")
            out[key] = _star_path(t, 1, a, b, center)
        return out

    loads = LoadTable()
    r_prev = _r(s, i - 1, scale)
    sub = {}            # child cluster id -> entries
    partial = {}        # key -> (source side walk, target side walk)
    member_cache = {}
    for a, b, val, key in entries:
        sa, sb = t.star_id(i, a), t.star_id(i, b)
        if sa == sb:
            center = t.star_center(i, sa)
            out[key] = _star_path(t, i, a, b, center)
            continue
        if sa not in member_cache:
            member_cache[sa] = _members_by_child(s, i, sa)
        if sb not in member_cache:
            member_cache[sb] = _members_by_child(s, i, sb)
        ca, cb = t.star_center(i, sa), t.star_center(i, sb)
        chosen = None
        for child in sorted(member_cache[sa]):
            if child not in member_cache[sb]:
                continue
            a_c = member_cache[sa][child]
            b_c = member_cache[sb][child]
            if a_c == ca or b_c == cb:
                continue                       # proxies must be leaves of their stars
            if not (s.in_u(a_c, i) and s.in_u(b_c, i)):
                continue
            if loads.get(a_c) <= r_prev - val and loads.get(b_c) <= r_prev - val:
                chosen = (child, a_c, b_c)
                break
        if chosen is None:
            raise RoutingError("admissibility violated for pair %r" % (key,))
        child, a_c, b_c = chosen
        loads.add(a_c, val)
        loads.add(b_c, val)
        partial[key] = (_star_path(t, i, a, a_c, ca), _star_path(t, i, b, b_c, cb))
        sub.setdefault(child, []).append((a_c, b_c, val, key))

    for child, child_entries in sub.items():
        mids = _route_entries(s, i - 1, child_entries, scale)
        for _a, _b, _val, key in child_entries:
            pa, pb = partial[key]
            mid = mids[key]
            out[key] = tuple(pa) + tuple(mid[1:]) + tuple(reversed(pb))[1:]
    return out


def route_level(s, i, d, scale=1):
    """Route an r_i-restricted demand on U_i via paths of length <= 4i."""
    t = s.t
    if not 1 <= i <= t.k:
        raise RoutingError("level out of range")
    for v in d.support():
        if not s.in_u(v, i):
            raise RoutingError("support vertex %r not in U_%d" % (v, i))
    if not is_restricted(d, Weighting.uniform(_r(s, i, scale))):
        raise RoutingError("demand is not r_i-restricted")
    if i < t.k:
        for (a, b), _ in d.values.items():
            if t.cluster_id(i, a) != t.cluster_id(i, b):
                raise RoutingError("pair spans distinct level-%d clusters" % i)
    entries = [(a, b, val, (a, b)) for (a, b), val in sorted(d.values.items())]
    paths = _route_entries(s, i, entries, scale)
    r = Routing()
    for a, b, val, key in entries:
        r.add(paths[key], (a, b), val)
    return r


def _u1_to_ui(s, i, cluster):
    """Paths carrying Delta units from each U_1 vertex of the given
    level-i cluster to a vertex of U_i, with round-robin fan-in."""
    t = s.t
    if i == 1:
        return {v: (v,) for v in t.cluster_vertices(1, cluster) if s.in_u(v, 1)}
    size = t.N ** i
    out = {}
    for j in range(t.N):
        child = cluster * t.N + j
        verts = t.cluster_vertices(i - 1, child)
        if not any(s.in_u(v, 1) for v in verts):
            continue
        sub_paths = _u1_to_ui(s, i - 1, child)
        ui = sorted(v for v in verts if s.in_u(v, i))
        if not ui:
            raise RoutingError("P4 violated: cluster %d has U_1 survivors "
                               "but no U_%d vertices" % (child, i))
        entries = []
        targets = {}
        for idx, v in enumerate(sorted(sub_paths)):
            sigma = ui[idx % len(ui)]
            targets[v] = sigma
            src = sub_paths[v][-1]
            if src != sigma:
                entries.append((src, sigma, Fraction(t.delta), v))
        if entries:
            # scale the rebalancing demand down by its realized restriction
            # ratio so it becomes r_{i-1}-restricted, route, and reuse the
            # paths at full value
            totals = {}
            for a, b, val, _k in entries:
                totals[a] = totals.get(a, Fraction(0)) + val
                totals[b] = totals.get(b, Fraction(0)) + val
            r_prev = _r(s, i - 1, 1)
            factor = max(max(tot / r_prev for tot in totals.values()), Fraction(1))
            scaled = [(a, b, val / factor, k) for a, b, val, k in entries]
            mids = _route_entries(s, i - 1, scaled, 1)
        else:
            mids = {}
        for v in sub_paths:
            if v in mids:
                out[v] = tuple(sub_paths[v]) + tuple(mids[v][1:])
            else:
                out[v] = tuple(sub_paths[v])
            if out[v][-1] != targets[v]:
                raise AssertionError("U_1 path ends off its U_i target")
    return out


def route_u1_to_uk(s):
    """Send Delta units from every U_1 vertex to a U_k sink.

    Returns (Routing, SinkMap); the routing lists only vertices whose
    sink differs from themselves (self-paths carry no edges).
    """
    paths = _u1_to_ui(s, s.t.k, 0)
    sm = SinkMap(paths)
    r = Routing()
    for v, p in sorted(paths.items()):
        if len(p) > 1:
            r.add(p, (v, p[-1]), Fraction(s.t.delta))
    return r, sm


def route_demand(s, d, scale=1):
    """Route a (Delta/k^4k)-restricted demand on V(W) = U_1 via paths of
    length <= 20k^2 with no edge-congestion."""
    t = s.t
    k = t.k
    cap = Fraction(t.delta, k ** (4 * k)) * Fraction(scale)
    if not is_restricted(d, Weighting.uniform(cap)):
        raise RoutingError("demand is not Delta/k^4k-restricted")
    for v in d.support():
        if not s.in_u(v, 1):
            raise RoutingError("support vertex %r not in V(W)" % (v,))
    paths = _u1_to_ui(s, k, 0)
    sigma = {v: p[-1] for v, p in paths.items()}

    entries = []
    direct = {}
    for (a, b), val in sorted(d.values.items()):
        if sigma[a] == sigma[b]:
            direct[(a, b)] = tuple(paths[a]) + tuple(reversed(paths[b]))[1:]
        else:
            entries.append((sigma[a], sigma[b], val, (a, b)))
    if entries:
        totals = {}
        for a, b, val, _key in entries:
            totals[a] = totals.get(a, Fraction(0)) + val
            totals[b] = totals.get(b, Fraction(0)) + val
        r_k = _r(s, k, 1)
        factor = max(max(tot / r_k for tot in totals.values()), Fraction(1))
        scaled = [(a, b, val / factor, key) for a, b, val, key in entries]
        mids = _route_entries(s, k, scaled, 1)
    else:
        mids = {}

    r = Routing()
    for (a, b), val in sorted(d.values.items()):
        if (a, b) in direct:
            r.add(direct[(a, b)], (a, b), val)
        else:
            mid = mids[(a, b)]
            full = tuple(paths[a]) + tuple(mid[1:]) + tuple(reversed(paths[b]))[1:]
            r.add(full, (a, b), val)
    return r
