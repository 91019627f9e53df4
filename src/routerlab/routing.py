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

The U_1 -> U_k sink paths depend only on the router's membership sets,
so they are computed once per membership change: _sinks is read through
the router's memo (PrunedRouter.memo), which the router clears whenever
a deletion changes its masks.

Every demand pair keeps its identity through the recursion and ends up
on exactly one flow-path, so integral demands produce integral flows.
Proxy demands are scaled down by the exact realized restriction ratio
rather than the worst-case constant.

Flow values stay exact but are not Fractions inside the stack: it
routes keyed integer entries in units of 1/L, so proxy loads, vertex
totals and admissibility tests are integer sums and comparisons.
route_level and route_demand turn a Demand into entries (see
graph.flow_units) and back; witness routing calls route_demand's core,
_route_units, with its own entries.  Instead of scaling every value
down by the restriction ratio, the thresholds are scaled up by it.
"""

from fractions import Fraction

from .graph import Routing, flow_units, is_restricted


class RoutingError(ValueError):
    pass


def _star_path(a, target, center):
    """Walk from a to target inside one level-i star, through the center."""
    if a == target:
        return (a,)
    if center in (a, target):
        return (a, target)
    return (a, center, target)


def _route_entries(s, i, entries, r0):
    """Route keyed demand entries (a, b, units, key), all inside one
    level-i cluster, on edges of level <= i.  One path per entry.

    units is the entry's integer flow in units of 1/L, and r0 is r_0 in
    the same units, scaled up by the demand's scale-down factor, so the
    admissibility threshold r_{i-1} is r0 / 32^(i-1).  An integer load
    is at most that iff it is at most its floor.  At level 1 every pair
    must share a star.

    Level i's star columns are read from the template's tables once
    per call.  Every caller passes 1 <= i <= k, the range that the
    template's star_id, star_center and star_members would check again
    on every pair."""
    t = s.t
    level = t.tables.levels[i]
    star_id = level.star_id
    star_center = level.star_center
    star_members = level.star_members
    out = {}
    loads = {}          # proxy vertex -> units routed through it
    r_prev = r0.numerator // (r0.denominator * 32 ** (i - 1))
    sub = {}            # child cluster id -> entries
    partial = {}        # key -> (source side walk, target side walk)
    for a, b, val, key in entries:
        sa, sb = star_id[a], star_id[b]
        if sa == sb:
            out[key] = _star_path(a, b, star_center[sa])
            continue
        if i == 1:
            raise RoutingError("level-1 pair spans two stars")
        ca, cb = star_center[sa], star_center[sb]
        # the j-th member of a level-i star lies in the cluster's j-th
        # child, so candidates pair up by position, in child order
        for a_c, b_c in zip(star_members[sa], star_members[sb]):
            if a_c == ca or b_c == cb:
                continue                       # proxies must be leaves of their stars
            if not (s.in_u(a_c, i) and s.in_u(b_c, i)):
                continue
            if (loads.get(a_c, 0) + val <= r_prev
                    and loads.get(b_c, 0) + val <= r_prev):
                break
        else:
            raise RoutingError("admissibility violated for pair %r" % (key,))
        child = t.cluster_id(i - 1, a_c)
        loads[a_c] = loads.get(a_c, 0) + val
        loads[b_c] = loads.get(b_c, 0) + val
        partial[key] = (_star_path(a, a_c, ca), _star_path(b, b_c, cb))
        sub.setdefault(child, []).append((a_c, b_c, val, key))

    for child, child_entries in sub.items():
        mids = _route_entries(s, i - 1, child_entries, r0)
        for _a, _b, _val, key in child_entries:
            pa, pb = partial[key]
            mid = mids[key]
            out[key] = tuple(pa) + tuple(mid[1:]) + tuple(reversed(pb))[1:]
    return out


def _scaled_r0(s, i, entries, lcm):
    """r_0 in units of 1/L for routing entries (a, b, units, key) at level
    i after scaling them down by factor = max(1, max vertex total / r_i):
    Delta*factor*L, which is max(Delta*L, max total * 32^i) because
    r_i = Delta/32^i."""
    totals = {}
    for a, b, val, _key in entries:
        totals[a] = totals.get(a, 0) + val
        totals[b] = totals.get(b, 0) + val
    return max(s.t.delta * lcm, max(totals.values()) * 32 ** i)


def _route_pairs(d, route):
    """Route a Demand by route(entries, lcm) -> {key: path}, one entry
    (a, b, units, (a, b)) per pair in sorted order."""
    items = sorted(d.values.items())
    lcm, units = flow_units(val for _pair, val in items)
    entries = [(a, b, u, (a, b)) for ((a, b), _v), u in zip(items, units)]
    paths = route(entries, lcm)
    r = Routing()
    for pair, val in items:
        r.add(paths[pair], pair, val)
    return r


def route_level(s, i, d):
    """Route an r_i-restricted demand on U_i via paths of length <= 4i,
    r_i = Delta/32^i."""
    t = s.t
    if not 1 <= i <= t.k:
        raise RoutingError("level out of range")
    for v in d.support():
        if not s.in_u(v, i):
            raise RoutingError("support vertex %r not in U_%d" % (v, i))
    cap = Fraction(t.delta, 32 ** i)
    if not is_restricted(d, lambda v: cap):
        raise RoutingError("demand is not r_i-restricted")
    if i < t.k:
        for (a, b), _ in d.values.items():
            if t.cluster_id(i, a) != t.cluster_id(i, b):
                raise RoutingError("pair spans distinct level-%d clusters" % i)
    return _route_pairs(
        d, lambda entries, lcm: _route_entries(s, i, entries, t.delta * lcm))


def _u1_to_ui(s, i, cluster):
    """Paths carrying Delta units from each U_1 vertex of the given
    level-i cluster to a vertex of U_i, with round-robin fan-in."""
    t = s.t
    if i == 1:
        return {v: (v,) for v in t.cluster_vertices(1, cluster) if s.in_u(v, 1)}
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
                entries.append((src, sigma, t.delta, v))
        if entries:
            # route the rebalancing demand as if scaled down by its
            # realized restriction ratio, so it is r_{i-1}-restricted,
            # and reuse the paths at full value
            mids = _route_entries(s, i - 1, entries,
                                  _scaled_r0(s, i - 1, entries, 1))
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


def _sinks(s):
    """Every U_1 vertex's path to its U_k sink, the path's last vertex."""
    return _u1_to_ui(s, s.t.k, 0)


def route_u1_to_uk(s):
    """Send Delta units from every U_1 vertex to a U_k sink.

    Returns (Routing, paths): paths maps every U_1 vertex to its vertex
    tuple, which ends at the vertex's sink.  The routing lists only
    vertices whose sink differs from themselves (self-paths carry no
    edges).
    """
    paths = dict(s.memo("sinks", _sinks))
    r = Routing()
    delta = Fraction(s.t.delta)
    for v, p in sorted(paths.items()):
        if len(p) > 1:
            r.add(p, (v, p[-1]), delta)
    return r, paths


def _route_units(s, entries, lcm):
    """Route keyed entries (a, b, units, key) on V(W) = U_1, each worth
    units/lcm for an int or Fraction lcm, and return {key: path}.  The
    entries must be (Delta/k^4k)-restricted: every vertex total t has
    t * k^4k <= Delta * lcm.  Paths run source -> sink -> target."""
    k = s.t.k
    totals = {}
    for a, b, u, _key in entries:
        totals[a] = totals.get(a, 0) + u
        totals[b] = totals.get(b, 0) + u
    cap, scale = s.t.delta * lcm, k ** (4 * k)
    if any(tot * scale > cap for tot in totals.values()):
        raise RoutingError("demand is not Delta/k^4k-restricted")
    for v in totals:
        if not s.in_u(v, 1):
            raise RoutingError("support vertex %r not in V(W)" % (v,))
    paths = s.memo("sinks", _sinks)

    via = {}            # key -> sink-to-sink path
    mid_entries = []
    for a, b, u, key in entries:
        if paths[a][-1] == paths[b][-1]:
            via[key] = paths[a][-1:]
        else:
            mid_entries.append((paths[a][-1], paths[b][-1], u, key))
    if mid_entries:
        via.update(_route_entries(s, k, mid_entries,
                                  _scaled_r0(s, k, mid_entries, lcm)))
    return {key: paths[a] + via[key][1:] + tuple(reversed(paths[b]))[1:]
            for a, b, _u, key in entries}


def route_demand(s, d):
    """Route a (Delta/k^4k)-restricted demand on V(W) = U_1 via paths of
    length <= 20k^2 with no edge-congestion."""
    return _route_pairs(d, lambda entries, lcm: _route_units(s, entries, lcm))
