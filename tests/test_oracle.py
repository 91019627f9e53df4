import random
from fractions import Fraction

import pytest

from routerlab.graph import Demand, MultiGraph, Routing, verify_routing
from routerlab.router_template import build, realize

from _support import (CapExceeded, approx_feasible, dist_matrix, enum_paths,
                      router_probe)


def triangle():
    g = MultiGraph()
    for v in range(3):
        g.add_vertex(v)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(0, 2)
    return g


def test_dist_matrix():
    g = triangle()
    g.add_edge(2, 3)
    dm = dist_matrix(g)
    assert dm[0][0] == 0
    assert dm[0][2] == 1
    assert dm[0][3] == 2
    g.add_vertex(9)
    dm2 = dist_matrix(g)
    assert 9 not in dm2[0]


def test_dist_matrix_cap():
    g = MultiGraph()
    for i in range(80):
        g.add_edge(i, i + 1)
    with pytest.raises(CapExceeded):
        dist_matrix(g, cap=10)


def test_enum_paths_lexicographic():
    g = triangle()
    ps = enum_paths(g, 0, 2, 2)
    assert ps == sorted(ps)
    assert set(ps) == {(0, 1, 2), (0, 2)}
    assert enum_paths(g, 0, 2, 1) == [(0, 2)]
    assert enum_paths(g, 0, 2, 0) == []


def test_enum_paths_cap():
    g = MultiGraph()
    for a in range(8):
        for b in range(a + 1, 8):
            g.add_edge(a, b)
    with pytest.raises(CapExceeded):
        enum_paths(g, 0, 7, 7, cap=10)


def test_approx_feasible_simple():
    g = triangle()
    rep = approx_feasible(g, Demand([(0, 2, 1)]), 2, 1)
    assert rep.feasible
    rep2 = approx_feasible(g, Demand([(0, 2, 2)]), 1, 1)
    assert not rep2.feasible
    assert rep2.dual


def test_approx_feasible_no_path_is_infeasible():
    g = triangle()
    g.add_edge(5, 6)
    rep = approx_feasible(g, Demand([(0, 5, 1)]), 10, 10)
    assert not rep.feasible


def as_routing(flow):
    r = Routing()
    for pair, paths in flow.items():
        for p, v in paths.items():
            if v > 0:
                r.add(p, pair, v)
    return r


def test_feasible_flow_passes_verifier():
    g = triangle()
    d = Demand([(0, 1, 1), (1, 2, 1)])
    rep = approx_feasible(g, d, 2, 2)
    assert rep.feasible
    vr = verify_routing(g, d, as_routing(rep.flow), 2, 2)
    assert vr.ok, vr.violations[:3]


def random_walk_path(g, rng, maxlen):
    verts = sorted(g.vertices)
    v = rng.choice(verts)
    p = [v]
    for _ in range(rng.randrange(1, maxlen + 1)):
        nbrs = sorted(x for x in g.neighbors(p[-1]) if x not in p)
        if not nbrs:
            break
        p.append(rng.choice(nbrs))
    return tuple(p) if len(p) > 1 else None


def test_oracle_never_rejects_verified_routing_fuzz():
    # build a routing that the verifier accepts, then check the oracle
    # agrees its demand is feasible at the same (length, congestion)
    rng = random.Random(3)
    for trial in range(25):
        n = rng.randrange(4, 9)
        g = MultiGraph()
        for i in range(n):
            g.add_vertex(i)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    g.add_edge(i, j, rng.randrange(1, 3))
        r = Routing()
        d = Demand()
        for _ in range(3):
            p = random_walk_path(g, rng, 3)
            if p is None or d.value(p[0], p[-1]) > 0:
                continue
            val = Fraction(rng.randrange(1, 4), 2)
            d.add(p[0], p[-1], val)
            r.add(p, (p[0], p[-1]), val)
        if not len(d):
            continue
        dlen = max(len(p) - 1 for p, _pr, _v in r.flow_paths)
        cong = verify_routing(g, d, r, dlen, 1).worst_congestion
        eta = max(1, -(-cong.numerator // cong.denominator)) \
            if isinstance(cong, Fraction) else max(1, cong)
        assert verify_routing(g, d, r, dlen, eta).ok, trial
        rep = approx_feasible(g, d, dlen, eta)
        assert rep.feasible, (trial, rep.ratio)


def test_router_probe_realized_router():
    g = realize(build(4, 1, 8))
    pr = router_probe(g, lambda v: 1, 2, 2)
    assert pr["feasible"], pr
    assert pr["kind"] in ("matching", "star", "bisection")


def test_router_probe_flags_broken_router():
    g = realize(build(4, 1, 8))
    # cut a leaf off: degree-weighted demands through it become infeasible
    for c in sorted(g.adj[1]):
        g.remove_copies(1, c, g.multiplicity(1, c))
    g.add_edge(1, 2)
    pr = router_probe(g, g.degree, 2, 1)
    assert not pr["feasible"]
    assert pr["demand"] is not None
