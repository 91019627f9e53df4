import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from routerlab.graph import (MultiGraph, Demand, Routing, _key,
                             ball, bfs_layers, hop_dist, is_restricted,
                             verify_routing)

from _support import dist_matrix, total_at


def triangle():
    g = MultiGraph()
    for v in range(3):
        g.add_vertex(v)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(0, 2)
    return g


def test_multigraph_basics():
    g = MultiGraph()
    g.add_edge(1, 2, 3)
    assert g.multiplicity(1, 2) == 3
    assert g.multiplicity(2, 1) == 3
    assert g.degree(1) == 3
    assert g.num_edges() == 3
    g.remove_copies(1, 2, 2)
    assert g.multiplicity(1, 2) == 1
    g.remove_copies(1, 2)
    assert not g.has_edge(1, 2)


@pytest.mark.parametrize("count", [0, -3])
def test_remove_copies_rejects_count_below_one(count):
    g = MultiGraph()
    g.add_edge(1, 2, 2)
    with pytest.raises(ValueError, match="at least 1"):
        g.remove_copies(1, 2, count)
    assert g.multiplicity(1, 2) == 2


def test_remove_vertex_clears_incident():
    g = triangle()
    g.remove_vertex(1)
    assert 1 not in g.vertices
    assert not g.has_edge(0, 1)
    assert g.has_edge(0, 2)


def test_demand_rejects_bad_pairs():
    d = Demand()
    with pytest.raises(ValueError):
        d.add(1, 1, 1)
    d.add(1, 2, 1)
    with pytest.raises(ValueError):
        d.add(2, 1, 1)
    with pytest.raises(ValueError):
        d.add(3, 4, 0)


class _Frac(Fraction):
    pass


@pytest.mark.parametrize("value,want", [
    (3, Fraction(3)), (Fraction(2, 4), Fraction(1, 2)),
    (_Frac(3, 2), Fraction(3, 2)), (0.5, Fraction(1, 2)),
    ("5/10", Fraction(1, 2)),
    (0, None), (-2, None), (Fraction(0), None), (Fraction(-1, 3), None),
    (_Frac(-1, 2), None), (-0.5, None), (0.0, None),
], ids=["int", "fraction", "fraction-subclass", "float", "string", "zero",
        "negative-int", "zero-fraction", "negative-fraction",
        "negative-subclass", "negative-float", "zero-float"])
def test_demand_add_stores_a_plain_fraction(value, want):
    """Every value is stored as a plain Fraction (a subclass is
    converted); a value of at most 0 is rejected."""
    d = Demand()
    if want is None:
        with pytest.raises(ValueError, match="demand values must be positive"):
            d.add(0, 1, value)
        assert len(d) == 0
    else:
        d.add(0, 1, value)
        assert d.values[(0, 1)] == want
        assert type(d.values[(0, 1)]) is Fraction


def test_demand_normalizes_pairs():
    d = Demand([(5, 2, 1)])
    assert d.value(2, 5) == 1
    assert d.value(5, 2) == 1
    assert total_at(d, 5) == 1


def test_is_restricted():
    d = Demand([(0, 1, 2), (0, 2, 1)])
    assert is_restricted(d, lambda v: 3)
    assert not is_restricted(d, lambda v: 2)
    g = triangle()
    assert is_restricted(d, {0: 3, 1: 2, 2: 1}.__getitem__)
    assert not is_restricted(d, g.degree)


def test_ball():
    g = MultiGraph()
    for i in range(5):
        g.add_vertex(i)
    for i in range(4):
        g.add_edge(i, i + 1)
    assert ball(g, 0, 0) == {0}
    assert ball(g, 0, 2) == {0, 1, 2}
    assert ball(g, 2, 10) == set(range(5))


def test_bfs_matches_networkx():
    nx = pytest.importorskip("networkx")
    for seed in range(25):
        rng = random.Random(seed)
        n = rng.randrange(2, 40)
        g = MultiGraph()
        for v in range(n):
            g.add_vertex(3 * v)
        for _ in range(rng.randrange(2 * n)):
            a, b = rng.sample(sorted(g.vertices), 2)
            g.add_edge(a, b, rng.randrange(1, 3))
        ng = nx.Graph()
        ng.add_nodes_from(g.vertices)
        ng.add_edges_from(g.superedges)
        want_all = dict(nx.all_pairs_shortest_path_length(ng))
        assert dist_matrix(g) == want_all
        for src in sorted(g.vertices):
            want = want_all[src]
            layers = list(bfs_layers(g, src))
            assert layers[0] == [src] and all(layers)
            got = {v: hops for hops, layer in enumerate(layers)
                   for v in layer}
            assert sum(map(len, layers)) == len(got) and got == want
            assert hop_dist(g, src) == want
            for depth in range(4):
                assert list(bfs_layers(g, src, depth)) == layers[:depth + 1]
                assert ball(g, src, depth) == {
                    v for v, hops in want.items() if hops <= depth}
            targets = rng.sample(sorted(g.vertices), min(3, n))
            dist = hop_dist(g, src, targets)
            assert all(dist.get(t) == want.get(t) for t in targets)
            if all(t in want for t in targets):
                # the search ends with the ring of the farthest target
                assert max(dist.values()) == max(want[t] for t in targets)
            else:
                assert dist == want


def test_verify_routing_ok_and_violations():
    g = triangle()
    d = Demand([(0, 1, 1)])
    r = Routing()
    r.add((0, 1), (0, 1), 1)
    assert verify_routing(g, d, r, 1, 1).ok
    # wrong value
    r2 = Routing()
    r2.add((0, 1), (0, 1), Fraction(1, 2))
    assert not verify_routing(g, d, r2, 1, 1).ok
    # too long
    r3 = Routing()
    r3.add((0, 2, 1), (0, 1), 1)
    assert not verify_routing(g, d, r3, 1, 1).ok
    assert verify_routing(g, d, r3, 2, 1).ok
    # congestion over a single copy
    d2 = Demand([(0, 1, 2)])
    r4 = Routing()
    r4.add((0, 1), (0, 1), 2)
    rep = verify_routing(g, d2, r4, 1, 1)
    assert not rep.ok and rep.worst_congestion == 2
    assert verify_routing(g, d2, r4, 1, 2).ok


def test_verify_routing_rejects_missing_edge():
    g = triangle()
    d = Demand([(0, 1, 1)])
    r = Routing()
    r.add((0, 3, 1), (0, 1), 1)
    assert not verify_routing(g, d, r, 3, 1).ok


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                          st.integers(1, 5)), max_size=20))
@settings(max_examples=60, deadline=None)
def test_multiplicity_accumulates(edges):
    g = MultiGraph()
    want = {}
    for u, v, m in edges:
        if u == v:
            continue
        if g.has_edge(u, v):
            cur = g.multiplicity(u, v)
            g.remove_copies(u, v, cur)
            g.add_edge(u, v, cur + m)
        else:
            g.add_edge(u, v, m)
        want[_key(u, v)] = want.get(_key(u, v), 0) + m
    assert {e: g.multiplicity(*e) for e in g.superedges} == want
    assert g.num_edges() == sum(want.values())


@given(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200),
                          st.integers(1, 4)), max_size=60),
       st.lists(st.integers(0, 300), max_size=20), st.randoms())
@settings(max_examples=80, deadline=None)
def test_of_matches_incremental_build(edges, isolated, rnd):
    """MultiGraph.of gives the graph add_vertex and add_edge build, in
    the same iteration orders, isolated vertices included."""
    sup = {}
    for u, v, m in edges:
        if u != v:
            sup.setdefault(_key(u, v), m)
    verts = [x for e in sup for x in e] + isolated
    rnd.shuffle(verts)
    want = MultiGraph()
    for v in verts:
        want.add_vertex(v)
    for (u, v), m in sup.items():
        want.add_edge(u, v, m)
    got = MultiGraph.of(verts, dict(sup))
    assert list(got.vertices) == list(want.vertices)
    assert list(got.superedges.items()) == list(want.superedges.items())
    assert list(got.adj) == list(want.adj)
    assert all(list(got.adj[v]) == list(want.adj[v]) for v in want.adj)
    assert all(got.degree(v) == want.degree(v) for v in verts)
    assert got.num_edges() == want.num_edges()


_V = st.integers(0, 40)
GRAPH_OPS = st.lists(st.one_of(
    st.tuples(st.just("add_edge"), _V, _V, st.integers(1, 3)),
    st.tuples(st.just("add_vertex"), _V),
    st.tuples(st.just("remove_edge"), _V, _V),
    st.tuples(st.just("remove_copies"), _V, _V, st.integers(1, 3)),
    st.tuples(st.just("remove_vertex"), _V),
    st.tuples(st.just("copy"))), max_size=80)


@given(GRAPH_OPS)
@settings(max_examples=120, deadline=None)
def test_vertices_follow_every_mutator(ops):
    """vertices lists adj's keys in insertion order after any sequence
    of mutators, and a copy's mutators leave the original's vertices as
    they were."""
    g = MultiGraph()
    order = {}                  # the vertices in insertion order
    originals = []              # (graph copied from, its vertices then)
    for name, *args in ops:
        if name == "copy":
            originals.append((g, list(g.vertices)))
            g = g.copy()
        elif name == "add_vertex":
            g.add_vertex(*args)
            order.setdefault(args[0], None)
        elif name == "remove_vertex":
            g.remove_vertex(*args)
            order.pop(args[0], None)
        elif name == "add_edge":
            u, v, m = args
            if u != v:
                g.add_edge(u, v, m)
                order.setdefault(u, None)
                order.setdefault(v, None)
        elif g.has_edge(*args[:2]):
            if name == "remove_edge":
                g.remove_edge(*args)
            else:
                u, v, count = args
                g.remove_copies(u, v, min(count, g.multiplicity(u, v)))
        assert list(g.vertices) == list(g.adj) == list(order)
    for h, seen in originals:
        assert list(h.vertices) == list(h.adj) == seen


@pytest.mark.parametrize("verts, sup, match", [
    ([1], {(1, 1): 1}, "self-loop"),
    ([1, 2], {(1, 2): 0}, "multiplicity"),
    ([1, 2], {(2, 1): 1}, "not ordered"),
    ([1], {(1, 2): 1}, "not a vertex"),
])
def test_of_rejects_bad_superedges(verts, sup, match):
    with pytest.raises(ValueError, match=match):
        MultiGraph.of(verts, sup)


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                          st.fractions(min_value=Fraction(1, 4),
                                       max_value=4)), max_size=10),
       st.fractions(min_value=1, max_value=30))
@settings(max_examples=60, deadline=None)
def test_restriction_monotone_in_weight(pairs, cap):
    d = Demand()
    for a, b, val in pairs:
        if a != b and d.value(a, b) == 0:
            d.add(a, b, val)
    if is_restricted(d, lambda v: cap):
        assert is_restricted(d, lambda v: cap * 2)
