import random

import pytest
from hypothesis import given, settings, strategies as st

from routerlab.graph import MultiGraph, ball
from routerlab.clustering import (Cluster, ClusteringState, LargeBallCert,
                                  _induced, eligible_index,
                                  init_clustering, is_settled,
                                  process_cluster, pow_le, grow_le)


def path_graph(n):
    g = MultiGraph()
    for i in range(n):
        g.add_vertex(i)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def clique(n):
    g = MultiGraph()
    for i in range(n):
        g.add_vertex(i)
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j)
    return g


def rand_graph(n, m, seed):
    rng = random.Random(seed)
    g = MultiGraph()
    for i in range(n):
        g.add_vertex(i)
    added = set()
    while len(added) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        e = (min(a, b), max(a, b))
        if a != b and e not in added:
            added.add(e)
            g.add_edge(a, b)
    return g


def test_exact_power_comparisons():
    assert pow_le(8, 64, 1, 2)          # 8 <= 64^(1/2)
    assert not pow_le(9, 64, 1, 2)
    assert grow_le(10, 10, 100, 0, 5)   # 10 <= 10 * 100^0
    assert not grow_le(11, 10, 1, 1, 5)


def test_p100_endpoint_eligible_index_is_3():
    g = path_graph(100)
    assert eligible_index(Cluster(0, g), 0, 2) == 3


def test_clique_gives_large_ball_cert():
    g = clique(16)
    r = eligible_index(Cluster(0, g), 0, 2)
    assert isinstance(r, LargeBallCert)
    assert r.size == 16
    assert is_settled(Cluster(0, g), 2, 16)


def test_edgeless_settled_iff_singleton():
    s1 = MultiGraph()
    s1.add_vertex(0)
    assert is_settled(Cluster(0, s1), 2, 10)
    s2 = MultiGraph()
    s2.add_vertex(0)
    s2.add_vertex(1)
    assert not is_settled(Cluster(0, s2), 2, 10)


def test_many_components_not_settled():
    g = MultiGraph()
    for i in range(100):
        g.add_edge(2 * i, 2 * i + 1)
    assert not is_settled(Cluster(0, g), 2, 200)


def test_process_cluster_clique_no_split():
    res, pieces, cores, _nid = process_cluster(Cluster(0, clique(16)), 2)
    assert not pieces
    assert res.num_vertices() == 16


def test_process_cluster_piece_and_core_bounds():
    for seed in range(15):
        n = random.Random(seed).randrange(40, 400)
        g = rand_graph(n, min(n * (n - 1) // 2, 2 * n), seed)
        k = 2 + seed % 2
        c = Cluster(0, g)
        if is_settled(c, k, n):
            continue
        res, pieces, cores, _nid = process_cluster(c, k)
        assert sum(p.num_vertices() for p in pieces) >= len(
            set().union(*cores)) if cores else True
        for p, u in zip(pieces, cores):
            assert u <= set(p.vertices())
            # piece <= parent^(1-1/k); core >= piece / parent^(1/k^3)
            assert p.num_vertices() ** k <= n ** (k - 1) or n <= 1
            assert len(u) ** (k ** 3) * n >= p.num_vertices() ** (k ** 3)


def test_process_cluster_removes_ring_edges_from_the_residue():
    """A piece is B(v, i) and its core B(v, i-1).  The core's vertices
    leave the residue with their edges, and so must a piece edge between
    two outer-ring vertices, which touches no core vertex: on the strip
    v-v+1, v-v+2 the first piece is B(0, 3) = {0..6} with core {0..4},
    and its ring edge (5, 6) stays with the piece alone.  Reaching this
    through init_clustering at k = 2 takes a host of about 17,000
    vertices, so the split is called directly."""
    strip = MultiGraph()
    for v in range(200):
        for d in (1, 2):
            if v + d < 200:
                strip.add_edge(v, v + d)
    res, pieces, cores, _nid = process_cluster(Cluster(0, strip), 2)
    assert len(pieces) == 29
    assert sorted(pieces[0].vertices()) == list(range(7))
    assert cores[0] == set(range(5))
    assert pieces[0].graph.has_edge(5, 6)
    assert not res.graph.has_edge(5, 6)
    parts = [p.graph.superedges for p in pieces] + [res.graph.superedges]
    assert sum(len(e) for e in parts) == len(strip.superedges)
    assert set().union(*parts) == set(strip.superedges)


def test_full_clustering_with_phases():
    for seed in range(25):
        rng0 = random.Random(seed)
        n = rng0.randrange(20, 300)
        m = min(n * (n - 1) // 2,
                random.Random(seed + 1000).randrange(n // 2, 3 * n))
        g = rand_graph(n, m, seed)
        k = 2 + seed % 2
        st_ = init_clustering(g, k)
        assert not st_.check_valid(), seed
        rng = random.Random(seed + 7)
        edges = sorted(g.superedges)
        for ph in range(3):
            if not edges:
                break
            dels = [edges.pop(rng.randrange(len(edges)))
                    for _ in range(min(5, len(edges)))]
            log = st_.run_phase(dels)
            assert not st_.check_valid(), (seed, ph)
            for entry in log:
                ps = entry["piece_size"]
                cs = entry["core_size"]
                par = entry["parent_size"]
                assert ps ** k <= par ** (k - 1) or par <= 1, entry
                assert cs ** (k ** 3) * par >= ps ** (k ** 3), entry


def test_split_log_bounds_on_init():
    for seed in range(6):
        n = 400 + seed * 67
        g = rand_graph(n, n + n // 3, seed * 3 + 1)
        k = 2
        st_ = init_clustering(g, k)
        assert not st_.check_valid()
        for entry in st_.split_log:
            ps, cs, par = (entry["piece_size"], entry["core_size"],
                           entry["parent_size"])
            assert ps ** k <= par ** (k - 1), entry
            assert cs ** (k ** 3) * par >= ps ** (k ** 3), entry
        assert st_.total_n_v() ** k <= 2 ** k * st_.n ** (k + 1)


def test_eligible_index_cert_implies_big_ball():
    for seed in range(10):
        n = random.Random(seed).randrange(20, 120)
        g = rand_graph(n, 2 * n, seed)
        k = 2
        c = Cluster(0, g)
        for v in sorted(g.vertices)[:4]:
            if not g.neighbors(v):
                continue
            r = eligible_index(c, v, k)
            if isinstance(r, LargeBallCert):
                assert r.size ** k >= n ** (k - 1)
                assert len(ball(g, v, r.radius)) == r.size


@given(st.integers(2, 3), st.integers(5, 60), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_clustering_valid_on_random_graphs(k, n, seed):
    g = rand_graph(n, min(n * (n - 1) // 2, 2 * n), seed)
    st_ = init_clustering(g, k)
    assert not st_.check_valid()
    total = sum(st_.n_v.values())
    assert total ** k <= 2 ** k * n ** (k + 1)


def test_init_clustering_rejects_k_below_one():
    """k = 0 would settle every cluster (nv^0 <= n) and k = -1 would
    compare fractions in the lifetime budget; both are refused before
    any cluster is built.  k = 1 settles the whole graph at once."""
    g = path_graph(6)
    for k in (0, -1):
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            init_clustering(g, k)
    st_ = init_clustering(g, 1)
    assert not st_.check_valid()
    assert len(st_.active_clusters()) == 1


@pytest.mark.parametrize("isolated", [0, 2])
def test_first_cluster_matches_induced_graph(monkeypatch, isolated):
    """Before any split, the clustering holds one singleton per isolated
    vertex and then the graph on the rest.  That graph takes a copy of
    the host's edge dict, as isolated vertices carry no edges; its
    vertices and edges, orders included, are those of the subgraph
    induced on the vertices with a neighbour."""
    g = MultiGraph()
    for v in (7, 3, 9, 0, 5):
        g.add_vertex(v)
    for a, b, m in [(5, 9, 2), (0, 3, 1), (3, 7, 3), (0, 9, 1), (5, 7, 1)]:
        g.add_edge(a, b, m)
    for v in range(100, 100 + isolated):
        g.add_vertex(v)
    monkeypatch.setattr(ClusteringState, "_settle_all", lambda self: None)
    st_ = ClusteringState(g, 2)
    clusters = [st_.clusters[i] for i in sorted(st_.clusters)]
    assert [list(c.graph.vertices) for c in clusters[:isolated]] == [
        [v] for v in range(100, 100 + isolated)]
    (rest,) = clusters[isolated:]
    want = _induced(g, {v for v in g.vertices if g.neighbors(v)})
    assert list(rest.graph.vertices) == list(want.vertices)
    assert list(rest.graph.superedges.items()) == list(g.superedges.items())
    assert rest.graph.adj == want.adj
    assert rest.graph.superedges is not g.superedges
