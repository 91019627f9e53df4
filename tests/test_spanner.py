from routerlab import spanner
from routerlab.graph import MultiGraph
from routerlab.router_template import build, realize
from routerlab.decompose import PipelineConfig, build_decomposition
from routerlab.resilience import FaultSet
from routerlab.spanner import (RouterDecomposition,
                               connectivity_certificate_check,
                               extract_spanner, fd_spanner_check, lc_embed,
                               stretch_check)

import pytest


def make_rd():
    t = build(3, 4, 4)
    g = realize(t)
    cfg = PipelineConfig(k=2, delta=4, delta_star=16, d_cap=2, template_n=3,
                         batch_bound=6)
    return g, cfg, build_decomposition(g, cfg)


G, CFG, RD = make_rd()


def test_decomposition_valid_and_single_cluster():
    assert len(RD.clusters) == 1
    assert not RD.e_del
    assert RD.clusters[0].witness.emb.d_star == 1
    assert not RD.check_valid()


def test_spanner_stretch_within_target():
    h = extract_spanner(RD)
    st, _pair = stretch_check(G, h)
    assert st <= RD.d_t
    # identity-like decomposition keeps every superedge, so stretch is 1
    assert st == 1


def test_stretch_check_detects_missing_edge():
    h = extract_spanner(RD)
    (u, v) = sorted(h.superedges)[0]
    h2 = h.copy()
    h2.remove_copies(u, v, h2.multiplicity(u, v))
    st, pair = stretch_check(G, h2)
    assert st > 1
    assert pair is not None


def test_lc_embed_bounds():
    emb = lc_embed(RD, seed=3)
    assert emb.d <= RD.d_t
    assert emb.eta >= 1


def test_fd_spanner_and_connectivity_certificate():
    h = extract_spanner(RD)
    f = FaultSet(G, [(1, 0, 1)])
    fr = fd_spanner_check(RD, f, CFG.k)
    assert fr["ok"], fr
    assert connectivity_certificate_check(G, h, f)
    assert connectivity_certificate_check(G, h, FaultSet(G, []))


def test_connectivity_certificate_fails_on_broken_sub():
    h = extract_spanner(RD)
    h2 = MultiGraph()
    for v in h.vertices:
        h2.add_vertex(v)
    assert not connectivity_certificate_check(G, h2, FaultSet(G, []))


def _count_work(monkeypatch):
    """Lists that record every hop_dist search the spanner checks run
    (its source) and every graph built with MultiGraph.of."""
    searches, built = [], []
    real_dist = spanner.hop_dist
    real_of = MultiGraph.of.__func__

    def counting_dist(h, src, targets=None):
        searches.append(src)
        return real_dist(h, src, targets)

    def counting_of(cls, vertices, superedges):
        built.append(len(superedges))
        return real_of(cls, vertices, superedges)

    monkeypatch.setattr(spanner, "hop_dist", counting_dist)
    monkeypatch.setattr(MultiGraph, "of", classmethod(counting_of))
    return searches, built


def test_spanner_checks_search_only_edges_h_lacks(monkeypatch):
    """On the ladder-style decomposition H' = G: both checks settle
    every pair by lookup, with no search and no H' graph built.  With
    one H' edge gone, that edge is searched and H' is built once."""
    h = extract_spanner(RD)
    assert h.superedges.keys() == G.superedges.keys()
    least = min(G.superedges)
    searches, built = _count_work(monkeypatch)
    assert stretch_check(G, G) == (1, least)
    assert stretch_check(G, h) == (1, least)
    fr = fd_spanner_check(RD, FaultSet(G, [(1, 0, 1)]), CFG.k)
    assert least == (0, 1)
    assert (fr["ok"], fr["max_detour"], fr["worst_pair"]) == (
        True, 1, min(G.superedges.keys() - {least}))
    assert fr["checked"] == len(G.superedges) - 1
    assert searches == [] and built == []

    st, pair = stretch_check(G, h.without_edges([least]))
    assert st >= 2 and pair == least
    assert searches == [least[0]] and built == []
    cut = RouterDecomposition(G, [], set(G.superedges) - {least},
                              RD.delta_star, RD.d_t, RD.eta_t, RD.rho)
    fr = fd_spanner_check(cut, [], CFG.k)
    assert (fr["max_detour"], fr["worst_pair"]) == (st, least)
    assert searches == [least[0]] * 2
    assert built == [len(G.superedges) - 1]


def test_stretch_check_pair_is_least_edge_at_detour_one():
    """When H holds every edge of g, the stretch is 1 and the pair is
    g's least edge, whatever order the edges were added in; an edgeless
    g has stretch 0 and no pair."""
    g = MultiGraph()
    for a, b in [(5, 6), (3, 2), (0, 9), (9, 4), (1, 8)]:
        g.add_edge(a, b, 2)
    h = g.copy()
    h.add_edge(0, 1)
    assert stretch_check(g, g) == (1, (0, 9))
    assert stretch_check(g, h) == (1, (0, 9))
    empty = MultiGraph()
    empty.add_vertex(0)
    assert stretch_check(empty, h) == (0, None)


def _path_rd(host_edges, h_edges):
    g = MultiGraph()
    for a, b in host_edges:
        g.add_edge(a, b)
    return RouterDecomposition(g, [], set(h_edges), 16, 1, 1, 2)


def test_fd_worst_pair_is_least_adjacent_edge_after_a_cut_off_one():
    """The least checked edge (0,1) is cut off in H' and the next one
    (1,2) is still an H' edge: the worst detour is 1 and its pair is
    (1,2), not the least checked edge.  A later edge with a detour of 2
    then takes the pair over, and a fault can lengthen it."""
    path = [(0, 1), (1, 2), (2, 3), (3, 4)]
    fr = fd_spanner_check(_path_rd(path, path[1:]), [], 1)
    assert fr == {"checked": 4, "bound": 32, "max_detour": 1,
                  "worst_pair": (1, 2), "violations": [((0, 1), None)],
                  "ok": False}
    # at k = 0 the bound is 0, and even a detour of 1 breaks it
    fr = fd_spanner_check(_path_rd(path, path[1:]), [], 0)
    assert fr["violations"] == [((0, 1), None), ((1, 2), 1), ((2, 3), 1),
                                ((3, 4), 1)]
    assert (fr["max_detour"], fr["worst_pair"]) == (1, (1, 2))

    rd = _path_rd(path + [(2, 4), (3, 5), (4, 5)],
                  path[1:] + [(3, 5), (4, 5)])
    fr = fd_spanner_check(rd, [], 1)
    assert (fr["max_detour"], fr["worst_pair"]) == (2, (2, 4))
    assert fr["violations"] == [((0, 1), None)]
    fr = fd_spanner_check(rd, [(3, 4)], 1)
    assert fr["checked"] == 6
    assert (fr["max_detour"], fr["worst_pair"]) == (3, (2, 4))
