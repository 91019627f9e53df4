from routerlab.graph import MultiGraph
from routerlab.router_template import build, realize
from routerlab.decompose import PipelineConfig, build_decomposition
from routerlab.resilience import FaultSet
from routerlab.spanner import (connectivity_certificate_check,
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
