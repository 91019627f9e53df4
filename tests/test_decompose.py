from fractions import Fraction

from routerlab.graph import MultiGraph
from routerlab.router_template import build, realize
from routerlab.decompose import (PipelineConfig, build_decomposition,
                                 process_batch)
from routerlab.spanner import extract_spanner, stretch_check

import pytest


def template_host():
    t = build(3, 4, 4)
    return realize(t)


def template_cfg(**kw):
    base = dict(k=2, delta=4, delta_star=16, d_cap=2, template_n=3,
                batch_bound=6)
    base.update(kw)
    return PipelineConfig(**base)


def test_config_validates():
    template_cfg()
    with pytest.raises(ValueError):
        PipelineConfig(k=2, delta=4, delta_star=2, d_cap=2)


def test_template_host_becomes_one_cluster():
    g = template_host()
    rd = build_decomposition(g, template_cfg())
    assert len(rd.clusters) == 1
    assert not rd.e_del
    assert not rd.check_valid()
    causes = rd.report.cause_counts()
    assert sum(causes.values()) == 0


def test_edge_conservation_on_disjoint_cliques():
    g = MultiGraph()
    for off in (0, 100):
        for a in range(6):
            for b in range(a + 1, 6):
                g.add_edge(off + a, off + b)
    rd = build_decomposition(g, PipelineConfig(k=2, delta=4, delta_star=16,
                                               d_cap=2))
    assert not rd.check_valid()
    covered = sum(len(c.graph.superedges) for c in rd.clusters)
    assert len(rd.e_del) + covered == g.num_edges()


def test_low_degree_vertices_shed():
    g = template_host()
    g.add_edge(0, 999)
    rd = build_decomposition(g, template_cfg())
    assert not rd.check_valid()
    assert "low-degree" in set(rd.report.causes.values())


def test_batch_deletion_keeps_validity_and_stretch():
    g = template_host()
    rd = build_decomposition(g, template_cfg())
    rep = process_batch(rd, [(1, 0)])
    assert not rd.check_valid()
    assert rep.to_e_del or rep.dissolved
    h = extract_spanner(rd)
    st, _ = stretch_check(rd.host, h)
    assert st <= rd.d_t


def test_batch_insertion_goes_to_e_del():
    g = template_host()
    rd = build_decomposition(g, template_cfg())
    rep = process_batch(rd, [], insertions=[(0, 100, 1)])
    assert rep.inserted == 1
    assert not rd.check_valid()
    assert rd.host.has_edge(0, 100)
    assert (0, 100) in rd.e_del
    assert rep.to_e_del.get("insert") == 1


def test_batch_unknown_edge_rejected():
    g = template_host()
    rd = build_decomposition(g, template_cfg())
    with pytest.raises(ValueError):
        process_batch(rd, [(0, 12345)])


def test_batch_over_bound_dissolves_cluster():
    g = template_host()
    rd = build_decomposition(g, template_cfg(batch_bound=1))
    edges = sorted(g.superedges)[:2]
    rep = process_batch(rd, edges)
    assert rep.dissolved
    assert not rd.check_valid()


def test_recourse_accounted():
    g = template_host()
    rd = build_decomposition(g, template_cfg())
    rep = process_batch(rd, [(1, 0)])
    assert rep.recourse >= 0


def test_witness_validated_once_per_build(monkeypatch):
    """build_decomposition validates each cluster's witness once, in
    rebuild; the public check_valid still validates every witness."""
    from routerlab import decompose, spanner
    calls = []
    real = decompose.validate_witness

    def counting(w):
        calls.append(w)
        return real(w)

    monkeypatch.setattr(decompose, "validate_witness", counting)
    monkeypatch.setattr(spanner, "validate_witness", counting)
    rd = build_decomposition(template_host(), template_cfg())
    assert [id(w) for w in calls] == [id(c.witness) for c in rd.clusters]
    assert not rd.check_valid()
    assert len(calls) == 2 * len(rd.clusters)
    rd.clusters[0].witness.beta = Fraction(1, 10 ** 6)
    assert [e[0] for e in rd.check_valid()] == ["bad-witness"]
    assert not rd.check_valid(witnesses=False)
