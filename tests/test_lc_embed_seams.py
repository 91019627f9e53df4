"""lc_embed routes and rounds each cluster through the module bindings
spanner.sparsified_route and spanner.integral_round, once each per
cluster with edges.  The benchmark's per-layer trace and the lc_* fault
injections in test_guards.py both hook in there, so a version that
fuses or skips either call must fail here first."""

from routerlab import spanner
from routerlab.decompose import PipelineConfig, build_decomposition
from routerlab.router_template import build, realize

CFG = dict(k=2, delta=4, delta_star=16, d_cap=2, template_n=3, batch_bound=6)


def test_lc_embed_calls_each_seam_once_per_cluster(monkeypatch):
    rd = build_decomposition(realize(build(3, 4, 4)), PipelineConfig(**CFG))
    clusters = [c for c in rd.clusters if c.graph.superedges]
    assert clusters
    calls = {"route": [], "round": []}
    route, round_ = spanner.sparsified_route, spanner.integral_round

    def counted_route(sp, w, d):
        calls["route"].append(sp)
        return route(sp, w, d)

    def counted_round(g, d, base, alpha, eta, seed=0):
        calls["round"].append(g)
        return round_(g, d, base, alpha, eta, seed=seed)

    monkeypatch.setattr(spanner, "sparsified_route", counted_route)
    monkeypatch.setattr(spanner, "integral_round", counted_round)
    emb = spanner.lc_embed(rd, seed=3)
    assert calls["route"] == [c.sparse for c in clusters]
    assert calls["round"] == [c.sparse.cprime for c in clusters]
    assert len(emb.paths) == len(rd.host.superedges)
