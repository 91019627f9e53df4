import hashlib
import random
from fractions import Fraction

from routerlab.graph import MultiGraph
from routerlab.pruning import PruningConfig
from routerlab.router_template import build, realize
from routerlab import decompose
from routerlab.decompose import (PipelineConfig, build_decomposition,
                                 process_batch)
from routerlab.spanner import extract_spanner, lc_embed, stretch_check

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


def test_preset_names():
    """Both names give their preset's budgets; any other name is an
    error, not a silent fall back to the relaxed budgets."""
    for name in ("paper", "relaxed"):
        want = getattr(PruningConfig, name)(4)
        assert vars(PruningConfig.preset(name, 4)) == vars(want)
        assert vars(template_cfg(preset=name).pruning_cfg()) == vars(want)
    for bad in ("papre", "Paper", ""):
        with pytest.raises(ValueError, match="unknown pruning preset"):
            PruningConfig.preset(bad, 4)
        with pytest.raises(ValueError, match="unknown pruning preset"):
            template_cfg(preset=bad)


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


def cliques(*sizes, host=None):
    """Disjoint complete graphs of the given sizes, numbered from 1000 in
    blocks of 100, added to host (a new graph by default)."""
    g = host if host is not None else MultiGraph()
    for j, n in enumerate(sizes):
        off = 1000 + 100 * j
        for a in range(n):
            for b in range(a + 1, n):
                g.add_edge(off + a, off + b)
    return g


ROUND_HOSTS = {
    "K9+K9": lambda: cliques(9, 9),
    "K13+K7": lambda: cliques(13, 7),
    "3xK7": lambda: cliques(7, 7, 7),
    "3xK11": lambda: cliques(11, 11, 11),
    "K25+K25": lambda: cliques(25, 25),
    "router(3,4,4)+K9+K9": lambda: cliques(9, 9, host=template_host()),
    "router(3,4,4)+K13+K7": lambda: cliques(13, 7, host=template_host()),
}

ROUND_CFGS = [dict(k=2, delta=4, delta_star=16, d_cap=2),
              dict(k=2, delta=3, delta_star=16, d_cap=2),
              dict(k=2, delta=4, delta_star=16, d_cap=2, template_n=3)]

# sha256 over the three configs' builds, recorded while each round still
# removed its clusters' edges from a working graph one at a time; K25+K25
# re-recorded once clusters that would get N = 2 stopped being witnessed
ROUND_GOLDEN = {
    "K9+K9":
        "7391a669b307e8917a4f1c77a8ce6c72ff866bc74b0216b85ae13d4d0d787a2a",
    "K13+K7":
        "d764ef18cfeb316732948fe3565b8e868c272a62a386ed904d4c8c73dfdbf7cf",
    "3xK7":
        "36ea28f7f89d1a645878e91c103bb2ee809243cd653d61e6415ea9c3cb683273",
    "3xK11":
        "84054980a6e4ade088a49f3a4d2b5d87ddfc93121a00c83861d29097f5ceaaeb",
    "K25+K25":
        "2104b4083835027aff60959bd9ed114a2271d5174999736c4f9af36077aedc5f",
    "router(3,4,4)+K9+K9":
        "c452b252f6a6b9c189e44e23ee2dace085af98a1939bef3f4430804bde58b3f9",
    "router(3,4,4)+K13+K7":
        "e470dbb496cd0132e6ecb122b690d5d35b510354fc296eb9a66886fcbaa3f140",
}


@pytest.mark.parametrize("name", sorted(ROUND_HOSTS))
def test_multi_round_fingerprint(name, monkeypatch):
    """Builds that run more than one clustering round end with the same
    E^del, causes, clusters and stretch as when the fingerprint was
    recorded; at least one of each host's builds runs a second round."""
    rounds = []
    real = decompose.init_clustering

    def counting(g, k):
        rounds[-1] += 1
        return real(g, k)

    monkeypatch.setattr(decompose, "init_clustering", counting)
    parts = []
    for kw in ROUND_CFGS:
        rounds.append(0)
        rd = build_decomposition(ROUND_HOSTS[name](), PipelineConfig(**kw))
        assert not rd.check_valid()
        parts.append((rounds[-1], sorted(rd.report.causes.items()),
                      rd.report.degraded,
                      [sorted(c.graph.superedges.items())
                       for c in rd.clusters],
                      stretch_check(rd.host, extract_spanner(rd))))
    assert max(rounds) >= 2, rounds
    got = hashlib.sha256(repr(parts).encode()).hexdigest()
    assert got == ROUND_GOLDEN.get(name), got


def test_no_cluster_gets_fewer_than_three_leaves_per_star():
    """At N = 2 a cluster's two level-2 stars take their centers from
    different children and routing finds no common leaf position, so
    no build witnesses such a cluster, and template_n < 3 is rejected.
    Two disjoint K25 form one 50-vertex cluster, which the default
    template size gives N = 2; beside the realized router(3,4,4) the
    clusters witnessed have N >= 3.  Every build's clusters route."""
    assert PipelineConfig(**ROUND_CFGS[0]).template_size(50) == 2
    with pytest.raises(ValueError, match="template_n must be at least 3"):
        template_cfg(template_n=2)
    seen = 0
    for kw in ROUND_CFGS:
        for g in (cliques(25, 25), cliques(25, 25, host=template_host())):
            rd = build_decomposition(g, PipelineConfig(**kw))
            assert all(c.s.t.N >= 3 for c in rd.clusters)
            lc_embed(rd, seed=1)
            seen += len(rd.clusters)
    assert seen > 0


def test_low_degree_vertices_shed():
    g = template_host()
    g.add_edge(0, 999)
    rd = build_decomposition(g, template_cfg())
    assert not rd.check_valid()
    assert "low-degree" in set(rd.report.causes.values())


def test_build_rejects_an_uncharged_edge(monkeypatch):
    """E^del is the set of charged edges, so the build's partition check
    fails when scatter neither charges an edge nor keeps it."""
    g = realize(build(4, 4, 4))
    rd = build_decomposition(g.copy(), template_cfg())
    assert rd.report.cause_counts() == {"scatter": len(g.superedges)}
    real = decompose._scatter_shed
    uncharged = []

    def scatter_shed(sub, causes):
        kept = real(sub, causes)
        if not uncharged:
            uncharged.append(min(e for e in sub.superedges if e not in kept))
            del causes[uncharged[0]]
        return kept

    monkeypatch.setattr(decompose, "_scatter_shed", scatter_shed)
    with pytest.raises(AssertionError, match="decomposition invalid"):
        build_decomposition(g, template_cfg())
    assert uncharged


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


def test_causes_follow_e_del_through_batches():
    """A batch keeps rd.report.causes keyed by exactly E^del: the edges
    it charges as cascade enter it, and a deleted E^del edge leaves it,
    while the batch's own tally counts the cascade."""
    rd = build_decomposition(template_host(), template_cfg())
    built = rd.report.cause_counts()
    rep = process_batch(rd, [(1, 3)])
    assert rep.to_e_del == {"cascade": 25}
    assert set(rd.report.causes) == rd.e_del
    assert rd.report.cause_counts() == dict(built, cascade=25)
    gone = min(rd.e_del)
    process_batch(rd, [gone])
    assert gone not in rd.report.causes
    assert set(rd.report.causes) == rd.e_del


def test_recourse_bound_is_exact():
    # ceil(7044 ** 3.25) in floating point reads one too low
    pi = decompose._recourse_per_edge(7044, 2)
    assert pi == 3201937708096
    assert (pi - 1) ** 4 < 7044 ** 13 <= pi ** 4


def _template_size_scan(cfg, nv):
    """The linear scan template_size ran before it took an integer root."""
    exp = Fraction(1, cfg.k_hat) - Fraction(1, cfg.k_hat ** 2)
    p, q = exp.numerator, exp.denominator
    n = 1
    while (n + 1) ** q <= nv ** p:
        n += 1
    return n


def _path_floor_scan(cfg, n):
    """The linear scan path_floor_at ran before it took an integer root."""
    kh = cfg.k_hat
    t = 1
    while t ** kh * n ** 4 < cfg.delta ** kh:
        t += 1
    return t


@pytest.mark.parametrize("k", [2, 3, 4])
def test_config_roots_match_scans(k):
    for delta in (1, 4, 12, 100, 4096):
        cfg = PipelineConfig(k=k, delta=delta, delta_star=2 * k * k, d_cap=1)
        for n in range(1, 400):
            assert cfg.path_floor_at(n) == _path_floor_scan(cfg, n), (delta, n)
    for nv in range(2, 3000):
        assert cfg.template_size(nv) == _template_size_scan(cfg, nv), nv


def test_witness_validated_once_per_build(monkeypatch):
    """build_decomposition validates each cluster's witness once, when
    rebuild constructs it; the public check_valid still validates every
    witness."""
    from routerlab import spanner, witness
    calls = []
    real = witness.validate_witness

    def counting(w):
        calls.append(w)
        return real(w)

    monkeypatch.setattr(witness, "validate_witness", counting)
    monkeypatch.setattr(spanner, "validate_witness", counting)
    rd = build_decomposition(template_host(), template_cfg())
    assert [id(w) for w in calls] == [id(c.witness) for c in rd.clusters]
    assert not rd.check_valid()
    assert len(calls) == 2 * len(rd.clusters)
    rd.clusters[0].witness.beta = Fraction(1, 10 ** 6)
    assert [e[0] for e in rd.check_valid()] == ["bad-witness"]
    assert not rd.check_valid(witnesses=False)


def test_failed_rebuild_dissolves_the_old_graph(monkeypatch):
    """A rebuild that raises inside process_batch assigns nothing, so the
    cluster dissolves and the dissolve charge is its edge count from
    just before the rebuild."""
    from routerlab import decompose
    rd = build_decomposition(template_host(), template_cfg())
    wc = rd.clusters[0]
    before = []

    def failing(w, delta_star):
        before.append(set(wc.graph.superedges))
        raise ValueError("sparsify failed")

    monkeypatch.setattr(decompose, "sparsify", failing)
    rep = process_batch(rd, [(1, 3)])
    assert len(before) == 1
    assert rep.dissolved == [wc.id] and rd.clusters == []
    assert rep.to_e_del["dissolve"] == len(before[0])
    assert set(wc.graph.superedges) == before[0] <= rd.e_del


def _decomposition_state(rd):
    return (sorted(rd.host.superedges.items()), sorted(rd.e_del),
            [(c.id, sorted(c.graph.superedges.items())) for c in rd.clusters],
            {wc.id: (sorted(wc.bundles.items()), wc.s.tau)
             for wc in rd.clusters})


@pytest.mark.parametrize("ins,msg", [((1, 0, 1), r"\(0, 1\)"),
                                     ((5, 5, 1), "self-loop"),
                                     ((0, 100, 0), "multiplicity")],
                         ids=["cluster-edge", "self-loop", "zero-mult"])
def test_batch_bad_insertion_rejected(ins, msg):
    """An insertion onto an edge a cluster holds, or one that is no
    valid edge, raises before the batch changes anything, deletions
    included."""
    rd = build_decomposition(template_host(), template_cfg())
    assert rd.clusters[0].graph.has_edge(0, 1)
    before = _decomposition_state(rd)
    with pytest.raises(ValueError, match=msg):
        process_batch(rd, [(1, 3)], insertions=[ins])
    assert _decomposition_state(rd) == before
    assert not rd.check_valid()


def test_batch_reinsertion_of_deleted_cluster_edge():
    """A batch may delete a cluster edge and insert it again; it then
    lives in E^del."""
    rd = build_decomposition(template_host(), template_cfg())
    rep = process_batch(rd, [(1, 3)], insertions=[(3, 1, 1)])
    assert rep.inserted == 1
    assert (1, 3) in rd.e_del and rd.host.has_edge(1, 3)
    assert not rd.check_valid()


def test_batch_duplicate_deletion_rejected():
    rd = build_decomposition(template_host(), template_cfg())
    before = _decomposition_state(rd)
    with pytest.raises(ValueError, match="twice"):
        process_batch(rd, [(1, 3), (3, 1)])
    assert _decomposition_state(rd) == before


def test_witness_validated_once_per_batch(monkeypatch):
    """A batch validates each rebuilt cluster's witness once, when
    rebuild constructs it, and none of the untouched ones; the public
    check_valid still finds a broken witness afterwards."""
    from routerlab import spanner, witness
    rd = build_decomposition(template_host(), template_cfg())
    calls = []
    real = witness.validate_witness

    def counting(w):
        calls.append(w)
        return real(w)

    monkeypatch.setattr(witness, "validate_witness", counting)
    monkeypatch.setattr(spanner, "validate_witness", counting)
    for dels in ([(1, 3)], [(0, 10)]):
        del calls[:]
        rep = process_batch(rd, dels)
        assert not rep.dissolved and len(rd.clusters) == 1
        assert [id(w) for w in calls] == [id(rd.clusters[0].witness)]
    del calls[:]
    process_batch(rd, [], insertions=[(0, 100, 1)])
    assert calls == []
    rd.clusters[0].witness.beta = Fraction(1, 10 ** 6)
    assert [e[0] for e in rd.check_valid()] == ["bad-witness"]


def test_cluster_graph_is_its_witness_host():
    """lc_embed takes a cluster's max degree from its witness, which
    holds only while the cluster's graph is the witness's host: after
    the build and after every batch that repairs the cluster."""
    rd = build_decomposition(template_host(), template_cfg())
    for dels in ([], [(1, 3)], [(0, 10)]):
        if dels:
            assert not process_batch(rd, dels).dissolved
        assert rd.clusters
        for wc in rd.clusters:
            assert wc.graph is wc.witness.host
            assert wc.witness.max_degree == max(
                wc.graph.degree(v) for v in wc.graph.vertices)


def _strip_reference(g, floor, causes):
    """_strip_low_degree by brute force: every degree summed from the
    whole superedge dict, on every pass."""
    changed = True
    while changed:
        changed = False
        for v in sorted(g.vertices):
            deg = sum(m for e, m in g.superedges.items() if v in e)
            if 0 < deg < floor:
                for u in sorted(g.neighbors(v)):
                    causes[(u, v) if u < v else (v, u)] = "low-degree"
                g.remove_vertex(v)
                changed = True
        for v in [v for v in g.vertices if not g.neighbors(v)]:
            g.remove_vertex(v)


def _strip_cases():
    """(graph, floor, vertices kept or None) triples: two by hand and
    200 seeded multigraphs."""
    lifted = MultiGraph()           # 0 has 2 neighbours and degree 5
    for a, b, m in [(0, 1, 2), (0, 2, 3), (1, 2, 3), (1, 3, 1), (2, 3, 1),
                    (3, 4, 1)]:
        lifted.add_edge(a, b, m)
    chain = MultiGraph()            # 4 goes, then 3, then 2, a pass each
    for a, b, m in [(3, 4, 2), (2, 3, 2), (1, 2, 2), (0, 1, 5)]:
        chain.add_edge(a, b, m)
    yield lifted, 4, {0, 1, 2}
    yield chain, 4, {0, 1}
    rng = random.Random(2026)
    for _ in range(200):
        n = rng.randint(2, 16)
        g = MultiGraph()
        for v in range(n):
            g.add_vertex(v)
        for _ in range(rng.randint(0, 3 * n)):
            a, b = rng.sample(range(n), 2)
            g.add_edge(a, b, rng.randint(1, 3))
        yield g, rng.randint(1, 7), None


def test_strip_low_degree_matches_brute_force():
    """Same graph, vertex order and charged edges in the same order as
    the brute-force reference.  The cases cover vertices with fewer
    than floor neighbours that their multiplicities keep above the
    floor, and removals that cascade to vertices first above it."""
    lifted_kept = cascaded = 0
    for g, floor, kept in _strip_cases():
        got, want = g.copy(), g.copy()
        got_causes, want_causes = {}, {}
        decompose._strip_low_degree(got, floor, got_causes)
        _strip_reference(want, floor, want_causes)
        assert list(got.superedges.items()) == list(want.superedges.items())
        assert list(got.vertices) == list(want.vertices)
        assert list(got_causes.items()) == list(want_causes.items())
        if kept is not None:
            assert set(got.vertices) == kept
        lifted_kept += sum(len(g.neighbors(v)) < floor <= g.degree(v)
                           for v in got.vertices)
        cascaded += sum(g.degree(v) >= floor for v in g.vertices
                        if v not in got.vertices)
    assert lifted_kept >= 10 and cascaded >= 10, (lifted_kept, cascaded)
