"""Cross-check the spanner distance and connectivity checks against
networkx shortest-path lengths and connected components on random graphs
and subgraphs."""

import math
import random

import pytest

from routerlab import spanner
from routerlab.graph import MultiGraph
from routerlab.spanner import (RouterDecomposition,
                               connectivity_certificate_check,
                               fd_spanner_check, stretch_check)

nx = pytest.importorskip("networkx")


def _random_graph(rng, n, m):
    g = MultiGraph()
    for v in range(n):
        g.add_vertex(v)
    while g.num_edges() < m:
        a, b = rng.sample(range(n), 2)
        if not g.has_edge(a, b):
            g.add_edge(a, b, rng.randint(1, 3))
    return g


def _subgraph(rng, g, keep):
    h = MultiGraph()
    for v in g.vertices:
        h.add_vertex(v)
    for (a, b), m in g.superedges.items():
        if rng.random() < keep:
            h.add_edge(a, b, m)
    return h


def _to_nx(h):
    x = nx.Graph()
    x.add_nodes_from(h.vertices)
    for (a, b) in h.superedges:
        x.add_edge(a, b)
    return x


def _nx_stretch(g, h):
    """Worst edge hop stretch and the first edge (in sorted order) that
    attains it; (inf, first disconnected edge) if any is cut off."""
    x = _to_nx(h)
    worst, pair = 0, None
    for (u, v) in sorted(g.superedges):
        dist = nx.single_source_shortest_path_length(x, u)
        if v not in dist:
            return math.inf, (u, v)
        if dist[v] > worst:
            worst, pair = dist[v], (u, v)
    return worst, pair


def _mixed_sources(edges, x):
    """Sources u of the edges (u, v), u < v, with some partners v
    adjacent to u in the networkx graph x and some not: the checks
    give the adjacent ones distance 1 and search for the rest."""
    partners = {}
    for (u, v) in edges:
        partners.setdefault(u, []).append(x.has_edge(u, v))
    return sum(any(a) and not all(a) for a in partners.values())


def _cases():
    rng = random.Random(4242)
    for trial in range(120):
        n = rng.randint(4, 24)
        g = _random_graph(rng, n, rng.randint(n, min(3 * n, n * (n - 1) // 2)))
        keep = rng.choice([0.5, 0.7, 0.9, 1.0])
        yield trial, g, _subgraph(rng, g, keep)


def test_stretch_check_matches_networkx():
    seen_inf = seen_finite = seen_mixed = 0
    for trial, g, h in _cases():
        want = _nx_stretch(g, h)
        assert stretch_check(g, h) == want, trial
        if want[0] == math.inf:
            seen_inf += 1
        elif want[0] > 1:
            seen_finite += 1
        seen_mixed += _mixed_sources(g.superedges, _to_nx(h))
    assert seen_inf >= 10 and seen_finite >= 10 and seen_mixed >= 10, (
        seen_inf, seen_finite, seen_mixed)


def test_stretch_check_disconnected_subgraph():
    g = MultiGraph()
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (2, 5)]:
        g.add_edge(a, b)
    h = g.without_edges([(2, 5)])        # H splits into {0..4} and {5, 6}
    assert not nx.has_path(_to_nx(h), 2, 5)
    assert stretch_check(g, h) == (math.inf, (2, 5))
    assert _nx_stretch(g, h) == (math.inf, (2, 5))


def test_fd_spanner_check_matches_networkx(monkeypatch):
    monkeypatch.setattr(spanner, "FD_LEN_CONST", 1)
    seen_violations = seen_cut = seen_mixed = 0
    rng = random.Random(99)
    for trial, g, h in _cases():
        edges = sorted(g.superedges)
        faults = rng.sample(edges, rng.randint(0, min(3, len(edges))))
        d_t = rng.randint(1, 3)
        rd = RouterDecomposition(g, [], set(h.superedges), 16, d_t, 1, 2)
        cap = rng.choice([10 ** 4, max(1, len(edges) // 2)])
        monkeypatch.setattr(spanner, "FD_CHECK_CAP", cap)
        got = fd_spanner_check(rd, faults, 1, seed=trial)
        bound = d_t
        check = [e for e in edges if e not in set(faults)]
        if len(check) > cap:
            check = sorted(random.Random(trial).sample(check, cap))
        x = _to_nx(h)
        x.remove_edges_from(faults)
        worst, worst_pair, violations = 0, None, []
        for (u, v) in check:
            dist = nx.single_source_shortest_path_length(x, u)
            dh = dist.get(v)
            if dh is None or dh > bound:
                violations.append(((u, v), dh))
            if dh is not None and dh > worst:
                worst, worst_pair = dh, (u, v)
        assert got == {"checked": len(check), "bound": bound,
                       "max_detour": worst, "worst_pair": worst_pair,
                       "violations": violations, "ok": not violations}, trial
        seen_violations += bool(violations)
        seen_cut += any(dh is None for _e, dh in violations)
        seen_mixed += _mixed_sources(check, x)
    assert seen_violations >= 10 and seen_cut >= 5 and seen_mixed >= 10, (
        seen_violations, seen_cut, seen_mixed)


def _nx_same_components(g, h, faults):
    """V(g) lies in H, and G - F and H - F split V(g) alike."""
    gv = set(g.vertices)
    if not gv <= set(h.vertices):
        return False

    def parts(x):
        y = _to_nx(x)
        y.remove_edges_from(faults)
        return {frozenset(c & gv) for c in nx.connected_components(y)} - {
            frozenset()}

    return parts(g) == parts(h)


def test_connectivity_certificate_check_matches_networkx():
    rng = random.Random(2718)
    seen = {True: 0, False: 0, "extra": 0, "missing": 0}
    for trial, g, h in _cases():
        edges = sorted(g.superedges)
        if trial % 5 == 1:
            # H may reach outside V(g): a path through new vertices
            a, b = rng.sample(sorted(g.vertices), 2)
            h.add_edge(a, 1000)
            h.add_edge(1000, b)
            seen["extra"] += 1
        elif trial % 5 == 3:
            h.remove_vertex(rng.choice(sorted(h.vertices)))
            seen["missing"] += 1
        faults = rng.sample(edges, rng.randint(0, min(4, len(edges))))
        # a fault may also name an edge of H outside G
        faults += [e for e in sorted(h.superedges)
                   if e not in g.superedges and rng.random() < 0.5]
        want = _nx_same_components(g, h, faults)
        assert connectivity_certificate_check(g, h, faults) == want, trial
        seen[want] += 1
    assert seen[True] >= 10 and seen[False] >= 10, seen
