"""Traversal fingerprints: the clustering, the scattered-or-large-ball
search and the connectivity certificate must give the same answers as
when these fingerprints were recorded.

All of them rest on breadth-first searches, and the CLI golden reports
see only a few of their results.  Here every result is hashed: the
init_clustering clusters and split log (also after one phase of
deletions), eligible_index from the first vertices of each graph, the
scattered_or_ball answer for several (d, eps), and
connectivity_certificate_check against random subgraphs under random
faults.  The hosts are seeded random graphs (one of small components,
which the clustering splits into many pieces, one on which the
scattered-or-ball search sheds small balls before it finds a large one,
and one with a giant component) and the benchmark ladder's seed-1
random 8-regular graph.

scattered_or_ball's cumulative edge count counts an edge inside a ring
twice.  The giant-component host pins that count: counted once, the
answer at (d, eps) = (1, 1/4) moves from vertex 0 to vertex 2.
"""

import hashlib
import importlib.util
import os
import random
from fractions import Fraction

import pytest

from routerlab.clustering import (Cluster, LargeBallCert, eligible_index,
                                  init_clustering)
from routerlab.graph import MultiGraph
from routerlab.resilience import FaultSet
from routerlab.spanner import connectivity_certificate_check
from routerlab.witness import ScatteredCert, scattered_or_ball


def rand_graph(n, m, seed):
    rng = random.Random(seed)
    g = MultiGraph()
    for i in range(n):
        g.add_vertex(i)
    while g.num_edges() < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not g.has_edge(a, b):
            g.add_edge(a, b)
    return g


def ladder_random_graph():
    """The random 8-regular graph of the benchmark's decompose-ladder
    workload at seed 1, drawn by the benchmark's own generator."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "gen.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = random.Random("decompose-ladder:1")
    for (N, k) in gen.LADDER_TEMPLATES:
        gen._one_fault(rng, gen.template_edges(N, k))
    g = MultiGraph()
    for a, b in gen.random_regular_graph(rng, *gen.LADDER_RANDOM):
        g.add_edge(a, b)
    return g


def mixed_graph():
    """Small random components on 0..199 and a denser random graph on
    200..299, so the scattered-or-ball search sheds balls before it
    finds a large one."""
    g = rand_graph(200, 70, 4)
    dense = rand_graph(100, 300, 5)
    for (a, b) in dense.superedges:
        g.add_edge(200 + a, 200 + b)
    return g


HOSTS = {
    "small-components(n=300,m=100)": lambda: rand_graph(300, 100, 1),
    "mixed(n=300)": mixed_graph,
    "sparse(n=167,m=171)": lambda: rand_graph(167, 171, 62),
    "ladder-random(seed=1)": ladder_random_graph,
}

# sha256 of each part's repr, recorded before the searches were moved
# onto graph.bfs_layers
GOLDEN = {
    "ladder-random(seed=1)": {
        "clustering":
            "1d5a20dfbcfab7510c1da05e87b92b70b1b3049ece52040976ce03a131c2c7ab",
        "after_phase":
            "254b94b18a0aa12ff37a88ea364ccd5bdd8c80359f2c875c9679250350785126",
        "eligible":
            "8aec2bc48892d15d0d0e1d1f075e8a79259628756dfabfeece5b587d3611937f",
        "scattered":
            "aafdfea8118e86c27a2fcc006618ed23946926bc7612b11cadd60e4c668bcd5d",
        "certificate":
            "a616f111334004a5f3953d0a5834e6d7511a97c91280604ad2bbea9aeb53463e",
    },
    "mixed(n=300)": {
        "clustering":
            "dd1f325e1738556de79273c125d06fea14bee2a2e115eeea227d397c2695e804",
        "after_phase":
            "542b5b8b260b60bd9501bb59b33d8a81a9c343be66223023288903c38fb9dcf1",
        "eligible":
            "6c24af03e1a34035554d21e9560db30b360b4fe2c5ec4d7df503734dd9314718",
        "scattered":
            "ea2af29f5858e3e05a148246700a8abe6465e31d169f40b1ce53dd15d7687936",
        "certificate":
            "104f0680cf09c3413db878e4b013af7944eb0e8ad0af0f86f167981a38b11871",
    },
    "small-components(n=300,m=100)": {
        "clustering":
            "ce7f5f8cf10869614a7e86f27779acd779efab83469bfa60a693f0256f4aee2e",
        "after_phase":
            "da9aa15f2e56730d88bee452d837bf7d13658d7bc06791c00ad4f8ba40080bda",
        "eligible":
            "74fee14e994c54933266dc0b2475f470ca846de569aa3f0906c4eed835ad5476",
        "scattered":
            "dc3abbbcdedfc8b70c2dcbdb2ffd48808dcaaa941747001ed469a1a3f4fe055c",
        "certificate":
            "7dd62639f34a982ddd635b11efac9011fa56d1724534ceb9e871be42c3728d74",
    },
    "sparse(n=167,m=171)": {
        "clustering":
            "8d585b1a2e54e564ecffc809aeb3e10297e9c915d636409fdfc079aa9ff31125",
        "after_phase":
            "53e022314d0fa836c47fd1c212dbd0aa5fb435dc26290b3e915b378720f660e3",
        "eligible":
            "1a031e268a69334f251c8b04f0d0c5cd946afd487268e4252a2bc11d73276355",
        "scattered":
            "aafdfea8118e86c27a2fcc006618ed23946926bc7612b11cadd60e4c668bcd5d",
        "certificate":
            "f7d69888966e6fde7c760eb4ce14b426a6336e4c533cd397d3cdfd68ac7656ca",
    },
}


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _clustering(cs):
    clusters = [(cid, c.active, sorted(c.graph.vertices),
                 sorted(c.graph.superedges.items()))
                for cid, c in sorted(cs.clusters.items())]
    log = [sorted((key, sorted(val) if key == "core" else val)
                  for key, val in entry.items())
           for entry in cs.split_log]
    return clusters, log


def _eligible(g):
    out = []
    c = Cluster(0, g)
    for k in (2, 3):
        for v in sorted(v for v in g.vertices if g.neighbors(v))[:12]:
            r = eligible_index(c, v, k)
            if isinstance(r, LargeBallCert):
                r = ("cert", r.center, r.radius, r.size)
            out.append((k, v, r))
    return out


def _scattered(g):
    out = []
    for d in (1, 2):
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 10)):
            r = scattered_or_ball(g, d, eps)
            if isinstance(r, ScatteredCert):
                r = ("cert", r.d, r.eps, r.n)
            out.append((d, eps, r))
    return out


def _spanning_plus(g, rng, extra):
    """A spanning forest of g plus each other edge with chance extra."""
    edges = sorted(g.superedges)
    rng.shuffle(edges)
    root = {v: v for v in g.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    h = MultiGraph()
    for v in g.vertices:
        h.add_vertex(v)
    for (a, b) in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            root[ra] = rb
            h.add_edge(a, b)
        elif rng.random() < extra:
            h.add_edge(a, b)
    return h


def _certificates(g, seed):
    rng = random.Random(seed)
    edges = sorted(g.superedges)
    out = []
    for trial in range(8):
        h = _spanning_plus(g, rng, Fraction(1, 3))
        if trial % 2:
            h.remove_edge(*rng.choice(sorted(h.superedges)))
        faults = FaultSet(g, [(u, v, 1) for u, v in rng.sample(edges, trial)])
        out.append(connectivity_certificate_check(g, h, faults))
    return out


def fingerprint(g, seed):
    cs = init_clustering(g.copy(), 2)
    init = _clustering(cs)
    rng = random.Random(seed)
    edges = sorted(g.superedges)
    cs.run_phase([edges[rng.randrange(len(edges))] for _ in range(8)])
    return {
        "clustering": _sha(init),
        "after_phase": _sha(_clustering(cs)),
        "eligible": _sha(_eligible(g)),
        "scattered": _sha(_scattered(g)),
        "certificate": _sha(_certificates(g, seed)),
    }


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_traversal_fingerprint(name):
    assert fingerprint(HOSTS[name](), 7) == GOLDEN[name]


def test_fingerprint_hosts_reach_every_branch():
    # the fingerprint must see real splits, a found ball after shedding
    # and both certificate answers
    g = HOSTS["small-components(n=300,m=100)"]()
    assert len(init_clustering(g, 2).split_log) > 10
    assert isinstance(scattered_or_ball(g, 1, Fraction(1, 2)), ScatteredCert)
    assert scattered_or_ball(mixed_graph(), 1, Fraction(1, 2)) == 200
    assert {True, False} <= set(_certificates(g, 7))


def test_eligible_index_takes_an_empty_last_step():
    # triangle {0,1,2} plus the path 10..30: the search from 0 runs out
    # after layer 1 and still takes one more, empty, step, at which the
    # growth stalls
    g = MultiGraph()
    for a, b in ((0, 1), (1, 2), (0, 2)):
        g.add_edge(a, b)
    for v in range(10, 30):
        g.add_edge(v, v + 1)
    assert eligible_index(Cluster(0, g), 0, 2) == 2
