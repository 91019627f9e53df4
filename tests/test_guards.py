"""Each guarantee guard fires when its guarantee is broken, also under
`python -O`, which strips bare asserts."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from routerlab import decompose, routing, spanner
from routerlab.decompose import (PipelineConfig, _WitnessedCluster,
                                 build_decomposition, process_batch)
from routerlab.graph import Demand, MultiGraph, Routing
from routerlab.pruning import PruningConfig, new_pruned
from routerlab.resilience import FaultSet, fd_route
from routerlab.router_template import build, realize
from routerlab.spanner import RouterDecomposition, extract_spanner, lc_embed


def _clique(n):
    g = MultiGraph()
    for a in range(n):
        for b in range(a + 1, n):
            g.add_edge(a, b)
    return g


def spanner_size_collision():
    """A C' edge that is also in E^del merges into one H' edge."""
    g = _clique(4)
    cprime = MultiGraph()
    cprime.add_edge(0, 1)
    entry = SimpleNamespace(id=0, graph=cprime, witness=None,
                            sparse=SimpleNamespace(cprime=cprime))
    rd = RouterDecomposition(g, [entry], {(0, 1), (2, 3)}, 16, 8, 1, 2)
    extract_spanner(rd)


def lc_length_over_bound():
    """Every edge embeds as itself (length 1) against d_t = 0."""
    g = _clique(4)
    rd = RouterDecomposition(g, [], set(g.superedges), 16, 0, 1, 2)
    lc_embed(rd)


def lc_congestion_over_bound():
    """The rounding puts all 190 edges of a K_20 cluster on one H' edge,
    over the bound max(16*eta_t*dmax/delta_star, 16*log n) = 80."""
    g = _clique(20)
    entry = SimpleNamespace(id=0, graph=g,
                            witness=SimpleNamespace(max_degree=19),
                            sparse=SimpleNamespace(cprime=g))
    rd = RouterDecomposition(g, [entry], set(), 16, 8, 1, 2)

    def one_edge(_g, d, _frac, _alpha, _eta, seed=0):
        r = Routing()
        for (a, b) in d.values:
            r.add((0, 1), (a, b), 1)
        return r

    saved = spanner.sparsified_route, spanner.integral_round
    spanner.sparsified_route = lambda sp, w, d: None
    spanner.integral_round = one_edge
    try:
        lc_embed(rd)
    finally:
        spanner.sparsified_route, spanner.integral_round = saved


def lc_path_leaves_cprime():
    """The rounding sends every edge of a K_4 cluster over (0, 2), which
    the cluster's C' (edges (0, 1) and (0, 3)) does not hold."""
    g = _clique(4)
    cprime = MultiGraph()
    cprime.add_edge(0, 1)
    cprime.add_edge(0, 3)
    entry = SimpleNamespace(id=0, graph=g,
                            witness=SimpleNamespace(max_degree=3),
                            sparse=SimpleNamespace(cprime=cprime))
    rd = RouterDecomposition(g, [entry], set(), 16, 8, 1, 2)

    def via_0_2(_g, d, _frac, _alpha, _eta, seed=0):
        r = Routing()
        for (a, b) in d.values:
            r.add((0, 2), (a, b), 1)
        return r

    saved = spanner.sparsified_route, spanner.integral_round
    spanner.sparsified_route = lambda sp, w, d: None
    spanner.integral_round = via_0_2
    try:
        lc_embed(rd)
    finally:
        spanner.sparsified_route, spanner.integral_round = saved


def bundle_out_of_sync():
    """A live bundle keeps one path while the router still has two."""
    t = build(3, 2, 2)
    s = new_pruned(t, PruningConfig.relaxed(2))
    key = min(k for k, live in s.in_w.items() if live)
    assert s.rem[key] == 2
    wc = _WitnessedCluster(0, PipelineConfig(k=2, delta=4, delta_star=16,
                                             d_cap=2),
                           s, {v: v for v in t.vertices()},
                           {key: [(key[1], t.level_center(*key))]})
    wc._sync_pruning()


def recourse_over_bound():
    """With RECOURSE_NUM at 0 the per-batch bound is pi_c = 1; deleting
    host edge (1, 3) of the realized (3,4,4) router charges far more than
    one edge to E^del without dissolving the cluster."""
    rd = build_decomposition(
        realize(build(3, 4, 4)),
        PipelineConfig(k=2, delta=4, delta_star=16, d_cap=2, template_n=3,
                       batch_bound=6))
    assert len(rd.clusters) == 1
    saved = decompose.RECOURSE_NUM
    decompose.RECOURSE_NUM = 0
    try:
        process_batch(rd, [(1, 3)])
    finally:
        decompose.RECOURSE_NUM = saved


def prefix_mask_after_drain():
    """A prefix test that rejects every mask: the first drain that removes
    a vertex from some U_i must notice."""
    t = build(3, 2, 2)
    s = new_pruned(t, PruningConfig.relaxed(2))
    s._is_prefix = lambda m: False
    for _ in range(t.delta):
        s.delete_edge(1, t.level_center(1, 1))


def u1_path_off_target():
    """Child routing that leaves every path at its source, short of the
    U_2 vertex it was sent to.  Deleting leaf 1's level-2 bundle takes
    its level-1 star out of U_2, so its U_1 vertices need paths."""
    t = build(4, 2, 8)
    s = new_pruned(t, PruningConfig.relaxed(2))
    for _ in range(t.delta):
        s.delete_edge(1, t.level_center(2, 1))
    saved = routing._route_entries
    routing._route_entries = lambda s, i, entries, scale: {
        key: (a,) for a, _b, _val, key in entries}
    try:
        routing.route_u1_to_uk(s)
    finally:
        routing._route_entries = saved


def fd_leaf_demand_unrestricted():
    """65 unit paths of one pair (demand value 65/4 on n = 4 vertices)
    all cross the faulted edge (1, 2) of the path 0-1-2-3, so the first
    round asks 65*lambda = 130 units of vertex 1, over
    delta' = 2*n*delta = 128."""
    g = MultiGraph()
    for a in range(3):
        g.add_edge(a, a + 1)

    def oracle(dm):
        r = Routing()
        for (a, b), m in sorted(dm.values.items()):
            for _ in range(int(m)):
                r.add(tuple(range(a, b + 1)), (a, b), 1)
        return r

    fd_route(oracle, g, FaultSet(g, [(1, 2, 1)]),
             Demand([(0, 3, Fraction(65, 4))]), 1, 3, 1, 16)


# the fault-tree leaf count guard in fd_route (len(leaves) == lambda^(i-1))
# cannot be forced from outside: every expansion adds exactly lambda
# children per leaf, and an oracle returning a wrong path count is
# rejected with a ValueError first
GUARDS = [
    (spanner_size_collision, "spanner size accounting broken"),
    (lc_length_over_bound, "lc embedding length bound broken"),
    (lc_congestion_over_bound, "lc embedding congestion bound broken"),
    (lc_path_leaves_cprime, "embedded path leaves C'"),
    (bundle_out_of_sync, "bundle path count out of sync with the router"),
    (recourse_over_bound, "per-batch E^del accounting bound broken"),
    (prefix_mask_after_drain, "non-prefix mask after drain"),
    (u1_path_off_target, "U_1 path ends off its U_i target"),
    (fd_leaf_demand_unrestricted, "D^i not restricted"),
]


@pytest.mark.parametrize("trigger,msg", GUARDS,
                         ids=[fn.__name__ for fn, _msg in GUARDS])
def test_guard_fires(trigger, msg):
    with pytest.raises(AssertionError, match=re.escape(msg)):
        trigger()


def test_guards_fire_under_optimize():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    script = (
        "import sys\n"
        "import test_guards as T\n"
        "for fn, msg in T.GUARDS:\n"
        "    try:\n"
        "        fn()\n"
        "    except AssertionError as e:\n"
        "        assert str(e) == msg, (fn.__name__, str(e))\n"
        "        print('fired', fn.__name__)\n"
        "    else:\n"
        "        print('silent', fn.__name__)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, here])
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split().count("fired") == len(GUARDS), out.stdout
