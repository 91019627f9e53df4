"""Each guarantee guard on the decomposition path fires when its
guarantee is broken, also under `python -O`, which strips bare asserts."""

import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from routerlab import spanner
from routerlab.decompose import PipelineConfig, _WitnessedCluster
from routerlab.graph import MultiGraph, Routing
from routerlab.pruning import PruningConfig, new_pruned
from routerlab.router_template import build
from routerlab.spanner import (ClusterEntry, RouterDecomposition,
                               extract_spanner, lc_embed)


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
    entry = ClusterEntry(0, cprime, None, SimpleNamespace(cprime=cprime))
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
    entry = ClusterEntry(0, g, None, SimpleNamespace(cprime=g))
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


GUARDS = [
    (spanner_size_collision, "spanner size accounting broken"),
    (lc_length_over_bound, "lc embedding length bound broken"),
    (lc_congestion_over_bound, "lc embedding congestion bound broken"),
    (bundle_out_of_sync, "bundle path count out of sync with the router"),
]


@pytest.mark.parametrize("trigger,msg", GUARDS,
                         ids=[fn.__name__ for fn, _msg in GUARDS])
def test_guard_fires(trigger, msg):
    with pytest.raises(AssertionError, match=msg):
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
