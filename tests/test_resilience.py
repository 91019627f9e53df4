from fractions import Fraction

import pytest

from routerlab.graph import Demand, MultiGraph, Routing, verify_routing
from routerlab.router_template import build
from routerlab.pruning import PruningConfig, new_pruned
from routerlab.routing import route_demand
from routerlab.resilience import FaultSet, FdReport, fd_route, integral_round

K = 2
DELTA_T = 1 << 19


class Fixture:
    def __init__(self):
        self.t = build(4, K, DELTA_T)
        self.s = new_pruned(self.t, PruningConfig.relaxed(K))
        self.g = self.s.current_graph()
        self.n = len(self.g.vertices)
        self.cap = Fraction(DELTA_T, K ** (4 * K))
        self.eta = 1
        self.d_len = 20 * K * K
        self.leaves = [v for v in sorted(self.g.vertices)
                       if not self.t.is_center(v)]

    def oracle(self, dm):
        base = route_demand(self.s, dm)
        return integral_round(self.g, dm, base, 1, self.eta, seed=7)

    def faults(self):
        edges = [(self.leaves[i], self.t.level_center(1, self.leaves[i]),
                  1 + i % 2) for i in range(4)]
        return FaultSet(self.g, edges)

    def demand(self):
        dm = Demand()
        dm.add(self.leaves[0], self.leaves[5], Fraction(1, 3))
        dm.add(self.leaves[1], self.leaves[6], 1)
        return dm


FX = Fixture()


def test_faulty_degree_and_fault_set():
    assert FaultSet(FX.g, []).deg == 0
    F = FX.faults()
    assert F.deg >= 1
    gf = F.reduced_graph(FX.g)
    assert gf.num_edges() == FX.g.num_edges() - sum(F.counts.values())


@pytest.mark.parametrize("count", [0, -3])
def test_fault_set_rejects_count_below_one(count):
    u = FX.leaves[0]
    with pytest.raises(ValueError, match="below 1"):
        FaultSet(FX.g, [(u, FX.t.level_center(1, u), count)])


def test_fd_route_verifies_in_reduced_graph():
    F = FX.faults()
    dm = FX.demand()
    delta = FX.cap / (2 * FX.n)
    rep = FdReport()
    r = fd_route(FX.oracle, FX.g, F, dm, K, FX.d_len, FX.eta, delta,
                 report=rep)
    gf = F.reduced_graph(FX.g)
    eta_p = 16 * FX.eta * FX.n
    vr = verify_routing(gf, dm, r, 32 * K * FX.d_len, 22 * K * eta_p)
    assert vr.ok, vr.violations[:5]
    assert rep.total_pairs >= rep.safe_at_start


def test_fd_route_no_faults_passes_base_through():
    F0 = FaultSet(FX.g, [])
    dm = FX.demand()
    delta = FX.cap / (2 * FX.n)
    r = fd_route(FX.oracle, FX.g, F0, dm, K, FX.d_len, FX.eta, delta)
    eta_p = 16 * FX.eta * FX.n
    assert verify_routing(FX.g, dm, r, 32 * K * FX.d_len, 22 * K * eta_p).ok


def test_fd_route_empty_demand():
    delta = FX.cap / (2 * FX.n)
    r = fd_route(FX.oracle, FX.g, FX.faults(), Demand(), K, FX.d_len,
                 FX.eta, delta)
    assert len(r) == 0


def test_fd_route_rejects_tiny_delta():
    with pytest.raises(ValueError, match="lambda too small"):
        fd_route(FX.oracle, FX.g, FX.faults(), FX.demand(), K, FX.d_len,
                 FX.eta, Fraction(1, 1000000))


def test_integral_round_deterministic_and_integral():
    base = Routing()
    base.add((0, 1), (0, 1), Fraction(1, 2))
    base.add((0, 2, 1), (0, 1), Fraction(1, 2))
    h = MultiGraph()
    for v in (0, 1, 2):
        h.add_vertex(v)
    h.add_edge(0, 1)
    h.add_edge(0, 2)
    h.add_edge(2, 1)
    dd = Demand([(0, 1, 1)])
    out1 = integral_round(h, dd, base, 1, 1, seed=1)
    out2 = integral_round(h, dd, base, 1, 1, seed=1)
    assert ([p for p, _, _ in out1.flow_paths]
            == [p for p, _, _ in out2.flow_paths])
    assert len(out1) == 1 and out1.is_integral()


def test_integral_round_splits_multi_unit_demand():
    h = MultiGraph()
    for v in (0, 1, 2):
        h.add_vertex(v)
    h.add_edge(0, 1, 4)
    h.add_edge(0, 2, 4)
    h.add_edge(2, 1, 4)
    base = Routing()
    base.add((0, 1), (0, 1), Fraction(3, 2))
    base.add((0, 2, 1), (0, 1), Fraction(3, 2))
    dd = Demand([(0, 1, 3)])
    out = integral_round(h, dd, base, 2, 2, seed=5)
    assert out.is_integral()
    assert sum(v for _p, pr, v in out.flow_paths if pr == (0, 1)) == 3

