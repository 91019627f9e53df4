"""Fault-tree fingerprints: fd_route must re-route stuck unit paths
through the same fault trees, rounds and copy assignment as when these
fingerprints were recorded.

No benchmark workload and no other test reaches a second round, because
the routing oracle's paths always resolve in round 1 there.  Here a
scripted oracle forces it on a small host: every round-1 path between
the fault vertices 1 and 2 crosses a faulted copy, so both trees grow,
and the round-2 paths go round the faults through vertex 4.

- "two-rounds": (1, 2) and (5, 6) have one copy each, both faulted, so
  every path through them is stuck.  Round 1 resolves nothing and
  round 2 resolves all seven unit paths.
- "leaf-meets": (1, 2) has two copies, one faulted, so the round-robin
  copy assignment decides which paths are stuck.  Every round-2 path
  crosses (1, 2), so which of them are clean depends on the copies
  assigned before, also to the leaf pairs of an entry after its good
  path was found.  One round-1 path walks 1-5-6-5-1-4-2 and gives the
  matched leaf pair (5, 5), which is done at once by its trivial path.

Each case hashes the flow paths and values in order, FdReport.rounds,
safe_at_start and total_pairs.
"""

import hashlib
import itertools
from fractions import Fraction

import pytest

from routerlab.graph import Demand, MultiGraph, Routing, verify_routing
from routerlab.resilience import FaultSet, FdReport, fd_route

EDGES = [(0, 1), (1, 2), (2, 3), (1, 4), (4, 2), (1, 5), (5, 6), (6, 2)]

# per call of the oracle (base call, round 1, round 2): the paths handed
# out to each pair in turn, oriented from the pair's smaller end
CASES = {
    "two-rounds": {
        "mult": {},
        "scripts": [
            {(0, 3): [(0, 1, 2, 3), (0, 1, 5, 6, 2, 3)]},
            {(1, 2): [(1, 2), (1, 5, 6, 2)]},
            {(1, 2): [(1, 4, 2)], (5, 6): [(5, 1, 4, 2, 6)]},
        ],
    },
    "leaf-meets": {
        "mult": {(1, 2): 2},
        "scripts": [
            {(0, 3): [(0, 1, 2, 3), (0, 1, 5, 6, 2, 3)]},
            {(1, 2): [(1, 5, 6, 5, 1, 4, 2), (1, 2), (1, 5, 6, 2),
                     (1, 5, 6, 5, 1, 4, 2)]},
            {(1, 2): [(1, 5, 1, 2)], (5, 6): [(5, 6), (5, 6), (5, 1, 2, 6)]},
        ],
    },
}

GOLDEN = {
    "two-rounds":
        "b9c24fa1dc81b0f1e8026b2f3d1468885ba7e3cbadb1ba0334bb843f03d197cd",
    "leaf-meets":
        "99ee279cbc1fcadc460b67d7cc74752b6dc0a36caebe9a397dcdc1ef9549dba3",
}


def _host(mult):
    g = MultiGraph()
    for u, v in EDGES:
        g.add_edge(u, v, mult.get((u, v), 1))
    return g


def _scripted(scripts):
    calls = iter(scripts)

    def oracle(dm):
        script = next(calls)
        r = Routing()
        for pair, m in sorted(dm.values.items()):
            for p in itertools.islice(itertools.cycle(script[pair]), int(m)):
                r.add(p, pair, 1)
        return r

    return oracle


def run_case(name):
    case = CASES[name]
    g = _host(case["mult"])
    faults = FaultSet(g, [(1, 2, 1), (5, 6, 1)])
    dm = Demand([(0, 3, 1)])
    rep = FdReport()
    # k=1, eta=1, delta=24 on n=7: lambda = 2*7*24 // (16*7) = 3
    r = fd_route(_scripted(case["scripts"]), g, faults, dm, 1, 3, 1, 24,
                 report=rep)
    vr = verify_routing(faults.reduced_graph(g), dm, r, 32 * 3,
                        Fraction(22 * 16 * 7))
    assert vr.ok, vr.violations
    return r, rep


def fingerprint(name):
    r, rep = run_case(name)
    flows = [(p, pair, val) for p, pair, val in r.flow_paths]
    return hashlib.sha256(repr(
        (flows, rep.rounds, rep.safe_at_start, rep.total_pairs)
    ).encode()).hexdigest()


def test_two_rounds_resolve_all_stuck_paths_in_round_2():
    _r, rep = run_case("two-rounds")
    assert rep.rounds == [{"round": 1, "pairs": 7, "good": 0},
                          {"round": 2, "pairs": 7, "good": 7}]
    assert (rep.safe_at_start, rep.total_pairs) == (0, 7)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fault_tree_fingerprint(name):
    assert fingerprint(name) == GOLDEN[name]
