"""Differential test of approx_feasible against an exact path LP.

On small random multigraphs the maximum concurrent throughput lambda*
over the path system enum_paths gives is solved exactly by
scipy.optimize.linprog.  approx_feasible's ratio is the throughput of a
flow it found, so it can never exceed lambda*, and a demand with
lambda* >= 1 must be called feasible.
"""

import random
from fractions import Fraction

import pytest

from routerlab.graph import Demand, MultiGraph, _key

from _support import approx_feasible, enum_paths

optimize = pytest.importorskip("scipy.optimize")


def max_concurrent(g, demand, d, eta):
    """lambda*: the largest lambda such that lambda * demand routes over
    paths of at most d edges with each edge e carrying at most
    eta * mult(e).  Variables are one flow per path, then lambda."""
    pairs = sorted(demand.values.items())
    paths = [(j, p) for j, ((a, b), _val) in enumerate(pairs)
             for p in enum_paths(g, a, b, d)]
    edges = sorted(g.superedges)
    col = {e: i for i, e in enumerate(edges)}
    nv = len(paths) + 1
    a_eq = [[0.0] * nv for _ in pairs]
    a_ub = [[0.0] * nv for _ in edges]
    for x, (j, p) in enumerate(paths):
        a_eq[j][x] = 1.0
        for u, v in zip(p, p[1:]):
            a_ub[col[_key(u, v)]][x] += 1.0
    for j, (_pair, val) in enumerate(pairs):
        a_eq[j][-1] = -float(val)
    b_ub = [float(eta * g.superedges[e]) for e in edges]
    cost = [0.0] * (nv - 1) + [-1.0]
    res = optimize.linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq,
                           b_eq=[0.0] * len(pairs), bounds=(0, None),
                           method="highs")
    assert res.status == 0, res.message
    return -res.fun


def random_case(rng):
    """A random multigraph on 4 to 6 vertices and a demand of one to
    three pairs, each joined by some path of at most d edges."""
    n = rng.randrange(4, 7)
    d = rng.randrange(1, 4)
    g = MultiGraph()
    for v in range(n):
        g.add_vertex(v)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                g.add_edge(u, v, rng.randrange(1, 3))
    reach = [(a, b) for a in range(n) for b in range(a + 1, n)
             if enum_paths(g, a, b, d)]
    dem = Demand()
    for a, b in rng.sample(reach, min(len(reach), rng.randrange(1, 4))):
        dem.add(a, b, Fraction(rng.randrange(1, 7), 2))
    return g, dem, d, Fraction(rng.randrange(2, 5), 2)


def test_approx_feasible_against_exact_path_lp():
    rng = random.Random(11)
    verdicts = {True: 0, False: 0}
    for case in range(40):
        g, dem, d, eta = random_case(rng)
        lam = max_concurrent(g, dem, d, eta)
        rep = approx_feasible(g, dem, d, eta)
        assert float(rep.ratio) <= lam + 1e-9, (case, rep.ratio, lam)
        if lam >= 1 + 1e-9:
            assert rep.feasible, (case, rep.ratio, lam)
        verdicts[rep.feasible] += 1
    # the cases reach both verdicts
    assert min(verdicts.values()) >= 5, verdicts
