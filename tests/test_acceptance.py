"""End-to-end acceptance checks, one test per guaranteed property.

Each test enforces its own wall-clock budget so regressions in
asymptotics show up as failures, not just slow runs.
"""

import json
import math
import random
import time
from fractions import Fraction

from routerlab.graph import Demand, MultiGraph, Routing, verify_routing
from routerlab.router_template import build, realize
from routerlab.pruning import PruningConfig, new_pruned
from routerlab.routing import route_demand
from routerlab.clustering import Cluster, eligible_index, init_clustering
from routerlab.witness import (lower_degrees, sparsify, sparsified_route,
                               validate_witness, witness_route)
from routerlab.resilience import FaultSet, FdReport, fd_route, integral_round
from routerlab.decompose import (PipelineConfig, build_decomposition,
                                 process_batch)
from routerlab.spanner import (connectivity_certificate_check,
                               extract_spanner, fd_spanner_check, lc_embed,
                               stretch_check)
from routerlab import cli

from _support import approx_feasible, identity_witness, router_probe, u_set


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.t0 = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.limit, "over time budget: %.1fs" % elapsed


def rand_graph(n, m, seed):
    rng = random.Random(seed)
    g = MultiGraph()
    for i in range(n):
        g.add_vertex(i)
    added = set()
    tries = 0
    while len(added) < m and tries < 20 * m:
        tries += 1
        a, b = rng.randrange(n), rng.randrange(n)
        e = (min(a, b), max(a, b))
        if a != b and e not in added:
            added.add(e)
            g.add_edge(a, b)
    return g


def test_acceptance_1_structure():
    b = Budget(1)
    t = build(4, 2, 3)
    assert t.num_vertices() == 16
    assert sum(1 for v in t.vertices() if t.is_center(v)) == 4
    edges = sum(1 for i in (1, 2) for _ in t.superedges(i)) * t.delta
    assert edges == 72
    assert t.center_degree() == 18
    assert t.leaf_degree() == 6
    b.done()


def _fuzz_trace(N, k, delta, preset, seed, deletions):
    t = build(N, k, delta)
    cfg = (PruningConfig.paper(k) if preset == "paper"
           else PruningConfig.relaxed(k))
    s = new_pruned(t, cfg)
    rng = random.Random(seed)
    ses = [(l, c) for i in range(1, k + 1) for (l, c) in t.superedges(i)]
    bad = 0
    for _ in range(deletions):
        if rng.random() < 0.05 and s.tau + 1 < s.cfg.phases:
            s.begin_phase()
        s.delete_edge(*rng.choice(ses))
        if not s.is_properly_pruned():
            bad += 1
    return s, bad


def _phase_bound_violations(s, k):
    out = []
    delta = s.t.delta
    for tau in range(s.tau + 1):
        st = s.phase_stats(tau)
        e = st["deleted"]
        if st["deleted_from_u_k"] * delta > e * k ** (4 * k):
            out.append((tau, "u_k"))
        if st["edges_deleted_from_w"] > e * k ** (7 * k + 3):
            out.append((tau, "w_edges"))
        if st["deleted_from_u_1"] * delta > 2 * k ** (7 * k + 2) * e:
            out.append((tau, "u_1"))
    return out


def test_acceptance_2_pruning_safety():
    b = Budget(60)
    configs = [(4, 2, 32), (5, 2, 32), (6, 2, 32), (3, 3, 32), (4, 3, 32),
               (6, 3, 32), (2, 2, 32), (5, 3, 32), (6, 1, 32), (4, 1, 32)]
    traces = 0
    for seed in range(50):
        for (N, k, delta) in configs:
            for preset in ("paper", "relaxed"):
                if preset == "paper" and N < k:
                    continue
                s, bad = _fuzz_trace(N, k, delta, preset, seed, 12)
                traces += 1
                assert bad == 0, (N, k, preset, seed)
                if k in (2, 3):
                    assert not _phase_bound_violations(s, k), (N, k, seed)
    assert traces >= 1000
    b.done()


def _random_restricted_demand(rng, verts, cap, tries=10):
    d = Demand()
    budget = {v: cap for v in verts}
    for _ in range(tries if len(verts) >= 2 else 0):
        a, b = rng.sample(verts, 2)
        if d.value(a, b) > 0:
            continue
        val = min(budget[a], budget[b],
                  Fraction(rng.randrange(1, 5), rng.choice([1, 2, 4])))
        if val > 0:
            d.add(a, b, val)
            budget[a] -= val
            budget[b] -= val
    return d


def test_acceptance_3_routing_correctness():
    b = Budget(60)
    for (N, k, delta, trials) in [(4, 2, 4096, 500), (3, 3, 32 ** 3, 500)]:
        t = build(N, k, delta)
        base = new_pruned(t, PruningConfig.relaxed(k))
        rng = random.Random(N * 1000 + k)
        ses = [(l, c) for i in range(1, k + 1) for (l, c) in t.superedges(i)]
        for trial in range(trials):
            if trial % 50 == 0:
                # refresh the pruned router periodically, delete in between
                s = new_pruned(t, PruningConfig.relaxed(k))
            for _ in range(2):
                s.delete_edge(*rng.choice(ses))
            assert s.is_properly_pruned().ok
            u1 = sorted(u_set(s, 1))
            cap = Fraction(t.delta, k ** (4 * k))
            d = _random_restricted_demand(rng, u1, cap)
            if not len(d):
                continue
            r = route_demand(s, d)
            rep = verify_routing(s.current_graph(), d, r, 20 * k * k, 1)
            assert rep.ok, (N, k, trial, rep.violations[:3])
            if d.is_integral():
                assert r.is_integral()
    b.done()


def test_acceptance_4_clustering():
    b = Budget(120)
    g = MultiGraph()
    for i in range(99):
        g.add_edge(i, i + 1)
    assert eligible_index(Cluster(0, g), 0, 2) == 3

    for case in range(100):
        rng = random.Random(case * 31 + 5)
        n = rng.choice([25, 60, 120, 300, 700, 1200, 2000])
        m = min(n * (n - 1) // 2, rng.randrange(n // 2, 2 * n))
        host = rand_graph(n, m, case)
        k = 2 + case % 2
        cs = init_clustering(host, k)
        assert not cs.check_valid(), case
        edges = sorted(host.superedges)
        rng.shuffle(edges)
        for _ in range(2):
            if not edges:
                break
            dels = [edges.pop() for _ in range(min(4, len(edges)))]
            log = cs.run_phase(dels)
            assert not cs.check_valid(), case
            for entry in log:
                ps, cssz, par = (entry["piece_size"], entry["core_size"],
                                 entry["parent_size"])
                assert ps ** k <= par ** (k - 1) or par <= 1, (case, entry)
                assert cssz ** (k ** 3) * par >= ps ** (k ** 3), (case, entry)
        total = cs.total_n_v()
        assert total ** k <= 2 ** k * cs.n ** (k + 1), case
    b.done()


def test_acceptance_5_witness_and_sparsifier():
    b = Budget(60)
    k = 2
    for delta in (8, 16, 64):
        t = build(4, k, delta)
        s = new_pruned(t, PruningConfig.relaxed(k))
        rng = random.Random(delta)
        ses = [(l, c) for i in range(1, k + 1) for (l, c) in t.superedges(i)]
        for _ in range(delta // 4):
            s.delete_edge(*rng.choice(ses))
        assert s.is_properly_pruned().ok
        w = identity_witness(s)
        assert validate_witness(w).ok
        maxlen = 22 * w.emb.d_star * k * k
        maxcong = (2 * w.alpha * w.beta * k ** (4 * k + 1)
                   * w.emb.d_star * w.emb.eta_star)
        leaves = [v for v in sorted(w.host.vertices)
                  if not t.is_center(v) and w.host.degree(v) >= 1]
        for trial in range(20):
            d = _random_restricted_demand(rng, leaves, Fraction(1))
            if not len(d):
                continue
            vr = verify_routing(w.host, d, witness_route(w, d),
                                maxlen, maxcong)
            assert vr.ok, (delta, trial, vr.violations[:3])
        sp = sparsify(w, 2 * k * w.emb.d_star * (delta // 2))
        assert sp.cprime.num_edges() <= len(w.host.vertices) * sp.delta_star
        mc = (8 * sp.gamma * w.emb.d_star ** 2 * w.emb.eta_star
              * k ** (4 * k + 1))
        for trial in range(10):
            d = _random_restricted_demand(rng, leaves, Fraction(1, 2))
            if not len(d):
                continue
            vr = verify_routing(sp.cprime, d, sparsified_route(sp, w, d),
                                maxlen, mc)
            assert vr.ok, (delta, trial, vr.violations[:3])

    # degree lowering: caps hold whenever preconditions do
    rng = random.Random(9)
    checked = 0
    for trial in range(80):
        nl, nr, z = rng.randrange(2, 8), rng.randrange(4, 10), 2
        dh = rng.randrange(1, 3)
        h = {x: [y for y in range(nr) if rng.random() < 0.8]
             for x in range(nl)}
        if any(len(v) < z * dh for v in h.values()):
            continue
        ydeg = {}
        for v in h.values():
            for y in v:
                ydeg[y] = ydeg.get(y, 0) + 1
        gp = -(-max(ydeg.values()) // (z * dh))
        rounds_cap = max(1, (nl - 1).bit_length()) if nl > 1 else 1
        r = 8 * gp * rounds_cap
        out = lower_degrees(h, z, dh, gp, r)
        assert all(len(out[x]) == dh for x in h)
        cnt = {}
        for v in out.values():
            for y in v:
                cnt[y] = cnt.get(y, 0) + 1
        assert max(cnt.values()) <= 2 * gp * r
        checked += 1
    assert checked >= 20
    b.done()


def test_acceptance_6_fault_tolerance():
    b = Budget(120)
    k = 2
    delta_t = 1 << 19
    t = build(4, k, delta_t)
    s = new_pruned(t, PruningConfig.relaxed(k))
    g = s.current_graph()
    n = len(g.vertices)
    eta = 1
    d_len = 20 * k * k
    cap = Fraction(delta_t, k ** (4 * k))
    delta = cap / (2 * n)
    eta_p = 16 * eta * n
    leaves = [v for v in sorted(g.vertices) if not t.is_center(v)]

    def oracle(dm):
        base = route_demand(s, dm)
        return integral_round(g, dm, base, 1, eta, seed=7)

    rng = random.Random(2024)
    for case in range(50):
        picks = []
        centers_used = set()
        for v in rng.sample(leaves, rng.randrange(1, 4)):
            c = t.level_center(1, v)
            if c not in centers_used:
                centers_used.add(c)
                picks.append(v)
        faults = FaultSet(g, [(v, t.level_center(1, v),
                               rng.randrange(1, 3)) for v in picks])
        assert faults.deg in (1, 2)
        dm = Demand()
        for _ in range(2):
            a, bb = rng.sample(leaves, 2)
            if dm.value(a, bb) == 0:
                dm.add(a, bb, Fraction(rng.randrange(1, 3), 2))
        rep = FdReport()
        r = fd_route(oracle, g, faults, dm, k, d_len, eta, delta, report=rep)
        gf = faults.reduced_graph(g)
        vr = verify_routing(gf, dm, r, 32 * k * d_len, 22 * k * eta_p)
        assert vr.ok, (case, vr.violations[:3])

    # rounding: congestion stays below 8*alpha*eta once alpha >= 8*ceil(log n)
    alpha = 8 * math.ceil(math.log2(n))
    dm = Demand([(leaves[0], leaves[5], 3), (leaves[1], leaves[6], 2)])
    base = route_demand(s, dm)
    for seed in range(100):
        out = integral_round(g, dm, base, alpha, eta, seed=seed)
        assert out.is_integral()
        vr = verify_routing(g, dm, out, 32 * k * d_len, 8 * alpha * eta)
        assert vr.ok, (seed, vr.violations[:3])
    b.done()


def test_acceptance_7_applications():
    b = Budget(180)
    t = build(3, 4, 4)
    cfg_kw = dict(k=2, delta=4, delta_star=16, d_cap=2, template_n=3,
                  batch_bound=6)

    def fresh():
        return build_decomposition(realize(t), PipelineConfig(**cfg_kw))

    rd = fresh()
    h = extract_spanner(rd)
    st, _ = stretch_check(rd.host, h)
    assert st <= rd.d_t
    emb = lc_embed(rd, seed=3)
    nn = len(rd.host.vertices)
    dmax = max(rd.host.degree(v) for v in rd.host.vertices)
    cong_cap = max(16 * rd.eta_t * dmax // rd.delta_star,
                   16 * math.ceil(math.log2(nn)))
    assert emb.eta <= cong_cap

    # fault sets of degree <= 2: detour bound and connectivity certificate
    rng = random.Random(77)
    verts = sorted(rd.host.vertices)
    for _case in range(5):
        v = rng.choice(verts)
        nbrs = sorted(rd.host.neighbors(v))
        if not nbrs:
            continue
        faults = FaultSet(rd.host, [(v, nbrs[0], 1)])
        fr = fd_spanner_check(rd, faults, 2)
        assert fr["ok"], fr
        assert connectivity_certificate_check(rd.host, h, faults)

    # batch fuzz: validity and stretch hold after every batch
    for seed in range(4):
        rd2 = fresh()
        rng = random.Random(seed)
        for _batch in range(3):
            live = sorted(rd2.host.superedges)
            dels = rng.sample(live, min(2, len(live)))
            process_batch(rd2, dels)
            assert not rd2.check_valid()
            h2 = extract_spanner(rd2)
            st2, _ = stretch_check(rd2.host, h2)
            assert st2 <= rd2.d_t
    b.done()


def test_acceptance_8_oracle_consistency():
    b = Budget(60)
    rng = random.Random(12)
    contradictions = 0
    for _trial in range(40):
        n = rng.randrange(4, 10)
        g = rand_graph(n, rng.randrange(n, 2 * n), rng.randrange(10 ** 6))
        r = Routing()
        d = Demand()
        verts = sorted(g.vertices)
        for _ in range(3):
            v0 = rng.choice(verts)
            p = [v0]
            for _h in range(rng.randrange(1, 4)):
                nb = sorted(x for x in g.neighbors(p[-1]) if x not in p)
                if not nb:
                    break
                p.append(rng.choice(nb))
            if len(p) < 2 or d.value(p[0], p[-1]) > 0:
                continue
            val = Fraction(rng.randrange(1, 4), 2)
            d.add(p[0], p[-1], val)
            r.add(tuple(p), (p[0], p[-1]), val)
        if not len(d):
            continue
        dlen = max(len(p) - 1 for p, _pr, _v in r.flow_paths)
        cong = verify_routing(g, d, r, dlen, 1).worst_congestion
        eta = max(1, math.ceil(cong))
        assert verify_routing(g, d, r, dlen, eta).ok
        if not approx_feasible(g, d, dlen, eta).feasible:
            contradictions += 1
    assert contradictions == 0

    # every extremal restricted demand on a realized router is feasible
    g = realize(build(4, 1, 8))
    pr = router_probe(g, lambda v: 1, 2, 2)
    assert pr["feasible"], pr
    pr2 = router_probe(g, g.degree, 2, 8)
    assert pr2["feasible"], pr2
    b.done()


def test_acceptance_9_cli_determinism(tmp_path, capsys):
    g = realize(build(3, 4, 4))
    host = tmp_path / "host.graph"
    host.write_text("".join("%d %d %d\n" % (u, v, m)
                            for (u, v), m in sorted(g.superedges.items())))
    man = tmp_path / "router.json"
    assert cli.main(["build-router", "--N", "4", "--k", "2", "--delta",
                     "4096", "--out", str(man)]) == 0
    capsys.readouterr()
    dm = tmp_path / "demand.txt"
    dm.write_text("1 2 1\n5 6 1/2\n")
    fl = tmp_path / "faults.txt"
    fl.write_text("1 0 1\n")
    dopts = ["--graph", str(host), "--k", "2", "--delta", "4",
             "--delta-star", "16", "--d-cap", "2", "--template-n", "3",
             "--batch-bound", "6"]
    cmds = [
        ["build-router", "--N", "4", "--k", "2", "--delta", "3"],
        ["route", "--template", str(man), "--demand", str(dm)],
        ["decompose"] + dopts,
        ["spanner"] + dopts,
        ["lc-embed"] + dopts,
        ["fd-check"] + dopts + ["--faults", str(fl)],
    ]
    for argv in cmds:
        reports = []
        for i in (1, 2):
            out = tmp_path / ("r%d.json" % i)
            rc = cli.main(["--seed", "11", "--json", str(out)] + argv)
            assert rc == 0, argv
            doc = json.loads(out.read_text())
            doc.pop("timings_ms", None)
            reports.append(json.dumps(doc, sort_keys=True))
        assert reports[0] == reports[1], argv
