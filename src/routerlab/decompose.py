"""End-to-end pipeline: build a router decomposition of an arbitrary
graph and keep it valid under batched edge deletions.

Build loop: strip low-degree vertices, cluster what is left, and for
each large cluster try to embed a recursive router template into it.  A
successful embedding is trimmed (fake copies pruned, under-covered
vertices dropped) and becomes a witnessed cluster with a sparsified
subgraph.  A failed cluster is charged to E^del, all but at most one
dense ball found by the scattered-or-ball search.  Only those balls go
on to the next round: the clusters partition the round's edges, and
every other edge has left it as a cluster edge or a charge.  Whatever
never makes it into a cluster lands in E^del, tagged with the cause.

Each cluster is one _WitnessedCluster record, and rd.clusters, in id
order, is the only collection of them.  The record owns the cluster's
host edges, its pruned router with the embedding paths of each bundle,
and the witness and sparsifier built from them.

Batch updates delete host edges: embedding paths through a deleted edge
die, the router prunes the matching copies, vertices whose surviving
path count drops below a fraction of their phase-start count are
cascaded out, and the sparsifier is recomputed for the drained cluster.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import chain

from .graph import MultiGraph, ball, _key
from .router_template import build
from .pruning import PruningConfig, new_pruned
from .clustering import init_clustering
from .witness import (Embedding, RouterWitness, greedy_embed, sparsify,
                      scattered_or_ball, ScatteredCert, _iroot_ceil)
from .spanner import RouterDecomposition


# Fixed pipeline constants.
ETA_CAP = 4                         # congestion cap of greedy_embed
RECOURSE_NUM = 13                   # a batch charges <= n^(13/k^2) per edge
FAKE_BUDGET_FRAC = Fraction(1, 4)   # share of template copies allowed fake
ITER_CAP = 8                        # build iterations before degrading
RHO = max(2, ITER_CAP)              # vertex and C' overlap budget
SCATTER_D = 1                       # scattered_or_ball distance and slack
SCATTER_EPS = Fraction(1, 2)


class PipelineConfig:
    def __init__(self, k, delta, delta_star, d_cap=None, template_n=None,
                 batch_bound=None, preset="relaxed"):
        # checked first: d_cap's default divides by 2*k_hat
        if k < 2:
            raise ValueError("k must be at least 2")
        self.k = k
        self.k_hat = k * k
        self.delta = delta
        self.delta_star = delta_star
        # by default the largest d_cap that delta_star admits
        self.d_cap = (d_cap if d_cap is not None
                      else delta_star // (2 * self.k_hat))
        self.template_n = template_n
        self.batch_bound = (batch_bound if batch_bound is not None
                            else max(1, delta // (2 * (self.k_hat + 1))))
        self.preset = preset
        self.validate()
        # cascade threshold: a vertex leaves once its path count falls
        # under this fraction of its phase-start count
        self.drop_frac = Fraction(1, 4 * k ** (16 * k * k) * self.d_cap)

    def validate(self):
        if self.delta < 1:
            raise ValueError("delta must be at least 1")
        if self.template_n is not None and self.template_n < 3:
            raise ValueError("template_n must be at least 3")
        if self.batch_bound < 1:
            raise ValueError("batch_bound must be at least 1")
        if self.d_cap < 1:
            raise ValueError("d_cap must be at least 1")
        if self.delta_star < 2 * self.k_hat * self.d_cap:
            raise ValueError("delta_star must be at least 2*k_hat*d_cap")
        self.pruning_cfg()
        return self

    def pruning_cfg(self, n=None):
        base = PruningConfig.preset(self.preset, self.k_hat)
        if n is not None and n - 1 < base.star_keep_frac * n:
            # narrow templates have only n-1 leaves per star; relax the
            # leaf floor so a fresh star is already above it
            base = PruningConfig(
                base.phases, base.edge_budget_frac, base.star_budget_frac,
                base.cluster_survival_frac, base.min_bundle_frac,
                Fraction(n - 1, n), base.cluster_keep_frac).validate()
        return base

    def template_size(self, nv):
        """N for a cluster of nv vertices: floor(nv^(1/k_hat - 1/k_hat^2)),
        unless pinned by template_n."""
        if self.template_n is not None:
            return self.template_n
        kh = self.k_hat
        # floor(nv^(p/q)) with p/q = 1/kh - 1/kh^2 exactly: the largest n
        # with n^q <= nv^p, one below the least g with g^q > nv^p
        exp = Fraction(1, kh) - Fraction(1, kh * kh)
        p, q = exp.numerator, exp.denominator
        return _iroot_ceil(nv ** p + 1, q) - 1

    def path_floor_at(self, n):
        """Smallest integer t >= 1 with t * n^(4/k_hat) >= delta, that is
        with t^k_hat >= delta^k_hat / n^4."""
        kh = self.k_hat
        return _iroot_ceil(-(-self.delta ** kh // n ** 4), kh)


class BuildReport:
    def __init__(self):
        self.causes = {}            # E^del edge -> cause tag, through batches
        self.degraded = False

    def cause_counts(self):
        out = {}
        for c in self.causes.values():
            out[c] = out.get(c, 0) + 1
        return out


class BatchReport:
    def __init__(self):
        self.deleted = 0
        self.inserted = 0
        self.to_e_del = {}          # cause -> count
        self.dissolved = []
        self.recourse = 0           # C' edge-set churn across clusters

    def charge(self, cause):
        self.to_e_del[cause] = self.to_e_del.get(cause, 0) + 1

    def charged(self):
        return sum(self.to_e_del.values())


class _WitnessedCluster:
    """The one record of a decomposition cluster, kept consistent under
    deletions.  It owns the cluster's host edges (graph), its embedded
    pruned router (s), the witness and the sparsifier.  bundles maps
    each live superedge of the router to the ordered list of surviving
    embedding paths (index = copy).  graph, witness, sparse and lam are
    set together by rebuild."""

    def __init__(self, cid, cfg, pruned, vertex_map, bundles):
        self.id = cid
        self.cfg = cfg
        self.s = pruned
        self.vm = dict(vertex_map)
        self.bundles = bundles
        self.graph = self.witness = self.sparse = None
        self.lam = {}               # path counts at the last rebuild

    def _sync_pruning(self):
        """Drop bundles the router no longer carries."""
        live = self.s.live_bundles()
        for key in list(self.bundles):
            if key not in live:
                del self.bundles[key]
            elif len(self.bundles[key]) != live[key]:
                raise AssertionError(
                    "bundle path count out of sync with the router")

    def distinct_paths(self):
        """Each distinct surviving embedding path with the number of
        copies on it, in the order the paths first occur in bundle
        order."""
        return Counter(chain.from_iterable(
            map(self.bundles.__getitem__, sorted(self.bundles))))

    def path_counts(self):
        """Number of surviving embedding paths through each host vertex,
        walking each distinct path once, weighted by its copies."""
        counts = {}
        for p, n in self.distinct_paths().items():
            for v in set(p):
                counts[v] = counts.get(v, 0) + n
        return counts

    def delete_copies_through(self, pred):
        """Remove every embedding path matching pred, pruning the router
        copy alongside.  Returns the number of paths removed."""
        t = self.s.t
        removed = 0
        for key in sorted(self.bundles):
            keep = []
            for p in self.bundles[key]:
                if pred(p):
                    i, leaf = key
                    self.s.delete_edge(leaf, t.level_center(i, leaf))
                    removed += 1
                else:
                    keep.append(p)
            self.bundles[key] = keep
        self._sync_pruning()
        return removed

    def shed(self, low_of):
        """Delete every embedding path through the vertices low_of(counts)
        names, counts being path_counts(), and repeat on the new counts
        until it names no vertex not named before.  Returns the set of
        vertices named."""
        named = set()
        while True:
            low = low_of(self.path_counts()) - named
            if not low:
                return named
            named |= low
            self.delete_copies_through(lambda p: any(v in low for v in p))

    def rebuild(self, source_graph):
        """Recompute graph, witness and sparsifier from the surviving
        paths, and take lam from their path counts.  source_graph
        supplies edge multiplicities; its edges not covered by any path
        are returned as dropped.  The new RouterWitness validates
        itself, checking among the rest that the router is still
        properly pruned.  Nothing is assigned until sparsify returns, so
        a rebuild that raises leaves the old graph for the caller to
        charge."""
        covered = {}
        for p in self.distinct_paths():
            for a, b in zip(p, p[1:]):
                covered[_key(a, b)] = True
        if not covered:
            raise ValueError("no embedding paths survive")
        source = source_graph.superedges
        edges = {}
        for e in sorted(covered):
            if e not in source:
                raise ValueError("embedding path uses a dead edge")
            edges[e] = source[e]
        host = MultiGraph.of(dict.fromkeys(x for e in edges for x in e), edges)
        dropped = [e for e in source_graph.superedges if e not in covered]
        paths = {}
        for (i, leaf) in sorted(self.bundles):
            for c, p in enumerate(self.bundles[(i, leaf)]):
                paths[(i, leaf, c)] = p
        w = RouterWitness(host, self.s, Embedding(self.vm, paths, host))
        sp = sparsify(w, self.cfg.delta_star)
        self.graph, self.witness, self.sparse = host, w, sp
        self.lam = {v: len(lst) for v, lst in w.path_sets.items()}
        return dropped


def _strip_low_degree(g, floor, causes):
    """Iteratively drop vertices under the degree floor; their edges are
    charged to E^del as low-degree.  A vertex with at least floor
    neighbours keeps its degree unsummed: each neighbour adds at least
    one copy, so its degree is at least floor."""
    adj = g.adj
    changed = True
    while changed:
        changed = False
        for v in sorted(g.vertices):
            if len(adj[v]) < floor and 0 < g.degree(v) < floor:
                for u in sorted(g.neighbors(v)):
                    causes[_key(u, v)] = "low-degree"
                g.remove_vertex(v)
                changed = True
        for v in [v for v in g.vertices if not g.neighbors(v)]:
            g.remove_vertex(v)


def _scatter_shed(sub, causes):
    """Embedding failed: keep at most one dense ball, charge the rest to
    E^del so re-clustering can make progress.  Returns the ball's edges,
    a superedge dict, for the next round."""
    res = scattered_or_ball(sub, SCATTER_D, SCATTER_EPS)
    kept = {}
    if not isinstance(res, ScatteredCert):
        keep = ball(sub, res, math.ceil(4 * SCATTER_D / SCATTER_EPS))
        kept = {e: m for e, m in sub.superedges.items()
                if e[0] in keep and e[1] in keep}
    if len(kept) == len(sub.superedges):
        kept = {}                   # a ball of every edge is no progress
    for e in sorted(sub.superedges):
        if e not in kept:
            causes[e] = "scatter"
    return kept


def _try_witness(cid, cfg, sub):
    """Attempt the template embedding on one cluster.  Returns the
    rebuilt _WitnessedCluster with the cluster edges its rebuild
    dropped, or None.  The exits that return None, in order: a template
    size N under 3, a template with more vertices than the cluster,
    greedy_embed finding no embedding within the fake budget, a router
    drained of every bundle once the fake copies are deleted, and a
    rebuild that raises (among the rest when the trim leaves no path,
    or the witness fails its validation)."""
    nv = len(sub.vertices)
    n_c = cfg.template_size(nv)
    if n_c < 3:
        # at N = 2 the two level-2 stars of a cluster take their centers
        # from different children, so routing's positional pairing finds
        # no child position that is a leaf in both: such a cluster
        # cannot route
        return None
    t = build(n_c, cfg.k_hat, cfg.delta)
    if t.num_vertices() > nv:
        return None
    total = t.num_edges()
    budget = int(FAKE_BUDGET_FRAC * total)
    got = greedy_embed(sub, t, cfg.d_cap, ETA_CAP, budget)
    if got is None:
        return None
    emb, fakes = got
    s = new_pruned(t, cfg.pruning_cfg(n_c))
    for (i, leaf, _c) in sorted(fakes):
        s.delete_edge(leaf, t.level_center(i, leaf))
    live = s.live_bundles()
    if not live:
        return None                 # drained
    bundles = {}
    # a live bundle holds delta copies less one per fake, so its
    # surviving paths are exactly its non-fake copies
    for (i, leaf) in sorted(live):
        bundles[(i, leaf)] = [emb.paths[(i, leaf, c)] for c in range(t.delta)
                              if (i, leaf, c) not in fakes]
    wc = _WitnessedCluster(cid, cfg, s, emb.vertex_map, bundles)

    # trim under-covered host vertices until stable
    d_star = max(max((len(p) - 1 for p in wc.distinct_paths()), default=1), 1)
    dprime = cfg.delta_star // (2 * cfg.k_hat * d_star)
    floor = max(cfg.path_floor_at(nv), 2 * dprime)
    wc.shed(lambda counts: {v for v, c in counts.items() if c < floor})
    try:
        return wc, wc.rebuild(sub)
    except ValueError:
        return None


def build_decomposition(g, cfg):
    """Decompose g into witnessed router clusters plus E^del.

    A round's clusters partition its graph's edges, and each cluster's
    edges leave the round whole, as a witnessed cluster or charged to
    E^del bar the one ball scatter may keep; so the next round's graph
    is built from the kept balls' edges alone.

    The decomposition's host rd.host is g itself, not a copy:
    process_batch deletes and inserts edges in it in place.  Pass
    g.copy() to keep g, for instance to build again from the same
    graph."""
    report = BuildReport()
    g0 = g.copy()
    _strip_low_degree(g0, cfg.delta, report.causes)
    clusters = []
    it = 0
    while g0.num_edges() and it < ITER_CAP:
        it += 1
        kept = {}
        for c in init_clustering(g0, cfg.k).active_clusters():
            sub = c.graph
            if not sub.superedges:
                continue
            if len(sub.vertices) < cfg.delta:
                for e in sorted(sub.superedges):
                    report.causes[e] = "small"
                continue
            got = _try_witness(len(clusters), cfg, sub)
            if got is None:
                kept.update(_scatter_shed(sub, report.causes))
                continue
            wc, dropped = got
            for e in dropped:
                report.causes[e] = "fake-trim"
            clusters.append(wc)
        g0 = MultiGraph.of(dict.fromkeys(x for e in kept for x in e), kept)
        _strip_low_degree(g0, cfg.delta, report.causes)
    if g0.num_edges():
        report.degraded = True
        for e in sorted(g0.superedges):
            report.causes[e] = "cap"
    kh = cfg.k_hat
    d_t = 22 * cfg.d_cap * kh * kh
    eta_t = 1
    for wc in clusters:
        d_s = wc.witness.emb.d_star
        eta_s = wc.witness.emb.eta_star
        eta_t = max(eta_t, 8 * wc.sparse.gamma * d_s * d_s * eta_s
                    * kh ** (4 * kh + 1))
    # E^del is what was charged, a live view of the causes, so the
    # partition check below compares the charges with the clusters' edges
    rd = RouterDecomposition(g, clusters, report.causes.keys(),
                             cfg.delta_star, d_t, eta_t, RHO)
    rd.cfg = cfg
    rd.report = report
    # rebuild() has just validated every cluster's witness
    bad = rd.check_valid(witnesses=False)
    if bad:
        raise AssertionError("decomposition invalid: %r" % (bad[:3],))
    return rd


def _cluster_of(rd, e):
    """The witnessed cluster holding host edge e, or None."""
    for wc in rd.clusters:
        if wc.graph.has_edge(*e):
            return wc
    return None


def _charge(rd, report, e, cause):
    """Move host edge e into E^del, recording its cause in rd.report
    and charging it to the batch."""
    rd.report.causes[e] = cause
    report.charge(cause)


def _dissolve(rd, wc, report):
    """Charge a cluster's remaining edges to E^del and drop it."""
    for e in sorted(wc.graph.superedges):
        _charge(rd, report, e, "dissolve")
    report.dissolved.append(wc.id)
    report.recourse += wc.sparse.cprime.num_edges()
    rd.clusters.remove(wc)


def _repair(rd, wc, edges, report):
    """Drain a cluster whose host edges `edges` were just deleted: drop
    the embedding paths through them, cascade out the vertices whose
    path count fell too far, and rebuild the witness.  Returns False
    when the cluster must be dissolved instead."""
    cfg = rd.cfg
    if len(edges) > cfg.batch_bound:
        return False
    try:
        wc.s.begin_phase()
    except ValueError:
        return False
    before_sparse = set(wc.sparse.cprime.superedges)
    e_del_before = report.charged()
    dead = set(edges)
    wc.delete_copies_through(
        lambda p: any(_key(a, b) in dead for a, b in zip(p, p[1:])))
    # cascade: vertices whose surviving path count fell too far leave
    # with every path through them, and their edges are charged
    low = wc.shed(lambda counts: {
        v for v, lam in wc.lam.items()
        if counts.get(v, 0) < lam * cfg.drop_frac})
    for e in sorted(wc.graph.superedges):
        if e[0] in low or e[1] in low:
            wc.graph.remove_edge(*e)
            _charge(rd, report, e, "cascade")
    try:
        dropped = wc.rebuild(wc.graph)
    except ValueError:
        return False
    for e in dropped:
        _charge(rd, report, e, "cascade")
    after_sparse = set(wc.sparse.cprime.superedges)
    report.recourse += len(before_sparse ^ after_sparse)
    added = report.charged() - e_del_before
    n = len(rd.host.vertices)
    bound = len(edges) * _recourse_per_edge(max(n, 2), cfg.k)
    if added > bound:
        raise AssertionError("per-batch E^del accounting bound broken")
    return True


def _recourse_per_edge(n, k):
    """pi_c = ceil(n^(RECOURSE_NUM/k^2)), computed exactly as the least b
    with b^(k^2) >= n^RECOURSE_NUM."""
    return _iroot_ceil(n ** RECOURSE_NUM, k * k)


def process_batch(rd, deletions, insertions=()):
    """Apply one batch of host edge deletions (and optional insertions,
    (u, v, mult) triples that land in E^del) to a built decomposition.

    The batch is checked before anything changes: every deleted edge
    must be a host edge, listed once, every insertion a valid edge, and
    no insertion may land on an edge a cluster holds unless the batch
    also deletes it.  Each deleted
    edge then leaves the host and its owning cluster, and each touched
    cluster is repaired or dissolved.  Only the touched clusters'
    witnesses are rebuilt, and rebuild validates them, so the closing
    check leaves witnesses out."""
    report = BatchReport()
    owner = {}
    for (u, v) in deletions:
        e = _key(u, v)
        if not rd.host.has_edge(*e):
            raise ValueError("deletion of unknown edge %r" % (e,))
        if e in owner:
            raise ValueError("edge %r deleted twice in one batch" % (e,))
        owner[e] = _cluster_of(rd, e)
    for (u, v, mult) in insertions:
        MultiGraph().add_edge(u, v, mult)  # rejects loops and mult < 1
        e = _key(u, v)
        if e not in owner and _cluster_of(rd, e) is not None:
            raise ValueError("insertion onto cluster edge %r" % (e,))

    per_cluster = {}
    for e, wc in owner.items():
        rd.host.remove_edge(*e)
        report.deleted += 1
        if wc is None:
            rd.report.causes.pop(e, None)
        else:
            wc.graph.remove_edge(*e)
            per_cluster.setdefault(wc.id, []).append(e)
    for wc in list(rd.clusters):
        if (wc.id in per_cluster
                and not _repair(rd, wc, per_cluster[wc.id], report)):
            _dissolve(rd, wc, report)

    for (u, v, mult) in insertions:
        rd.host.add_edge(u, v, mult)
        _charge(rd, report, _key(u, v), "insert")
        report.inserted += 1
    bad = rd.check_valid(witnesses=False)
    if bad:
        raise AssertionError("decomposition invalid after batch: %r"
                             % (bad[:3],))
    return report
