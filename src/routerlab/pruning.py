"""Online pruning of the recursive router under adversarial deletions.

The state tracks nested membership sets U_1 .. U_k (U_i = vertices still
participating at level i) plus the surviving edge bundles.  An adversary
deletes edge copies; whenever a per-phase counter crosses its budget the
affected object is retired through a worklist with three entry kinds:

  type 1 (i, v):  v leaves U_i, its level-i edges leave W, and the event
                  is escalated to level i+1 and to v's star and cluster;
  type 2 (i, S):  star S has lost too many leaves (or its center); every
                  member still in U_i is ejected and S is marked destroyed;
  type 3 (i, C):  too few vertices of cluster C remain in U_i; the whole
                  cluster is flushed out of U_1..U_{i-1} and destroyed.

Entries are processed lowest level first, ties broken 1 < 2 < 3.  All
budget comparisons are exact rationals and strict ("exceeds").

Mid-drain the membership of a vertex need not be a prefix of levels (a
type-3 flush can clear low levels while an escalation entry for a high
level is still queued), so membership is stored as a bitmask per vertex;
between operations it is always a prefix.

PrunedRouter owns this state: other modules read the surviving bundles
through live_bundles() and the router with thinner bundles through
thinned(delta_prime), never through its internal fields.  It also owns
the memo of values derived from the membership sets (memo(name,
compute), used for routing's sink paths): the memo is cleared wherever
mask changes, at the top of _drain and in thinned(), so a memoized
value is computed once per membership change.
"""

import heapq
import math
from fractions import Fraction

from .graph import MultiGraph
from .router_template import build


class PruningConfig:
    def __init__(self, phases, edge_budget_frac, star_budget_frac,
                 cluster_survival_frac, min_bundle_frac, star_keep_frac,
                 cluster_keep_frac):
        self.phases = phases
        self.edge_budget_frac = Fraction(edge_budget_frac)
        self.star_budget_frac = Fraction(star_budget_frac)
        self.cluster_survival_frac = Fraction(cluster_survival_frac)
        self.min_bundle_frac = Fraction(min_bundle_frac)
        self.star_keep_frac = Fraction(star_keep_frac)
        self.cluster_keep_frac = Fraction(cluster_keep_frac)

    def validate(self):
        """Budget-vs-checker compatibility: in-budget traces can never
        drive the state below what the checker demands."""
        errs = []
        if self.phases < 1:
            errs.append("phases must be >= 1")
        if self.phases * self.edge_budget_frac > 1 - self.min_bundle_frac:
            errs.append("edge budgets can exhaust bundles below the retention floor")
        if self.phases * self.star_budget_frac > 1 - self.star_keep_frac:
            errs.append("star budgets can drop surviving stars below the leaf floor")
        if self.cluster_survival_frac ** self.phases < self.cluster_keep_frac:
            errs.append("per-phase cluster survival cannot guarantee the keep fraction")
        if errs:
            raise ValueError("; ".join(errs))
        return self

    @classmethod
    def paper(cls, k):
        """Literal budget fractions.  The cluster keep fraction is capped by
        what k+1 survival phases can actually guarantee, which for small k
        is below 1/k^(3k)."""
        surv = Fraction(1, 16 * k * k)
        return cls(
            phases=k + 1,
            edge_budget_frac=Fraction(1, 4 * k),
            star_budget_frac=Fraction(1, 4 * k * k),
            cluster_survival_frac=surv,
            min_bundle_frac=Fraction(1, 2),
            star_keep_frac=1 - Fraction(1, k),
            cluster_keep_frac=min(Fraction(1, k ** (3 * k)), surv ** (k + 1)),
        ).validate()

    @classmethod
    def relaxed(cls, k):
        """Budgets sized so desk-scale instances exercise both the trigger
        and the non-trigger branches."""
        return cls(
            phases=k + 1,
            edge_budget_frac=Fraction(1, 2 * (k + 1)),
            star_budget_frac=Fraction(1, 2 * k * (k + 1)),
            cluster_survival_frac=Fraction(1, 4),
            min_bundle_frac=Fraction(1, 2),
            star_keep_frac=1 - Fraction(1, k),
            cluster_keep_frac=Fraction(1, 4) ** (k + 1),
        ).validate()


class DeletionReport:
    """Diff of one delete_edge call."""

    def __init__(self):
        self.noop = False
        self.removed = {}                # level -> list of (vertex, tag)

    def removed_levels_vertices(self):
        out = set()
        for entries in self.removed.values():
            for v, _tag in entries:
                out.add(v)
        return out


class CheckReport:
    def __init__(self, violations):
        self.violations = violations
        self.ok = not violations

    def __bool__(self):
        return self.ok


DIRECT = "direct"
INDIRECT = "indirect"
CASCADE = "cascade"


class PrunedRouter:
    def __init__(self, template, cfg):
        cfg.validate()
        self.t = template
        self.cfg = cfg
        k, N, delta = template.k, template.N, template.delta
        if N - 1 < cfg.star_keep_frac * N:
            raise ValueError("star keep fraction unattainable: a fresh star "
                             "has N-1 leaves, need N*(1-star_keep_frac) >= 1")
        self.full_mask = ((1 << k) - 1) << 1        # bits 1..k
        # the masks of U-prefixes: bits 1..l for l = 0..k
        self._prefixes = frozenset(((1 << l) - 1) << 1 for l in range(k + 1))
        self.mask = {v: self.full_mask for v in template.vertices()}
        self.rem = {}
        self.in_w = {}
        for i in range(1, k + 1):
            for (leaf, _c) in template.superedges(i):
                self.rem[(i, leaf)] = delta
                self.in_w[(i, leaf)] = True
        self.star_destroyed = set()      # (level, star id)
        self.cluster_destroyed = set()   # (cluster level, cluster id)
        self.n2 = {}                     # cumulative per-cluster removals
        self.tau = 0
        self._reset_phase_counters()
        self.phase_log = [self._fresh_stats()]
        self._seq = 0
        self._memo = {}                  # name -> value derived from mask

    # -- bookkeeping ------------------------------------------------------

    def _reset_phase_counters(self):
        self.n_edge = {}                 # (level, leaf) -> deletions this phase
        self.n_star = {}                 # (level, star) -> leaf losses this phase
        self.hn = {}                     # (cl level, cluster) -> phase-start survivors

    def _fresh_stats(self):
        k = self.t.k
        return {
            "deleted": 0,                # |E'_tau|: adversary copies taken from W
            "edges_deleted_from_w": 0,   # includes bulk bundle retirements
            "removed": {i: 0 for i in range(1, k + 1)},
            "R": {i: 0 for i in range(1, k + 1)},
            "Rp": {i: 0 for i in range(1, k + 1)},
            "Rpp": {i: 0 for i in range(1, k + 1)},
            "J": {i: 0 for i in range(1, k + 1)},
        }

    def in_u(self, v, i):
        return bool(self.mask[v] & (1 << i))

    def u_set(self, i):
        return {v for v in self.t.vertices() if self.in_u(v, i)}

    def memo(self, name, compute):
        """compute(self), stored under name until the next membership
        change.  A compute that raises stores nothing."""
        if name not in self._memo:
            self._memo[name] = compute(self)
        return self._memo[name]

    # -- phases -----------------------------------------------------------

    def begin_phase(self):
        if self.tau + 1 >= self.cfg.phases:
            raise ValueError("phases exhausted")
        self.tau += 1
        self._reset_phase_counters()
        self.phase_log.append(self._fresh_stats())
        return self.tau

    def phase_stats(self, tau):
        if tau > self.tau:
            raise ValueError("phase %d not reached" % tau)
        st = self.phase_log[tau]
        return {
            "deleted": st["deleted"],
            "deleted_from_u_k": st["removed"][self.t.k],
            "deleted_from_u_1": st["removed"][1],
            "edges_deleted_from_w": st["edges_deleted_from_w"],
            "removed": dict(st["removed"]),
            "R": dict(st["R"]),
            "Rp": dict(st["Rp"]),
            "Rpp": dict(st["Rpp"]),
            "J": dict(st["J"]),
        }

    # -- deletion ---------------------------------------------------------

    def delete_edge(self, u, v):
        """Adversary deletes one copy of the bundle (u,v)."""
        level = self.t.superedge_level(u, v)
        if level is None:
            raise ValueError("(%r,%r) is not a bundle" % (u, v))
        leaf = u if not self.t.is_center(u) else v
        rpt = DeletionReport()
        key = (level, leaf)
        if not self.in_w.get(key) or self.rem.get(key, 0) <= 0:
            rpt.noop = True
            return rpt
        self.rem[key] -= 1
        st = self.phase_log[self.tau]
        st["deleted"] += 1
        st["edges_deleted_from_w"] += 1
        self.n_edge[key] = self.n_edge.get(key, 0) + 1
        if self.n_edge[key] > self.cfg.edge_budget_frac * self.t.delta:
            st["J"][level] += 1
            heap, pending = [], set()
            self._push1(heap, pending, level, leaf, DIRECT)
            self._drain(heap, pending, rpt)
        return rpt

    def _push1(self, heap, pending, i, v, tag):
        if (i, v) in pending:
            return
        pending.add((i, v))
        self._seq += 1
        heapq.heappush(heap, (i, 1, self._seq, v, tag))

    def _push(self, heap, i, typ, obj):
        """Queue a star (typ 2) or child cluster (typ 3) of level i."""
        self._seq += 1
        heapq.heappush(heap, (i, typ, self._seq, obj, None))

    def _remove_bundle(self, i, leaf, touched):
        if self.in_w.get((i, leaf)):
            self.in_w[(i, leaf)] = False
            n = self.rem[(i, leaf)]
            self.phase_log[self.tau]["edges_deleted_from_w"] += n
            touched.add(leaf)
            touched.add(self.t.level_center(i, leaf))

    def _remove_incident(self, i, v, touched):
        """Drop all level-i bundles of v from W."""
        if self.t.is_center(v):
            for m in self.t.star_members(i, self.t.star_id(i, v)):
                if m != v:
                    self._remove_bundle(i, m, touched)
        else:
            self._remove_bundle(i, v, touched)

    def _record_removal(self, i, v, tag, rpt):
        st = self.phase_log[self.tau]
        st["removed"][i] += 1
        bucket = {DIRECT: "R", INDIRECT: "Rp", CASCADE: "Rpp"}[tag]
        st[bucket][i] += 1
        rpt.removed.setdefault(i, []).append((v, tag))

    def _drain(self, heap, pending, rpt):
        self._memo.clear()
        t, cfg = self.t, self.cfg
        N, k = t.N, t.k
        touched = set()
        while heap:
            i, typ, _seq, obj, tag = heapq.heappop(heap)
            if typ == 1:
                v = obj
                pending.discard((i, v))
                if not self.in_u(v, i):
                    continue
                self.mask[v] &= ~(1 << i)
                self._record_removal(i, v, tag, rpt)
                self._remove_incident(i, v, touched)
                if i < k:
                    self._push1(heap, pending, i + 1, v, DIRECT)
                s = t.star_id(i, v)
                if (i, s) not in self.star_destroyed:
                    if v == t.star_center(i, s):
                        self._push(heap, i, 2, s)
                    else:
                        self.n_star[(i, s)] = self.n_star.get((i, s), 0) + 1
                        if self.n_star[(i, s)] > cfg.star_budget_frac * N:
                            self._push(heap, i, 2, s)
                if i > 1:
                    cl = (i - 1, t.cluster_id(i - 1, v))
                    if cl not in self.cluster_destroyed:
                        if cl not in self.hn:
                            self.hn[cl] = N ** (i - 1) - self.n2.get(cl, 0)
                        self.n2[cl] = self.n2.get(cl, 0) + 1
                        left = N ** (i - 1) - self.n2[cl]
                        if left < cfg.cluster_survival_frac * self.hn[cl]:
                            self._push(heap, i, 3, cl[1])
            elif typ == 2:
                s = obj
                if (i, s) in self.star_destroyed:
                    continue
                for m in t.star_members(i, s):
                    if self.in_u(m, i):
                        self._push1(heap, pending, i, m, INDIRECT)
                self.star_destroyed.add((i, s))
            else:
                c = obj
                cl = (i - 1, c)
                if cl in self.cluster_destroyed:
                    continue
                for x in t.cluster_vertices(i - 1, c):
                    if not self.in_u(x, 1):
                        continue
                    for j in range(1, i):
                        if self.in_u(x, j):
                            self.mask[x] &= ~(1 << j)
                            self._record_removal(j, x, CASCADE, rpt)
                            self._remove_incident(j, x, touched)
                    if self.in_u(x, i):
                        self._push1(heap, pending, i, x, INDIRECT)
                self.cluster_destroyed.add(cl)
        self._sweep_isolated(touched, rpt)
        for v in rpt.removed_levels_vertices():
            if not self._is_prefix(self.mask[v]):
                raise AssertionError("non-prefix mask after drain")

    def _is_prefix(self, m):
        return m in self._prefixes

    def _has_w_edge(self, v):
        for i in range(1, self.t.k + 1):
            if not self.in_u(v, i):
                break
            if self.t.is_center(v):
                if any(self.in_w.get((i, m))
                       for m in self.t.star_members(i, self.t.star_id(i, v)) if m != v):
                    return True
            elif self.in_w.get((i, v)):
                return True
        return False

    def _sweep_isolated(self, touched, rpt):
        """Safety net keeping V(W) = U_1: in-budget traces never need it."""
        for v in sorted(touched):
            if self.in_u(v, 1) and not self._has_w_edge(v):
                for j in range(1, self.t.k + 1):
                    if self.in_u(v, j):
                        self.mask[v] &= ~(1 << j)
                        self._record_removal(j, v, CASCADE, rpt)

    def live_bundles(self):
        """{(level, leaf): copies} for every bundle still in W with at
        least one copy, in bundle order."""
        return {key: self.rem[key] for key, live in self.in_w.items()
                if live and self.rem[key] > 0}

    def current_graph(self):
        """Materialize the surviving subgraph W as a multigraph."""
        g = MultiGraph()
        for v in self.t.vertices():
            if self.in_u(v, 1):
                g.add_vertex(v)
        for (i, leaf), copies in self.live_bundles().items():
            g.add_edge(leaf, self.t.level_center(i, leaf), copies)
        return g

    def thinned(self, delta_prime):
        """A new router over the template with bundles of delta_prime
        copies, carrying this router's membership sets and destroyed
        marks, in which every live bundle holds delta_prime copies and
        every other bundle is out of W.  This router is left unchanged."""
        t = self.t
        view = PrunedRouter(build(t.N, t.k, delta_prime), self.cfg)
        view.mask = dict(self.mask)
        view._memo.clear()
        view.star_destroyed = set(self.star_destroyed)
        view.cluster_destroyed = set(self.cluster_destroyed)
        view.n2 = dict(self.n2)
        live = self.live_bundles()
        for key in view.in_w:
            view.in_w[key] = key in live
            view.rem[key] = delta_prime if key in live else 0
        return view

    # -- checkers ---------------------------------------------------------

    def is_properly_pruned(self):
        """One full scan of (P0) prefix membership, (P1) bundles, (P2)
        stars, (P3) isolated vertices and (P4) clusters, over the
        template's tables.  Each keep fraction f is compared as
        count < ceil(f * size), which for an integer count is
        count < f * size."""
        t, cfg = self.t, self.cfg
        N, k = t.N, t.k
        tab = t.tables
        mask, in_w, rem = self.mask, self.in_w, self.rem
        masks = [mask[v] for v in t.vertices()]
        viol = []
        prefixes = self._prefixes
        for v, m in enumerate(masks):
            if m not in prefixes:
                viol.append(("prefix", v))
        bundle_floor = math.ceil(cfg.min_bundle_frac * t.delta)
        star_floor = math.ceil(cfg.star_keep_frac * N)
        for i in range(1, k + 1):
            bit = 1 << i
            for leaf in tab.leaves:
                key = (i, leaf)
                if masks[leaf] & bit:
                    if not in_w.get(key):
                        viol.append(("P1-missing-bundle", i, leaf))
                    elif rem[key] < bundle_floor:
                        viol.append(("P1-thin-bundle", i, leaf, rem[key]))
                elif in_w.get(key):
                    viol.append(("P1-stale-bundle", i, leaf))
            lv = tab.levels[i]
            for s, (center, members) in enumerate(zip(lv.star_center,
                                                      lv.star_members)):
                alive = sum(1 for m in members if masks[m] & bit)
                if masks[center] & bit:
                    leaves = alive - 1
                    if leaves < star_floor:
                        viol.append(("P2-thin-star", i, s, leaves))
                elif alive:                     # all of them leaves
                    viol.append(("P2-dead-center", i, s, alive))
                if alive and (i, s) in self.star_destroyed:
                    viol.append(("P2-destroyed-mark", i, s))
        for v, m in enumerate(masks):
            if m & 2 and not self._has_w_edge(v):
                viol.append(("P3-isolated", v))
        for i in range(1, k):
            bit = 1 << (i + 1)
            size = N ** i
            cluster_floor = math.ceil(cfg.cluster_keep_frac * size)
            for c in range(N ** (k - i)):
                ms = masks[c * size:(c + 1) * size]
                if any(m & 2 for m in ms):
                    alive = sum(1 for m in ms if m & bit)
                    if alive < cluster_floor:
                        viol.append(("P4-thin-cluster", i, c, alive))
        return CheckReport(viol)

    def check_invariants(self):
        """Per-phase invariants on the live counters (I1..I3)."""
        t, cfg = self.t, self.cfg
        viol = []
        for (i, leaf), n in self.n_edge.items():
            if self.in_u(leaf, i) and n > cfg.edge_budget_frac * t.delta:
                viol.append(("I1", i, leaf, n))
        for (i, s), n in self.n_star.items():
            if self.in_u(t.star_center(i, s), i) and n > cfg.star_budget_frac * t.N:
                viol.append(("I2", i, s, n))
        for (lv, c), hn in self.hn.items():
            vs = t.cluster_vertices(lv, c)
            if any(self.in_u(x, 1) for x in vs):
                left = t.N ** lv - self.n2.get((lv, c), 0)
                if left < cfg.cluster_survival_frac * hn:
                    viol.append(("I3", lv, c, left, hn))
        return CheckReport(viol)


def new_pruned(template, cfg):
    return PrunedRouter(template, cfg)
