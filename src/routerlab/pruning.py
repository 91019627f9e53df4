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

Entries are processed lowest level first, ties broken 1 < 2 < 3, then
in queue order.  A vertex may be queued to leave U_i more than once: the
first entry pops first and records its tag, and every later one finds
v already out of U_i and is skipped by that membership test.  All
budget comparisons are exact and strict ("exceeds") and run on ints:
for an integer count n, n > f*x iff n > floor(f*x), and n < f*x iff
n < ceil(f*x).  The edge and star budgets are computed once per router;
the cluster survival threshold ceil(f*hn) when a count is compared.

Mid-drain the membership of a vertex need not be a prefix of levels (a
type-3 flush can clear low levels while an escalation entry for a high
level is still queued), so membership is stored as a bitmask per vertex;
between operations it is always a prefix.

PrunedRouter owns this state: other modules read the surviving bundles
through live_bundles(), never through its internal fields.  It also
owns the memo of values derived from the membership sets (memo(name,
compute), used for routing's sink paths): mask changes only in _leave,
called from _drain, which clears the memo first, so a memoized value
is computed once per membership change.
"""

import heapq
import itertools
import operator
from fractions import Fraction

from .graph import MultiGraph


def _floor_mul(f, x):
    """floor(f * x) for a Fraction f and an int x, in ints."""
    return f.numerator * x // f.denominator


def _ceil_mul(f, x):
    """ceil(f * x) for a Fraction f and an int x, in ints."""
    return -(-f.numerator * x // f.denominator)


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
    def preset(cls, name, k):
        """The named budget preset, "paper" or "relaxed", for k."""
        if name == "paper":
            return cls.paper(k)
        if name == "relaxed":
            return cls.relaxed(k)
        raise ValueError("unknown pruning preset %r" % (name,))

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
        # integer budgets: n > frac * size iff n > floor(frac * size)
        self.edge_budget = _floor_mul(cfg.edge_budget_frac, delta)
        self.star_budget = _floor_mul(cfg.star_budget_frac, N)
        if N - 1 < cfg.star_keep_frac * N:
            raise ValueError("star keep fraction unattainable: a fresh star "
                             "has N-1 leaves, need N*(1-star_keep_frac) >= 1")
        # V(W) = U_1 after every drain.  A U_1 leaf loses its level-1
        # bundle only when it or its center leaves U_1, and a leaving
        # center's star is destroyed, ejecting every member.  A center
        # loses level-1 edges only as leaves leave U_1: a type-1 leave
        # counts in n_star, one over star_budget in a phase destroys the
        # star, and a type-3 flush takes whole level-1 stars.  So while
        # a center stays, at most phases * star_budget leaves leave.
        if cfg.phases * self.star_budget >= N - 1:
            raise ValueError("star budgets can strip a level-1 star of every "
                             "leaf: need phases*star_budget < N-1")
        # checker floors: count < keep * size iff count < ceil(keep * size)
        self._bundle_floor = _ceil_mul(cfg.min_bundle_frac, delta)
        self._star_floor = _ceil_mul(cfg.star_keep_frac, N)
        self._cluster_floor = [None] + [
            _ceil_mul(cfg.cluster_keep_frac, N ** i) for i in range(1, k)]
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

    def memo(self, name, compute):
        """compute(self), stored under name until the next membership
        change.  A compute that raises stores nothing."""
        if name not in self._memo:
            self._memo[name] = compute(self)
        return self._memo[name]

    # -- phases -----------------------------------------------------------

    @property
    def tau(self):
        """The current phase, counted from 0."""
        return len(self.phase_log) - 1

    def begin_phase(self):
        if self.tau + 1 >= self.cfg.phases:
            raise ValueError("phases exhausted")
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
        st = self.phase_log[-1]
        st["deleted"] += 1
        st["edges_deleted_from_w"] += 1
        self.n_edge[key] = self.n_edge.get(key, 0) + 1
        if self.n_edge[key] > self.edge_budget:
            st["J"][level] += 1
            heap = []
            self._push1(heap, level, leaf, DIRECT)
            self._drain(heap, rpt)
        return rpt

    def _push1(self, heap, i, v, tag):
        """Queue v to leave U_i (typ 1), tagged with the cause."""
        self._seq += 1
        heapq.heappush(heap, (i, 1, self._seq, v, tag))

    def _push(self, heap, i, typ, obj):
        """Queue a star (typ 2) or child cluster (typ 3) of level i."""
        self._seq += 1
        heapq.heappush(heap, (i, typ, self._seq, obj, None))

    def _remove_bundle(self, i, leaf):
        key = (i, leaf)
        if self.in_w.get(key):
            self.in_w[key] = False
            self.phase_log[-1]["edges_deleted_from_w"] += self.rem[key]

    def _remove_incident(self, i, v):
        """Drop all level-i bundles of v from W."""
        if self.t.is_center(v):
            for m in self.t.star_members(i, self.t.star_id(i, v)):
                if m != v:
                    self._remove_bundle(i, m)
        else:
            self._remove_bundle(i, v)

    def _leave(self, i, v, tag, rpt):
        """Take v out of U_i: clear its mask bit, record the removal and
        drop its level-i bundles from W."""
        self.mask[v] &= ~(1 << i)
        st = self.phase_log[-1]
        st["removed"][i] += 1
        bucket = {DIRECT: "R", INDIRECT: "Rp", CASCADE: "Rpp"}[tag]
        st[bucket][i] += 1
        rpt.removed.setdefault(i, []).append((v, tag))
        self._remove_incident(i, v)

    def _drain(self, heap, rpt):
        self._memo.clear()
        t, cfg = self.t, self.cfg
        N, k = t.N, t.k
        while heap:
            i, typ, _seq, obj, tag = heapq.heappop(heap)
            if typ == 1:
                v = obj
                if not self.in_u(v, i):
                    continue
                self._leave(i, v, tag, rpt)
                if i < k:
                    self._push1(heap, i + 1, v, DIRECT)
                s = t.star_id(i, v)
                if (i, s) not in self.star_destroyed:
                    if v == t.star_center(i, s):
                        self._push(heap, i, 2, s)
                    else:
                        self.n_star[(i, s)] = self.n_star.get((i, s), 0) + 1
                        if self.n_star[(i, s)] > self.star_budget:
                            self._push(heap, i, 2, s)
                if i > 1:
                    cl = (i - 1, t.cluster_id(i - 1, v))
                    if cl not in self.cluster_destroyed:
                        if cl not in self.hn:
                            self.hn[cl] = N ** (i - 1) - self.n2.get(cl, 0)
                        self.n2[cl] = self.n2.get(cl, 0) + 1
                        left = N ** (i - 1) - self.n2[cl]
                        keep = _ceil_mul(cfg.cluster_survival_frac,
                                         self.hn[cl])
                        if left < keep:
                            self._push(heap, i, 3, cl[1])
            elif typ == 2:
                s = obj
                if (i, s) in self.star_destroyed:
                    continue
                for m in t.star_members(i, s):
                    if self.in_u(m, i):
                        self._push1(heap, i, m, INDIRECT)
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
                            self._leave(j, x, CASCADE, rpt)
                    if self.in_u(x, i):
                        self._push1(heap, i, x, INDIRECT)
                self.cluster_destroyed.add(cl)
        for v in rpt.removed_levels_vertices():
            if not self._is_prefix(self.mask[v]):
                raise AssertionError("non-prefix mask after drain")

    def _is_prefix(self, m):
        return m in self._prefixes

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

    # -- checkers ---------------------------------------------------------

    def is_properly_pruned(self):
        """(P0) prefix membership, then per level (P1) bundles and (P2)
        stars, then (P3) isolated vertices and (P4) clusters, in one pass
        per level over the template's tables.

        Level i's pass reads one alive byte per vertex (bit i of its
        mask).  Level-1 stars and all clusters are id ranges, counted
        with bytes.count; stars of higher levels are counted through the
        per-star getters of the template's tables.  P3 comes from the
        P1 pass: a bundle in W marks its leaf and its center at level i
        when that vertex's membership run (bits 1..i of its mask all
        set) reaches i, so a vertex is isolated iff it is in U_1 and
        unmarked (a mask that is not a prefix counts only the levels
        below its first gap).  V(W) = U_1 holds by construction (see
        __init__), so P3 fires only on a corrupted state.  Each keep
        fraction f is compared as count < ceil(f * size), which for an
        integer count is count < f * size; the floors are computed once
        per router."""
        t = self.t
        N, k, n = t.N, t.k, t.num_vertices()
        tab = t.tables
        in_w, rem = self.in_w, self.rem
        bundle_floor, star_floor = self._bundle_floor, self._star_floor
        masks = list(map(self.mask.__getitem__, t.vertices()))
        prefixes = self._prefixes
        viol = [("prefix", v) for v, m in enumerate(masks)
                if m not in prefixes]
        alive = [None]              # alive[i][v] == 1 iff v is in U_i
        run = bytes((1,)) * n       # run[v] == 1 iff v is in U_1 .. U_i
        marked = bytearray(n)       # v has a W bundle its run reaches
        for i in range(1, k + 1):
            a = bytes(m >> i & 1 for m in masks)
            alive.append(a)
            run = bytes(map(operator.and_, run, a))
            lv = tab.levels[i]
            lc = lv.level_center
            for leaf in tab.leaves:
                key = (i, leaf)
                w = in_w.get(key)
                if a[leaf]:
                    if not w:
                        viol.append(("P1-missing-bundle", i, leaf))
                        continue
                    if rem[key] < bundle_floor:
                        viol.append(("P1-thin-bundle", i, leaf, rem[key]))
                    if run[leaf]:
                        marked[leaf] = 1
                elif w:
                    viol.append(("P1-stale-bundle", i, leaf))
                else:
                    continue
                c = lc[leaf]
                if run[c]:
                    marked[c] = 1
            if i == 1:
                counts = [a.count(1, lo, lo + N) for lo in range(0, n, N)]
            else:
                counts = [sum(get(a)) for get in tab.getters[i]]
            for s, (center, count) in enumerate(zip(lv.star_center, counts)):
                if a[center]:
                    if count - 1 < star_floor:
                        viol.append(("P2-thin-star", i, s, count - 1))
                elif count:                     # all of them leaves
                    viol.append(("P2-dead-center", i, s, count))
                if count and (i, s) in self.star_destroyed:
                    viol.append(("P2-destroyed-mark", i, s))
        viol.extend(("P3-isolated", v) for v in itertools.compress(
            t.vertices(), map(operator.gt, alive[1], marked)))
        for i in range(1, k):
            size = N ** i
            a, floor = alive[i + 1], self._cluster_floor[i]
            for c, lo in enumerate(range(0, n, size)):
                if alive[1].find(1, lo, lo + size) >= 0:
                    count = a.count(1, lo, lo + size)
                    if count < floor:
                        viol.append(("P4-thin-cluster", i, c, count))
        return CheckReport(viol)


def new_pruned(template, cfg):
    return PrunedRouter(template, cfg)
