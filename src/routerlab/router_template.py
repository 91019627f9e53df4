"""Deterministic construction of the recursive star-based router family.

The graph on N^k vertices is built level by level: at level 1 every
block of N consecutive ids forms a star, and at level i each group of N
level-(i-1) blocks is stitched together by N^(i-1) new stars, one per
position of a fixed per-block ordering.  Every edge is a bundle of
Delta parallel copies joining a leaf to the center of its star.

Vertex ids are read in mixed radix base N.  A vertex is a center iff
its lowest digit is 0; this makes the structure inside any block depend
only on the low digits, so the subtemplate induced on a level-i block
is literally the k=i construction on local ids.

The per-block orderings are the only freedom the construction leaves.
We fix: inside a level-i group, block j's ordering places its centers
(locals N*t, in ascending t) on the contiguous position block
I_j = [j*N^(i-2), (j+1)*N^(i-2)), and its leaves in ascending order on
the remaining positions.  The star at position z then has exactly one
center member, taken from block z // N^(i-2).

That arithmetic (_ordering, its inverse _position, and _star_id and
_star_members on top of them) runs once per (N, k): _tables turns it
into lookup tables, shared by every template with those N and k
whatever its Delta.  Per level they hold the star id and the level
center of every vertex, and the center and the member tuple of every
star, and one operator.itemgetter per star above level 1 (its getter);
one leaf tuple serves all levels.  star_id, star_center, star_members,
level_center, superedges and superedge_level read the tables.  The
pruning checker scans them directly, one pass per level: it walks the
leaf tuple and the level-center column for its bundle checks, and
counts each star's members in U_i by applying its getter to a byte
string of alive flags; level-1 stars, being id ranges, are counted
with bytes.count.  The router's pair routing (routing._route_entries)
reads one level's star-id, star-center and member columns directly
too.  The tables store no superedge tuples and no pair
index: superedges() yields its pairs on the fly, and superedge_level
tries the k level-center columns.
"""

import functools
import operator
from collections import namedtuple

from .graph import MultiGraph, _key


def _ordering(N, level, j, p):
    """Vertex (local to a level-(level-1) block) at position p of block j."""
    B = N ** (level - 2)           # size of the center block I_j
    if j * B <= p < (j + 1) * B:
        return N * (p - j * B)     # p-th center, ascending
    l = p if p < j * B else p - B  # leaf rank among ascending leaf locals
    q, s = divmod(l, N - 1)
    return q * N + s + 1


def _position(N, level, j, y):
    """Inverse of _ordering: position of block-local vertex y in block j."""
    B = N ** (level - 2)
    if y % N == 0:
        return j * B + y // N
    l = (y // N) * (N - 1) + (y % N) - 1
    return l if l < j * B else l + B


def _star_id(N, level, v):
    """The level-`level` star containing v."""
    if level == 1:
        return v // N
    M = N ** (level - 1)
    c, x = divmod(v, N * M)
    j, y = divmod(x, M)
    return c * M + _position(N, level, j, y)


def _star_members(N, level, s):
    """The star's members, the one from child block j at index j, and
    the index of its center among them."""
    if level == 1:
        return range(s * N, (s + 1) * N), 0
    M = N ** (level - 1)
    c, p = divmod(s, M)
    base = c * N * M
    members = [base + j * M + _ordering(N, level, j, p) for j in range(N)]
    return members, p // N ** (level - 2)


# One level's structure: star id and level center per vertex, center
# and member tuple per star.
LevelTables = namedtuple("LevelTables",
                         "star_id level_center star_center star_members")

# levels[i] for i in 1..k (levels[0] is None); leaves ascending.
# getters[i][s](seq) is the tuple of seq's items at the members of
# level-i star s for i >= 2; getters[0] and getters[1] are None.
Tables = namedtuple("Tables", "leaves levels getters")


@functools.cache
def _tables(N, k):
    """The lookup tables of build(N, k, .), built once per (N, k) and
    shared, so every table is a tuple.  Each entry is one of the int
    objects of `ids`, so the tables cost one pointer per entry."""
    ids = tuple(range(N ** k))
    levels = [None]
    for level in range(1, k + 1):
        star_id = tuple(ids[_star_id(N, level, v)] for v in ids)
        star_members = []
        star_center = []
        for s in range(N ** (k - 1)):
            members, center = _star_members(N, level, s)
            members = tuple(ids[m] for m in members)
            star_members.append(members)
            star_center.append(members[center])
        levels.append(LevelTables(
            star_id, tuple(star_center[s] for s in star_id),
            tuple(star_center), tuple(star_members)))
    getters = (None, None) + tuple(
        tuple(operator.itemgetter(*m) for m in levels[i].star_members)
        for i in range(2, k + 1))
    return Tables(tuple(v for v in ids if v % N), tuple(levels), getters)


class RouterTemplate:
    def __init__(self, N, k, delta):
        self.N = N
        self.k = k
        self.delta = delta

    @functools.cached_property
    def tables(self):
        """_tables(N, k), looked up on first use."""
        return _tables(self.N, self.k)

    def _level(self, level):
        if not 1 <= level <= self.k:
            raise ValueError("star level out of range")
        return self.tables.levels[level]

    def num_vertices(self):
        return self.N ** self.k

    def num_edges(self):
        """Edge copies: k levels of N^k - N^(k-1) bundles of Delta."""
        N, k = self.N, self.k
        return k * (N ** k - N ** (k - 1)) * self.delta

    def vertices(self):
        return range(self.N ** self.k)

    def is_center(self, v):
        return v % self.N == 0

    def cluster_id(self, level, v):
        """Level ranges over 1..k-1; clusters at level i have N^i vertices."""
        if not 1 <= level <= self.k - 1:
            raise ValueError("cluster level out of range")
        return v // (self.N ** level)

    def cluster_vertices(self, level, c):
        size = self.N ** level
        return range(c * size, (c + 1) * size)

    def star_id(self, level, v):
        """Global id of the level-`level` star containing v."""
        return self._level(level).star_id[v]

    def star_members(self, level, s):
        """The star's members, the one from child block j at index j."""
        return self._level(level).star_members[s]

    def star_center(self, level, s):
        return self._level(level).star_center[s]

    def level_center(self, level, v):
        """Center of v's level-`level` star (v itself when v is that center)."""
        return self._level(level).level_center[v]

    def superedges(self, level):
        """All (leaf, center) bundles of one level, ascending by leaf id."""
        lc = self._level(level).level_center
        return ((v, lc[v]) for v in self.tables.leaves)

    def superedge_level(self, u, v):
        """The unique level at which (u,v) is a bundle, or None (also
        for ids outside [0, N^k) and for u == v)."""
        n = self.N ** self.k
        if u == v or not (0 <= u < n and 0 <= v < n):
            return None
        for level in range(1, self.k + 1):
            lc = self.tables.levels[level].level_center
            if lc[u] == v or lc[v] == u:
                return level
        return None

    def center_degree(self):
        return (self.N - 1) * self.delta * self.k

    def leaf_degree(self):
        return self.delta * self.k


def build(N, k, delta, strict=False):
    if N < 2 or k < 1 or delta < 1:
        raise ValueError("need N >= 2, k >= 1, delta >= 1")
    if strict:
        if k < 256 or N < k ** (3 * k) or delta < 4 * k * k:
            raise ValueError("parameters outside the strict regime")
    return RouterTemplate(N, k, delta)


def realize(t):
    """Materialize the template as a multigraph with full bundles, level
    by level, built in one pass (every bundle is one distinct pair)."""
    return MultiGraph.of(t.vertices(), {
        _key(leaf, center): t.delta
        for level in range(1, t.k + 1)
        for (leaf, center) in t.superedges(level)})
