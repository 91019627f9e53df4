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
"""

from .graph import MultiGraph

class RouterTemplate:
    def __init__(self, N, k, delta):
        self.N = N
        self.k = k
        self.delta = delta

    def num_vertices(self):
        return self.N ** self.k

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

    def num_stars(self, level):
        return self.N ** (self.k - 1)

    def _ordering(self, level, j, p):
        """Vertex (local to a level-(level-1) block) at position p of block j."""
        N = self.N
        B = N ** (level - 2)           # size of the center block I_j
        if j * B <= p < (j + 1) * B:
            return N * (p - j * B)     # p-th center, ascending
        l = p if p < j * B else p - B  # leaf rank among ascending leaf locals
        q, s = divmod(l, N - 1)
        return q * N + s + 1

    def _position(self, level, j, y):
        """Inverse of _ordering: position of block-local vertex y in block j."""
        N = self.N
        B = N ** (level - 2)
        if y % N == 0:
            return j * B + y // N
        l = (y // N) * (N - 1) + (y % N) - 1
        return l if l < j * B else l + B

    def star_id(self, level, v):
        """Global id of the level-`level` star containing v."""
        N = self.N
        if not 1 <= level <= self.k:
            raise ValueError("star level out of range")
        if level == 1:
            return v // N
        M = N ** (level - 1)
        c, x = divmod(v, N ** level)
        j, y = divmod(x, M)
        return c * M + self._position(level, j, y)

    def star_members(self, level, s):
        N = self.N
        if level == 1:
            return [s * N + t for t in range(N)]
        M = N ** (level - 1)
        c, p = divmod(s, M)
        base = c * (N ** level)
        return [base + j * M + self._ordering(level, j, p) for j in range(N)]

    def star_center(self, level, s):
        N = self.N
        if level == 1:
            return s * N
        M = N ** (level - 1)
        c, p = divmod(s, M)
        B = N ** (level - 2)
        j = p // B
        return c * (N ** level) + j * M + N * (p - j * B)

    def level_center(self, level, v):
        """Center of v's level-`level` star (v itself when v is that center)."""
        return self.star_center(level, self.star_id(level, v))

    def superedges(self, level):
        """All (leaf, center) bundles of one level, ascending by leaf id."""
        for v in self.vertices():
            if not self.is_center(v):
                yield (v, self.level_center(level, v))

    def superedge_level(self, u, v):
        """The unique level at which (u,v) is a bundle, or None."""
        for level in range(1, self.k + 1):
            if self.level_center(level, u) == v or self.level_center(level, v) == u:
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
    """Materialize the template as a multigraph with full bundles."""
    g = MultiGraph()
    for v in t.vertices():
        g.add_vertex(v)
    for level in range(1, t.k + 1):
        for (leaf, center) in t.superedges(level):
            g.add_edge(leaf, center, t.delta)
    return g
