import random

import pytest
from hypothesis import given, settings, strategies as st

from routerlab.router_template import _ordering, _position, build, realize

from _support import num_stars


def test_w2_4_3_structure():
    t = build(4, 2, 3)
    assert t.num_vertices() == 16
    centers = [v for v in t.vertices() if t.is_center(v)]
    assert len(centers) == 4
    edges = sum(1 for i in (1, 2) for _ in t.superedges(i)) * t.delta
    assert edges == 72
    assert t.center_degree() == (4 - 1) * 3 * 2 == 18
    assert t.leaf_degree() == 3 * 2 == 6


def test_centers_are_multiples_of_n():
    t = build(5, 2, 2)
    for v in t.vertices():
        assert t.is_center(v) == (v % 5 == 0)


def test_recursive_self_similarity():
    # every level-1 cluster of W_3 induces the same subtemplate as W_1
    t = build(3, 3, 2)
    small = build(3, 1, 2)
    want = {(leaf % 3, c % 3) for (leaf, c) in small.superedges(1)}
    for cl in range(num_stars(t, 1)):
        verts = t.cluster_vertices(1, cl)
        base = min(verts)
        got = {(l - base, c - base) for (l, c) in t.superedges(1)
               if l in verts}
        assert got == want


def test_superedge_levels_partition():
    t = build(4, 3, 2)
    seen = set()
    for i in range(1, 4):
        for e in t.superedges(i):
            key = tuple(sorted(e))
            assert key not in seen
            seen.add(key)
            assert t.superedge_level(*e) == i


def test_realize_matches_template():
    t = build(4, 2, 3)
    g = realize(t)
    assert len(g.vertices) == 16
    assert g.num_edges() == 72
    assert max(g.degree(v) for v in g.vertices) == 18
    for i in (1, 2):
        for (leaf, c) in t.superedges(i):
            assert g.multiplicity(leaf, c) == 3


def test_strict_mode_rejects_small_parameters():
    with pytest.raises(ValueError):
        build(4, 2, 3, strict=True)


@given(st.integers(2, 5), st.integers(1, 3), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_degree_formulas(N, k, delta):
    t = build(N, k, delta)
    g = realize(t)
    assert len(g.vertices) == N ** k
    for v in g.vertices:
        want = (N - 1) * delta * k if t.is_center(v) else delta * k
        assert g.degree(v) == want


@given(st.integers(2, 5), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_star_membership_consistent(N, k):
    t = build(N, k, 2)
    for i in range(1, k + 1):
        for s in range(num_stars(t, i)):
            members = t.star_members(i, s)
            assert len(members) == N
            center = t.star_center(i, s)
            assert center in members
            for m in members:
                assert t.star_id(i, m) == s


# -- tables against the closed forms ---------------------------------------

TABLE_SHAPES = [(N, k) for N in range(2, 6) for k in range(1, 5)
                if N ** k <= 1024] + [(3, 5), (3, 6)]


def _ref_star_id(N, level, v):
    if level == 1:
        return v // N
    M = N ** (level - 1)
    c, x = divmod(v, N ** level)
    j, y = divmod(x, M)
    return c * M + _position(N, level, j, y)


def _ref_star_members(N, level, s):
    if level == 1:
        return tuple(s * N + t for t in range(N))
    M = N ** (level - 1)
    c, p = divmod(s, M)
    base = c * N ** level
    return tuple(base + j * M + _ordering(N, level, j, p) for j in range(N))


def _ref_star_center(N, level, s):
    if level == 1:
        return s * N
    M = N ** (level - 1)
    B = N ** (level - 2)
    c, p = divmod(s, M)
    j = p // B
    return c * N ** level + j * M + N * (p - j * B)


def _ref_level_center(N, level, v):
    return _ref_star_center(N, level, _ref_star_id(N, level, v))


@pytest.mark.parametrize("N,k", TABLE_SHAPES)
def test_tables_match_closed_forms(N, k):
    t = build(N, k, 3)
    n = N ** k
    rng = random.Random(N * 10 + k)
    for i in range(1, k + 1):
        assert [t.star_id(i, v) for v in range(n)] == \
            [_ref_star_id(N, i, v) for v in range(n)]
        assert [t.level_center(i, v) for v in range(n)] == \
            [_ref_level_center(N, i, v) for v in range(n)]
        for s in range(num_stars(t, i)):
            assert t.star_members(i, s) == _ref_star_members(N, i, s)
            assert t.star_center(i, s) == _ref_star_center(N, i, s)
        assert list(t.superedges(i)) == \
            [(v, _ref_level_center(N, i, v)) for v in range(n) if v % N]
        if i >= 2:
            assert [get(range(n)) for get in t.tables.getters[i]] == \
                [t.star_members(i, s) for s in range(num_stars(t, i))]
    assert t.tables.getters[:2] == (None, None)
    for u in range(n):
        others = {_ref_level_center(N, i, u) for i in range(1, k + 1)}
        others |= {rng.randrange(n) for _ in range(4)}
        for v in others - {u}:
            want = next((i for i in range(1, k + 1)
                         if _ref_level_center(N, i, u) == v
                         or _ref_level_center(N, i, v) == u), None)
            assert t.superedge_level(u, v) == want
            assert t.superedge_level(v, u) == want
    for u, v in ((-1, 0), (0, -1), (n, 0), (0, n), (-1, N), (1000, 0)):
        assert t.superedge_level(u, v) is None
    assert all(t.superedge_level(v, v) is None for v in range(n))


@pytest.mark.parametrize("N,k", TABLE_SHAPES)
def test_position_inverts_ordering(N, k):
    for level in range(2, k + 1):
        M = N ** (level - 1)
        for j in range(N):
            order = [_ordering(N, level, j, p) for p in range(M)]
            assert sorted(order) == list(range(M))
            assert [_position(N, level, j, y) for y in order] == \
                list(range(M))


@pytest.mark.parametrize("N,k", [(3, 2), (4, 3)])
def test_bad_level_raises(N, k):
    t = build(N, k, 2)
    for level in (0, -1, k + 1):
        for call in (lambda: t.star_id(level, 0),
                     lambda: t.star_members(level, 0),
                     lambda: t.star_center(level, 0),
                     lambda: t.level_center(level, 0),
                     lambda: t.superedges(level)):
            with pytest.raises(ValueError):
                call()


def test_num_edges_counts_superedges():
    for N, k in TABLE_SHAPES:
        t = build(N, k, 3)
        edges = sum(1 for i in range(1, k + 1) for _ in t.superedges(i))
        assert t.num_edges() == edges * 3
