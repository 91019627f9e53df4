"""Embedding fingerprints: the decomposition pipeline must choose the same
embeddings, fakes, E^del, C' and lc_embed paths as when these
fingerprints were recorded.

The CLI golden reports cannot see which embedding paths were chosen, so
a change to the embedding search that keeps the report counts passes
them.  Here every greedy_embed result is hashed (paths and fakes, or
None when the fake budget ran out), together with E^del and its causes,
each cluster's C' and the lc_embed paths.  The hosts are large enough
to reach the search's hop-limited fallback and its fake branch, which
the golden (3,4,4) reports never do.

Besides the pipeline runs, greedy_embed is called directly with an
unbounded fake budget, so the hash also covers full embeddings that
contain fakes and hop-limited paths.

K_82 at Delta = 12 is pinned on its own: its pipeline runs 2508
searches where almost every pair ties, and its one cluster sparsifies.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from routerlab import decompose, spanner, witness
from routerlab.decompose import PipelineConfig, build_decomposition
from routerlab.graph import MultiGraph
from routerlab.router_template import build, realize

CFG = dict(k=2, delta=4, delta_star=16, d_cap=2, template_n=3)
LARGE = 10 ** 6


def random_regular(seed, n=81, cycles=4):
    """2*cycles-regular simple graph: the union of edge-disjoint random
    Hamiltonian cycles."""
    rng = random.Random(seed)
    edges = set()
    for _ in range(cycles):
        while True:
            order = list(range(n))
            rng.shuffle(order)
            cycle = {(min(a, b), max(a, b))
                     for a, b in zip(order, order[1:] + order[:1])}
            if not cycle & edges:
                edges |= cycle
                break
    g = MultiGraph()
    for a, b in sorted(edges):
        g.add_edge(a, b)
    return g


def complete(n):
    g = MultiGraph()
    for a in range(n):
        for b in range(a + 1, n):
            g.add_edge(a, b)
    return g


# K_82 at Delta = 12 is the one host where the pipeline sparsifies; in a
# complete graph every unloaded pair has 80 two-hop paths of equal weight,
# so it is the worst case for the search's tie-break
K82_CFG = dict(k=2, delta=12, delta_star=16, d_cap=2, template_n=3)

HOSTS = {
    "router(4,4,4)": lambda: realize(build(4, 4, 4)),
    "router(3,5,4)": lambda: realize(build(3, 5, 4)),
    "random(n=81,8-regular)": lambda: random_regular(20261018),
}

# sha256 of each part's repr, recorded before the embedding search was
# bounded by hops
GOLDEN = {
    "router(4,4,4)": {
        "embeds":
            "778d5d27b716881dd9d3b58baaed62878f93076984cf0cbb45d393bedf363cb2",
        "e_del":
            "450e1715bf64c0fecca2e2b82a56a90870a8bb87096d5465eca8616d50c700f0",
        "cprime":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "lc_paths":
            "72b04543cbcd340a3e8543db554891de20fa5f50a314c38a52038aa5c54813f7",
        "direct":
            "bd05e8ef894741f05dbdb3f8bc77e28c46341cab2db5d3eb6db6bbdb16197392",
    },
    "router(3,5,4)": {
        "embeds":
            "04a2aa2ef877a32cedea0618e641b5df0b3058c55c2393b9fcfd1c964497cb61",
        "e_del":
            "e8218ea19db1079b153e5c06630d29320a9aeac8c9b00e2b3213899f12925daa",
        "cprime":
            "5d5db50e44ac63c5df917c7d2903ff1fe8c34c32f6056c2819aa366119e65910",
        "lc_paths":
            "041967f639546ee24155b7755eaf535bafa9de2c4bba360af54cb6b50f3b2ef6",
        "direct":
            "eba90b08dd3b24d12b5df64ba9289fef130c6e7cbd10e6d28ebd29c7ba5e52ed",
    },
    "random(n=81,8-regular)": {
        "embeds":
            "778d5d27b716881dd9d3b58baaed62878f93076984cf0cbb45d393bedf363cb2",
        "e_del":
            "45de214e8b21be9c03ac34ab664611f01546bf542edcd930a238bc2b279ca3d3",
        "cprime":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "lc_paths":
            "389a8d81123c30cb39b54d61af8a4353afa3fcb96b338469964f4bb1e99ea6d2",
        "direct":
            "39d244273b1833f25f860b3adbc4d21724c1b3a1d8e56adbad9881d1fed4ab38",
    },
}


# recorded before the search became goal-directed
GOLDEN_K82 = {
    "embeds":
        "12b01f9a67a847410797c843b52d4e9b6d98a82b002bd06b0ee54696a29ab65f",
    "e_del":
        "1391876e63685b7da0e6a923dc6c4c106590930a70cdf4665088614cae243c44",
    "cprime":
        "10e6ac39105fd21d3242657aaa2991dd20e79030df6187c0bc2a9d0f01672c86",
    "lc_paths":
        "e309229a6496175b8be8d3f799b04f33a22ab9902f2d93d92f80402e038b421e",
}


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _outcome(got):
    if got is None:
        return None
    emb, fakes = got
    return (sorted(emb.vertex_map.items()), sorted(emb.paths.items()),
            sorted(fakes), emb.d_star, emb.eta_star)


def fingerprint(g, monkeypatch, seen, cfg=CFG, direct=True):
    """Hashes of every embedding the pipeline on g chose, and of the
    decomposition built from them, with the decomposition itself.  With
    direct, greedy_embed is also called on g with an unbounded fake
    budget."""
    embeds = []
    real_embed = decompose.greedy_embed
    limit = [None]          # d_max of the greedy_embed call in progress

    def recording_embed(*args):
        limit[0] = args[2]
        got = real_embed(*args)
        embeds.append(_outcome(got))
        return got

    real_search = witness._dijkstra

    def counting_search(*args):
        found = real_search(*args)
        seen["searches"] += 1
        # a search path over d_max hops gives way to the breadth-first one
        seen["fallbacks"] += len(found[0]) - 1 > limit[0]
        return found

    monkeypatch.setattr(decompose, "greedy_embed", recording_embed)
    monkeypatch.setattr(witness, "_dijkstra", counting_search)
    rd = build_decomposition(g, PipelineConfig(**cfg))
    lc = spanner.lc_embed(rd, seed=0)
    got = {
        "e_del": _sha((sorted(rd.e_del), sorted(rd.report.causes.items()))),
        "cprime": _sha([(c.id, sorted(c.sparse.cprime.superedges))
                        for c in rd.clusters]),
        "lc_paths": _sha(sorted(lc.paths.items())),
    }
    outcomes = list(embeds)
    if direct:
        calls = []
        for d_max in (2, 3):
            limit[0] = d_max
            for eta in (Fraction(3, 2), Fraction(4)):
                calls.append(_outcome(witness.greedy_embed(
                    g, build(3, 4, 4), d_max, eta, LARGE)))
        got["direct"] = _sha(calls)
        outcomes += calls
    got["embeds"] = _sha(embeds)
    seen["fakes"] += sum(len(o[2]) for o in outcomes if o)
    seen["none"] += embeds.count(None)
    return got, rd


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_embedding_fingerprint(name, monkeypatch):
    seen = {"fallbacks": 0, "fakes": 0, "none": 0, "searches": 0}
    got, _ = fingerprint(HOSTS[name](), monkeypatch, seen)
    assert got == GOLDEN[name]
    if name != "router(3,5,4)":
        # the fingerprint must cover the fallback and the fake branch
        assert seen["fallbacks"] > 0 and seen["fakes"] > 0, seen
        assert seen["none"] > 0, seen


def test_complete_host_fingerprint(monkeypatch):
    g = complete(82)
    seen = {"fallbacks": 0, "fakes": 0, "none": 0, "searches": 0}
    got, rd = fingerprint(g, monkeypatch, seen, K82_CFG, direct=False)
    assert got == GOLDEN_K82
    # not vacuous: the searches run, the one cluster survives and H' is a
    # real sparsifier
    assert seen["searches"] > 0, seen
    assert len(rd.clusters) == 1
    h = spanner.extract_spanner(rd)
    assert h.num_edges() == 286 and 4 * h.num_edges() < g.num_edges()
