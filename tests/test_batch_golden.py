"""Batch fingerprints: process_batch must leave the same decomposition
after every batch as when these fingerprints were recorded.

Each case builds a decomposition of a realized router under the golden
config and applies three seeded batches of two host-edge deletions.
After each batch it records the BatchReport fields, the sorted E^del
and, for every surviving cluster, its bundles (the surviving embedding
paths), its C' edges and its phase-start path counts lam.  The cases
cover cascade charges, dissolved clusters and clusters that are kept.
The same cases also check every cluster's witness path index against
its bundles after the build and after every batch.
"""

import hashlib
import random

import pytest

from routerlab.decompose import (PipelineConfig, build_decomposition,
                                 process_batch)
from routerlab.router_template import build, realize

CFG = dict(k=2, delta=4, delta_star=16, d_cap=2, template_n=3,
           batch_bound=6)
SEEDS = range(6)

# sha256 of each case's repr, recorded before process_batch was
# refactored
GOLDEN = {
    (3, 4, 4): [
        "3be33b05868a5df5171c30f7580097a4b9361a94523e79947e697233c41f113b",
        "4a99f7d6f44c287d88a49d67b7917ca583726e47a0f85d757af466714faa0458",
        "baf637ab43a26e59f151a4f9487ec63ff27045244d07ad39babc27dcf4a0d94b",
        "e70b359ec45b848326ef331149efe7514676aeacd473bf08be5e8cf026d95048",
        "4b908dd10a8879ccf00d1ad31d219f57dca3abb04ca99f90afa9c57db235e346",
        "659663cb7353729ede5492d252989a0e11d291a0c9fd7a980d172aefc79a1292",
    ],
    (3, 5, 4): [
        "7151136fa013bc64dc468d8af905d0f268292a94819c039ed077f4c5a17d2d5a",
        "e0f58b56a1a243940b66e71e6b10f2fd0e7c045d5d705b0d361f03e6e8bf317f",
        "366820448e2aa07c4fe062f80fa64e4450d4cf839b1c1975930a15521bc18cce",
        "4eb31d05fbd2a133e5990c7521adea32f47d9475693b0ef40709ce1606e4050c",
        "05584b6e4ca5b99765e528674a197949aa50d1ac3e0a306acd74362da3a8901a",
        "5eb4fa3a2acde3abc2ab9cb90adc4f43c9930af12e4189a53f2f21333f554a53",
    ],
    (3, 6, 4): [
        "d57c8d432fe6a272689165a742b8972511fca1ad8f0b490ee9a5b418ff3d93e2",
        "1056d158c38a8113a749658d0fee448efb4b821a137c9d19f5511665c39aa83e",
        "149b24f4cb497621f380beb5bf70a7d5391fb1b5213ff22e39abfbd9b20cc11a",
        "2477060464342042b97631437d1cb4e00fe92593994397ce935ee6a784df3678",
        "bdd0284b4f74c46aafa3086f653e7c26592d20d9c2e365d1a9f919334be71ed3",
        "81fcece951c893cec7d60f33b370372baac99d54d24fdbb562528ab1b3c0707f",
    ],
}


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _state(rd, rep):
    clusters = []
    for wc in rd.clusters:
        clusters.append((wc.id, sorted(wc.bundles.items()),
                         sorted(wc.sparse.cprime.superedges),
                         sorted(wc.lam.items())))
    return ((rep.deleted, rep.inserted, sorted(rep.to_e_del.items()),
             rep.dissolved, rep.recourse),
            sorted(rd.e_del), clusters)


def run_case(host, seed, seen):
    rd = build_decomposition(host.copy(), PipelineConfig(**CFG))
    rng = random.Random(seed)
    out = []
    for _ in range(3):
        dels = rng.sample(sorted(rd.host.superedges), 2)
        rep = process_batch(rd, dels)
        seen["cascade"] += rep.to_e_del.get("cascade", 0)
        seen["dissolved"] += len(rep.dissolved)
        seen["kept"] += len(rd.clusters)
        out.append((dels, _state(rd, rep)))
    return _sha(out)


@pytest.mark.parametrize("shape", sorted(GOLDEN))
def test_batch_fingerprint(shape):
    host = realize(build(*shape))
    seen = {"cascade": 0, "dissolved": 0, "kept": 0}
    got = [run_case(host, seed, seen) for seed in SEEDS]
    assert got == GOLDEN[shape]
    # the recorded cases must exercise cascades, dissolves and survival
    assert seen["cascade"] > 0 and seen["dissolved"] > 0, seen
    assert seen["kept"] > 0, seen


def _check_path_index(rd):
    """Every cluster's witness index against a count made from its
    bundles, and every entry against its embedding path."""
    for wc in rd.clusters:
        w = wc.witness
        counts = wc.path_counts()
        assert set(w.path_sets) == set(w.host.vertices) == set(counts)
        for v, entries in w.path_sets.items():
            assert len(entries) == counts[v]
            keys = [key for key, _idx in entries]
            assert keys == sorted(set(keys))
            for key, idx in entries:
                p = w.emb.paths[key]
                assert p[idx] == v and v not in p[:idx]
                assert p[0] == wc.vm[key[1]]


@pytest.mark.parametrize("shape", sorted(GOLDEN))
def test_path_index_matches_path_counts(shape):
    host = realize(build(*shape))
    checked = 0
    for seed in SEEDS:
        rd = build_decomposition(host.copy(), PipelineConfig(**CFG))
        _check_path_index(rd)
        rng = random.Random(seed)
        for _ in range(3):
            process_batch(rd, rng.sample(sorted(rd.host.superedges), 2))
            _check_path_index(rd)
            checked += len(rd.clusters)
    assert checked > 0
