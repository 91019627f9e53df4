"""Seeded input generator for the benchmark.

Writes graph, trace, demand, fault and template-manifest files in the
formats the routerlab README documents, and returns an index of what it
wrote.  It uses the standard library only and never imports routerlab:
the program under test sees nothing but these files.

The same (workload, seed) always produces the same files.
"""

import json
import os
import random
from fractions import Fraction

# Pipeline parameters of acceptance test 7, shared by the decompose
# workloads.
DECOMP_CFG = dict(k=2, delta=4, delta_star=16, d_cap=2, template_n=3,
                  batch_bound=6)


def template_edges(N, k):
    """Superedges (leaf, center) of the router template build(N, k, .).

    An independent restatement of the construction in
    routerlab.router_template: level-1 stars are blocks of N consecutive
    ids; at level i >= 2 the star at position p of a level-i block takes
    one member from each of its N child blocks, and its center comes
    from child block p // N^(i-2).
    """
    edges = []
    for v in range(N ** k):
        if v % N == 0:
            continue
        for level in range(1, k + 1):
            edges.append((v, _level_center(N, level, v)))
    return edges


def _level_center(N, level, v):
    if level == 1:
        return v - v % N
    M = N ** (level - 1)
    B = N ** (level - 2)
    c, x = divmod(v, N ** level)
    j, y = divmod(x, M)
    # position of block-local vertex y in block j's ordering
    if y % N == 0:
        p = j * B + y // N
    else:
        rank = (y // N) * (N - 1) + y % N - 1
        p = rank if rank < j * B else rank + B
    jc = p // B
    return c * N ** level + jc * M + N * (p - jc * B)


def random_regular_graph(rng, n, cycles):
    """Simple 2*cycles-regular graph on 0..n-1: the union of `cycles`
    edge-disjoint random Hamiltonian cycles.  Regularity keeps every
    vertex above the pipeline's degree floor, so no seed loses vertices
    to low-degree stripping before the embedding step."""
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
    return sorted(edges)


class Writer:
    """Writes numbered input files into one directory."""

    def __init__(self, root):
        self.root = root
        self.count = 0
        os.makedirs(root, exist_ok=True)

    def _path(self, stem, ext):
        self.count += 1
        return os.path.join(self.root, "%s-%05d.%s" % (stem, self.count, ext))

    def _write(self, path, lines):
        with open(path, "w", encoding="utf-8") as f:
            f.write("".join(line + "\n" for line in lines))
        return path

    def manifest(self, N, k, delta):
        path = self._path("router", "json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"N": N, "k": k, "delta": delta}, f, sort_keys=True)
        return path

    def graph(self, edges):
        return self._write(self._path("graph", "txt"),
                           ["%d %d" % e for e in edges])

    def trace(self, phases):
        """phases: list of lists of (u, v, count) DEL ops; PHASE lines
        between."""
        lines = []
        for i, ops in enumerate(phases):
            if i:
                lines.append("PHASE %d" % i)
            lines.extend("DEL %d %d %d" % op for op in ops)
        return self._write(self._path("trace", "txt"), lines)

    def demand(self, pairs):
        return self._write(self._path("demand", "txt"),
                           ["%d %d %s" % p for p in pairs])

    def faults(self, items):
        return self._write(self._path("faults", "txt"),
                           ["%d %d %d" % it for it in items])


# -- prune-churn -----------------------------------------------------------

PRUNE_CONFIGS = [(32, 2, 32, "paper"), (32, 2, 32, "relaxed"),
                 (10, 3, 32, "paper"), (10, 3, 32, "relaxed")]
PRUNE_STREAMS = 48          # pool, interleaved over the four configs
PRUNE_STREAM_LEN = 100
PRUNE_PHASE_P = Fraction(1, 20)


def prune_churn(rng, w):
    """Deletion streams drawn as acceptance test 2's fuzz draws them:
    each deletion removes one copy of a superedge chosen uniformly over
    every level, and before it a new phase begins with probability 1/20
    while phases remain."""
    configs = []
    for (N, k, delta, preset) in PRUNE_CONFIGS:
        configs.append({"name": "router(%d,%d,%d) %s" % (N, k, delta,
                                                          preset),
                        "manifest": w.manifest(N, k, delta),
                        "preset": preset, "k": k})
    streams = []
    for j in range(PRUNE_STREAMS):
        ci = j % len(configs)
        N, k, _delta, _preset = PRUNE_CONFIGS[ci]
        edges = template_edges(N, k)
        phases = [[]]
        for _ in range(PRUNE_STREAM_LEN):
            # phases = k + 1 in both presets, so k PHASE lines at most
            if rng.random() < PRUNE_PHASE_P and len(phases) < k + 1:
                phases.append([])
            e = rng.choice(edges)
            phases[-1].append((e[0], e[1], 1))
        streams.append({"config": ci, "trace": w.trace(phases)})
    return {"configs": configs, "streams": streams}


# -- route-serve -----------------------------------------------------------

ROUTE_INSTANCES = [(16, 2, 4096), (3, 3, 32 ** 3)]
ROUTE_EPOCHS = 40           # per instance; the pool is replayed on a fresh router
ROUTE_BURST = 64
ROUTE_OPS = 20              # ops per epoch
ROUTE_FD_OPS = 2            # of which run fd_route
FD_TEMPLATE = (4, 2, 1 << 19)   # acceptance test 6's router


def _restricted_demand(rng, verts, cap, tries=10):
    """Up to `tries` pairs; every vertex's total stays within cap."""
    budget = {v: cap for v in verts}
    pairs = []
    seen = set()
    for _ in range(tries):
        a, b = rng.sample(verts, 2)
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        val = min(budget[a], budget[b],
                  Fraction(rng.randrange(1, 5), rng.choice([1, 2, 4])))
        if val > 0:
            seen.add(key)
            pairs.append((a, b, val))
            budget[a] -= val
            budget[b] -= val
    return pairs


def _fd_case(rng, leaves, N):
    """Acceptance test 6's case: faults on 1..3 level-1 bundles with
    distinct centers (1 or 2 copies each) and a 2-pair demand."""
    items = []
    centers = set()
    for v in rng.sample(leaves, rng.randrange(1, 4)):
        c = v - v % N
        if c not in centers:
            centers.add(c)
            items.append((v, c, rng.randrange(1, 3)))
    pairs = []
    seen = set()
    for _ in range(2):
        a, b = rng.sample(leaves, 2)
        key = (min(a, b), max(a, b))
        if key not in seen:
            seen.add(key)
            pairs.append((a, b, Fraction(rng.randrange(1, 3), 2)))
    return items, pairs


def route_serve(rng, w):
    manifests = [w.manifest(N, k, delta) for (N, k, delta) in ROUTE_INSTANCES]
    fN, fk, fdelta = FD_TEMPLATE
    fd_leaves = [v for v in range(fN ** fk) if v % fN]
    epochs = []
    for e in range(ROUTE_EPOCHS * len(ROUTE_INSTANCES)):
        ii = e % len(ROUTE_INSTANCES)
        N, k, delta = ROUTE_INSTANCES[ii]
        edges = template_edges(N, k)
        burst = [rng.choice(edges) + (1,) for _ in range(ROUTE_BURST)]
        fd_slots = set(rng.sample(range(ROUTE_OPS), ROUTE_FD_OPS))
        verts = list(range(N ** k))
        cap = Fraction(delta, k ** (4 * k))     # route_demand's restriction
        ops = []
        for slot in range(ROUTE_OPS):
            if slot in fd_slots:
                items, pairs = _fd_case(rng, fd_leaves, fN)
                ops.append(("fd", w.demand(pairs), w.faults(items)))
            else:
                pairs = _restricted_demand(rng, verts, cap)
                ops.append(("route", w.demand(pairs), None))
        epochs.append({"instance": ii, "burst": w.trace([burst]),
                       "ops": ops})
    return {"manifests": manifests, "epochs": epochs,
            "fd_manifest": w.manifest(fN, fk, fdelta)}


# -- decompose-ladder ------------------------------------------------------

LADDER_TEMPLATES = [(3, 4), (3, 5), (3, 6), (4, 4)]
# n >= 81 = 3^4 template vertices.  8-regular: a 12-regular graph's
# build cost differed up to twofold from seed to seed (4.5-10.5 s) and
# set most of the ladder's spread; 8-regular ones stay within about 20%
# and still end as the 12-regular ones do, with no cluster and all of
# E^del charged to scatter.
LADDER_RANDOM = (81, 4)


def _one_fault(rng, edges):
    u, v = rng.choice(edges)
    return [(u, v, 1)]


def decompose_ladder(rng, w):
    instances = []
    for (N, k) in LADDER_TEMPLATES:
        edges = template_edges(N, k)
        instances.append({"name": "router(%d,%d,4)" % (N, k),
                          "manifest": w.manifest(N, k, 4),
                          "faults": w.faults(_one_fault(rng, edges))})
    n, cycles = LADDER_RANDOM
    edges = random_regular_graph(rng, n, cycles)
    instances.append({"name": "random(n=%d,m=%d)" % (n, len(edges)),
                      "graph": w.graph(edges),
                      "faults": w.faults(_one_fault(rng, edges))})
    return {"instances": instances}


GENERATORS = {
    "prune-churn": prune_churn,
    "route-serve": route_serve,
    "decompose-ladder": decompose_ladder,
}


def generate(workload, seed, root):
    rng = random.Random("%s:%d" % (workload, seed))
    return GENERATORS[workload](rng, Writer(root))
