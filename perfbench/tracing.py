"""Span tracing at routerlab's module boundaries, from outside the package.

install() replaces each traced function with a wrapper in every loaded
routerlab module that bound it (including `from .x import f` copies),
and wraps traced methods on their class.  Each call records a span
[name, start, end, parent index]; spans stay in memory until the run
ends.  Counts are read from the wrapped functions' return values.
"""

import collections
import functools
import json
import sys
import time


class TraceError(RuntimeError):
    """A traced name is missing, or an expected span never fired."""


# the causes build_decomposition charges edges of E^del to
E_DEL_CAUSES = ("low-degree", "small", "scatter", "fake-trim", "cap")


def _on_delete(c, args, kwargs, rpt):
    c["pruning.noop"] += rpt.noop
    for entries in rpt.removed.values():
        c["pruning.removed_vertices"] += len(entries)
        c["pruning.cascade_removals"] += sum(1 for _v, tag in entries
                                             if tag == "cascade")


def _on_route(c, args, kwargs, r):
    hops = max((len(p) - 1 for p, _pair, _val in r.flow_paths), default=0)
    c["routing.path_hops_max"] = max(c["routing.path_hops_max"], hops)


def _on_fd_route(c, args, kwargs, r):
    rep = kwargs.get("report")
    if rep is None:
        raise TraceError("fd_route called without a report=FdReport()")
    c["resilience.safe"] += rep.safe_at_start
    c["resilience.pairs"] += rep.total_pairs
    c["resilience.fd_rounds"] += len(rep.rounds)


def _on_greedy_embed(c, args, kwargs, got):
    if got is not None:
        c["witness.embed_accepted"] += 1
        c["witness.fake_copies"] += len(got[1])


def _on_build(c, args, kwargs, rd):
    for cause, n in rd.report.cause_counts().items():
        c["decompose.e_del." + cause] += n


# (module, name or Class.method, count observer)
TARGETS = [
    ("pruning", "PrunedRouter.is_properly_pruned", None),
    ("pruning", "PrunedRouter.delete_edge", _on_delete),
    ("routing", "route_demand", _on_route),
    ("graph", "verify_routing", None),
    ("resilience", "fd_route", _on_fd_route),
    ("resilience", "integral_round", None),
    ("witness", "greedy_embed", _on_greedy_embed),
    ("witness", "validate_witness", None),
    ("witness", "sparsify", None),
    ("witness", "sparsified_route", None),
    ("witness", "scattered_or_ball", None),
    ("clustering", "init_clustering", None),
    ("decompose", "build_decomposition", _on_build),
    ("spanner", "RouterDecomposition.check_valid", None),
    ("spanner", "extract_spanner", None),
    ("spanner", "stretch_check", None),
    ("spanner", "lc_embed", None),
    ("spanner", "fd_spanner_check", None),
    ("router_template", "realize", None),
]


def span_name(module, name):
    return "%s.%s" % (module, name.split(".")[-1])


class Tracer:
    def __init__(self):
        self.spans = []         # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = collections.defaultdict(int)

    def count(self, key):
        return self.counts.get(key, 0)

    def wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, out)
            return out
        return traced

    def install(self):
        """Wrap every target; raises TraceError if one is missing."""
        loaded = {m: mod for m, mod in sys.modules.items()
                  if m == "routerlab" or m.startswith("routerlab.")}
        for module, name, observe in TARGETS:
            mod = loaded.get("routerlab." + module)
            if mod is None:
                raise TraceError("module routerlab.%s is not loaded" % module)
            label = span_name(module, name)
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    raise TraceError("routerlab.%s.%s is missing"
                                     % (module, name))
                setattr(cls, meth, self.wrap(label, vars(cls)[meth], observe))
                continue
            orig = getattr(mod, name, None)
            if orig is None:
                raise TraceError("routerlab.%s.%s is missing" % (module, name))
            traced = self.wrap(label, orig, observe)
            for other in loaded.values():
                for attr, val in list(vars(other).items()):
                    if val is orig:
                        setattr(other, attr, traced)

    def self_times(self, under=None):
        """name -> (self seconds, calls).  Self time is a span's duration
        minus the durations of its direct children (calls nest, so the
        children never overlap).  With `under`, only spans with an
        ancestor of that name count."""
        child = [0.0] * len(self.spans)
        inside = [under is None] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                inside[i] = inside[i] or inside[parent] or \
                    self.spans[parent][0] == under
        out = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            if inside[i]:
                s, n = out.get(name, (0.0, 0))
                out[name] = (s + (end - start) - child[i], n + 1)
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, f)


def per_layer(tracer, quality, overhead):
    """Every per-layer metric of BENCHMARK.json, zero where a workload
    does not reach the layer."""
    st = tracer.self_times()
    c = tracer.count
    m = {}

    def timed(label, calls=True):
        s, n = st.get(label, (0.0, 0))
        m[label + ".self_ms"] = (s * 1000, "ms")
        if calls:
            m[label + ".calls"] = (n, "count")

    def frac(num, den):
        return num / den if den else 0.0

    timed("pruning.is_properly_pruned")
    timed("pruning.delete_edge")
    m["pruning.noop_frac"] = (frac(c("pruning.noop"),
                                   st.get("pruning.delete_edge", (0, 0))[1]),
                              "ratio")
    m["pruning.removed_vertices"] = (c("pruning.removed_vertices"), "count")
    m["pruning.cascade_removals"] = (c("pruning.cascade_removals"), "count")
    timed("routing.route_demand")
    m["routing.path_hops_max"] = (c("routing.path_hops_max"), "count")
    timed("graph.verify_routing")
    timed("resilience.fd_route")
    timed("resilience.integral_round", calls=False)
    m["resilience.safe_frac"] = (frac(c("resilience.safe"),
                                      c("resilience.pairs")), "ratio")
    m["resilience.fd_rounds"] = (c("resilience.fd_rounds"), "count")
    timed("witness.greedy_embed")
    m["witness.embed_accept_frac"] = (
        frac(c("witness.embed_accepted"),
             st.get("witness.greedy_embed", (0, 0))[1]), "ratio")
    m["witness.fake_copies"] = (c("witness.fake_copies"), "count")
    timed("witness.validate_witness")
    for label in ("witness.sparsify", "witness.sparsified_route",
                  "witness.scattered_or_ball"):
        timed(label, calls=False)
    timed("clustering.init_clustering")
    timed("decompose.build_decomposition", calls=False)
    for cause in E_DEL_CAUSES:
        m["decompose.e_del." + cause] = (c("decompose.e_del." + cause),
                                         "count")
    timed("spanner.check_valid")
    for label in ("spanner.extract_spanner", "spanner.stretch_check",
                  "spanner.lc_embed", "spanner.fd_spanner_check",
                  "router_template.realize"):
        timed(label, calls=False)
    m["decompose.e_del_frac"] = (quality.get("e_del_frac", 0.0), "ratio")
    m["spanner.spanner_edge_frac"] = (quality.get("spanner_edge_frac", 0.0),
                                      "ratio")
    m["decompose.clusters_alive"] = (quality.get("clusters_alive", 0.0),
                                     "count")
    m["trace.overhead"] = (overhead, "ratio")
    return m


def check_expected(tracer, expected):
    st = tracer.self_times()
    missing = [name for name in expected if st.get(name, (0, 0))[1] == 0]
    if missing:
        raise TraceError("expected spans recorded no calls: %s"
                         % ", ".join(missing))
