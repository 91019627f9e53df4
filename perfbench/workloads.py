"""The three workloads: set-up and the measured loop of each.

Every workload is a closed loop of one client in one process: the next
op starts when the previous one returns.  Work is done in units (a
deletion stream, an epoch, a ladder pass); a unit is started only
while it is expected to finish within the run's seconds, or, for the
traced run, until a fixed number of units is done.

Ops call the library through module attributes (`spanner.lc_embed`,
not a name bound at import), so the tracer's wrappers see every call.
"""

import contextlib
import statistics
import sys
import time
from fractions import Fraction

from routerlab import (cli, decompose, graph, pruning, resilience, routing,
                       router_template, spanner)

import gen


class Budget:
    """How many units a loop runs: by wall time or by a fixed count.
    `between`, if given, is called after every op, outside its timing;
    `clock` times the ops."""

    def __init__(self, seconds=None, units=None, between=None,
                 clock=time.perf_counter):
        self.seconds = seconds
        self.units = units
        self.between = between
        self.clock = clock
        self.done = 0
        self.t0 = time.perf_counter()

    def more(self):
        if self.units is not None:
            return self.done < self.units
        if not self.done:
            return True
        elapsed = time.perf_counter() - self.t0
        return elapsed + elapsed / self.done <= self.seconds

    def tick(self):
        self.done += 1


class Ops:
    """Op latencies, failures and timed-phase time of one loop."""

    MAX_ERRORS_SHOWN = 3

    def __init__(self, budget):
        self.between = budget.between
        self.clock = budget.clock
        self._aside = 0.0       # time spent in `between` during the unit
        self.lat = []           # per op, seconds
        self.starts = []        # per op, clock() at its start
        self.labels = []        # per op, its config or instance
        self.units = []         # (ops, seconds) per unit
        self.unit_spans = []    # (start, end) per unit
        self.parts = {}         # label -> seconds, per config or instance
        self.failed = 0
        self.gate_failures = 0
        self.timed = 0.0
        self.quality = {"e_del": 0, "edges": 0, "spanner": 0,
                        "clusters": 0, "units": 0}
        self._errors = 0

    def call(self, fn, *args, label=None):
        """Time one op; it fails if it raises or returns a false value.
        A label also files the latency under "op <label>"."""
        t0 = self.clock()
        try:
            ok = fn(*args)
        except Exception as e:     # an op failure, not a benchmark error
            ok = False
            self._report(e)
        dt = self.clock() - t0
        self.lat.append(dt)
        self.starts.append(t0)
        self.labels.append(label)
        if label is not None:
            self.part("op " + label, dt)
        if not ok:
            self.failed += 1
        if self.between is not None:
            t1 = self.clock()
            self.between()
            self._aside += self.clock() - t1

    def part(self, label, seconds):
        self.parts.setdefault(label, []).append(seconds)

    def parts_ms(self):
        """Median milliseconds and sample count of each labelled part."""
        return {k: (1000 * statistics.median(v), len(v))
                for k, v in sorted(self.parts.items())}

    @contextlib.contextmanager
    def unit(self):
        """Time one unit of the timed phase."""
        n0 = len(self.lat)
        self._aside = 0.0
        t0 = self.clock()
        yield
        t1 = self.clock()
        dt = t1 - t0 - self._aside
        self.timed += dt
        self.units.append((len(self.lat) - n0, dt))
        self.unit_spans.append((t0, t1))

    def scale(self, speed):
        """Scale op and unit times to the reference host by the host
        speed around each (see refspeed); `timed` and parts stay raw."""
        self.lat = [dt * speed.factor(t0, t0 + dt)
                    for t0, dt in zip(self.starts, self.lat)]
        self.units = [(n, dt * speed.factor(a, b)) for (n, dt), (a, b)
                      in zip(self.units, self.unit_spans)]

    def label_medians(self):
        """Median latency of each label's ops, in order of first use."""
        by = {}
        for label, dt in zip(self.labels, self.lat):
            by.setdefault(label, []).append(dt)
        return {k: statistics.median(v) for k, v in by.items()}

    def throughput(self):
        """Ops per second over the timed phase: all ops over the time
        of all units."""
        return (sum(n for n, _ in self.units)
                / sum(t for _, t in self.units))

    def gate(self, ok, what):
        """A correctness check outside any op."""
        if not ok:
            self.gate_failures += 1
            self._report(what)

    def _report(self, err):
        self._errors += 1
        if self._errors <= self.MAX_ERRORS_SHOWN:
            print("op failure: %r" % (err,), file=sys.stderr)

    def merge(self, other):
        """Fold another loop's ops and failures into this one."""
        self.lat = other.lat + self.lat
        self.failed += other.failed
        self.gate_failures += other.gate_failures

    def add_quality(self, rd, h, clusters):
        q = self.quality
        q["e_del"] += len(rd.e_del)
        q["edges"] += len(rd.host.superedges)
        q["spanner"] += len(h.superedges)
        q["clusters"] += clusters

    def quality_summary(self):
        q = self.quality
        if not q["units"]:
            return {}
        return {"e_del_frac": q["e_del"] / q["edges"],
                "spanner_edge_frac": q["spanner"] / q["edges"],
                "clusters_alive": q["clusters"] / q["units"]}


def _cfg(preset, k):
    if preset == "paper":
        return pruning.PruningConfig.paper(k)
    return pruning.PruningConfig.relaxed(k)


def _del_ops(phase):
    for op in phase:
        if op[0] != "del":
            raise ValueError("unexpected trace op %r" % (op,))
        for _ in range(op[3]):
            yield op[1], op[2]


class PruneChurn:
    """One op: delete_edge then is_properly_pruned, as `routerlab prune`
    does after every deletion.  Each stream starts on a fresh router;
    new_pruned belongs to set-up, so the per-stream reset is untimed."""

    TRACE_UNITS = 8
    TAIL_PCT = 90
    EXPECTED = ["pruning.is_properly_pruned", "pruning.delete_edge"]

    def __init__(self, index, seed):
        self.index = index

    def setup(self):
        configs = []
        for c in self.index["configs"]:
            t = cli.load_template(c["manifest"])
            configs.append((c["name"], t, _cfg(c["preset"], c["k"])))
        streams = [(s["config"], cli.parse_trace(s["trace"]))
                   for s in self.index["streams"]]
        fresh = {ci: pruning.new_pruned(t, cfg)
                 for ci, (_name, t, cfg) in enumerate(configs)}
        return {"configs": configs, "streams": streams, "fresh": fresh}

    def run(self, state, budget):
        ops = Ops(budget)
        streams = state["streams"]

        def op(s, u, v):
            s.delete_edge(u, v)
            return s.is_properly_pruned().ok

        j = 0
        while budget.more():
            ci, phases = streams[j % len(streams)]
            j += 1
            s = state["fresh"].pop(ci, None)
            if s is None:
                s = pruning.new_pruned(*state["configs"][ci][1:])
            label = state["configs"][ci][0]
            with ops.unit():
                for pi, phase in enumerate(phases):
                    if pi:
                        s.begin_phase()
                    for u, v in _del_ops(phase):
                        ops.call(op, s, u, v, label=label)
            budget.tick()
        return ops


class RouteServe:
    """Epochs of: a burst of deletions with no per-deletion check, one
    is_properly_pruned, then restricted demands.  One op is route_demand
    plus verify_routing; a fixed share of ops runs fd_route under a
    small fault set on acceptance test 6's router instead.  Epoch
    overhead (burst, check, graph read) is inside the timed phase."""

    TRACE_UNITS = 80
    TAIL_PCT = 95
    EXPECTED = ["pruning.is_properly_pruned", "pruning.delete_edge",
                "routing.route_demand", "graph.verify_routing",
                "resilience.fd_route", "resilience.integral_round"]

    def __init__(self, index, seed):
        self.index = index

    def _routers(self, instances):
        return [pruning.new_pruned(t, _cfg("relaxed", t.k))
                for t in instances]

    def setup(self):
        instances = [cli.load_template(m) for m in self.index["manifests"]]
        t_fd = cli.load_template(self.index["fd_manifest"])
        s_fd = pruning.new_pruned(t_fd, _cfg("relaxed", t_fd.k))
        g_fd = s_fd.current_graph()
        epochs = []
        for e in self.index["epochs"]:
            burst = [uv for phase in cli.parse_trace(e["burst"])
                     for uv in _del_ops(phase)]
            ops = []
            for kind, demand, faults in e["ops"]:
                d = cli.parse_demand(demand)
                ops.append((kind, d, cli._parse_faults(faults, g_fd)
                            if faults else None))
            epochs.append((e["instance"], burst, ops))
        return {"instances": instances, "routers": self._routers(instances),
                "fd": (s_fd, g_fd), "epochs": epochs}

    def run(self, state, budget):
        ops = Ops(budget)
        s_fd, g_fd = state["fd"]
        k_fd = s_fd.t.k
        n_fd = len(g_fd.vertices)
        d_len = 20 * k_fd * k_fd
        cap = Fraction(s_fd.t.delta, k_fd ** (4 * k_fd))
        delta = cap / (2 * n_fd)
        eta = 1
        eta_p = 16 * eta * n_fd

        def oracle(dm):
            base = routing.route_demand(s_fd, dm)
            return resilience.integral_round(g_fd, dm, base, 1, eta, seed=7)

        def route_op(s, g, d):
            k = s.t.k
            r = routing.route_demand(s, d)
            vr = graph.verify_routing(g, d, r, 20 * k * k, Fraction(1))
            return vr.ok and (r.is_integral() or not d.is_integral())

        def fd_op(d, faults):
            r = resilience.fd_route(oracle, g_fd, faults, d, k_fd, d_len, eta,
                                    delta, report=resilience.FdReport())
            vr = graph.verify_routing(faults.reduced_graph(g_fd), d, r,
                                      32 * k_fd * d_len, 22 * k_fd * eta_p)
            return vr.ok

        labels = ["route_demand router(%d,%d,%d)" % inst
                  for inst in gen.ROUTE_INSTANCES]
        fd_label = "fd_route router(%d,%d,%d)" % gen.FD_TEMPLATE
        epochs = state["epochs"]
        routers = state["routers"]
        j = 0
        while budget.more():
            if j and j % len(epochs) == 0:
                # pool replayed: start over on fresh routers (untimed)
                routers = self._routers(state["instances"])
            ii, burst, epoch_ops = epochs[j % len(epochs)]
            j += 1
            s = routers[ii]
            with ops.unit():
                for u, v in burst:
                    s.delete_edge(u, v)
                ops.gate(s.is_properly_pruned().ok,
                         "router not properly pruned")
                g = s.current_graph()
                for kind, d, faults in epoch_ops:
                    if kind == "fd":
                        ops.call(fd_op, d, faults, label=fd_label)
                    else:
                        ops.call(route_op, s, g, d, label=labels[ii])
            budget.tick()
        return ops


def _load_host(inst):
    if "manifest" in inst:
        return router_template.realize(cli.load_template(inst["manifest"]))
    return cli.parse_graph(inst["graph"])


class DecomposeLadder:
    """One op: one instance through build_decomposition, extract_spanner,
    stretch_check, lc_embed and fd_spanner_check.  A unit is one pass
    over the five instances, always completed, in a fixed order."""

    TRACE_UNITS = 1
    TAIL_PCT = None             # too few ops for a percentile: the maximum
    EXPECTED = ["router_template.realize", "decompose.build_decomposition",
                "clustering.init_clustering", "witness.greedy_embed",
                "witness.validate_witness", "witness.sparsify",
                "witness.scattered_or_ball", "witness.sparsified_route",
                "resilience.integral_round", "spanner.check_valid",
                "spanner.extract_spanner", "spanner.stretch_check",
                "spanner.lc_embed", "spanner.fd_spanner_check"]

    def __init__(self, index, seed):
        self.index = index
        self.seed = seed

    def setup(self):
        cfg = decompose.PipelineConfig(**gen.DECOMP_CFG)
        hosts = []
        for inst in self.index["instances"]:
            g = _load_host(inst)
            hosts.append((inst["name"], g,
                          cli._parse_faults(inst["faults"], g)))
        return {"cfg": cfg, "hosts": hosts}

    def run(self, state, budget):
        ops = Ops(budget)
        cfg = state["cfg"]

        def op(name, g, faults):
            t0 = ops.clock()
            rd = decompose.build_decomposition(g, cfg)
            t1 = ops.clock()
            h = spanner.extract_spanner(rd)
            st, _pair = spanner.stretch_check(rd.host, h)
            ops.part("build " + name, t1 - t0)
            ops.part("spanner+stretch " + name, ops.clock() - t1)
            spanner.lc_embed(rd, seed=self.seed)
            fr = spanner.fd_spanner_check(rd, faults, cfg.k)
            ops.add_quality(rd, h, len(rd.clusters))
            return st <= rd.d_t and fr["ok"]

        while budget.more():
            with ops.unit():
                for name, g, faults in state["hosts"]:
                    ops.call(op, name, g, faults, label=name)
            ops.quality["units"] += 1
            budget.tick()
        return ops


WORKLOADS = {
    "prune-churn": PruneChurn,
    "route-serve": RouteServe,
    "decompose-ladder": DecomposeLadder,
}
