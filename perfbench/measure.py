"""Timed and traced runs of one workload, and the result they print."""

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import time

import gen
import refspeed
import tracing
import workloads


OP_SPAN = "bench.op"


class Abort(Exception):
    """The run cannot produce a result."""


def percentile(sorted_vals, pct):
    """Nearest-rank percentile of a sorted list."""
    rank = -(-len(sorted_vals) * pct // 100)
    return sorted_vals[max(rank, 1) - 1]


def typical(ops):
    """Milliseconds: the mean over the workload's op kinds (its configs,
    instances, or route_demand and fd_route) of each kind's median op
    latency.  The plain median of a mix of kinds whose latencies differ
    falls between their modes and jumps with small shifts in the mix; a
    ladder pass, with one op per instance, gives the mean of its ops."""
    meds = ops.label_medians()
    return 1000 * sum(meds.values()) / len(meds)


def tail(sorted_vals, pct):
    """(label, value): the workload's fixed tail percentile, or a lower
    one when fewer than ten samples lie beyond it, else the maximum."""
    n = len(sorted_vals)
    for p in (99, 95, 90):
        if pct is not None and p <= pct and n - -(-n * p // 100) >= 10:
            return "p%d" % p, percentile(sorted_vals, p)
    return "max", sorted_vals[-1]


SETUP_SHARE = 0.05      # of the run's time spent in timed set-ups
SETUP_GROUP_S = 0.25    # a group repeats set-up for at least this long
SETUP_MIN_GROUPS = 3


class SetupTimer:
    """Times set-up in groups spread over the whole run.

    A group repeats set-up until SETUP_GROUP_S has passed and records
    the mean duration, so a 12-130 ms set-up is timed over several
    repetitions.  One group runs before the ops (its
    state is the one the ops use); the others run between ops whenever
    set-up has had less than SETUP_SHARE of the run's time, or
    fewer than SETUP_MIN_GROUPS groups pro rata to the elapsed share of
    the run.  setup_s is the median over groups, each scaled by the
    host speed around it as op times are.
    """

    def __init__(self, wl, seconds, clock):
        self.wl = wl
        self.seconds = seconds
        self.clock = clock
        self.means = []
        self.spans = []
        self.count = 0
        self.spent = 0.0
        self.t0 = self.clock()

    def group(self):
        state = None
        n = 0
        t0 = self.clock()
        while True:
            state = None
            state = self.wl.setup()
            n += 1
            dt = self.clock() - t0
            if dt >= SETUP_GROUP_S:
                break
        self.means.append(dt / n)
        self.spans.append((t0, t0 + dt))
        self.count += n
        self.spent += dt
        return state

    def behind(self):
        elapsed = self.clock() - self.t0
        return (self.spent < SETUP_SHARE * elapsed
                or len(self.means) < SETUP_MIN_GROUPS
                * min(1.0, elapsed / self.seconds))

    def between(self):
        while self.behind():
            self.group()


def timed_run(wl, seconds):
    with refspeed.Speed() as speed:
        setups = SetupTimer(wl, seconds, speed.clock)
        gc.collect()
        state = setups.group()
        ops = wl.run(state, workloads.Budget(seconds=seconds,
                                             between=setups.between,
                                             clock=speed.clock))
        state = None
        while len(setups.means) < SETUP_MIN_GROUPS:
            setups.group()
    if not ops.lat:
        raise Abort("no op completed")
    raw_lat = sorted(1000 * d for d in ops.lat)
    raw_tput = ops.throughput()
    raw_setup = statistics.median(setups.means)
    raw_mid = typical(ops)
    ops.scale(speed)
    setup_times = [m * speed.factor(a, b)
                   for m, (a, b) in zip(setups.means, setups.spans)]
    kernel_s, kernel_n = speed.summary()
    lat = sorted(1000 * d for d in ops.lat)
    n = len(lat)
    mid_ms = typical(ops)
    tail_label, tail_ms = tail(lat, wl.TAIL_PCT)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s",
                    "median over %d groups of %d set-ups (%.3g-%.3g s)"
                    % (len(setup_times), setups.count, min(setup_times),
                       max(setup_times))),
        "ops_per_s": (ops.throughput(), "1/s",
                      "%d ops in %d units, %.1f s timed (unscaled)"
                      % (n, len(ops.units), ops.timed)),
        "op_p50_ms": (mid_ms, "ms", "mean of %d kinds' medians, n=%d"
                      % (len(ops.label_medians()), n)),
        "op_tail_ms": (tail_ms, "ms", "%s, n=%d" % (tail_label, n)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB", "ru_maxrss"),
    }
    notes = {"failed_frac": (ops.failed / n, "ratio",
                             "%d of %d ops" % (ops.failed, n)),
             "raw.setup_s": (raw_setup, "s", "unscaled"),
             "raw.ops_per_s": (raw_tput, "1/s", "unscaled"),
             "raw.op_p50_ms": (raw_mid, "ms", "unscaled"),
             "raw.op_tail_ms": (tail(raw_lat, wl.TAIL_PCT)[1], "ms",
                                "unscaled"),
             "refspeed.kernel_ms": (1000 * kernel_s, "ms",
                                    "median of %d samples; reference %g ms"
                                    % (kernel_n, 1000 * refspeed.REF_S))}
    units = ops.quality["units"]
    for key, value in ops.quality_summary().items():
        notes[key] = (value, "count" if key == "clusters_alive" else "ratio",
                      "over %d units" % units)
    return ops, metrics, notes


def trace_run(wl, name, seed, out_dir):
    base = wl.run(wl.setup(), workloads.Budget(units=wl.TRACE_UNITS))
    tracer = tracing.Tracer()
    tracer.install()
    # an enclosing span per op separates op time from set-up and gates
    workloads.Ops.call = tracer.wrap(OP_SPAN, workloads.Ops.call, None)
    t0 = time.perf_counter()
    ops = wl.run(wl.setup(), workloads.Budget(units=wl.TRACE_UNITS))
    wall = time.perf_counter() - t0
    tracing.check_expected(tracer, wl.EXPECTED)
    if not ops.lat:
        raise Abort("no op completed")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, "spans-%s-%d.json" % (name, seed)))
    overhead = ops.timed / base.timed
    op_time = sum(ops.lat)
    in_ops = tracer.self_times(under=OP_SPAN)
    print("traced: %d units, %d ops, %.2f s wall with set-up, %.2f s in "
          "ops; overhead %.3f (traced over untraced timed phase)"
          % (wl.TRACE_UNITS, len(ops.lat), wall, op_time, overhead))
    print("  %-34s %12s %8s %8s %8s" % ("span", "self_ms", "of wall",
                                        "of ops", "calls"))
    for label, (s, calls) in sorted(tracer.self_times().items(),
                                    key=lambda x: -x[1][0]):
        if label != OP_SPAN:
            print("  %-34s %12.1f %7.1f%% %7.1f%% %8d"
                  % (label, s * 1000, 100 * s / wall,
                     100 * in_ops.get(label, (0, 0))[0] / op_time, calls))
    ops.merge(base)
    layer = tracing.per_layer(tracer, ops.quality_summary(), overhead)
    return ops, {k: (v, u, "") for k, (v, u) in layer.items()}, {}


def run(args, root):
    name, seed = args.workload, args.seed
    work = os.path.join(root, ".perfbench_work",
                        "%s-%d-%d" % (name, seed, os.getpid()))
    try:
        wl = workloads.WORKLOADS[name](gen.generate(name, seed, work), seed)
        if args.trace:
            ops, metrics, notes = trace_run(
                wl, name, seed, os.path.join(root, ".perfbench_out"))
        else:
            ops, metrics, notes = timed_run(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("workload %s  seed %d  seconds %g  trace %d  (python %s, nproc %d)"
          % (name, seed, args.seconds, args.trace,
             platform.python_version(), os.cpu_count() or 0))
    for key, (value, unit, note) in list(metrics.items()) + \
            list(notes.items()):
        print("  %-34s %14.6g %-6s %s" % (key, value, unit, note))
    parts = ops.parts_ms()
    for label, (ms, count) in parts.items():
        print("  %-34s %14.6g %-6s median, n=%d" % (label, ms, "ms", count))
    # the per-config and per-instance medians, for baseline.py
    print("parts " + json.dumps({k: ms for k, (ms, _n) in parts.items()}))
    print(json.dumps({
        "correct": ops.failed == 0 and ops.gate_failures == 0,
        "attempted": len(ops.lat), "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _note) in metrics.items()}}))
