"""Command line front end: file parsing, command dispatch and JSON
reports.

Every command emits a report {command, params, assertions, timings_ms}
and exits 0 when all assertions hold, 1 when any is violated, and 2 on
usage or parse errors.  All randomness flows from --seed, so identical
inputs and seed give byte-identical reports apart from the timings.
"""

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from .graph import MultiGraph, Demand, Routing, _key, verify_routing
from .router_template import build
from .pruning import PruningConfig, new_pruned
from .routing import RoutingError, route_demand
from .clustering import init_clustering
from .resilience import FaultSet
from .decompose import PipelineConfig, build_decomposition, process_batch
from .spanner import (extract_spanner, stretch_check, lc_embed,
                      fd_spanner_check, connectivity_certificate_check)


class CliError(Exception):
    """Usage or file format error; carries a file position when known."""

    def __init__(self, msg, path=None, line=None):
        if path is not None:
            msg = ("%s: %s" % (path, msg) if line is None
                   else "%s:%d: %s" % (path, line, msg))
        super().__init__(msg)


def _text(path):
    """The file at path decoded as UTF-8.  A file that is not raises
    CliError naming the line of its first bad byte; a file that cannot
    be read raises OSError."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        # The text before the bad byte decodes; its line breaks, counted
        # as splitlines counts them, place the byte.
        head = data[:e.start].decode("utf-8") + "."
        raise CliError("not UTF-8 text", path, len(head.splitlines()))


def _json(path):
    # text mode's line breaks, so that a syntax error names its line
    return json.loads(_text(path).replace("\r\n", "\n").replace("\r", "\n"))


def _lines(path):
    try:
        raw = _text(path)
    except OSError as e:
        raise CliError(str(e))
    for no, line in enumerate(raw.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if line:
            yield no, line.split()


def parse_graph(path):
    g = MultiGraph()
    for no, tok in _lines(path):
        if not 2 <= len(tok) <= 4:
            raise CliError("expected 'u v [mult] [len]'", path, no)
        try:
            u, v = int(tok[0]), int(tok[1])
            mult = int(tok[2]) if len(tok) > 2 else 1
            length = int(tok[3]) if len(tok) > 3 else 1
        except ValueError:
            raise CliError("non-integer field", path, no)
        if u < 0 or v < 0 or mult < 1 or length < 1:
            raise CliError("fields must be non-negative (mult, len >= 1)",
                           path, no)
        if u == v:
            raise CliError("self loops are not allowed", path, no)
        # len is checked but unused: every distance is a hop count.  A
        # repeated pair adds its multiplicity.
        g.add_edge(u, v, mult)
    return g


def _exact(tok):
    """The rational a demand or routing value spells.  A string `p` or
    `p/q` in ASCII digits is read as integers; any other value (a sign,
    a decimal point, an exponent, other digits, a JSON number) is left
    to Fraction, except a float that is not finite and an exponent of
    more than 4 digits, which Fraction would spell out in full."""
    if type(tok) is str and tok.isascii():
        if tok.isdigit():
            return Fraction(int(tok))
        p, _, q = tok.partition("/")
        if p.isdigit() and q.isdigit():
            return Fraction(int(p), int(q))
    if type(tok) is float and not math.isfinite(tok):
        raise ValueError("value %r is not finite" % tok)
    exp = tok.strip().lower().partition("e")[2] if type(tok) is str else ""
    if len(exp.lstrip("+-").replace("_", "")) > 4:
        raise ValueError("value %r has an exponent of over 4 digits" % tok)
    return Fraction(tok)


def parse_demand(path):
    d = Demand()
    for no, tok in _lines(path):
        if len(tok) != 3:
            raise CliError("expected 'a b value'", path, no)
        try:
            a, b = int(tok[0]), int(tok[1])
            val = _exact(tok[2])
        except (ValueError, ZeroDivisionError):
            raise CliError("bad demand line", path, no)
        try:
            d.add(a, b, val)
        except ValueError as e:
            raise CliError(str(e), path, no)
    return d


# The ops each command reads from a trace, besides PHASE.  Only pruning
# reads a DEL count: batch and cluster delete whole edges.
PRUNE_OPS = frozenset({"DEL"})              # prune, route
CLUSTER_OPS = frozenset({"DEL", "DEACT"})
BATCH_OPS = frozenset({"DEL", "INS"})


def parse_trace(path, ops=PRUNE_OPS, max_phases=None):
    """List of phases; each phase is a list of ops
    ('del', u, v, count, line) / ('deact', cid, line) /
    ('ins', u, v, mult, line), of the kinds in ops, each ending with its
    line number.  An INS line's ids, mult and len are checked like a
    graph line's, and its len is then dropped.  With max_phases, a
    PHASE line that opens phase max_phases + 1 or later is an error."""
    phases = [[]]
    for no, tok in _lines(path):
        op = tok[0].upper()
        if op != "PHASE" and op not in ops:
            raise CliError("trace op %r is not valid here (valid: %s)" % (
                tok[0], ", ".join(sorted(ops | {"PHASE"}))), path, no)
        try:
            if op == "PHASE":
                if len(tok) != 2 or int(tok[1]) != len(phases):
                    raise CliError("PHASE numbers must be sequential from 1",
                                   path, no)
                if max_phases is not None and len(phases) >= max_phases:
                    raise CliError("PHASE %d is past the preset's last "
                                   "phase, %d" % (len(phases), max_phases - 1),
                                   path, no)
                phases.append([])
            elif op == "DEL":
                if len(tok) not in (3, 4):
                    raise CliError("expected 'DEL u v [count]'", path, no)
                u, v = int(tok[1]), int(tok[2])
                count = int(tok[3]) if len(tok) == 4 else 1
                if count < 1:
                    raise CliError("deletion count %d is below 1" % count,
                                   path, no)
                if count != 1 and ops != PRUNE_OPS:
                    raise CliError("deletion count %d: this command deletes "
                                   "whole edges" % count, path, no)
                phases[-1].append(("del", u, v, count, no))
            elif op == "DEACT":
                if len(tok) != 2:
                    raise CliError("expected 'DEACT cluster_id'", path, no)
                phases[-1].append(("deact", int(tok[1]), no))
            else:                                       # INS
                if len(tok) not in (3, 4, 5):
                    raise CliError("expected 'INS u v [mult] [len]'", path, no)
                u, v = int(tok[1]), int(tok[2])
                mult = int(tok[3]) if len(tok) > 3 else 1
                length = int(tok[4]) if len(tok) > 4 else 1
                if u < 0 or v < 0:
                    raise CliError("insertion endpoints must be non-negative",
                                   path, no)
                if u == v:
                    raise CliError("self loops are not allowed", path, no)
                if mult < 1 or length < 1:
                    raise CliError("insertion mult and len must be at least 1",
                                   path, no)
                phases[-1].append(("ins", u, v, mult, no))
        except ValueError:
            raise CliError("non-integer field", path, no)
    return phases


def parse_routing(path):
    try:
        data = _json(path)
    except (OSError, ValueError) as e:          # JSONDecodeError included
        raise CliError("bad routing file: %s" % e, path,
                       getattr(e, "lineno", None))
    r = Routing()
    try:
        for item in data["paths"]:
            r.add(tuple(item["path"]), tuple(item["pair"]),
                  _exact(item["value"]))
    except KeyError as e:
        raise CliError("bad routing entry: no field %s" % e, path)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise CliError("bad routing entry: %s" % e, path)
    return r


def load_template(path):
    try:
        data = _json(path)
        return build(int(data["N"]), int(data["k"]), int(data["delta"]))
    except KeyError as e:
        raise CliError("bad template file: no field %s" % e, path)
    except (OSError, TypeError, ValueError) as e:
        raise CliError("bad template file: %s" % e, path,
                       getattr(e, "lineno", None))


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)                   # "inf", "-inf" or "nan"
    return x


class Report:
    """A command's report.  Its params are the options in args as
    parsed, less the command (already top level), its handler and
    --json (the report's own destination)."""

    def __init__(self, args):
        self.command = args.command
        self.params = {k: v for k, v in vars(args).items()
                       if k not in ("command", "fn", "json")}
        self.out_path = args.json
        self.assertions = []
        self.extra = {}
        self._t0 = time.perf_counter()

    def check(self, name, bound, observed, ok):
        self.assertions.append({"name": name, "bound": _jsonable(bound),
                                "observed": _jsonable(observed),
                                "ok": bool(ok)})

    @property
    def ok(self):
        return all(a["ok"] for a in self.assertions)

    def emit(self):
        doc = {"command": self.command,
               "params": _jsonable(self.params),
               "assertions": self.assertions,
               "timings_ms": round((time.perf_counter() - self._t0) * 1000,
                                   3)}
        doc.update(_jsonable(self.extra))
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
        if self.out_path:
            with open(self.out_path, "w", encoding="utf-8") as f:
                f.write(text + "\n")
        else:
            print(text)
        return 0 if self.ok else 1


def _check_verify(rep, vr, max_len, max_cong):
    """One assertion per kind of verify_routing violation: verify-length
    fails only on length, verify-congestion only on congestion, and
    verify-demand on every other kind (endpoints, missing-edge,
    pair-total, unrequested-pair), so the three hold iff vr.ok."""
    kinds = [v[0] for v in vr.violations]
    demand = sum(1 for kind in kinds if kind not in ("length", "congestion"))
    rep.check("verify-length", max_len, vr.worst_length, "length" not in kinds)
    rep.check("verify-congestion", max_cong, vr.worst_congestion,
              "congestion" not in kinds)
    rep.check("verify-demand", 0, demand, not demand)


def _prune_trace(path, s):
    """Parse a prune trace for pruned router s and check it whole before
    any of it is applied: a PHASE past the preset's phases, or a DEL of
    a pair that is no bundle of the template, exits 2 naming its line."""
    phases = parse_trace(path, PRUNE_OPS, s.cfg.phases)
    for ops in phases:
        for _tag, u, v, _count, no in ops:
            if s.t.superedge_level(u, v) is None:
                raise CliError("(%r,%r) is not a bundle" % (u, v), path, no)
    return phases


def _apply_prune_trace(s, phases, rep=None):
    """Run a parsed trace against a pruned router, checking proper
    pruning after every single deletion."""
    bad = 0
    deletes = 0
    for pi, ops in enumerate(phases):
        if pi > 0:
            s.begin_phase()
        for _tag, u, v, count, _no in ops:
            for _ in range(count):
                s.delete_edge(u, v)
                deletes += 1
                if not s.is_properly_pruned():
                    bad += 1
    if rep is not None:
        rep.check("properly-pruned-after-every-delete", 0, bad, bad == 0)
        rep.extra["deletions"] = deletes
        rep.extra["phase_stats"] = [s.phase_stats(t)
                                    for t in range(s.tau + 1)]
    return s


def cmd_build_router(args):
    rep = Report(args)
    t = build(args.N, args.k, args.delta)
    nv = t.num_vertices()
    centers = args.N ** (args.k - 1)      # ids with lowest base-N digit 0
    edges = t.num_edges()
    # observed from the bundles themselves: Delta copies at both ends
    deg = {}
    for i in range(1, args.k + 1):
        for bundle in t.superedges(i):
            for v in bundle:
                deg[v] = deg.get(v, 0) + args.delta
    rep.check("num-vertices", args.N ** args.k, len(deg),
              len(deg) == args.N ** args.k)
    for name, bound, center in (("center-degree", t.center_degree(), True),
                                ("leaf-degree", t.leaf_degree(), False)):
        seen = sorted({deg.get(v, 0) for v in t.vertices()
                       if t.is_center(v) == center})
        rep.check(name, bound, seen[0] if len(seen) == 1 else seen,
                  seen == [bound])
    rep.extra["centers"] = centers
    rep.extra["edges"] = edges
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"N": args.N, "k": args.k, "delta": args.delta,
                       "vertices": nv, "edges": edges}, f, sort_keys=True)
            f.write("\n")
    return rep.emit()


def cmd_prune(args):
    t = load_template(args.template)
    rep = Report(args)
    s = new_pruned(t, PruningConfig.preset(args.preset, t.k))
    phases = _prune_trace(args.trace, s) if args.trace else [[]]
    _apply_prune_trace(s, phases, rep)
    final = s.is_properly_pruned()
    rep.check("properly-pruned-final", True, bool(final), bool(final))
    return rep.emit()


def cmd_route(args):
    t = load_template(args.template)
    rep = Report(args)
    s = new_pruned(t, PruningConfig.preset(args.preset, t.k))
    if args.trace:
        _apply_prune_trace(s, _prune_trace(args.trace, s))
    d = parse_demand(args.demand)
    rep.extra["pairs"] = len(d)
    r = route_demand(s, d)
    max_len = 20 * t.k * t.k
    vr = verify_routing(s.current_graph(), d, r, max_len, Fraction(1))
    _check_verify(rep, vr, max_len, "1")
    if d.is_integral():
        rep.check("integral-flow", True, r.is_integral(), r.is_integral())
    return rep.emit()


def _check_cluster_phase(cs, ops, path):
    """Check one phase of a cluster trace against the clustering as the
    phase starts: every DEACT names an active cluster, and every DEL an
    edge of one, deleted once in the phase.  A line that fails exits 2
    naming it."""
    deleted = set()
    for op in ops:
        if op[0] == "deact":
            c = cs.clusters.get(op[1])
            if c is None or not c.active:
                raise CliError("cluster %d is not active" % op[1], path, op[2])
            continue
        _tag, u, v, _count, no = op
        c = cs.find_cluster_of_edge(u, v)
        if c is None or not c.active:
            raise CliError("(%d,%d) is no edge of an active cluster" % (u, v),
                           path, no)
        if _key(u, v) in deleted:
            raise CliError("(%d,%d) is deleted twice in one phase" % (u, v),
                           path, no)
        deleted.add(_key(u, v))


def cmd_cluster(args):
    g = parse_graph(args.graph)
    rep = Report(args)
    cs = init_clustering(g, args.k)
    phases = parse_trace(args.trace, CLUSTER_OPS) if args.trace else [[]]
    bad = []
    for ops in phases:
        _check_cluster_phase(cs, ops, args.trace)
        dels = [op[1:3] for op in ops if op[0] == "del"]
        deact = [op[1] for op in ops if op[0] == "deact"]
        cs.run_phase(dels, deact)
        bad.extend(cs.check_valid())
    rep.check("valid-after-every-phase", 0, len(bad), not bad)
    total = cs.total_n_v()
    n, k = cs.n, cs.k
    ok = total ** k <= (2 ** k) * n ** (k + 1)
    rep.check("lifetime-counter-budget", "2*n^(1+1/k)", total, ok)
    rep.extra["clusters"] = len(cs.active_clusters())
    return rep.emit()


def _pipeline_cfg(args):
    return PipelineConfig(args.k, args.delta, args.delta_star,
                          d_cap=args.d_cap, template_n=args.template_n,
                          batch_bound=args.batch_bound, preset=args.preset)


def _build_rd(args, rep, g):
    rd = build_decomposition(g, _pipeline_cfg(args))
    rep.extra["clusters"] = len(rd.clusters)
    rep.extra["e_del"] = len(rd.e_del)
    rep.extra["e_del_causes"] = rd.report.cause_counts()
    rep.extra["degraded"] = rd.report.degraded
    bad = rd.check_valid()
    rep.check("decomposition-valid", 0, len(bad), not bad)
    return rd


def cmd_decompose(args):
    rep = Report(args)
    rd = _build_rd(args, rep, parse_graph(args.graph))
    rep.extra["cluster_sizes"] = [len(c.graph.vertices)
                                  for c in rd.clusters]
    return rep.emit()


def cmd_batch(args):
    rep = Report(args)
    g = parse_graph(args.graph)
    phases = parse_trace(args.trace, BATCH_OPS)
    rd = _build_rd(args, rep, g)
    for ops in phases:
        dels = [(op[1], op[2]) for op in ops if op[0] == "del"]
        ins = [op[1:4] for op in ops if op[0] == "ins"]
        try:
            process_batch(rd, dels, ins)
        except AssertionError as e:
            # the decomposition is broken; later phases would build on it
            rep.check("valid-after-every-batch", 0, str(e), False)
            return rep.emit()
    rep.check("valid-after-every-batch", 0, 0, True)
    return rep.emit()


def cmd_spanner(args):
    rep = Report(args)
    rd = _build_rd(args, rep, parse_graph(args.graph))
    h = extract_spanner(rd)
    st, pair = stretch_check(rd.host, h)
    rep.extra["spanner_edges"] = h.num_edges()
    rep.check("stretch", rd.d_t, st, st <= rd.d_t)
    rep.extra["worst_pair"] = pair
    return rep.emit()


def cmd_lc_embed(args):
    rep = Report(args)
    rd = _build_rd(args, rep, parse_graph(args.graph))
    try:
        emb = lc_embed(rd, seed=args.seed)
        rep.check("embed-bounds", rd.d_t, {"d": emb.d, "eta": emb.eta}, True)
    except (AssertionError, RoutingError) as e:
        # a cluster that cannot route its demand fails the embedding,
        # on input that parsed and built: not a usage error
        rep.check("embed-bounds", rd.d_t, str(e), False)
    return rep.emit()


def cmd_fd_check(args):
    rep = Report(args)
    g = parse_graph(args.graph)
    faults = _parse_faults(args.faults, g)
    rd = _build_rd(args, rep, g)
    out = fd_spanner_check(rd, faults, args.k, seed=args.seed)
    rep.check("fd-detour", out["bound"], out["max_detour"], out["ok"])
    rep.extra["checked"] = out["checked"]
    return rep.emit()


def cmd_cert_check(args):
    rep = Report(args)
    g = parse_graph(args.graph)
    parse_graph(args.sub)                   # the sub's format, line by line
    h = MultiGraph.of(g.vertices, _copies_taken(args.sub, g, "subgraph edge",
                                                "u v [mult] [len]"))
    faults = _parse_faults(args.faults, g) if args.faults else FaultSet(g, [])
    ok = connectivity_certificate_check(g, h, faults)
    rep.check("components-agree", True, ok, ok)
    return rep.emit()


def cmd_verify(args):
    rep = Report(args)
    g = parse_graph(args.graph)
    d = parse_demand(args.demand)
    r = parse_routing(args.routing)
    vr = verify_routing(g, d, r, args.max_len, Fraction(args.max_cong))
    _check_verify(rep, vr, args.max_len, args.max_cong)
    rep.extra["violations"] = [v[:2] for v in vr.violations[:10]]
    return rep.emit()


def _copies_taken(path, g, what, usage):
    """{edge: copies} that the lines of path take of g's edges, in
    order of first use.  Each line reads as usage: a pair u v, a count
    (default 1), then any further fields usage names.  A line that does
    not, whose pair is no edge of g, or whose count, summed over the
    lines so far, passes the edge's multiplicity raises CliError naming
    the line."""
    taken = {}
    for no, tok in _lines(path):
        if not 2 <= len(tok) <= len(usage.split()):
            raise CliError("expected %r" % usage, path, no)
        try:
            u, v, c = map(int, (tok + ["1"])[:3])
        except ValueError:
            raise CliError("non-integer field", path, no)
        if c < 1:
            raise CliError("%s count %d is below 1" % (what, c), path, no)
        e = _key(u, v)
        m = g.superedges.get(e, 0)
        if not m:
            raise CliError("%s %r is not a graph edge" % (what, e), path, no)
        taken[e] = taken.get(e, 0) + c
        if taken[e] > m:
            raise CliError("%s count on %r reaches %d, above its "
                           "multiplicity %d" % (what, e, taken[e], m),
                           path, no)
    return taken


def _parse_faults(path, g):
    return FaultSet(g, [(u, v, c) for (u, v), c in
                        _copies_taken(path, g, "fault", "u v [count]").items()])


def _add_decomp_opts(p):
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--delta", type=int, default=4)
    p.add_argument("--delta-star", dest="delta_star", type=int, default=16)
    p.add_argument("--d-cap", dest="d_cap", type=int, default=None)
    p.add_argument("--template-n", dest="template_n", type=int, default=None)
    p.add_argument("--batch-bound", dest="batch_bound", type=int,
                   default=None)


def make_parser():
    ap = argparse.ArgumentParser(prog="routerlab")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", default=None, help="write the report here")
    sub = ap.add_subparsers(dest="command", required=True)
    # the commands that prune a router read its budgets from --preset
    preset = argparse.ArgumentParser(add_help=False)
    preset.add_argument("--preset", choices=["paper", "relaxed"],
                        default="relaxed")

    p = sub.add_parser("build-router")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_build_router)

    p = sub.add_parser("prune", parents=[preset])
    p.add_argument("--template", required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("route", parents=[preset])
    p.add_argument("--template", required=True)
    p.add_argument("--demand", required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(fn=cmd_route)

    p = sub.add_parser("cluster")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("decompose", parents=[preset])
    _add_decomp_opts(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("batch", parents=[preset])
    _add_decomp_opts(p)
    p.add_argument("--trace", required=True)
    p.set_defaults(fn=cmd_batch)

    p = sub.add_parser("spanner", parents=[preset])
    _add_decomp_opts(p)
    p.set_defaults(fn=cmd_spanner)

    p = sub.add_parser("lc-embed", parents=[preset])
    _add_decomp_opts(p)
    p.set_defaults(fn=cmd_lc_embed)

    p = sub.add_parser("fd-check", parents=[preset])
    _add_decomp_opts(p)
    p.add_argument("--faults", required=True)
    p.set_defaults(fn=cmd_fd_check)

    p = sub.add_parser("cert-check")
    p.add_argument("--graph", required=True)
    p.add_argument("--sub", required=True)
    p.add_argument("--faults", default=None)
    p.set_defaults(fn=cmd_cert_check)

    p = sub.add_parser("verify")
    p.add_argument("--graph", required=True)
    p.add_argument("--routing", required=True)
    p.add_argument("--demand", required=True)
    p.add_argument("--max-len", dest="max_len", type=int, required=True)
    p.add_argument("--max-cong", dest="max_cong", required=True)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None):
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (CliError, ValueError, KeyError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
