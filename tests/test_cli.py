import json
import math
import os
import random
import re
import shlex
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from routerlab import cli, router_template
from routerlab.cli import main
from routerlab.pruning import PruningConfig
from routerlab.router_template import build, realize


@pytest.fixture
def host_file(tmp_path):
    g = realize(build(3, 4, 4))
    p = tmp_path / "host.graph"
    lines = ["# realized recursive star host"]
    for (u, v), m in sorted(g.superedges.items()):
        lines.append("%d %d %d" % (u, v, m))
    p.write_text("\n".join(lines) + "\n")
    return str(p)


DECOMP_OPTS = ["--k", "2", "--delta", "4", "--delta-star", "16",
               "--d-cap", "2", "--template-n", "3", "--batch-bound", "6"]


def decomp_argv(cmd, host, *extra, json_out=None):
    argv = []
    if json_out:
        argv += ["--json", json_out]
    argv += [cmd, "--graph", host] + DECOMP_OPTS + list(extra)
    return argv


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_build_router_manifest(tmp_path, capsys):
    man = tmp_path / "router.json"
    rc, doc = run_json(capsys, ["build-router", "--N", "4", "--k", "2",
                                "--delta", "3", "--out", str(man)])
    assert rc == 0
    assert doc["command"] == "build-router"
    assert doc["params"] == {"N": 4, "k": 2, "delta": 3, "out": str(man),
                             "seed": 0}
    assert all(a["ok"] for a in doc["assertions"])
    saved = json.loads(man.read_text())
    assert saved == {"N": 4, "k": 2, "delta": 3, "vertices": 16, "edges": 72}


@pytest.mark.parametrize("N,k", [(2, 1), (3, 3), (4, 2), (5, 4)])
def test_build_router_counts_centers(capsys, N, k):
    """The closed-form center count equals the per-vertex count."""
    rc, doc = run_json(capsys, ["build-router", "--N", str(N), "--k", str(k),
                                "--delta", "2"])
    t = build(N, k, 2)
    assert rc == 0
    assert doc["centers"] == sum(1 for v in t.vertices() if t.is_center(v))


def test_build_router_degrees_come_from_the_bundles(monkeypatch, capsys):
    """Tables that send leaf 1's level-1 bundle to the next star's center
    give the two centers different degrees, and the check fails."""
    real = router_template._tables

    def corrupt(N, k):
        tables = real(N, k)
        lc = list(tables.levels[1].level_center)
        lc[1] = N
        levels = list(tables.levels)
        levels[1] = levels[1]._replace(level_center=tuple(lc))
        return tables._replace(levels=tuple(levels))

    monkeypatch.setattr(router_template, "_tables", corrupt)
    rc, doc = run_json(capsys, ["build-router", "--N", "4", "--k", "2",
                                "--delta", "3"])
    assert rc == 1
    failed = {a["name"]: a["observed"] for a in doc["assertions"]
              if not a["ok"]}
    assert failed == {"center-degree": [15, 18, 21]}


def test_prune_with_trace(tmp_path, capsys):
    man = tmp_path / "router.json"
    assert main(["build-router", "--N", "4", "--k", "2", "--delta", "32",
                 "--out", str(man)]) == 0
    capsys.readouterr()
    tr = tmp_path / "trace.txt"
    tr.write_text("DEL 1 0 2\nPHASE 1\nDEL 2 0\n")
    rc, doc = run_json(capsys, ["prune", "--template", str(man),
                                "--trace", str(tr)])
    assert rc == 0
    assert doc["deletions"] == 3
    assert len(doc["phase_stats"]) == 2
    assert all(a["ok"] for a in doc["assertions"])


@pytest.mark.parametrize("u,v", [(-1, 0), (1000, 0), (-1, 12), (0, 0)])
def test_prune_rejects_non_bundles(tmp_path, capsys, u, v):
    """Ids outside the template and a center paired with itself."""
    man = tmp_path / "router.json"
    assert main(["build-router", "--N", "4", "--k", "2", "--delta", "8",
                 "--out", str(man)]) == 0
    capsys.readouterr()
    tr = tmp_path / "trace.txt"
    tr.write_text("DEL %d %d\n" % (u, v))
    assert main(["prune", "--template", str(man), "--trace", str(tr)]) == 2
    err = capsys.readouterr().err
    assert err == "error: %s:1: (%d,%d) is not a bundle\n" % (tr, u, v)


def test_route_empty_demand_ok(tmp_path, capsys):
    man = tmp_path / "router.json"
    main(["build-router", "--N", "4", "--k", "2", "--delta", "3",
          "--out", str(man)])
    capsys.readouterr()
    dm = tmp_path / "demand.txt"
    dm.write_text("# nothing to route\n")
    rc, doc = run_json(capsys, ["route", "--template", str(man),
                                "--demand", str(dm)])
    assert rc == 0
    assert doc["pairs"] == 0
    # checked under the same names as a non-empty demand; an empty
    # demand is integral, so integral-flow is reported too
    assert [a["name"] for a in doc["assertions"]] == [
        "verify-length", "verify-congestion", "verify-demand",
        "integral-flow"]
    assert all(a["ok"] for a in doc["assertions"])


def test_route_small_demand(tmp_path, capsys):
    man = tmp_path / "router.json"
    main(["build-router", "--N", "4", "--k", "2", "--delta", "4096",
          "--out", str(man)])
    capsys.readouterr()
    dm = tmp_path / "demand.txt"
    dm.write_text("1 2 1\n5 6 1/2\n")
    rc, doc = run_json(capsys, ["route", "--template", str(man),
                                "--demand", str(dm)])
    assert rc == 0
    assert doc["pairs"] == 2
    assert all(a["ok"] for a in doc["assertions"])


def test_route_over_cap_is_usage_error(tmp_path, capsys):
    man = tmp_path / "router.json"
    main(["build-router", "--N", "4", "--k", "2", "--delta", "3",
          "--out", str(man)])
    capsys.readouterr()
    dm = tmp_path / "demand.txt"
    dm.write_text("1 2 1\n")
    assert main(["route", "--template", str(man), "--demand", str(dm)]) == 2


def test_cluster_command(tmp_path, capsys):
    p = tmp_path / "g.graph"
    p.write_text("".join("%d %d\n" % (i, i + 1) for i in range(60)))
    tr = tmp_path / "trace.txt"
    tr.write_text("DEL 10 11\nPHASE 1\nDEL 40 41\n")
    rc, doc = run_json(capsys, ["cluster", "--graph", str(p), "--k", "2",
                                "--trace", str(tr)])
    assert rc == 0
    assert all(a["ok"] for a in doc["assertions"])


def test_decompose_and_spanner(host_file, capsys):
    rc, doc = run_json(capsys, decomp_argv("decompose", host_file))
    assert rc == 0
    assert doc["clusters"] == 1 and doc["e_del"] == 0

    rc2, doc2 = run_json(capsys, decomp_argv("spanner", host_file))
    assert rc2 == 0
    st = next(a for a in doc2["assertions"] if a["name"] == "stretch")
    assert st["ok"] and st["observed"] <= st["bound"]


def test_batch_command_with_insert(host_file, tmp_path, capsys):
    tr = tmp_path / "batch.txt"
    tr.write_text("DEL 1 0\nPHASE 1\nINS 0 200 1\n")
    rc, doc = run_json(capsys, decomp_argv("batch", host_file,
                                           "--trace", str(tr)))
    assert rc == 0
    assert all(a["ok"] for a in doc["assertions"])


def test_lc_embed_and_fd_check(host_file, tmp_path, capsys):
    rc, doc = run_json(capsys, decomp_argv("lc-embed", host_file))
    assert rc == 0
    fl = tmp_path / "faults.txt"
    fl.write_text("1 0 1\n")
    rc2, doc2 = run_json(capsys, decomp_argv("fd-check", host_file,
                                             "--faults", str(fl)))
    assert rc2 == 0
    assert all(a["ok"] for a in doc2["assertions"])


@pytest.mark.parametrize("delta", ["4", "3"])
def test_lc_embed_on_two_k25_routes(tmp_path, capsys, delta):
    """Two disjoint K25 under the default template size: a 25-vertex
    cluster would get N = 2, which cannot route, so it is not
    witnessed and lc-embed passes."""
    g = tmp_path / "k25x2.graph"
    g.write_text("".join("%d %d\n" % (off + a, off + b)
                         for off in (1000, 1100)
                         for a in range(25) for b in range(a + 1, 25)))
    rc, doc = run_json(capsys, ["lc-embed", "--graph", str(g), "--k", "2",
                                "--delta", delta, "--delta-star", "16"])
    assert rc == 0
    assert all(a["ok"] for a in doc["assertions"])


def test_lc_embed_routing_failure_fails_assertion(host_file, tmp_path,
                                                  monkeypatch, capsys):
    """A cluster that cannot route is a failed embed-bounds assertion:
    the report is written and the command exits 1, not 2."""
    from routerlab import spanner
    from routerlab.routing import RoutingError

    def failing(sp, w, demand):
        raise RoutingError("admissibility violated for pair (1, 9)")

    monkeypatch.setattr(spanner, "sparsified_route", failing)
    out = tmp_path / "report.json"
    assert main(decomp_argv("lc-embed", host_file, json_out=str(out))) == 1
    doc = json.loads(out.read_text())
    check = next(a for a in doc["assertions"] if a["name"] == "embed-bounds")
    assert not check["ok"]
    assert check["observed"] == "admissibility violated for pair (1, 9)"


def test_cert_check(tmp_path, capsys):
    g = tmp_path / "g.graph"
    g.write_text("0 1\n1 2\n0 2\n2 3\n")
    sub = tmp_path / "h.graph"
    sub.write_text("0 1\n1 2\n0 2\n2 3\n")
    rc, doc = run_json(capsys, ["cert-check", "--graph", str(g),
                                "--sub", str(sub)])
    assert rc == 0
    # dropping the bridge from the subgraph breaks the certificate
    sub.write_text("0 1\n1 2\n0 2\n")
    rc2, _doc2 = run_json(capsys, ["cert-check", "--graph", str(g),
                                   "--sub", str(sub)])
    assert rc2 == 1


@pytest.mark.parametrize("count", ["0", "-3"])
def test_fault_count_below_one_is_usage_error(host_file, tmp_path, capsys,
                                              count):
    fl = tmp_path / "faults.txt"
    fl.write_text("# one bad count\n0 1 %s\n" % count)
    where = "%s:2: fault count %s is below 1" % (fl, count)
    assert main(decomp_argv("fd-check", host_file, "--faults", str(fl))) == 2
    assert where in capsys.readouterr().err
    assert main(["cert-check", "--graph", host_file, "--sub", host_file,
                 "--faults", str(fl)]) == 2
    assert where in capsys.readouterr().err


def test_cert_check_rejects_a_sub_that_is_no_subgraph(tmp_path, capsys):
    """A sub line whose pair is no graph edge, or whose copies summed
    over the lines so far pass the graph's multiplicity, exits 2 at
    that line; a subgraph that misses a connection still exits 1."""
    g = tmp_path / "g.graph"
    g.write_text("0 1\n1 2\n")
    sub = tmp_path / "h.graph"
    sub.write_text("0 1\n1 2\n0 2\n")
    argv = ["cert-check", "--graph", str(g), "--sub", str(sub)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: %s:3: subgraph edge (0, 2) is not a graph edge\n" % sub)
    sub.write_text("# one copy too many\n1 0\n0 1\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: %s:3: subgraph edge count on (0, 1) reaches 2, above its "
        "multiplicity 1\n" % sub)
    sub.write_text("0 1\n")
    assert main(argv) == 1


@pytest.mark.parametrize("text,msg", [
    ("0 1\n5 6\n", ":2: fault (5, 6) is not a graph edge"),
    ("1 0 2\n", ":1: fault count on (0, 1) reaches 2, above its "
     "multiplicity 1"),
    ("0 1\n1 2\n1 0\n", ":3: fault count on (0, 1) reaches 2, above its "
     "multiplicity 1"),
], ids=["not-an-edge", "count", "running-count"])
def test_fault_lines_off_the_graph_name_their_line(tmp_path, capsys, text,
                                                   msg):
    g = tmp_path / "g.graph"
    g.write_text("0 1\n1 2 2\n")
    fl = tmp_path / "faults.txt"
    fl.write_text(text)
    assert main(["cert-check", "--graph", str(g), "--sub", str(g),
                 "--faults", str(fl)]) == 2
    assert capsys.readouterr().err == "error: %s%s\n" % (fl, msg)


def test_fd_check_fault_off_the_host_names_its_line(host_file, tmp_path,
                                                    capsys):
    g = realize(build(3, 4, 4))
    u, v = next((u, v) for u in sorted(g.vertices)
                for v in sorted(g.vertices) if u < v and not g.has_edge(u, v))
    fl = tmp_path / "faults.txt"
    fl.write_text("# off the host\n%d %d\n" % (u, v))
    assert main(decomp_argv("fd-check", host_file, "--faults", str(fl))) == 2
    assert capsys.readouterr().err == (
        "error: %s:2: fault (%d, %d) is not a graph edge\n" % (fl, u, v))


@pytest.mark.parametrize("text,where,msg", [
    ('{"N": 4, "k": 2}', "", "bad template file: no field 'delta'"),
    ('{"N": 4,\n "k": 2,\n "delta": }', ":3", "bad template file: "
     "Expecting value"),
    ('{"N": 4,\r "k": 2,\r "delta": }', ":3", "bad template file: "
     "Expecting value"),
    ('[4, 2, 8]', "", "bad template file: list indices must be integers"),
    ('{"N": 1, "k": 2, "delta": 8}', "", "bad template file: "),
], ids=["missing-key", "decode", "decode-lone-cr", "not-an-object",
        "bad-shape"])
def test_bad_template_names_the_file(tmp_path, capsys, text, where, msg):
    man = tmp_path / "router.json"
    man.write_bytes(text.encode("utf-8"))           # line ends as given
    tr = tmp_path / "trace.txt"
    tr.write_text("DEL 1 0\n")
    assert main(["prune", "--template", str(man), "--trace", str(tr)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: %s%s: %s" % (man, where, msg))


@pytest.mark.parametrize("text,where,msg", [
    ('{"paths": [{"path": [0, 1], "pair": [0, 1]}]}', "",
     "bad routing entry: no field 'value'"),
    ('{"paths": [{"path": [0, 1], "pair": [0, 1], "value": "1/0"}]}', "",
     "bad routing entry: "),
    ('{"paths":\n [,]}', ":2", "bad routing file: Expecting value"),
    ('{"paths": [{"path": [0, 1], "pair": [0, 1], "value": 1e999}]}', "",
     "bad routing entry: value inf is not finite"),
    ('{"paths": [{"path": [0, 1], "pair": [0, 1], "value": -Infinity}]}',
     "", "bad routing entry: value -inf is not finite"),
    ('{"paths": [{"path": [0, 1], "pair": [0, 1], "value": NaN}]}', "",
     "bad routing entry: value nan is not finite"),
    ('{"paths": [{"path": [0, 1], "pair": [0, 1], "value": "1e99999"}]}',
     "", "bad routing entry: value '1e99999' has an exponent of over 4 "
     "digits"),
], ids=["missing-key", "zero-denominator", "decode", "overflowing-number",
        "infinity", "nan", "long-exponent"])
def test_bad_routing_names_the_file(tmp_path, capsys, text, where, msg):
    g = tmp_path / "g.graph"
    g.write_text("0 1\n")
    dm = tmp_path / "d.txt"
    dm.write_text("0 1 1\n")
    rt = tmp_path / "r.json"
    rt.write_text(text)
    assert main(["verify", "--graph", str(g), "--routing", str(rt),
                 "--demand", str(dm), "--max-len", "1",
                 "--max-cong", "1"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: %s%s: %s" % (rt, where, msg))


@pytest.mark.parametrize("cmd,line,msg", [
    ("prune", "DEL 1 0 0", "deletion count 0 is below 1"),
    ("prune", "DEL 2 0 -5", "deletion count -5 is below 1"),
    ("batch", "DEL 1 0 0", "deletion count 0 is below 1"),
    ("batch", "DEL 1 0 -2", "deletion count -2 is below 1"),
    ("batch", "INS 0 9 0", "insertion mult and len must be at least 1"),
    ("batch", "INS 0 9 1 0", "insertion mult and len must be at least 1"),
    ("batch", "INS 0 9 -2 1", "insertion mult and len must be at least 1"),
    ("batch", "INS -1 2", "insertion endpoints must be non-negative"),
    ("batch", "INS 3 -2 1", "insertion endpoints must be non-negative"),
    ("batch", "INS 3 3", "self loops are not allowed"),
])
def test_trace_count_below_one_is_usage_error(host_file, tmp_path, capsys,
                                              cmd, line, msg):
    tr = tmp_path / "trace.txt"
    tr.write_text("# one bad count\n%s\n" % line)
    if cmd == "prune":
        man = tmp_path / "router.json"
        assert main(["build-router", "--N", "4", "--k", "2", "--delta", "32",
                     "--out", str(man)]) == 0
        capsys.readouterr()
        argv = ["prune", "--template", str(man), "--trace", str(tr)]
    else:
        argv = decomp_argv("batch", host_file, "--trace", str(tr))
    assert main(argv) == 2
    assert "%s:2: %s" % (tr, msg) in capsys.readouterr().err


def _router_manifest(tmp_path, capsys, delta):
    man = tmp_path / "router.json"
    assert main(["build-router", "--N", "4", "--k", "2", "--delta",
                 str(delta), "--out", str(man)]) == 0
    capsys.readouterr()
    return str(man)


@pytest.mark.parametrize("cmd,line,msg", [
    ("prune", "DEACT 0", "trace op 'DEACT' is not valid here "
                         "(valid: DEL, PHASE)"),
    ("prune", "INS 0 9", "trace op 'INS' is not valid here "
                         "(valid: DEL, PHASE)"),
    ("prune", "MOVE 1 0", "trace op 'MOVE' is not valid here"),
    ("route", "DEACT 0", "trace op 'DEACT' is not valid here "
                         "(valid: DEL, PHASE)"),
    ("cluster", "INS 0 9", "trace op 'INS' is not valid here "
                           "(valid: DEACT, DEL, PHASE)"),
    ("cluster", "DEL 1 0 2", "deletion count 2: this command deletes "
                             "whole edges"),
    ("batch", "DEACT 0", "trace op 'DEACT' is not valid here "
                         "(valid: DEL, INS, PHASE)"),
    ("batch", "DEL 1 0 7", "deletion count 7: this command deletes "
                           "whole edges"),
], ids=["prune-deact", "prune-ins", "prune-unknown", "route-deact",
        "cluster-ins", "cluster-count", "batch-deact", "batch-count"])
def test_trace_ops_are_checked_per_command(host_file, tmp_path, capsys,
                                           cmd, line, msg):
    """Each command reads only its own trace ops, and only pruning reads
    a DEL count; anything else exits 2 naming the file and line."""
    tr = tmp_path / "trace.txt"
    tr.write_text("DEL 1 0\nPHASE 1\n%s\n" % line)
    if cmd in ("prune", "route"):
        man = _router_manifest(tmp_path, capsys, 4096)
        dm = tmp_path / "demand.txt"
        dm.write_text("1 2 1\n")
        argv = [cmd, "--template", man, "--trace", str(tr)]
        if cmd == "route":
            argv += ["--demand", str(dm)]
    elif cmd == "cluster":
        argv = ["cluster", "--graph", host_file, "--k", "2",
                "--trace", str(tr)]
    else:
        argv = decomp_argv("batch", host_file, "--trace", str(tr))
    assert main(argv) == 2
    assert "%s:3: %s" % (tr, msg) in capsys.readouterr().err


@pytest.mark.parametrize("cmd,trace,line,msg", [
    ("cluster", "DEL 1 0\nDEACT 7\n", 2, "cluster 7 is not active"),
    ("cluster", "DEL 0 40\n", 1, "(0,40) is no edge of an active cluster"),
    ("cluster", "DEL 1 0\nPHASE 1\nDEL 2 0\nDEL 0 2\n", 4,
     "(0,2) is deleted twice in one phase"),
    ("prune", "PHASE 1\nPHASE 2\nPHASE 3\nDEL 1 0\nPHASE 4\n", 5,
     "PHASE 4 is past the preset's last phase, 3"),
    ("prune", "DEL 1 0\nDEL 24 0\n", 2, "(24,0) is not a bundle"),
], ids=["cluster-deact-unknown", "cluster-del-non-edge", "cluster-del-twice",
        "prune-phases-exhausted", "prune-del-non-bundle"])
def test_trace_errors_name_their_line(tmp_path, capsys, cmd, trace, line,
                                      msg):
    """Trace lines that name nothing, or a phase the preset does not
    have, exit 2 naming the file and line before anything is applied:
    cluster on the golden host, prune on build(3, 3, 9), whose presets
    have four phases."""
    tr = tmp_path / "trace.txt"
    tr.write_text(trace)
    if cmd == "cluster":
        argv = ["cluster", "--graph", os.path.join(DATA, "golden_host.graph"),
                "--k", "2", "--trace", str(tr)]
    else:
        man = tmp_path / "router.json"
        assert main(["build-router", "--N", "3", "--k", "3", "--delta", "9",
                     "--out", str(man)]) == 0
        argv = ["prune", "--template", str(man), "--trace", str(tr)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: %s:%d: %s\n" % (tr, line, msg)


def test_route_with_trace(tmp_path, capsys):
    """route applies its trace before routing.  A few deletions leave
    the demand routable; deleting every copy of leaf 1's level-1 bundle
    takes 1 out of V(W), and the demand from 1 is a usage error."""
    man = _router_manifest(tmp_path, capsys, 4096)
    dm = tmp_path / "demand.txt"
    dm.write_text("1 2 1\n5 6 1/2\n")
    tr = tmp_path / "trace.txt"
    tr.write_text("DEL 1 0 2\nPHASE 1\nDEL 2 0\n")
    argv = ["route", "--template", man, "--demand", str(dm),
            "--trace", str(tr)]
    rc, doc = run_json(capsys, argv)
    assert rc == 0
    assert doc["params"]["trace"] == str(tr) and doc["pairs"] == 2
    assert all(a["ok"] for a in doc["assertions"])
    tr.write_text("DEL 1 0 4096\n")
    assert main(argv) == 2
    assert "support vertex 1 not in V(W)" in capsys.readouterr().err


def test_cluster_trace_deactivates(tmp_path, capsys):
    """A DEACT line deactivates the golden host's one cluster."""
    argv = ["cluster", "--graph", os.path.join(DATA, "golden_host.graph"),
            "--k", "2"]
    rc, doc = run_json(capsys, argv)
    assert rc == 0 and doc["clusters"] == 1
    tr = tmp_path / "trace.txt"
    tr.write_text("DEACT 0\n")
    rc, doc = run_json(capsys, argv + ["--trace", str(tr)])
    assert rc == 0 and doc["clusters"] == 0
    assert all(a["ok"] for a in doc["assertions"])


def test_reports_are_strict_json(monkeypatch, capsys):
    """An infinite stretch is reported as the string "inf": the report
    has no bare Infinity or NaN, which JSON does not allow."""
    from routerlab import cli
    monkeypatch.setattr(cli, "stretch_check", lambda g, h: (math.inf, (0, 1)))
    argv = ["spanner", "--graph", os.path.join(DATA, "golden_host.graph"),
            "--k", "2", "--delta", "4", "--delta-star", "16", "--d-cap", "2",
            "--template-n", "3"]
    assert main(argv) == 1
    text = capsys.readouterr().out

    def reject(name):
        raise ValueError("non-standard JSON constant %s" % name)

    doc = json.loads(text, parse_constant=reject)
    stretch = next(a for a in doc["assertions"] if a["name"] == "stretch")
    assert stretch["observed"] == "inf" and not stretch["ok"]
    assert doc["worst_pair"] == [0, 1]


def test_verify_command_exit_codes(tmp_path, capsys):
    g = tmp_path / "g.graph"
    g.write_text("0 1\n1 2\n0 2\n")
    dm = tmp_path / "d.txt"
    dm.write_text("0 2 1\n")
    rt = tmp_path / "r.json"
    rt.write_text(json.dumps(
        {"paths": [{"path": [0, 1, 2], "pair": [0, 2], "value": "1"}]}))
    assert main(["verify", "--graph", str(g), "--routing", str(rt),
                 "--demand", str(dm), "--max-len", "2",
                 "--max-cong", "1"]) == 0
    capsys.readouterr()
    assert main(["verify", "--graph", str(g), "--routing", str(rt),
                 "--demand", str(dm), "--max-len", "1",
                 "--max-cong", "1"]) == 1


def test_verify_assertions_name_the_failed_check(tmp_path, capsys):
    g = tmp_path / "g.graph"
    g.write_text("0 1\n1 2\n0 2\n")
    dm = tmp_path / "d.txt"
    dm.write_text("0 2 1\n")
    rt = tmp_path / "r.json"

    def verify(value, max_len, max_cong):
        rt.write_text(json.dumps(
            {"paths": [{"path": [0, 1, 2], "pair": [0, 2], "value": value}]}))
        rc, doc = run_json(capsys, [
            "verify", "--graph", str(g), "--routing", str(rt),
            "--demand", str(dm), "--max-len", max_len, "--max-cong", max_cong])
        return rc, {a["name"]: a for a in doc["assertions"]}

    rc, checks = verify("1", "1", "5")
    assert rc == 1
    assert not checks["verify-length"]["ok"]
    assert checks["verify-congestion"]["ok"]
    assert checks["verify-congestion"]["observed"] == "1"
    assert checks["verify-demand"]["ok"]

    rc, checks = verify("1", "2", "1/2")
    assert rc == 1
    assert checks["verify-length"]["ok"]
    assert not checks["verify-congestion"]["ok"]
    assert checks["verify-demand"]["ok"]

    rc, checks = verify("1/2", "2", "1")
    assert rc == 1
    assert checks["verify-length"]["ok"] and checks["verify-congestion"]["ok"]
    assert not checks["verify-demand"]["ok"]
    assert checks["verify-demand"]["observed"] == 1

    rc, checks = verify("1", "2", "1")
    assert rc == 0
    assert all(a["ok"] for a in checks.values())


def test_bad_files_are_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("0 0\n")
    assert main(["cluster", "--graph", str(bad), "--k", "2"]) == 2
    bad.write_text("0 x\n")
    assert main(["cluster", "--graph", str(bad), "--k", "2"]) == 2
    assert main(["cluster", "--graph", str(tmp_path / "missing"),
                 "--k", "2"]) == 2
    assert main(["no-such-command"]) == 2


def test_trace_phase_numbers_must_be_sequential(tmp_path, capsys):
    man = tmp_path / "router.json"
    main(["build-router", "--N", "4", "--k", "2", "--delta", "32",
          "--out", str(man)])
    capsys.readouterr()
    tr = tmp_path / "trace.txt"
    tr.write_text("PHASE 2\nDEL 1 0\n")
    assert main(["prune", "--template", str(man), "--trace", str(tr)]) == 2


def strip_timings(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    doc.pop("timings_ms", None)
    return json.dumps(doc, sort_keys=True)


def test_reports_deterministic(host_file, tmp_path, capsys):
    outs = []
    for i in (1, 2):
        out = str(tmp_path / ("rep%d.json" % i))
        argv = ["--seed", "5"] + decomp_argv("lc-embed", host_file,
                                             json_out=out)
        rc = main(argv)
        assert rc == 0
        outs.append(strip_timings(out))
    assert outs[0] == outs[1]


COMMANDS = ["build-router", "prune", "route", "cluster", "decompose", "batch",
            "spanner", "lc-embed", "fd-check", "cert-check", "verify"]
PRUNING = ["prune", "route", "decompose", "batch", "spanner", "lc-embed",
           "fd-check"]
README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
DATA = os.path.join(os.path.dirname(__file__), "data")


def readme_commands():
    """Every routerlab command in README.md's sh blocks, `\\` line
    continuations joined, as an argv without the program name."""
    with open(README, encoding="utf-8") as f:
        blocks = re.findall(r"```sh\n(.*?)```", f.read(), re.S)
    out = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            for prog in ("routerlab", "routerlab.cli"):     # or python -m
                if prog in words:
                    out.append(words[words.index(prog) + 1:])
    return out


def readme_command(cmd):
    """The README's first example of one CLI command, as an argv."""
    for argv in readme_commands():
        if argv[0] == cmd:
            return argv
    raise AssertionError("README shows no %s example" % cmd)


def test_readme_commands_parse():
    """Every documented command line parses, so the README cannot keep
    an option the parser has dropped; and every command is shown."""
    ap = cli.make_parser()
    shown = set()
    for argv in readme_commands():
        try:
            shown.add(ap.parse_args(argv).command)
        except SystemExit:
            pytest.fail("README line does not parse: routerlab %s"
                        % " ".join(argv))
    assert shown == set(COMMANDS)


def _readme_argv(cmd, tmp_path):
    """The README's example of cmd, its file names mapped onto files
    it runs on: the golden host and faults, a one-deletion trace, an
    empty demand and the README's build-router template."""
    (tmp_path / "trace.txt").write_text("DEL 1 0\n")
    (tmp_path / "d.txt").write_text("# nothing to route\n")
    files = {"g.txt": os.path.join(DATA, "golden_host.graph"),
             "f.txt": os.path.join(DATA, "golden_faults.txt"),
             "batch.txt": str(tmp_path / "trace.txt"),
             "trace.txt": str(tmp_path / "trace.txt"),
             "d.txt": str(tmp_path / "d.txt"),
             "t.json": str(tmp_path / "t.json")}
    if cmd in ("prune", "route"):
        assert main([files.get(w, w)
                     for w in readme_command("build-router")]) == 0
    return [files.get(w, w) for w in readme_command(cmd)]


@pytest.mark.parametrize("argv", [
    ["--strict", "build-router", "--N", "4", "--k", "2", "--delta", "3"],
    ["build-router", "--N", "4", "--k", "2", "--delta", "3", "--strict"],
    ["--preset", "paper", "decompose", "--graph", "g.txt"],
], ids=["strict-global", "strict-build-router", "preset-global"])
def test_dropped_global_options_are_usage_errors(argv, capsys):
    assert main(argv) == 2


@pytest.mark.parametrize("cmd", sorted(set(COMMANDS) - set(PRUNING)))
def test_preset_is_a_usage_error_where_nothing_prunes(cmd, capsys):
    assert main(readme_command(cmd) + ["--preset", "paper"]) == 2
    assert "unrecognized arguments: --preset paper" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", PRUNING)
def test_preset_sets_the_budgets_of_every_pruned_router(cmd, tmp_path,
                                                        monkeypatch, capsys):
    """--preset is an option of the seven commands that prune a router,
    and every router they prune takes that preset's budgets."""
    argv = _readme_argv(cmd, tmp_path) + ["--preset", "paper"]
    capsys.readouterr()
    names = []
    real = PruningConfig.preset.__func__

    def spy(cls, name, k):
        names.append(name)
        return real(cls, name, k)

    monkeypatch.setattr(PruningConfig, "preset", classmethod(spy))
    rc, doc = run_json(capsys, argv)
    assert rc == 0
    assert doc["params"]["preset"] == "paper"
    assert names and set(names) == {"paper"}


@pytest.mark.parametrize("cmd", ["decompose", "batch", "spanner", "lc-embed",
                                 "fd-check"])
def test_readme_decompose_examples_run(cmd, tmp_path, capsys):
    """The documented decompose-family lines exit 0 on the golden host."""
    assert main(_readme_argv(cmd, tmp_path)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == cmd


@pytest.mark.parametrize("extra,rc,msg", [
    ([], 0, None),
    (["--delta-star", "3"], 2, "d_cap must be at least 1"),
    (["--d-cap", "0"], 2, "d_cap must be at least 1"),
    (["--delta", "0"], 2, "delta must be at least 1"),
    (["--template-n", "1"], 2, "template_n must be at least 3"),
    (["--template-n", "2"], 2, "template_n must be at least 3"),
    (["--batch-bound", "0"], 2, "batch_bound must be at least 1"),
    (["--batch-bound", "-3"], 2, "batch_bound must be at least 1"),
    (["--k", "0"], 2, "k must be at least 2"),
    (["--k", "1"], 2, "k must be at least 2"),
], ids=["defaults", "delta-star-below-2k2", "d-cap-0", "delta-0",
        "template-n-1", "template-n-2", "batch-bound-0",
        "batch-bound-negative", "k-0", "k-1"])
def test_decompose_defaults_agree(extra, rc, msg, capsys):
    """Without --d-cap, d_cap is the largest value --delta-star admits,
    so the default flags run; a d_cap, delta or batch bound below 1 and
    a template below 3 leaves per star are usage errors."""
    argv = ["decompose", "--graph", os.path.join(DATA, "golden_host.graph"),
            "--k", "2", "--delta", "4"] + extra
    assert main(argv) == rc
    if msg is not None:
        assert msg in capsys.readouterr().err


@pytest.mark.parametrize("cmd,extra", [
    ("batch", ["--trace", "batch.txt"]),
    ("spanner", []),
    ("lc-embed", []),
    ("fd-check", ["--faults", "faults.txt"]),
])
@pytest.mark.parametrize("k", ["0", "1", "-1"])
def test_decompose_family_rejects_k_below_two(cmd, extra, k, tmp_path,
                                              capsys):
    """A k below 2 is a usage error on the decompose-family commands
    besides decompose (test_decompose_defaults_agree), named before any
    default is derived from k: k = 0 used to divide by zero deriving
    d_cap."""
    (tmp_path / "batch.txt").write_text("DEL 1 0\n")
    (tmp_path / "faults.txt").write_text("1 0 1\n")
    argv = [cmd, "--graph", os.path.join(DATA, "golden_host.graph"),
            "--k", k] + [str(tmp_path / w) if w.endswith(".txt") else w
                         for w in extra]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: k must be at least 2\n"


@pytest.mark.parametrize("k", ["0", "-1"])
def test_cluster_rejects_k_below_one(k, capsys):
    """cluster needs k >= 1: at k = 0 every cluster would count as
    settled (nv^0 <= n), and at k = -1 the lifetime budget would compare
    fractions.  Both exit 2 naming k, with no report."""
    argv = ["cluster", "--graph", os.path.join(DATA, "golden_host.graph"),
            "--k", k]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: k must be at least 1\n"


def test_batch_insert_onto_cluster_edge_is_usage_error(tmp_path, capsys):
    """INS of an edge the single golden cluster holds is rejected before
    the decomposition changes."""
    tr = tmp_path / "t.txt"
    tr.write_text("INS 0 1\n")
    argv = ["batch", "--graph", os.path.join(DATA, "golden_host.graph"),
            "--k", "2", "--delta", "4", "--delta-star", "16", "--d-cap", "2",
            "--template-n", "3", "--trace", str(tr)]
    assert main(argv) == 2
    assert "(0, 1)" in capsys.readouterr().err


def test_batch_broken_decomposition_fails_assertion(host_file, tmp_path,
                                                     monkeypatch, capsys):
    """A batch that leaves the decomposition invalid is a failed
    assertion: the report is written, later phases are not run, and the
    command exits 1."""
    from routerlab import cli
    calls = []

    def broken(rd, dels, ins):
        calls.append(dels)
        raise AssertionError("decomposition invalid after batch")

    monkeypatch.setattr(cli, "process_batch", broken)
    tr = tmp_path / "batch.txt"
    tr.write_text("DEL 1 0\nPHASE 1\nDEL 2 0\n")
    rc, doc = run_json(capsys, decomp_argv("batch", host_file,
                                           "--trace", str(tr)))
    assert rc == 1
    assert len(calls) == 1
    check = next(a for a in doc["assertions"]
                 if a["name"] == "valid-after-every-batch")
    assert not check["ok"]
    assert check["observed"] == "decomposition invalid after batch"


def test_route_check_flag_removed(tmp_path, capsys):
    man = tmp_path / "router.json"
    main(["build-router", "--N", "4", "--k", "2", "--delta", "3",
          "--out", str(man)])
    capsys.readouterr()
    dm = tmp_path / "demand.txt"
    dm.write_text("# nothing to route\n")
    assert main(["route", "--template", str(man), "--demand", str(dm),
                 "--check", "x"]) == 2


def test_repeated_graph_lines_add_multiplicities(tmp_path, capsys):
    """Every third line of the golden host split into 'u v 1' in place and
    'u v 3' at the end decomposes exactly as the merged file does."""
    with open(os.path.join(DATA, "golden_host.graph")) as f:
        lines = f.read().splitlines()
    split, tail = [], []
    for no, line in enumerate(lines):
        if no % 3 or line.startswith("#"):
            split.append(line)
            continue
        u, v, mult = line.split()
        assert mult == "4"
        split.append("%s %s 1" % (u, v))
        tail.append("%s %s 3" % (u, v))
    assert len(tail) > 50
    host = tmp_path / "split.graph"
    host.write_text("\n".join(split + tail) + "\n")
    opts = ["--k", "2", "--delta", "4", "--delta-star", "16", "--d-cap", "2",
            "--template-n", "3"]
    docs = []
    for path in (os.path.join(DATA, "golden_host.graph"), str(host)):
        out = str(tmp_path / "report.json")
        assert main(["--seed", "11", "--json", out, "decompose", "--graph",
                     path] + opts) == 0
        doc = json.loads(strip_timings(out))
        assert doc["params"].pop("graph") == path
        docs.append(doc)
    assert docs[0] == docs[1]


def test_len_field_is_checked_and_unused(tmp_path, capsys):
    """Every golden host line with a random len appended gives the same
    decompose-family reports as the plain file, and so does an INS line
    with a len; a len of 0 is a usage error naming the line."""
    golden = os.path.join(DATA, "golden_host.graph")
    with open(golden) as f:
        lines = f.read().splitlines()
    rng = random.Random(11)
    host = tmp_path / "len.graph"
    host.write_text("\n".join(
        line if line.startswith("#") else "%s %d" % (line, rng.randint(1, 9))
        for line in lines) + "\n")
    plain_tr, len_tr = tmp_path / "plain.txt", tmp_path / "len.txt"
    plain_tr.write_text("DEL 1 0\nPHASE 1\nINS 0 200 1\n")
    len_tr.write_text("DEL 1 0\nPHASE 1\nINS 0 200 1 7\n")
    faults = ["--faults", os.path.join(DATA, "golden_faults.txt")]
    runs = {"decompose": ([], []), "spanner": ([], []), "lc-embed": ([], []),
            "fd-check": (faults, faults),
            "batch": (["--trace", str(plain_tr)], ["--trace", str(len_tr)])}
    for cmd, sides in runs.items():
        docs = []
        for path, extra in zip((golden, str(host)), sides):
            out = str(tmp_path / "report.json")
            argv = ["--seed", "11"] + decomp_argv(cmd, path, *extra,
                                                  json_out=out)
            assert main(argv) == 0, cmd
            doc = json.loads(strip_timings(out))
            assert doc["params"].pop("graph") == path
            doc["params"].pop("trace", None)
            docs.append(doc)
        assert docs[0] == docs[1], cmd

    host.write_text("0 1 4 1\n0 2 4 0\n")
    assert main(decomp_argv("decompose", str(host))) == 2
    assert "%s:2: " % host in capsys.readouterr().err


@pytest.mark.parametrize("cmd,flag,text,msg", [
    ("batch", "--trace", "DEL 0 1 0\n", ":1: deletion count 0 is below 1"),
    ("batch", "--trace", None, "No such file or directory"),
    ("fd-check", "--faults", "0 1 0\n", ":1: fault count 0 is below 1"),
    ("fd-check", "--faults", None, "No such file or directory"),
], ids=["bad-trace", "missing-trace", "bad-faults", "missing-faults"])
def test_input_files_are_parsed_before_the_build(host_file, tmp_path,
                                                 monkeypatch, capsys, cmd,
                                                 flag, text, msg):
    """batch and fd-check reject a bad or missing trace or fault file
    without building the decomposition."""
    from routerlab import cli
    builds = []
    real = cli.build_decomposition

    def counted(g, cfg):
        builds.append(cfg)
        return real(g, cfg)

    monkeypatch.setattr(cli, "build_decomposition", counted)
    f = tmp_path / "input.txt"
    if text is not None:
        f.write_text(text)
    assert main(decomp_argv(cmd, host_file, flag, str(f))) == 2
    err = capsys.readouterr().err
    assert msg in err
    if text is not None:
        assert str(f) + msg in err
    assert builds == []


def _verify_argv(tmp_path, demand_text):
    """argv for `verify` on a triangle whose demand file holds
    demand_text, and the demand file's path."""
    g = tmp_path / "g.graph"
    g.write_text("0 1\n1 2\n0 2\n")
    rt = tmp_path / "r.json"
    rt.write_text(json.dumps(
        {"paths": [{"path": [0, 2], "pair": [0, 2], "value": "1"}]}))
    dm = tmp_path / "d.txt"
    dm.write_bytes(demand_text.encode("utf-8"))      # line ends as given
    return ["verify", "--graph", str(g), "--routing", str(rt),
            "--demand", str(dm), "--max-len", "2", "--max-cong", "1"], dm


@pytest.mark.parametrize("text,msg", [
    ("0 1\n", ":1: expected 'a b value'"),
    ("0 1 x\n", ":1: bad demand line"),
    ("0 1 1/0\n", ":1: bad demand line"),
    ("0 1 1/\n", ":1: bad demand line"),
    ("0 1 /2\n", ":1: bad demand line"),
    ("0 1 1/2/3\n", ":1: bad demand line"),
    ("0 1 0\n", ":1: demand values must be positive"),
    ("0 1 0/3\n", ":1: demand values must be positive"),
    ("0 1 -1/2\n", ":1: demand values must be positive"),
    ("1 1 1\n", ":1: demand pair endpoints must differ"),
    ("0 1 1\n1 0 2\n", ":2: pair (0, 1) listed twice"),
    ("0 1 1\r\n1 0 2\r\n", ":2: pair (0, 1) listed twice"),
], ids=["two-fields", "word", "zero-denominator", "no-denominator",
        "no-numerator", "two-slashes", "zero", "zero-over-three", "negative",
        "same-endpoints", "listed-twice", "listed-twice-crlf"])
def test_demand_errors_name_their_line(tmp_path, capsys, text, msg):
    argv, dm = _verify_argv(tmp_path, text)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: %s%s\n" % (dm, msg)


@pytest.mark.parametrize("value", ["1e99999999", "1e-9_999_999",
                                   "0.5E+000099999"])
def test_long_exponent_is_a_bad_demand_line(tmp_path, capsys, value):
    """Fraction would spell such a value out digit by digit; it is
    rejected before that, at once."""
    argv, dm = _verify_argv(tmp_path, "0 2 %s\n" % value)
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr().err == "error: %s:1: bad demand line\n" % dm


def test_exact_reads_four_digit_exponents():
    for tok in ("1e9999", "1e-9999", "2.5E+9_999", "1e0009"):
        assert cli._exact(tok) == Fraction(tok)


def test_crlf_demand_parses_like_its_lf_twin(tmp_path):
    text = "# a b value\n0 1 1\n1 2 3/4   # comment\n0 2 0.5\n2 5 007/014\n"
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(text.encode("utf-8"))
    crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    d = cli.parse_demand(str(lf))
    assert d.values == cli.parse_demand(str(crlf)).values
    assert d.values == {(0, 1): 1, (1, 2): Fraction(3, 4),
                        (0, 2): Fraction(1, 2), (2, 5): Fraction(1, 2)}


@pytest.mark.parametrize("kind", ["graph", "demand", "trace", "fault",
                                  "template", "routing"])
@pytest.mark.parametrize("text,line", [
    (b"0 1\n\xff 2\n", 2),
    (b"0 1\r\n0 2\r\n1 2 # \xe2\x82\n", 3),
    (b"0 1\r0 2\r\xc3", 3),
], ids=["lf", "crlf-cut-sequence", "lone-cr-at-end"])
def test_non_utf8_file_names_its_line(tmp_path, capsys, kind, text, line):
    """A file that is not UTF-8 exits 2 naming the line of its first bad
    byte, with lines counted as every text file's lines are counted."""
    bad = tmp_path / ("bad." + kind)
    bad.write_bytes(text)
    if kind == "graph":
        argv = ["cluster", "--graph", str(bad), "--k", "2"]
    elif kind == "demand":
        argv, _ = _verify_argv(tmp_path, "0 2 1\n")
        argv[argv.index("--demand") + 1] = str(bad)
    elif kind == "routing":
        argv, _ = _verify_argv(tmp_path, "0 2 1\n")
        argv[argv.index("--routing") + 1] = str(bad)
    elif kind == "trace":
        argv = ["cluster", "--graph", os.path.join(DATA, "golden_host.graph"),
                "--k", "2", "--trace", str(bad)]
    elif kind == "template":
        argv = ["prune", "--template", str(bad)]
    else:
        g = tmp_path / "g.graph"
        g.write_text("0 1\n1 2\n0 2\n")
        argv = ["cert-check", "--graph", str(g), "--sub", str(g),
                "--faults", str(bad)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: %s:%d: not UTF-8 text\n" % (bad, line))


def _fraction_or_error(parse, tok):
    try:
        return parse(tok)
    except Exception as e:              # the class is what is compared
        return type(e)


def _small_exponent(tok):
    """Whether tok has no exponent of four or more digits.  Fraction
    builds 10**exp in full, so "1e999999999" costs minutes and hundreds
    of megabytes on either side of the comparison below."""
    return re.search(r"e[-+]?[\d_]{4}", tok) is None


@given(st.text(alphabet="0123456789/+-.e_\u0663\u00b2", max_size=12)
       .filter(_small_exponent))
@example("12")
@example("3/4")
@example("007/010")
@example("0/5")
@example("1/0")
@example("0/0")
@example("0.5")
@example("1e-3")
@example("+2")
@example("-1/2")
@example("1_000")
@example("\u0663")                      # an Arabic-Indic three
@example("\u00b2")                      # superscript two
@example("")
def test_exact_agrees_with_fraction(tok):
    """_exact reads every token as Fraction(tok) does, or raises the
    same class of error."""
    assert (_fraction_or_error(cli._exact, tok)
            == _fraction_or_error(Fraction, tok))


def test_exact_reads_digits_as_integers(monkeypatch):
    """ASCII digits, with or without one slash, reach Fraction as ints;
    every other token reaches it as the string."""
    seen = []

    def spy(*args):
        seen.append(args)
        return Fraction(*args)

    monkeypatch.setattr(cli, "Fraction", spy)
    for tok in ("12", "3/4", "0.5", "\u0663", "1/2/3"):
        _fraction_or_error(cli._exact, tok)
    assert seen == [(12,), (3, 4), ("0.5",), ("\u0663",), ("1/2/3",)]


def test_routing_values_parse_like_fraction(tmp_path):
    rt = tmp_path / "r.json"
    values = ["1", "3/6", "0.25", "1e-1", 2, 0.5]
    rt.write_text(json.dumps({"paths": [
        {"path": [0, 1], "pair": [0, 1], "value": v} for v in values]}))
    got = [val for _, _, val in cli.parse_routing(str(rt)).flow_paths]
    assert got == [Fraction(v) for v in values]
    assert all(type(v) is Fraction for v in got)
    with pytest.raises(TypeError) as not_a_value:
        Fraction([1])
    for entry, msg in [({"value": "1"}, "no field 'path'"),
                       ({"path": [0, 1], "pair": [0, 1], "value": "1/0"},
                        "Fraction(1, 0)"),
                       ({"path": [0, 1], "pair": [0, 1], "value": [1]},
                        str(not_a_value.value))]:
        rt.write_text(json.dumps({"paths": [entry]}))
        with pytest.raises(cli.CliError) as e:
            cli.parse_routing(str(rt))
        assert str(e.value) == "%s: bad routing entry: %s" % (rt, msg)
