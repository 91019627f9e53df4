"""CLI reports on realize(build(3,4,4)) must match the committed golden
reports byte for byte, apart from timings_ms.

The golden files in tests/data were written by

    routerlab --seed 11 --json golden_<cmd>.json <cmd> --graph golden_host.graph \
        --k 2 --delta 4 --delta-star 16 --d-cap 2 --template-n 3 \
        [--faults golden_faults.txt]

run inside tests/data, so the file names in the reports are relative.
"""

import os
import re

import pytest

from routerlab.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
OPTS = ["--graph", "golden_host.graph", "--k", "2", "--delta", "4",
        "--delta-star", "16", "--d-cap", "2", "--template-n", "3"]
TIMINGS = re.compile(rb'\n  "timings_ms": [0-9.e+-]+,?')


def _strip_timings(text):
    out, n = TIMINGS.subn(b"", text)
    assert n == 1
    return out


@pytest.mark.parametrize("cmd", ["decompose", "spanner", "lc-embed",
                                 "fd-check"])
def test_report_matches_golden(cmd, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    out = tmp_path / "report.json"
    extra = ["--faults", "golden_faults.txt"] if cmd == "fd-check" else []
    assert main(["--seed", "11", "--json", str(out), cmd] + OPTS + extra) == 0
    with open("golden_%s.json" % cmd, "rb") as f:
        want = f.read()
    assert _strip_timings(out.read_bytes()) == _strip_timings(want)
