"""Benchmark runner for routerlab.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all      # each workload in its own process

The package is imported from the src/ directory of the checkout that
holds this file, never from an installed copy.  Inputs are generated
from the seed into .perfbench_work/ (removed at exit); a traced run
writes its spans to .perfbench_out/.

--trace 0: set-up runs several times and its median is setup_s, then
ops run for --seconds.  --trace 1: a fixed number of units runs
untraced, then again with every traced function wrapped; the per-layer
metrics come from the traced pass.

Human-readable lines come first; the last line of stdout is one JSON
object {correct, attempted, failed, metrics}.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NAMES = ["prune-churn", "route-serve", "decompose-ladder"]


def run_all(args):
    code = 0
    for name in NAMES:
        print("== %s" % name, flush=True)
        code = max(code, subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode)
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description="routerlab benchmark")
    ap.add_argument("--workload", required=True, choices=NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "routerlab", "__init__.py")):
        print("error: no routerlab sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import routerlab
    if not os.path.abspath(routerlab.__file__).startswith(SRC + os.sep):
        print("error: routerlab imported from %s" % routerlab.__file__,
              file=sys.stderr)
        return 2
    import measure
    import tracing
    try:
        measure.run(args, ROOT)
    except (measure.Abort, tracing.TraceError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
