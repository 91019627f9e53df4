"""Run every workload over several seeds and summarise each end-to-end
metric as quartiles and spread (interquartile range over median).

    python3 perfbench/baseline.py --runs 10 --first-seed 1 --out perfbench/baseline.json

Runs are sequential, one process each, with run_seconds from
BENCHMARK.json.  Seeds and workloads are interleaved (seed 1 of every
workload, then seed 2, ...), so that a slow spell of the host falls on
all workloads rather than on the seeds of one.  The spread is the
figure BENCHMARK.json's bounds are set against.  The per-config and
per-instance medians a run prints ("parts", unscaled) are kept as the
median over seeds, and the unscaled figures and the reference kernel's
time (see refspeed.py) as quartiles, next to each run's wall time.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    parts = next(json.loads(line[len("parts "):]) for line in lines
                 if line.startswith("parts "))
    # the unscaled figures and the reference kernel's median time
    notes = {}
    for line in lines:
        f = line.split()
        if len(f) >= 2 and f[0].startswith(("raw.", "refspeed.")):
            notes[f[0]] = float(f[1])
    return (json.loads(lines[-1]), parts, notes,
            time.perf_counter() - t0)


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="repeatable; default every workload")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    doc = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "run_seconds": bench["run_seconds"], "seeds": seeds,
           "workloads": {}}
    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            runs[name].append(run_once(name, seed, bench["run_seconds"]))
            print("%-17s seed %d done in %.1f s" % (name, seed,
                                                   runs[name][-1][3]),
                  flush=True)
    for name in names:
        results = [r for r, _parts, _notes, _wall in runs[name]]
        entry = {"correct": all(r["correct"] for r in results),
                 "attempted": [r["attempted"] for r in results],
                 "failed": sum(r["failed"] for r in results),
                 "wall_s": [run[3] for run in runs[name]],
                 "metrics": {}, "unscaled": {},
                 "parts_ms": {
                     label: statistics.median(run[1][label]
                                              for run in runs[name])
                     for label in runs[name][0][1]}}
        for metric in bounds:
            vals = [r["metrics"][metric]["value"] for r in results]
            entry["metrics"][metric] = dict(summarise(vals), values=vals)
            s = entry["metrics"][metric]
            print("%-17s %-12s median %12.5g  q1 %12.5g  q3 %12.5g  "
                  "spread %.4f  (bound %.2f)%s"
                  % (name, metric, s["median"], s["q1"], s["q3"],
                     s["spread"], bounds[metric],
                     "  above a third of the bound"
                     if s["spread"] > bounds[metric] / 3 else ""),
                  flush=True)
        for key in runs[name][0][2]:
            vals = [run[2][key] for run in runs[name]]
            entry["unscaled"][key] = dict(summarise(vals), values=vals)
            print("%-17s %-19s median %12.5g  spread %.4f"
                  % (name, key, entry["unscaled"][key]["median"],
                     entry["unscaled"][key]["spread"]), flush=True)
        print("%-17s correct=%s failed=%d" % (name, entry["correct"],
                                              entry["failed"]), flush=True)
        doc["workloads"][name] = entry
    total = sum(run[3] for name in names for run in runs[name])
    doc["wall_s_total"] = total
    print("%d runs in %.0f s" % (len(seeds) * len(names), total))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
