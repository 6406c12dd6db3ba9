"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmark/spread.py --seeds 1 2 3 4 5 6 7 8 9 10

Runs ``run.py`` once per (seed, workload) for every workload in
BENCHMARK.json, with its run length, the workloads interleaved
round-robin within each seed.
For each workload and metric it prints the median and the distance
between the first and third quartiles as a share of the median, against
the metric's bound, and the share of failed operations.  The raw results
go to ``benchmark/results/spread.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    results = {w["name"]: [] for w in spec["workloads"]}
    for seed in args.seeds:
        for workload in results:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print("%s seed %d exited %d: %s" % (workload, seed, proc.returncode,
                                                     proc.stderr.strip()[-500:]))
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[workload].append(result)
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()})),
                flush=True)
    worst = 0.0
    for workload, runs in results.items():
        shares = {(r["failed"], r["attempted"]) for r in runs}
        print("%s: %d runs, correct %s, failed/attempted %s" % (
            workload, len(runs), all(r["correct"] for r in runs), sorted(shares)))
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, 0, med)
            share = (q3 - q1) / med
            if metric["name"] != "setup_s":
                worst = max(worst, share / metric["bound"])
            print("  %-12s median %10.4f  spread %6.2f%%  bound %4.0f%%  (%.2f of bound)" % (
                metric["name"], med, 100 * share, 100 * metric["bound"],
                share / metric["bound"]))
    print("largest spread as a share of its bound (setup_s excluded): %.2f" % worst)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "spread.json"), "w") as fh:
        json.dump({"seeds": args.seeds, "results": results}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
