"""Benchmark entry point.

    python3 benchmark/run.py --workload <build|kcm|cli> --seed N --seconds S --trace <0|1>

Runs whole rounds of one workload, each round in a fresh single-threaded
Python process (``workload.py``) started one after another.  Another round
starts only if it should end within S seconds of the start, judged by the
last one, so a run's length stays near S on a slow machine too; at least
one round always runs.  With ``--trace 0`` it also starts a batch of
set-up-only processes before each round and after the last, so that the
set-up samples span the run, and reports the end-to-end metrics: the
median round ``wall_s``, the median ``setup_s`` over every process started,
and the median per-round ``peak_rss_mb``.  ``wall_s`` and ``setup_s`` are
scaled to a reference machine speed: every process times a fixed
calibration loop (before each operation and after the last, or after
set-up), and both times are multiplied by REFERENCE_CALIB_S over the
median of those loop times.  On a shared machine whose speed drifts by a
third for minutes at a time, this keeps the figures comparable; the raw
times and the calibration are printed and kept in the run record.  With
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, with the tracing overhead against the
untraced ones, both as measured and as spans recorded times the cost of one
span.

Metric names and units come from BENCHMARK.json.  The last line of
standard output is the JSON result; a record of the run, with every round
and operation, is written under ``benchmark/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_BATCH = 3  # set-up-only processes before each round and after the last
# Calibration-loop time that defines the reference machine speed: times are
# reported as if every calibration slice of the run had taken this long.
REFERENCE_CALIB_S = 0.080
DEADLINE_S = 170  # a run must end within 180 s; a round still running is killed
HASH_SEED = "0"


class BenchError(RuntimeError):
    pass


def start_child(workload: str, seed: int, trace: int, setup_only: bool,
                timeout: float) -> dict:
    """One workload process; returns the JSON record it prints."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("%s round did not finish within %.0f s" % (workload, timeout))
    if proc.returncode != 0:
        raise BenchError("%s process exited %d: %s" % (
            workload, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_specs(trace: int) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


def rounds_until(seconds: float, start: float, step) -> list:
    """Call ``step`` for whole rounds; one more only if it should end within ``seconds``."""
    out = []
    while True:
        began = time.monotonic()
        out.append(step(DEADLINE_S - (began - start)))
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            return out


def end_to_end(workload: str, seed: int, seconds: int, start: float) -> tuple:
    setups: list = []

    def sample_setup():
        for _ in range(SETUP_BATCH):
            left = DEADLINE_S - (time.monotonic() - start)
            setups.append(start_child(workload, seed, 0, True, left))

    def one_round(left):
        sample_setup()
        return start_child(workload, seed, 0, False, left)

    rounds = rounds_until(seconds, start, one_round)
    sample_setup()
    calib = statistics.median(c for r in setups + rounds for c in r["calib_slices_s"])
    speed = REFERENCE_CALIB_S / calib
    raw_wall = statistics.median(r["wall_s"] for r in rounds)
    raw_setup = statistics.median(r["setup_s"] for r in setups + rounds)
    values = {
        "wall_s": raw_wall * speed,
        "setup_s": raw_setup * speed,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return values, rounds, {"raw_wall_s": raw_wall, "raw_setup_s": raw_setup,
                            "calib_median_s": calib,
                            "setup_samples_s": [r["setup_s"] for r in setups]}


def per_layer(workload: str, seed: int, seconds: int, start: float) -> tuple:
    def pair(left):
        began = time.monotonic()
        plain = start_child(workload, seed, 0, False, left)
        return plain, start_child(workload, seed, 1, False,
                                  left - (time.monotonic() - began))

    pairs = rounds_until(seconds, start, pair)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    base = statistics.median(r["wall_s"] for r in plain)
    values["trace.overhead_pct"] = 100 * (
        statistics.median(r["wall_s"] for r in traced) / base - 1)
    values["trace.span_cost_pct"] = 100 * statistics.median(
        r["layers"]["trace.spans"] * r["span_cost_s"] for r in traced) / base
    return values, plain + traced, {"untraced_wall_s": base}


def summary(workload: str, seed: int, values: dict, units: dict, rounds: list,
            extra: dict) -> list:
    lines = ["workload %s, seed %d, %d round(s)" % (workload, seed, len(rounds))]
    for r in rounds:
        lines.append("  round%s: wall %.3f s, setup %.3f s, calibration loop %.4f s "
                     "(median of %d), peak rss %.1f MB, %d/%d operations failed" % (
                         " (traced)" if "layers" in r else "", r["wall_s"],
                         r["setup_s"], statistics.median(r["calib_slices_s"]),
                         len(r["calib_slices_s"]), r["peak_rss_mb"],
                         r["failed"], r["attempted"]))
        for op in r["ops"]:
            if not op["ok"]:
                lines.append("    %s %s: %s" % (
                    "failed (known)" if op["expected_failure"] else "FAILED",
                    op["op"], "; ".join(op["problems"])[:300]))
    for name, unit in units.items():
        lines.append("  %-30s %14.6g %s" % (name, values[name], unit))
    if "calib_median_s" in extra:
        lines.append("  raw wall %.4f s and setup %.4f s at a calibration median of "
                     "%.4f s, scaled to %.3f s" % (extra["raw_wall_s"], extra["raw_setup_s"],
                                                   extra["calib_median_s"], REFERENCE_CALIB_S))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("build", "kcm", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()
    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "clustercomplexes")):
            raise BenchError("no src/clustercomplexes in %s" % ROOT)
        specs = metric_specs(args.trace)
        run = per_layer if args.trace else end_to_end
        values, rounds, extra = run(args.workload, args.seed, args.seconds, start)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in specs}
    missing = sorted(set(units) - set(values))
    if missing:
        print("benchmark error: no value for %s" % ", ".join(missing), file=sys.stderr)
        return 2
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, all_values=values, rounds=rounds, **extra),
                  fh, indent=1)
    print("\n".join(summary(args.workload, args.seed, values, units, rounds, extra)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
