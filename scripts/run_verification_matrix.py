#!/usr/bin/env python3
"""Run the full verification checklist over a matrix of (type, colors).

Prints one report per (root system, m) with the outcome of every check the
``verify-all`` pipeline runs.  Each case goes through ``clustercx
verify-all``, so a bad label, m or worker count is a usage error, and the
script exits with the worst exit code of its cases: 0 when every check
passes, 1 when one fails, 2 on a usage error.
"""
import argparse
import sys

from clustercomplexes.cli import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--types", nargs="+",
                    default=["A2", "A3", "B2", "B3", "G2"])
    ap.add_argument("--colors", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    worst = 0
    for label in args.types:
        for m in args.colors:
            print("=== %s, m=%d ===" % (label, m), flush=True)
            code = run(["verify-all", "--phi", label, "--m", str(m),
                        "--seed", str(args.seed),
                        "--workers", str(args.workers)])
            worst = max(worst, code)
    print("overall:", "PASS" if worst == 0 else "FAIL")
    return worst


if __name__ == "__main__":
    sys.exit(main())
