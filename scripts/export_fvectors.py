#!/usr/bin/env python3
"""Export f- and h-vectors of the complexes and their positive parts as CSV.

Every label goes through the guards of ``clustercx`` at m = --max-m before
any output is written: a bad label, or a rank, m or vertex count past the
limits, exits 2 with ``error: <message>`` on stderr.
"""
import argparse
import csv
import sys

from clustercomplexes.cli import CAP_VERTICES, GuardError, load_system
from clustercomplexes.colored import build_complex, positive_part
from clustercomplexes.simplicial import f_h_vectors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--types", nargs="+",
                    default=["A1", "A2", "A3", "B2", "B3", "G2", "I2(5)"])
    ap.add_argument("--max-m", type=int, default=3)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()
    try:
        systems = [(label, load_system(label, args.max_m, CAP_VERTICES))
                   for label in args.types]
    except GuardError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(out)
    writer.writerow(["type", "m", "part", "f_vector", "h_vector"])
    for label, rs in systems:
        for m in range(1, args.max_m + 1):
            cx, _ = build_complex(rs, m)
            for part, complex_ in (("full", cx), ("positive", positive_part(cx))):
                f, h = f_h_vectors(complex_)
                writer.writerow([label, m, part, list(f),
                                 list(h) if h else ""])
    if out is not sys.stdout:
        out.close()
        print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
