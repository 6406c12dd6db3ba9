"""One round of one benchmark workload, in a process of its own.

    python3 benchmark/workload.py <build|kcm|cli> --seed N --t0 NS [--trace 1] [--setup-only]

``run.py`` starts this with PYTHONPATH pointing at the checkout's ``src`` and
a fixed PYTHONHASHSEED, and passes in ``--t0`` the monotonic clock just
before the start.  Set-up is the interpreter start, the import of
``clustercomplexes`` and ``build_root_system`` for the workload's types.
The round then runs every operation of the workload once, each after a
calibration loop, checks each output against numbers computed apart from
the program, and prints one JSON record as its last line.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from math import comb

import checks
import numerology as nm

# root systems built during set-up, as the operations name them
TYPES = {
    "build": ("A4", "D4", "F4", "H3"),
    "kcm": ("B3", "A3"),
    "cli": ("A2", "A3", "A1xA2", "I2(5)", "B3", "D4"),
}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the machine's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


class Round:
    """Operations attempted in one round, with their check results.

    A calibration loop runs before each operation (and ``finish`` runs one
    after the last), so the machine's speed is sampled across the round; the
    loops are not part of any operation's time.
    """

    def __init__(self):
        self.ops: list = []
        self.calib: list = []

    def finish(self) -> None:
        self.calib.append(calibrate())

    def run(self, name: str, fn, expected_failure: bool = False) -> None:
        self.calib.append(calibrate())
        start = time.perf_counter()
        try:
            problems = fn()
        except Exception as exc:  # a crashing operation is a failed one
            problems = ["%s: %s" % (type(exc).__name__, exc)]
        self.ops.append({"op": name, "s": time.perf_counter() - start,
                         "ok": not problems, "expected_failure": expected_failure,
                         "problems": problems})


def expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# -- build ----------------------------------------------------------------------


def build_op(cc, label: str, m: int):
    def op():
        rs = cc.roots.build_root_system(label)
        cx, _ = cc.colored.build_complex(rs, m)
        pos = cc.colored.positive_part(cx)
        f, h = cc.simplicial.f_h_vectors(cx)
        fp, _ = cc.simplicial.f_h_vectors(pos)
        n = nm.rank(label)
        facets = nm.fuss_catalan(label, m)
        problems: list = []
        want = m * nm.positive_roots(label) + n
        expect(problems, len(cx.vertices) == want,
               "%d vertices, expected m|Phi+|+n = %d" % (len(cx.vertices), want))
        expect(problems, len(cx.facets) == facets,
               "%d facets, expected N = %d" % (len(cx.facets), facets))
        want = nm.fuss_catalan_positive(label, m)
        expect(problems, len(pos.facets) == want,
               "%d positive facets, expected N+ = %d" % (len(pos.facets), want))
        expect(problems, all(len(g) == n for g in cx.facets),
               "a facet does not have %d vertices" % n)
        seen = set(checks.codim1_counts(cx.facets).values())
        expect(problems, seen == {m + 1},
               "codimension-one faces lie in %s facets, expected %d" % (sorted(seen), m + 1))
        expect(problems, h is not None and sum(h) == facets,
               "h-vector %s does not sum to N" % (h,))
        want = (-1) ** (n - 1) * nm.fuss_catalan(label, m - 1)
        got = checks.reduced_euler(f)
        expect(problems, got == want, "reduced Euler %d, expected %d" % (got, want))
        want = (-1) ** (n - 1) * nm.fuss_catalan_positive(label, m - 1)
        got = checks.reduced_euler(fp)
        expect(problems, got == want,
               "positive reduced Euler %d, expected %d" % (got, want))
        return problems
    return op


def workload_build(cc, rnd: Round, seed: int) -> None:
    for label, m in (("A4", 2), ("D4", 2), ("F4", 1), ("H3", 2)):
        rnd.run("build %s m=%d" % (label, m), build_op(cc, label, m))


# -- kcm ------------------------------------------------------------------------


def exhaustive_op(cc, label: str, m: int):
    """The exhaustive (m+1)-CM audit and the search for a non-(m+2)-CM witness."""
    def op():
        problems: list = []
        cx, _ = cc.colored.build_complex(cc.roots.build_root_system(label), m)
        k = m + 1
        rep = cc.topology.kcm_audit(cx, k, workers=1)
        want = sum(comb(len(cx.vertices), s) for s in range(k))
        expect(problems, rep.examined == want,
               "audit examined %d removals, expected %d" % (rep.examined, want))
        expect(problems, rep.passed, "%d-CM audit failed: %s" % (
            k, [f.to_dict() for f in rep.failures[:3]]))
        wit = cc.topology.kcm_audit(cx, k + 1, sizes=[k], max_failures=1, workers=1)
        if not wit.failures:
            problems.append("no witness that the complex is not %d-CM" % (k + 1))
            return problems
        removed = wit.failures[0].removed
        expect(problems, len(removed) == k,
               "witness removes %d vertices, expected %d" % (len(removed), k))
        index = {lab: i for i, lab in enumerate(cx.vertices)}
        keep = set(range(len(cx.vertices))) - {index[lab] for lab in removed}
        reason = checks.not_cohen_macaulay(checks.restrict(cx.facets, keep),
                                           nm.rank(label) - 1)
        expect(problems, reason != "",
               "witness %s is not confirmed from the facet list" % (list(removed),))
        return problems
    return op


def sampled_op(cc, label: str, m: int, seed: int):
    def op():
        cx, _ = cc.colored.build_complex(cc.roots.build_root_system(label), m)
        rep = cc.topology.kcm_audit(cx, m + 1, mode="sample", seed=seed, workers=1)
        problems: list = []
        expect(problems, rep.examined > 0, "sampled audit examined nothing")
        expect(problems, rep.passed, "sampled %d-CM audit failed: %s" % (
            m + 1, [f.to_dict() for f in rep.failures[:3]]))
        return problems
    return op


def workload_kcm(cc, rnd: Round, seed: int) -> None:
    rnd.run("kcm B3 m=2 exhaustive k=3 + witness k=4", exhaustive_op(cc, "B3", 2))
    rnd.run("kcm A3 m=3 sampled k=4", sampled_op(cc, "A3", 3, seed))


# -- cli ------------------------------------------------------------------------


def cli_op(cc, command: str, label: str, m: int, seed: int):
    """One ``clustercx`` call, in-process, with its JSON report checked."""
    argv = [command, "--phi", label, "--m", str(m), "--format", "json",
            "--seed", str(seed), "--workers", "1"]

    def op():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cc.cli.run(argv)
        try:
            report = json.loads(out.getvalue())
        except ValueError:
            return ["exit %d: %s" % (code, err.getvalue().strip()[:300])]
        problems = ["check %s failed: %s" % (c["id"], json.dumps(c.get("detail")))
                    for c in report.get("checks", []) if not c["ok"]]
        if code != 0:
            problems.insert(0, "exit %d" % code)
        elif m >= 1:
            problems += _report_values(command, label, m, report)
        return problems
    return op


def _report_values(command: str, label: str, m: int, report: dict) -> list:
    problems: list = []
    n = nm.rank(label)
    if command == "verify-all":
        detail = {c["id"]: c.get("detail", {}) for c in report["checks"]}
        want = nm.fuss_catalan(label, m)
        got = detail.get("facet-count", {}).get("facets")
        expect(problems, got == want, "facet-count reports %s, expected N = %d" % (got, want))
        want = nm.fuss_catalan_positive(label, m - 1)
        got = detail.get("wedge-positive", {}).get("expected")
        expect(problems, got == want,
               "wedge-positive expects %s spheres, N+(m-1) = %d" % (got, want))
    elif command == "ncp":
        for key, want in (("poset_size", nm.fuss_catalan(label, m)),
                          ("interval_size", nm.fuss_catalan(label, 1))):
            expect(problems, report.get(key) == want,
                   "%s %s, expected %d" % (key, report.get(key), want))
        if m == 1:
            want = (-1) ** n * nm.fuss_catalan_positive(label, 1)
            expect(problems, report.get("moebius") == want,
                   "moebius %s, expected %d" % (report.get("moebius"), want))
    elif command == "homology":
        for part, count in (("full", nm.fuss_catalan(label, m - 1)),
                            ("positive", nm.fuss_catalan_positive(label, m - 1))):
            want = [0] * (n - 1) + [count]
            got = report[part]["betti"]
            expect(problems, got == want, "%s Betti %s, expected %s" % (part, got, want))
            expect(problems, not any(report[part]["torsion"]),
                   "%s has torsion %s" % (part, report[part]["torsion"]))
    return problems


# the m = 0 operations fail in the program today (false wedge-positive FAIL,
# and build_Lm rejecting m < 1); each counts as failed until it exits 0 with
# every check passing
CLI_OPS = (
    ("verify-all", "A2", 2, False),
    ("verify-all", "A3", 1, False),
    ("verify-all", "A1xA2", 2, False),
    ("verify-all", "I2(5)", 2, False),
    ("ncp", "B3", 1, False),
    ("ncp", "A2", 3, False),
    ("homology", "D4", 2, False),
    ("homology", "A2", 0, True),
    ("verify-all", "A2", 0, True),
)


def workload_cli(cc, rnd: Round, seed: int) -> None:
    for command, label, m, failing in CLI_OPS:
        rnd.run("%s %s m=%d" % (command, label, m),
                cli_op(cc, command, label, m, seed), expected_failure=failing)


WORKLOADS = {"build": workload_build, "kcm": workload_kcm, "cli": workload_cli}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=int, required=True,
                        help="monotonic_ns reading taken just before this process started")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import clustercomplexes
    src = os.path.realpath(os.environ.get("PYTHONPATH", ""))
    if os.path.dirname(os.path.dirname(os.path.realpath(clustercomplexes.__file__))) != src:
        raise SystemExit("clustercomplexes was imported from %s, not from %s"
                         % (clustercomplexes.__file__, src))
    from clustercomplexes import cli, colored, roots, simplicial, topology  # noqa: F401
    tracer = None
    if args.trace:
        import tracer as tr
        tracer = tr.Tracer()
        tr.install(tracer)
    for label in TYPES[args.workload]:
        roots.build_root_system(label)
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    record = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if args.setup_only:
        record["calib_slices_s"] = [calibrate()]
    else:
        rnd = Round()
        first_span = len(tracer.start) if tracer else 0
        start = time.perf_counter()
        WORKLOADS[args.workload](clustercomplexes, rnd, args.seed)
        rnd.finish()
        record["wall_s"] = time.perf_counter() - start - sum(rnd.calib)
        record["calib_slices_s"] = rnd.calib
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["ops"] = rnd.ops
        record["attempted"] = len(rnd.ops)
        record["failed"] = sum(not op["ok"] for op in rnd.ops)
        record["correct"] = all(op["ok"] or op["expected_failure"] for op in rnd.ops)
        if tracer:
            record["spans"] = tracer.reduce()
            record["layers"] = tr.layer_metrics(tracer, record["spans"], first_span,
                                                record["wall_s"])
            record["span_cost_s"] = tr.span_cost_s()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
