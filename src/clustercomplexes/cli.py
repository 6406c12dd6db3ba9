"""Command-line front end.

Subcommands build complexes and run the verification suites.  Each
returns its report body, with a list of ``checks`` when it has any;
``run`` adds the envelope (the parsed options but ``--out`` as
``config``, and the version), emits the report deterministically (pretty
table, JSON, or CSV) and derives the exit code: 0 when every check
passes, 1 when a structural check or a library self-check fails, 2 for
usage errors.  Bad input (label, rank, m, k; the parser checks the mode)
and the desk-scale guards raise ``GuardError``; any other exception is a
fault of the program and propagates.
"""
from __future__ import annotations

import argparse
import errno
import functools
import io
import json
import os
import sys
from math import comb

from . import __version__
from .colored import (build_complex, fr_compatible, negative_simples,
                      positive_part, typeA_polygon_oracle)
from .noncrossing import build_Lm, homotopy_compare, moebius, nc_interval
from .roots import build_root_system
from .simplicial import f_h_vectors
from .topology import (ShellingFailure, codim1_incidence, construct_shelling,
                       fuss_catalan, homology, kcm_audit, sharpness_witness)


class GuardError(ValueError):
    """A usage error or a refused request: exit 2."""


MAX_RANK = 6
MAX_COLORS = 4
CAP_VERTICES = 200
HOMOLOGY_FACE_CAP = 200_000
EXHAUSTIVE_CAP = 5000  # verify-all audits by sample past this many removals


def load_system(phi: str, m: int, cap_vertices: int):
    """The system ``phi`` names, if its complex at m is in desk scale.

    Raises ``GuardError`` on a bad label or m, and past the rank, color
    and vertex limits.
    """
    if m < 0:
        raise GuardError("the color count m must be nonnegative, got %d" % m)
    try:
        rs = build_root_system(phi)
    except ValueError as exc:  # a bad label
        raise GuardError(str(exc)) from None
    if rs.rank > MAX_RANK:
        raise GuardError("rank %d exceeds the desk-scale limit %d; full "
                         "enumeration at that size is out of reach"
                         % (rs.rank, MAX_RANK))
    if m > MAX_COLORS:
        raise GuardError("m = %d exceeds the desk-scale limit %d"
                         % (m, MAX_COLORS))
    predicted = m * len(rs.positive_roots) + rs.rank
    if predicted > cap_vertices:
        raise GuardError(
            "refusing facet enumeration: %d vertices exceeds the cap %d "
            "(raise --cap-vertices to override)" % (predicted, cap_vertices))
    return rs


def _check_out(path: str) -> None:
    """Refuse, before any work, an ``--out`` the report cannot be written to.

    Neither creates nor truncates the file; a write that fails later is
    still reported by ``_emit``.
    """
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise GuardError("cannot write the report to %s: %s"
                     % (path, os.strerror(code)))


def _emit(args: argparse.Namespace, report: dict) -> None:
    text = _render(args.format, report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise GuardError("cannot write the report to %s: %s"
                             % (args.out, exc.strerror or exc)) from None
        print("wrote %s" % args.out)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _render(fmt: str, report: dict) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return _render_csv(report)
    return _render_table(report)


def _render_csv(report: dict) -> str:
    import csv  # only a csv report needs it
    buf = io.StringIO()
    writer = csv.writer(buf)
    rows = report.get("rows")
    if rows:
        writer.writerow(report.get("columns", []))
        for row in rows:
            writer.writerow(row)
    else:
        writer.writerow(["key", "value"])
        for key in sorted(report):
            if key not in ("config", "version", "checks"):
                writer.writerow([key, json.dumps(report[key], sort_keys=True)])
        for chk in report.get("checks", []):
            writer.writerow(["check:" + chk["id"],
                             "pass" if chk["ok"] else "fail"])
    return buf.getvalue()


def _render_table(report: dict) -> str:
    lines = []
    for key in sorted(report):
        if key in ("config", "version", "checks", "rows", "columns"):
            continue
        lines.append("%-24s %s" % (key, json.dumps(report[key], sort_keys=True)))
    if report.get("columns"):
        lines.append("  ".join(report["columns"]))
        for row in report.get("rows", []):
            lines.append("  ".join(str(x) for x in row))
    for chk in report.get("checks", []):
        lines.append("%-24s %s" % ("[%s]" % chk["id"],
                                   "pass" if chk["ok"] else "FAIL " +
                                   json.dumps(chk.get("detail", ""), sort_keys=True)))
    return "\n".join(lines) + "\n"


def _check(check_id: str, ok, **detail) -> dict:
    return {"id": check_id, "ok": bool(ok), "detail": detail}


def _positive_wedge(rs, m: int) -> tuple:
    """(count, dimension) of the spheres the positive part is a wedge of.

    At m = 0 the positive part is {()}, a single (-1)-sphere.
    """
    if m == 0:
        return 1, -1
    return fuss_catalan(rs, m - 1, positive=True), rs.rank - 1


def _load_complex(args: argparse.Namespace):
    rs = load_system(args.phi, args.m, args.cap_vertices)
    cx, adjacency = build_complex(rs, args.m)
    return rs, cx, adjacency


def _check_homology_cap(cx) -> None:
    """Refuse homology on a complex whose face count may exceed the cap."""
    bound = sum(2 ** len(f) for f in cx.facets)
    if bound > HOMOLOGY_FACE_CAP:
        raise GuardError("face count bound %d exceeds the homology cap %d"
                         % (bound, HOMOLOGY_FACE_CAP))


# -- subcommands -----------------------------------------------------------------


def cmd_build(args: argparse.Namespace) -> dict:
    rs, cx, _ = _load_complex(args)
    return {"phi": rs.label, "m": args.m, "rank": rs.rank, **cx.to_dict()}


def cmd_fvector(args: argparse.Namespace) -> dict:
    rs, cx, _ = _load_complex(args)
    f, h = f_h_vectors(cx)
    fp, hp = f_h_vectors(positive_part(cx))
    return {"columns": ["complex", "f_vector", "h_vector"],
            "rows": [["full", list(f), list(h) if h else None],
                     ["positive", list(fp), list(hp) if hp else None]]}


def cmd_homology(args: argparse.Namespace) -> dict:
    rs, cx, _ = _load_complex(args)
    _check_homology_cap(cx)
    full, prof = homology(cx), homology(cx, removed=negative_simples(cx))
    want, sphere_dim = _positive_wedge(rs, args.m)
    return {"full": full.to_dict(), "positive": prof.to_dict(),
            "checks": [_check("wedge-positive",
                              prof.concentrated(sphere_dim, want),
                              expected_spheres=want)]}


def _shelling_check(name: str, cx) -> tuple:
    """The ``shelling-<name>`` check of cx, and its checked order or None.

    A failure names its step, that step's facet and the earlier facet
    holding the step's restriction face, by vertex labels.
    """
    try:
        order = construct_shelling(cx)
    except ShellingFailure as exc:
        k, i = exc.order.failure
        facet, earlier = ([cx.vertices[v] for v in exc.order.facets[j]]
                          for j in (k, i))
        return _check("shelling-" + name, False, facets=len(cx.facets),
                      step=k, facet=facet, earlier=earlier), None
    return _check("shelling-" + name, True, facets=len(cx.facets)), order


def cmd_shelling(args: argparse.Namespace) -> dict:
    rs, cx, _ = _load_complex(args)
    return {"checks": [_shelling_check(name, complex_)[0] for name, complex_
                       in (("full", cx), ("positive", positive_part(cx)))]}


def cmd_kcm(args: argparse.Namespace) -> dict:
    k = args.k if args.k is not None else args.m + 1
    if k < 1:
        raise GuardError("k must be at least 1, got %d" % k)
    rs, cx, _ = _load_complex(args)
    _check_homology_cap(cx)
    rep = kcm_audit(cx, k, mode=args.mode, seed=args.seed,
                    workers=args.workers)
    return {"audit": rep.to_dict(),
            "checks": [_check("kcm-k%d" % k, rep.passed,
                              failures=len(rep.failures))]}


def cmd_incidence(args: argparse.Namespace) -> dict:
    rs, cx, _ = _load_complex(args)
    hist = codim1_incidence(cx)
    return {"histogram": {str(k): v for k, v in sorted(hist.items())},
            "checks": [_check("codim1-incidence", set(hist) == {args.m + 1},
                              expected=args.m + 1)]}


def cmd_ncp(args: argparse.Namespace) -> dict:
    if args.m < 1:
        raise GuardError("ncp needs m >= 1: the multichain poset is built "
                         "from m-tuples")
    rs = load_system(args.phi, args.m, args.cap_vertices)
    cx, _ = build_complex(rs, args.m)
    _check_homology_cap(cx)
    pos = positive_part(cx)
    checks = []
    interval = nc_interval(rs)
    report = {"interval_size": len(interval), "checks": checks}
    if args.m == 1:
        # from e, at position 0, to gamma, at the last
        mu = moebius(interval, 0, len(interval) - 1)
        report["moebius"] = mu
        checks.append(_check("ncp-moebius",
                             mu == (-1) ** rs.rank * len(pos.facets),
                             positive_facets=len(pos.facets)))
    L = build_Lm(interval, args.m)
    report["poset_size"] = len(L)
    # |L_m| is the Fuss-Catalan number (Armstrong); both sides multiply
    # over components
    want = fuss_catalan(rs, args.m)
    checks.append(_check("ncp-poset-size", len(L) == want, expected=want))
    rep = homotopy_compare(rs, args.m, pos_cx=pos, poset=L)
    # the fibers belong to the whole map; they are reported with k = n
    n = rs.rank
    checks.extend(_check("ncp-homotopy-k%d" % k,
                         rep.agrees(k) and (k < n or not rep.fiber_failures),
                         fibers=rep.fibers_checked if k == n else 0)
                  for k in range(1, n + 1))
    return report


def cmd_verify_all(args: argparse.Namespace) -> dict:
    rs, cx, adjacency = _load_complex(args)
    _check_homology_cap(cx)
    pos = positive_part(cx)
    m = args.m
    checks = []

    def add(check_id, ok, **detail):
        checks.append(_check(check_id, ok, **detail))

    # structural checks
    add("purity", cx.is_pure() and cx.dimension() == rs.rank - 1,
        dim=cx.dimension())
    want, sphere_dim = _positive_wedge(rs, m)
    add("purity-positive", pos.is_pure() and pos.dimension() == sphere_dim,
        dim=pos.dimension())
    hist = codim1_incidence(cx)
    add("codim1-incidence", set(hist) == {m + 1}, histogram=sorted(hist.items()))
    # definition equivalence on pairs
    verts = cx.objects
    agree = all(
        fr_compatible(rs, m, verts[i], verts[j]) == (j in adjacency[i])
        for i in range(len(verts)) for j in range(i + 1, len(verts)))
    add("flagness", agree, pairs=len(verts) * (len(verts) - 1) // 2)
    add("facet-count", len(cx.facets) == fuss_catalan(rs, m),
        facets=len(cx.facets), expected=fuss_catalan(rs, m))
    # facets of full size: none for {()} at m = 0, all of them for m >= 1
    pos_facets = sum(len(f) == rs.rank for f in pos.facets)
    add("facet-count-positive", pos_facets == fuss_catalan(rs, m, positive=True),
        facets=pos_facets)
    # shelling, and two checks read off its restriction faces R_k: the
    # facets with R_k the whole facet count the spheres, and
    # #{k : |R_k| = i} is the h-vector
    spheres = {"full": fuss_catalan(rs, m - 1), "positive": want}
    for name, complex_ in (("full", cx), ("positive", pos)):
        check, order = _shelling_check(name, complex_)
        checks.append(check)
        if order is None:
            continue
        whole = sum(len(r) == len(f)
                    for f, r in zip(order.facets, order.restrictions))
        add("shelling-spheres-%s" % name, whole == spheres[name],
            spheres=whole, expected=spheres[name])
        _, h = f_h_vectors(complex_)
        sizes = [len(r) for r in order.restrictions]
        got = [sizes.count(i) for i in range(len(h))]
        add("shelling-h-vector-%s" % name, got == list(h), h_vector=got)
    # wedge counts
    wedge = homology(cx, removed=negative_simples(cx))
    add("wedge-positive", wedge.concentrated(sphere_dim, want), expected=want)
    chi = pos.euler_characteristic_reduced()
    add("euler-identity", chi == (-1 if sphere_dim % 2 else 1) * want, chi=chi)
    # the (m+1)-CM audit, and a ridge's witness that it is best possible
    n_v = len(cx.vertices)
    total = sum(comb(n_v, s) for s in range(0, m + 1))
    mode = "exhaustive" if total <= EXHAUSTIVE_CAP else "sample"
    # the config records the k and the mode the audit used, not the flags
    args.k, args.mode = m + 1, mode
    rep = kcm_audit(cx, m + 1, mode=mode, seed=args.seed, workers=args.workers)
    add("kcm", rep.passed, k=m + 1, mode=mode, examined=rep.examined)
    witness = sharpness_witness(cx)
    add("kcm-witness", witness is not None and len(witness.removed) <= m + 1,
        witness=witness.to_dict() if witness else None)
    # the polygon model double-checks type A; it and the multichain poset
    # need m >= 1
    if m >= 1 and rs.is_irreducible and rs.label.startswith("A"):
        poly = typeA_polygon_oracle(rs.rank + 1, m)
        add("polygon-oracle", poly.f_vector() == cx.f_vector(),
            f_vector=list(cx.f_vector()))
    # noncrossing checks at small rank
    if 1 <= m <= 3 and rs.rank <= 3 and rs.is_irreducible:
        rep = homotopy_compare(rs, m, pos_cx=pos)
        add("ncp-homotopy", rep.ok, fibers=rep.fibers_checked)
    return {"checks": checks}


def cmd_polygon(args: argparse.Namespace) -> dict:
    if args.m < 1:
        raise GuardError("the polygon oracle needs m >= 1")
    rs = load_system(args.phi, args.m, args.cap_vertices)
    if not (rs.is_irreducible and rs.label.startswith("A")):
        raise GuardError("the polygon oracle models type A only")
    cx, _ = build_complex(rs, args.m)
    poly = typeA_polygon_oracle(rs.rank + 1, args.m)
    return {"polygon_f": list(poly.f_vector()),
            "complex_f": list(cx.f_vector()),
            "checks": [_check("polygon-oracle",
                              poly.f_vector() == cx.f_vector())]}


COMMANDS = {
    "build": cmd_build,
    "fvector": cmd_fvector,
    "homology": cmd_homology,
    "shelling": cmd_shelling,
    "kcm": cmd_kcm,
    "incidence": cmd_incidence,
    "ncp": cmd_ncp,
    "polygon": cmd_polygon,
    "verify-all": cmd_verify_all,
}


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return n


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="clustercx",
        description="Build generalized cluster complexes of finite root "
                    "systems and verify their structural properties.")
    top.add_argument("--version", action="version", version=__version__)
    # the common options, declared once and shared by every subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--phi", required=True,
                        help="root system label, e.g. A2, B3, I2(7), A1xA1")
    common.add_argument("--m", type=int, default=1, help="number of colors")
    common.add_argument("--k", type=int, default=None,
                        help="connectivity parameter for kcm")
    common.add_argument("--mode", default="exhaustive",
                        choices=["exhaustive", "sample"])
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--workers", type=_positive_int, default=1,
                        help="audit processes; more than the CPUs are not "
                             "started")
    common.add_argument("--out", default=None)
    common.add_argument("--format", default="table",
                        choices=["table", "json", "csv"])
    common.add_argument("--cap-vertices", type=int, default=CAP_VERTICES)
    sub = top.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return top


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.out:
            _check_out(args.out)
        report = COMMANDS[args.command](args)
        report["config"] = {key: value for key, value in vars(args).items()
                            if key != "out"}
        report["version"] = __version__
        _emit(args, report)
    except GuardError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        if isinstance(exc, (NotImplementedError, RecursionError)):
            raise  # a fault of the program, not a failed self-check
        # a self-check failed: flagness, Euler count, rho sequence, ...
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0 if all(c["ok"] for c in report.get("checks", ())) else 1


def main() -> None:
    sys.exit(run())
