"""Command-line front end.

Subcommands build complexes and run the verification suites, emitting
deterministic reports (pretty table, JSON, or CSV).  Exit codes: 0 when
all requested checks pass, 1 when a structural check or a library
self-check fails, 2 for usage errors.  Bad input (label, rank, m, k; the
parser checks the mode) and the desk-scale guards raise ``GuardError``; any
other exception is a fault of the program and propagates.
"""
from __future__ import annotations

import argparse
import errno
import functools
import io
import json
import os
import sys
from typing import Optional

from . import __version__
from .colored import (build_complex, fr_compatible, positive_part,
                      typeA_polygon_oracle)
from .noncrossing import build_Lm, homotopy_compare, moebius, nc_interval
from .roots import build_root_system
from .simplicial import f_h_vectors
from .topology import (codim1_incidence, construct_shelling, fuss_catalan,
                       fuss_narayana_positive, homology, kcm_audit,
                       verify_wedge, ShellingFailure)


class RunConfig:
    __slots__ = ("phi", "m", "k", "mode", "seed", "workers", "out", "fmt",
                 "cap_vertices", "command")

    def __init__(self, phi: str, m: int = 1, k: Optional[int] = None,
                 mode: str = "exhaustive", seed: int = 0, workers: int = 1,
                 out: Optional[str] = None, fmt: str = "table",
                 cap_vertices: int = 200, command: str = ""):
        self.phi = phi
        self.m = m
        self.k = k
        self.mode = mode
        self.seed = seed
        self.workers = workers
        self.out = out
        self.fmt = fmt
        self.cap_vertices = cap_vertices
        self.command = command

    def to_dict(self) -> dict:
        return {"phi": self.phi, "m": self.m, "k": self.k, "mode": self.mode,
                "seed": self.seed, "workers": self.workers,
                "format": self.fmt, "cap_vertices": self.cap_vertices,
                "command": self.command}


class GuardError(ValueError):
    """A usage error or a refused request: exit 2."""


MAX_RANK = 6
MAX_COLORS = 4
HOMOLOGY_FACE_CAP = 200_000


def _load_system(cfg: RunConfig):
    if cfg.m < 0:
        raise GuardError("the color count m must be nonnegative, got %d" % cfg.m)
    try:
        rs = build_root_system(cfg.phi)
    except ValueError as exc:  # a bad label
        raise GuardError(str(exc)) from None
    if rs.rank > MAX_RANK:
        raise GuardError("rank %d exceeds the desk-scale limit %d; full "
                         "enumeration at that size is out of reach"
                         % (rs.rank, MAX_RANK))
    if cfg.m > MAX_COLORS:
        raise GuardError("m = %d exceeds the desk-scale limit %d"
                         % (cfg.m, MAX_COLORS))
    predicted = cfg.m * len(rs.positive_roots) + rs.rank
    if predicted > cfg.cap_vertices:
        raise GuardError(
            "refusing facet enumeration: %d vertices exceeds the cap %d "
            "(raise --cap-vertices to override)" % (predicted, cfg.cap_vertices))
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


def _emit(cfg: RunConfig, report: dict) -> None:
    text = _render(cfg, report)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise GuardError("cannot write the report to %s: %s"
                             % (cfg.out, exc.strerror or exc)) from None
        print("wrote %s" % cfg.out)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _render(cfg: RunConfig, report: dict) -> str:
    if cfg.fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if cfg.fmt == "csv":
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


def _base_report(cfg: RunConfig) -> dict:
    return {"config": cfg.to_dict(), "version": __version__}


def _positive_wedge(rs, m: int) -> tuple:
    """(count, dimension) of the spheres the positive part is a wedge of.

    At m = 0 the positive part is {()}, a single (-1)-sphere.
    """
    if m == 0:
        return 1, -1
    return fuss_narayana_positive(rs, m - 1), rs.rank - 1


def _load_complex(cfg: RunConfig):
    rs = _load_system(cfg)
    cx, adjacency = build_complex(rs, cfg.m)
    return rs, cx, adjacency


def _check_homology_cap(cx) -> None:
    """Refuse homology on a complex whose face count may exceed the cap."""
    bound = sum(2 ** len(f) for f in cx.facets)
    if bound > HOMOLOGY_FACE_CAP:
        raise GuardError("face count bound %d exceeds the homology cap %d"
                         % (bound, HOMOLOGY_FACE_CAP))


# -- subcommands -----------------------------------------------------------------


def cmd_build(cfg: RunConfig) -> int:
    rs, cx, _ = _load_complex(cfg)
    report = _base_report(cfg)
    report.update({"phi": rs.label, "m": cfg.m, "rank": rs.rank})
    report.update(cx.to_dict())
    _emit(cfg, report)
    return 0


def cmd_fvector(cfg: RunConfig) -> int:
    rs, cx, _ = _load_complex(cfg)
    pos = positive_part(cx)
    f, h = f_h_vectors(cx)
    fp, hp = f_h_vectors(pos)
    report = _base_report(cfg)
    report["columns"] = ["complex", "f_vector", "h_vector"]
    report["rows"] = [
        ["full", list(f), list(h) if h else None],
        ["positive", list(fp), list(hp) if hp else None],
    ]
    _emit(cfg, report)
    return 0


def cmd_homology(cfg: RunConfig) -> int:
    rs, cx, _ = _load_complex(cfg)
    _check_homology_cap(cx)
    pos = positive_part(cx)
    report = _base_report(cfg)
    report["full"] = homology(cx).to_dict()
    prof = homology(pos)
    report["positive"] = prof.to_dict()
    want, sphere_dim = _positive_wedge(rs, cfg.m)
    ok = prof.concentrated(sphere_dim, want)
    report["checks"] = [{"id": "wedge-positive", "ok": ok,
                         "detail": {"expected_spheres": want}}]
    _emit(cfg, report)
    return 0 if ok else 1


def cmd_shelling(cfg: RunConfig) -> int:
    rs, cx, _ = _load_complex(cfg)
    report = _base_report(cfg)
    checks = []
    for name, complex_ in (("full", cx), ("positive", positive_part(cx))):
        # construct_shelling returns a verified order or raises
        try:
            order = construct_shelling(complex_)
            ok, detail = True, {"facets": len(order.facets)}
        except ShellingFailure as exc:
            ok, detail = False, {"error": str(exc)}
        checks.append({"id": "shelling-%s" % name, "ok": ok, "detail": detail})
    report["checks"] = checks
    _emit(cfg, report)
    return 0 if all(c["ok"] for c in checks) else 1


def cmd_kcm(cfg: RunConfig) -> int:
    k = cfg.k if cfg.k is not None else cfg.m + 1
    if k < 1:
        raise GuardError("k must be at least 1, got %d" % k)
    rs, cx, _ = _load_complex(cfg)
    _check_homology_cap(cx)
    rep = kcm_audit(cx, k, mode=cfg.mode, seed=cfg.seed, workers=cfg.workers)
    report = _base_report(cfg)
    report["audit"] = rep.to_dict()
    report["checks"] = [{"id": "kcm-k%d" % k, "ok": rep.passed,
                         "detail": {"failures": len(rep.failures)}}]
    _emit(cfg, report)
    return 0 if rep.passed else 1


def cmd_incidence(cfg: RunConfig) -> int:
    rs, cx, _ = _load_complex(cfg)
    hist = codim1_incidence(cx)
    ok = set(hist) == {cfg.m + 1}
    report = _base_report(cfg)
    report["histogram"] = {str(k): v for k, v in sorted(hist.items())}
    report["checks"] = [{"id": "codim1-incidence", "ok": ok,
                         "detail": {"expected": cfg.m + 1}}]
    _emit(cfg, report)
    return 0 if ok else 1


def cmd_ncp(cfg: RunConfig) -> int:
    if cfg.m < 1:
        raise GuardError("ncp needs m >= 1: the multichain poset is built "
                         "from m-tuples")
    rs = _load_system(cfg)
    if not rs.is_irreducible:
        raise GuardError("ncp needs an irreducible system: the face-to-tuple "
                         "map follows the Coxeter element's root sequence")
    cx, _ = build_complex(rs, cfg.m)
    _check_homology_cap(cx)
    pos = positive_part(cx)
    report = _base_report(cfg)
    checks = []
    interval = nc_interval(rs)
    report["interval_size"] = len(interval)
    if cfg.m == 1:
        # from e, at position 0, to gamma, at the last
        mu = moebius(interval, 0, len(interval) - 1)
        cx1_pos_facets = len(pos.facets)
        ok = mu == (-1) ** rs.rank * cx1_pos_facets
        report["moebius"] = mu
        checks.append({"id": "ncp-moebius", "ok": ok,
                       "detail": {"positive_facets": cx1_pos_facets}})
    L = build_Lm(interval, cfg.m)
    report["poset_size"] = len(L)
    rep = homotopy_compare(rs, cfg.m, pos_cx=pos, poset=L)
    # the fibers belong to the whole map; they are reported with k = n
    n = rs.rank
    checks += [{"id": "ncp-homotopy-k%d" % k,
                "ok": rep.agrees(k) and (k < n or not rep.fiber_failures),
                "detail": {"fibers": rep.fibers_checked if k == n else 0}}
               for k in range(1, n + 1)]
    report["checks"] = checks
    _emit(cfg, report)
    return 0 if all(c["ok"] for c in checks) else 1


def cmd_verify_all(cfg: RunConfig) -> int:
    rs, cx, adjacency = _load_complex(cfg)
    _check_homology_cap(cx)
    pos = positive_part(cx)
    m = cfg.m
    checks = []

    def add(check_id, ok, **detail):
        checks.append({"id": check_id, "ok": bool(ok), "detail": detail})

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
        # construct_shelling returns a verified order or raises
        try:
            order = construct_shelling(complex_)
        except ShellingFailure:
            order = None
        add("shelling-%s" % name, order is not None, facets=len(complex_.facets))
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
    add("wedge-positive", verify_wedge(pos, want, sphere_dim), expected=want)
    chi = pos.euler_characteristic_reduced()
    add("euler-identity", chi == (-1 if sphere_dim % 2 else 1) * want, chi=chi)
    # connectivity audits (witness search kept cheap)
    exhaustive_cap = 5000
    from math import comb
    n_v = len(cx.vertices)
    total = sum(comb(n_v, s) for s in range(0, m + 1))
    mode = "exhaustive" if total <= exhaustive_cap else "sample"
    rep = kcm_audit(cx, m + 1, mode=mode, seed=cfg.seed, workers=cfg.workers)
    add("kcm", rep.passed, k=m + 1, mode=mode, examined=rep.examined)
    witness = kcm_audit(cx, m + 2, sizes=[m + 1], max_failures=1)
    add("kcm-witness", not witness.passed,
        witness=witness.failures[0].to_dict() if witness.failures else None)
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
    report = _base_report(cfg)
    report["checks"] = checks
    _emit(cfg, report)
    return 0 if all(c["ok"] for c in checks) else 1


def cmd_polygon(cfg: RunConfig) -> int:
    if cfg.m < 1:
        raise GuardError("the polygon oracle needs m >= 1")
    rs = _load_system(cfg)
    if not (rs.is_irreducible and rs.label.startswith("A")):
        raise GuardError("the polygon oracle models type A only")
    cx, _ = build_complex(rs, cfg.m)
    poly = typeA_polygon_oracle(rs.rank + 1, cfg.m)
    ok = poly.f_vector() == cx.f_vector()
    report = _base_report(cfg)
    report["polygon_f"] = list(poly.f_vector())
    report["complex_f"] = list(cx.f_vector())
    report["checks"] = [{"id": "polygon-oracle", "ok": ok, "detail": {}}]
    _emit(cfg, report)
    return 0 if ok else 1


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
    common.add_argument("--exhaustive", dest="mode", action="store_const",
                        const="exhaustive",
                        help="shorthand for --mode exhaustive")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--workers", type=_positive_int, default=1,
                        help="audit processes; more than the CPUs are not "
                             "started")
    common.add_argument("--out", default=None)
    common.add_argument("--format", dest="fmt", default="table",
                        choices=["table", "json", "csv"])
    common.add_argument("--cap-vertices", type=int, default=200)
    sub = top.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return top


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    cfg = RunConfig(phi=args.phi, m=args.m, k=args.k, mode=args.mode,
                    seed=args.seed, workers=args.workers, out=args.out,
                    fmt=args.fmt, cap_vertices=args.cap_vertices,
                    command=args.command)
    try:
        if cfg.out:
            _check_out(cfg.out)
        return COMMANDS[args.command](cfg)
    except GuardError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        if isinstance(exc, (NotImplementedError, RecursionError)):
            raise  # a fault of the program, not a failed self-check
        # a self-check failed: flagness, Euler count, rho sequence, ...
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
