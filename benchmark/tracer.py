"""Span tracing of the program's public functions, for the traced run only.

``install`` replaces each traced function with a wrapper, in its class or
in every ``clustercomplexes`` module namespace that bound it by name.  A
call through a wrapper records one span: its name, start, end and parent
(the span open when it began).  Spans are kept in flat arrays and reduced
at the end of the round: a span's self time is its duration minus the
durations of its child spans.  The program itself carries no tracing.
"""
from __future__ import annotations

import sys
import time
from array import array

# (module, attribute, span name); "Class.method" patches a class attribute.
# Functions without a metric of their own are traced too, so that their
# time counts toward their own module and not toward the caller's self time.
TRACED = [
    ("roots", "build_root_system", "roots.build"),
    ("exact", "Matrix.__mul__", "exact.matmul"),
    ("exact", "Matrix.rank", "exact.rank"),
    ("exact", "smith_normal_form", "exact.snf"),
    ("coxeter", "GroupElement.__mul__", "coxeter.mul"),
    ("coxeter", "GroupElement.length", "coxeter.length"),
    ("coxeter", "absolute_leq", "coxeter.absolute_leq"),
    ("coxeter", "absolute_interval", "coxeter.interval"),
    ("coxeter", "bipartite_coxeter", "coxeter.bipartite"),
    ("coxeter", "total_order", "coxeter.total_order"),
    ("colored", "is_face", "colored.is_face"),
    ("colored", "build_complex", "colored.build"),
    ("colored", "fr_compatible", "colored.fr_compatible"),
    ("colored", "positive_part", "colored.positive_part"),
    ("colored", "typeA_polygon_oracle", "colored.polygon"),
    ("simplicial", "SimplicialComplex.__init__", "simplicial.init"),
    ("simplicial", "SimplicialComplex.faces", "simplicial.faces"),
    ("simplicial", "f_h_vectors", "simplicial.f_h_vectors"),
    ("topology", "homology", "topology.homology"),
    ("topology", "is_cohen_macaulay", "topology.cm"),
    ("topology", "kcm_audit", "topology.kcm"),
    ("topology", "construct_shelling", "topology.shelling"),
    ("topology", "verify_shelling", "topology.shelling"),
    ("topology", "codim1_incidence", "topology.incidence"),
    ("noncrossing", "nc_interval", "noncrossing.interval"),
    ("noncrossing", "build_Lm", "noncrossing.build_Lm"),
    ("noncrossing", "moebius", "noncrossing.moebius"),
    ("noncrossing", "order_complex", "noncrossing.order_complex"),
    ("noncrossing", "face_tuple_table", "noncrossing.fiber_table"),
    ("noncrossing", "fiber_complex", "noncrossing.fiber"),
    ("noncrossing", "homotopy_compare", "noncrossing.compare"),
    ("cli", "run", "cli.run"),
]

MODULES = ("roots", "exact", "coxeter", "colored", "simplicial", "topology",
           "noncrossing", "cli")


class Tracer:
    """Flat span store plus the counters the per-layer ratios need."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.open: list = [-1]
        self.snf_entries = 0
        self.kcm_removals = 0
        self.length_perms: set = set()
        self.homology_keys: set = set()

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, note=None):
        sid = self.span_id(name)
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self.open)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                note(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def reduce(self, since: int = 0) -> dict:
        """Per span name: calls, total time and self time of spans from ``since``."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(since, n):
            row = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return {k: {"calls": c, "total_s": t, "self_s": s}
                for k, (c, t, s) in out.items()}


def span_cost_s(calls: int = 200_000, repeats: int = 3) -> float:
    """Seconds one span adds to a call: a traced no-op against a bare one."""
    def noop():
        return None

    traced = Tracer().wrap("probe", noop)

    def loop(fn):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    costs = sorted((loop(traced) - loop(noop)) / calls for _ in range(repeats))
    return max(costs[repeats // 2], 0.0)


def install(tracer: Tracer) -> None:
    """Route every function in TRACED through the tracer."""
    from clustercomplexes import (cli, colored, coxeter, exact, noncrossing,  # noqa: F401
                                  roots, simplicial, topology)
    pkg = sys.modules["clustercomplexes"]
    namespaces = [pkg] + [sys.modules["clustercomplexes." + m] for m in MODULES]
    notes = _notes(tracer)
    for module, attr, name in TRACED:
        mod = sys.modules["clustercomplexes." + module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            if isinstance(orig, property):
                setattr(cls, meth, property(_length_getter(tracer, name, orig.fget)))
            else:
                setattr(cls, meth, tracer.wrap(name, orig, notes.get(name)))
            continue
        orig = getattr(mod, attr)
        traced = tracer.wrap(name, orig, notes.get(name))
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, traced)


def _length_getter(tracer: Tracer, name: str, fget):
    """Reflection length: a span per evaluation, none for a cached read."""
    evaluate = tracer.wrap(name, fget)
    perms = tracer.length_perms

    def length(self):
        if self._length is None:
            perms.add(self.perm)
            return evaluate(self)
        return self._length

    return length


def _notes(tracer: Tracer) -> dict:
    def snf(args, out):
        rows = getattr(args[0], "entries", args[0])
        tracer.snf_entries += len(rows) * (len(rows[0]) if rows else 0)

    def hom(args, out):
        tracer.homology_keys.add(args[0].facets)

    def kcm(args, out):
        tracer.kcm_removals += out.examined

    return {"exact.snf": snf, "topology.homology": hom, "topology.kcm": kcm}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, table: dict, round_start: int,
                  round_wall_s: float) -> dict:
    """The per-layer metrics of a traced process, from its ``reduce()`` table.

    ``round_start`` is the index of the first span of the timed round; the
    spans before it are the root-system builds of set-up, which count
    toward ``roots.build_s`` but not toward ``trace.outside_s``.
    """
    in_round = tracer.reduce(round_start)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(table.get(n, {}).get("self_s", 0.0) for n in names)

    out = {
        "roots.build_s": self_s("roots.build"),
        "exact.matmul_calls": calls("exact.matmul"),
        "exact.matmul_s": self_s("exact.matmul"),
        "exact.rank_calls": calls("exact.rank"),
        "exact.rank_s": self_s("exact.rank"),
        "exact.snf_calls": calls("exact.snf"),
        "exact.snf_s": self_s("exact.snf"),
        "exact.snf_entries": tracer.snf_entries,
        "coxeter.mul_calls": calls("coxeter.mul"),
        "coxeter.mul_s": self_s("coxeter.mul"),
        "coxeter.length_evals": calls("coxeter.length"),
        "coxeter.length_s": self_s("coxeter.length"),
        "coxeter.length_useful": _ratio(len(tracer.length_perms),
                                        calls("coxeter.length")),
        "coxeter.absolute_leq_calls": calls("coxeter.absolute_leq"),
        "coxeter.absolute_leq_s": self_s("coxeter.absolute_leq"),
        "coxeter.interval_s": self_s("coxeter.interval"),
        "colored.is_face_calls": calls("colored.is_face"),
        "colored.is_face_s": self_s("colored.is_face"),
        "colored.build_s": self_s("colored.build"),
        "simplicial.init_calls": calls("simplicial.init"),
        "simplicial.init_s": self_s("simplicial.init"),
        "simplicial.faces_s": self_s("simplicial.faces"),
        "topology.homology_calls": calls("topology.homology"),
        "topology.homology_s": self_s("topology.homology"),
        "topology.homology_useful": _ratio(len(tracer.homology_keys),
                                           calls("topology.homology")),
        "topology.cm_checks": calls("topology.cm"),
        "topology.kcm_removals": tracer.kcm_removals,
        "topology.kcm_s": self_s("topology.kcm"),
        "topology.shelling_s": self_s("topology.shelling"),
        "noncrossing.build_Lm_s": self_s("noncrossing.build_Lm"),
        "noncrossing.order_complex_s": self_s("noncrossing.order_complex"),
        "noncrossing.fibers": calls("noncrossing.fiber"),
        "noncrossing.fiber_s": self_s("noncrossing.fiber", "noncrossing.fiber_table"),
        "cli.self_s": self_s("cli.run"),
    }
    for module in MODULES[:-1]:
        out[module + ".self_s"] = self_s(*[n for n in table
                                           if n.startswith(module + ".")])
    out["trace.spans"] = len(tracer.start)
    out["trace.outside_s"] = round_wall_s - sum(
        row["self_s"] for row in in_round.values())
    return out
