"""Generalized noncrossing partitions and their order topology.

The poset of m-tuples with additive reflection length below a Coxeter
element is materialized from the interval under the bipartite element, and
its chain complexes are compared to skeleta of the positive cluster
complex, homology group by homology group, together with the triviality
check of every fiber of the face-to-tuple map.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .colored import (ColoredRoot, ComplexContext, build_complex, get_context,
                      positive_part, word_of_face)
from .coxeter import GroupElement, absolute_interval, absolute_leq, bipartite_coxeter
from .roots import RootSystem
from .simplicial import SimplicialComplex
from .topology import HomologyProfile, homology


@dataclass(frozen=True)
class MultichainTuple:
    """An m-tuple of group elements with additive length below gamma."""

    words: tuple

    @property
    def rank(self) -> int:
        return sum(w.length for w in self.words)

    def leq(self, other: "MultichainTuple") -> bool:
        return all(absolute_leq(u, w) for u, w in zip(self.words, other.words))

    def key(self) -> tuple:
        return tuple(w.perm for w in self.words)


class PosetView:
    """A finite poset given by elements, an order predicate and a rank."""

    def __init__(self, elements: Sequence, leq: Callable, rank: Callable,
                 label: Optional[Callable] = None):
        self.elements = list(elements)
        self._leq = leq
        self.rank = rank
        self.label = label or (lambda x: repr(x))
        self._matrix: Optional[dict] = None

    def leq(self, x, y) -> bool:
        return self._leq(x, y)

    def order_pairs(self) -> dict:
        if self._matrix is None:
            self._matrix = {}
            for i, x in enumerate(self.elements):
                for j, y in enumerate(self.elements):
                    if self._leq(x, y):
                        self._matrix.setdefault(i, set()).add(j)
        return self._matrix

    def truncate(self, k: int) -> "PosetView":
        kept = [x for x in self.elements if self.rank(x) <= k]
        return PosetView(kept, self._leq, self.rank, self.label)

    def without(self, removed: Iterable) -> "PosetView":
        removed = list(removed)
        kept = [x for x in self.elements if all(x is not r and x != r
                                                for r in removed)]
        return PosetView(kept, self._leq, self.rank, self.label)

    def minimum(self):
        mins = [x for x in self.elements
                if all(self._leq(x, y) for y in self.elements)]
        if len(mins) != 1:
            raise ValueError("poset has no unique minimum")
        return mins[0]

    def covers(self) -> list:
        pairs = self.order_pairs()
        out = []
        for i, x in enumerate(self.elements):
            ups = pairs.get(i, set()) - {i}
            for j in ups:
                if not any(k in ups and j in pairs.get(k, set()) and k != j
                           for k in ups):
                    out.append((i, j))
        return sorted(out)

    def to_dict(self) -> dict:
        return {
            "elements": [self.label(x) for x in self.elements],
            "ranks": [self.rank(x) for x in self.elements],
            "covers": self.covers(),
        }


@dataclass
class NCInterval:
    """The absolute-order interval below a Coxeter element."""

    system: RootSystem
    gamma: GroupElement
    elements: list

    def poset(self) -> PosetView:
        return PosetView(self.elements, absolute_leq, lambda w: w.length,
                         label=lambda w: list(w.perm))

    def __len__(self):
        return len(self.elements)


def nc_interval(rs: RootSystem, gamma: Optional[GroupElement] = None) -> NCInterval:
    if gamma is None:
        gamma = bipartite_coxeter(rs)
    elements = absolute_interval(rs, gamma)
    elements.sort(key=lambda w: (w.length, w.perm))
    return NCInterval(rs, gamma, elements)


def build_Lm(rs: RootSystem, m: int,
             gamma: Optional[GroupElement] = None) -> PosetView:
    """m-tuples whose product is below gamma with additive length."""
    if m < 1:
        raise ValueError("the tuple length m must be at least 1")
    interval = nc_interval(rs, gamma)
    gamma = interval.gamma
    top_len = gamma.length
    tuples: list = []

    def extend(prefix: list, product: GroupElement, used: int):
        if len(prefix) == m:
            if absolute_leq(product, gamma):
                tuples.append(MultichainTuple(tuple(prefix)))
            return
        for w in interval.elements:
            if used + w.length > top_len:
                continue
            nxt = product * w
            if nxt.length != used + w.length:
                continue
            extend(prefix + [w], nxt, used + w.length)

    extend([], rs.identity_element(), 0)
    tuples.sort(key=lambda t: (t.rank, t.key()))
    return PosetView(tuples, lambda a, b: a.leq(b), lambda t: t.rank,
                     label=lambda t: [list(w.perm) for w in t.words])


def moebius(p: PosetView, x, y) -> int:
    """Recursive Moebius function of the interval [x, y]."""
    if not p.leq(x, y):
        raise ValueError("moebius requires comparable elements")
    memo: dict = {}
    between = [z for z in p.elements if p.leq(x, z) and p.leq(z, y)]

    def mu(z) -> int:
        zk = id(z)
        if zk in memo:
            return memo[zk]
        total = 1 if z is x or z == x else \
            -sum(mu(v) for v in between if p.leq(v, z) and not (v is z or v == z))
        memo[zk] = total
        return total

    return mu(next(z for z in between if z is y or z == y))


def face_to_tuple(rs: RootSystem, m: int, sigma: Sequence[ColoredRoot],
                  ctx: Optional[ComplexContext] = None) -> MultichainTuple:
    """The color-class words of a face, highest color first."""
    sigma = list(sigma)
    if not sigma:
        raise ValueError("the face-to-tuple map is defined on nonempty faces")
    if ctx is None:
        ctx = get_context(rs, m)
    words = []
    for color in range(m, 0, -1):
        cls = [v for v in sigma if v.color == color]
        words.append(word_of_face(ctx, cls))
    out = MultichainTuple(tuple(words))
    if out.rank != len(sigma):
        raise RuntimeError("face word lengths do not add up to the face size")
    product = rs.identity_element()
    for w in out.words:
        product = product * w
    if not absolute_leq(product, ctx.gamma):
        raise RuntimeError("face tuple escapes the noncrossing interval")
    return out


def order_complex(p: PosetView, strip: Iterable = ()) -> SimplicialComplex:
    """Chains of the poset, as a flag complex of the comparability graph."""
    q = p.without(strip) if strip else p
    n = len(q.elements)
    labels = []
    seen = set()
    for x in q.elements:
        lab = str(q.label(x))
        if lab in seen:
            lab = "%s#%d" % (lab, len(seen))
        seen.add(lab)
        labels.append(lab)
    adjacency = {i: set() for i in range(n)}
    for i, j in itertools.combinations(range(n), 2):
        if q.leq(q.elements[i], q.elements[j]) or q.leq(q.elements[j], q.elements[i]):
            adjacency[i].add(j)
            adjacency[j].add(i)
    from .colored import _max_cliques
    facets = _max_cliques({i: frozenset(a) for i, a in adjacency.items()}) \
        if n else []
    return SimplicialComplex(labels, facets, objects=list(q.elements))


def truncate(p: PosetView, k: int) -> PosetView:
    return p.truncate(k)


def face_tuple_table(rs: RootSystem, m: int,
                     pos_cx: SimplicialComplex) -> dict:
    """The face-to-tuple map evaluated on every nonempty face."""
    ctx = get_context(rs, m)
    table = {}
    for f in pos_cx.faces():
        if f:
            table[f] = face_to_tuple(rs, m, [pos_cx.objects[i] for i in f],
                                     ctx=ctx)
    return table


def fiber_complex(rs: RootSystem, m: int, ideal: Iterable[MultichainTuple],
                  pos_cx: Optional[SimplicialComplex] = None,
                  table: Optional[dict] = None) -> SimplicialComplex:
    """Subcomplex of the positive part mapping into an order ideal."""
    ideal = list(ideal)
    if pos_cx is None:
        pos_cx, _ = build_complex(rs, m)
        pos_cx = positive_part(pos_cx)
    if table is None:
        table = face_tuple_table(rs, m, pos_cx)
    faces = [f for f, t in table.items() if any(t.leq(x) for x in ideal)]
    keep = sorted({v for f in faces for v in f})
    if not faces:
        return SimplicialComplex([], [()])
    remap = {old: new for new, old in enumerate(keep)}
    return SimplicialComplex([pos_cx.vertices[i] for i in keep],
                             [tuple(remap[v] for v in f) for f in faces],
                             objects=[pos_cx.objects[i] for i in keep])


@dataclass
class HomotopyCompareReport:
    ok: bool
    k: int
    skeleton_homology: HomologyProfile
    poset_homology: HomologyProfile
    fibers_checked: int
    fiber_failures: list

    def to_dict(self) -> dict:
        return {"ok": self.ok, "k": self.k,
                "skeleton_homology": self.skeleton_homology.to_dict(),
                "poset_homology": self.poset_homology.to_dict(),
                "fibers_checked": self.fibers_checked,
                "fiber_failures": self.fiber_failures}


def homotopy_compare(rs: RootSystem, m: int, k: int,
                     pos_cx: Optional[SimplicialComplex] = None,
                     poset: Optional[PosetView] = None,
                     check_fibers: bool = True) -> HomotopyCompareReport:
    """Compare the (k-1)-skeleton of the positive part with the truncated poset.

    Equality of all reduced homology groups is required, plus (optionally)
    trivial reduced homology of every principal-ideal fiber of the
    face-to-tuple map.
    """
    n = rs.rank
    if not 1 <= k <= n:
        raise ValueError("k must lie between 1 and the rank")
    if pos_cx is None:
        cx, _ = build_complex(rs, m)
        pos_cx = positive_part(cx)
    if poset is None:
        poset = build_Lm(rs, m)
    bottom = poset.minimum()
    skel = pos_cx.skeleton(k - 1)
    oc = order_complex(poset.truncate(k), strip=[bottom])
    hs = homology(skel)
    hp = homology(oc)
    ok = hs.groups() == hp.groups()
    fiber_failures: list = []
    checked = 0
    if check_fibers:
        table = face_tuple_table(rs, m, pos_cx)
        for x in poset.elements:
            if x == bottom:
                continue
            checked += 1
            fib = fiber_complex(rs, m, [x], pos_cx=pos_cx, table=table)
            prof = homology(fib)
            if fib.dimension() < 0 or not prof.is_trivial():
                fiber_failures.append(poset.label(x))
        ok = ok and not fiber_failures
    return HomotopyCompareReport(ok, k, hs, hp, checked, fiber_failures)
