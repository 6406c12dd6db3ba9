"""Generalized noncrossing partitions and their order topology.

The interval [e, gamma] of the absolute order and the poset L_m of m-tuples
with additive reflection length below gamma are indexed posets: their
elements are listed in a linear extension, bottom first, with one down-set
bitset per element.  Chain complexes of L_m are compared to skeleta of the
positive cluster complex, homology group by homology group, together with
the triviality check of every fiber of the face-to-tuple map.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .colored import (ColoredRoot, _max_cliques, build_complex, get_context,
                      positive_part, word_of_face)
from .coxeter import GroupElement, absolute_interval, absolute_leq
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


class Poset:
    """A finite poset listed in a linear extension.

    Bit i of ``down[j]`` is set iff element i lies below element j.  It is
    built in one pass from ``lower_covers``, whose j-th entry lists the
    positions that element j covers; each must precede j.  ``index`` maps
    each element to its position.
    """

    def __init__(self, elements: Sequence, ranks: Sequence[int],
                 lower_covers: Iterable[Iterable[int]]):
        self.elements = list(elements)
        self.ranks = list(ranks)
        self.down: list = []
        for j, below in enumerate(lower_covers):
            bits = 1 << j
            for i in below:
                if i >= j:
                    raise ValueError("a lower cover must precede its element")
                bits |= self.down[i]
            self.down.append(bits)
        self.index = {x: i for i, x in enumerate(self.elements)}

    def leq(self, i: int, j: int) -> bool:
        return self.down[j] >> i & 1 == 1

    def __len__(self):
        return len(self.elements)


def nc_interval(rs: RootSystem) -> Poset:
    """The absolute-order interval [e, gamma], e first and gamma last.

    Its covers are u < ut for reflections t with ut in the interval and one
    longer than u (Brady and Watt, 2002).
    """
    elements = sorted(absolute_interval(rs),
                      key=lambda w: (w.length, w.perm))
    ranks = [w.length for w in elements]
    where = {w: i for i, w in enumerate(elements)}
    reflections = [rs.reflection(r) for r in rs.positive_roots]
    lower_covers = []
    for j, v in enumerate(elements):
        below = (where.get(v * t) for t in reflections)
        lower_covers.append([i for i in below
                             if i is not None and ranks[i] == ranks[j] - 1])
    return Poset(elements, ranks, lower_covers)


def build_Lm(interval: Poset, m: int) -> Poset:
    """m-tuples of the interval whose product lies in it with additive length.

    The order is componentwise; its covers raise one coordinate by a cover
    of the interval.
    """
    if m < 1:
        raise ValueError("the tuple length m must be at least 1")
    elements, ranks, where = interval.elements, interval.ranks, interval.index
    top = ranks[-1]
    tuples: list = []

    def extend(prefix: tuple, product: GroupElement, used: int):
        if len(prefix) == m:
            tuples.append(prefix)
            return
        for i, w in enumerate(elements):
            if used + ranks[i] > top:
                break  # the elements ascend in rank
            # every prefix of a tuple in L_m has its product in the interval
            j = where.get(product * w)
            if j is not None and ranks[j] == used + ranks[i]:
                extend(prefix + (i,), elements[j], ranks[j])

    extend((), elements[0], 0)
    tuples.sort(key=lambda t: (sum(ranks[i] for i in t), t))
    position = {t: p for p, t in enumerate(tuples)}
    covers = [[i for i in range(j) if interval.leq(i, j)
               and ranks[i] == ranks[j] - 1] for j in range(len(interval))]
    return Poset(
        [MultichainTuple(tuple(elements[i] for i in t)) for t in tuples],
        [sum(ranks[i] for i in t) for t in tuples],
        [[position[t[:c] + (i,) + t[c + 1:]]
          for c in range(m) for i in covers[t[c]]] for t in tuples])


def moebius(p: Poset, x: int, y: int) -> int:
    """Moebius function of the interval [x, y], in one pass up from x."""
    if not p.leq(x, y):
        raise ValueError("moebius requires comparable elements")
    mu = {x: 1}
    for z in range(x + 1, y + 1):
        if p.leq(x, z) and p.leq(z, y):
            below = p.down[z]
            mu[z] = -sum(v for i, v in mu.items() if below >> i & 1)
    return mu[y]


def face_to_tuple(rs: RootSystem, m: int,
                  sigma: Sequence[ColoredRoot]) -> MultichainTuple:
    """The color-class words of a face, highest color first."""
    sigma = list(sigma)
    if not sigma:
        raise ValueError("the face-to-tuple map is defined on nonempty faces")
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


def order_complex(p: Poset, keep: Iterable[int]) -> SimplicialComplex:
    """Chains of the elements at positions ``keep``, as a flag complex."""
    keep = sorted(keep)
    adjacency = {a: set() for a in range(len(keep))}
    for a, b in itertools.combinations(range(len(keep)), 2):
        if p.leq(keep[a], keep[b]):
            adjacency[a].add(b)
            adjacency[b].add(a)
    facets = _max_cliques({a: frozenset(s) for a, s in adjacency.items()}) \
        if keep else []
    return SimplicialComplex([str(i) for i in keep], facets,
                             objects=[p.elements[i] for i in keep])


def face_tuple_table(rs: RootSystem, m: int, pos_cx: SimplicialComplex,
                     poset: Poset) -> dict:
    """The position in ``poset`` of the tuple of every nonempty face."""
    table = {}
    for f in pos_cx.faces():
        if f:
            t = face_to_tuple(rs, m, [pos_cx.objects[i] for i in f])
            if t not in poset.index:
                raise RuntimeError("face tuple lies outside the multichain poset")
            table[f] = poset.index[t]
    return table


def fiber_complex(pos_cx: SimplicialComplex, table: dict,
                  ideal: int) -> SimplicialComplex:
    """Subcomplex of the positive part mapping into an order ideal.

    ``table`` is the face-to-tuple table and ``ideal`` a bitset of poset
    positions, such as a down-set.
    """
    faces = [f for f, i in table.items() if ideal >> i & 1]
    if not faces:
        return SimplicialComplex([], [()])
    keep = sorted({v for f in faces for v in f})
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
                     poset: Optional[Poset] = None,
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
        poset = build_Lm(nc_interval(rs), m)
    skel = pos_cx.skeleton(k - 1)
    # the bottom sits at position 0
    oc = order_complex(poset, [i for i in range(1, len(poset))
                               if poset.ranks[i] <= k])
    hs = homology(skel)
    hp = homology(oc)
    ok = hs.groups() == hp.groups()
    fiber_failures: list = []
    checked = 0
    if check_fibers:
        table = face_tuple_table(rs, m, pos_cx, poset)
        for x in range(1, len(poset)):
            checked += 1
            fib = fiber_complex(pos_cx, table, poset.down[x])
            if fib.dimension() < 0 or not homology(fib).is_trivial():
                fiber_failures.append(
                    [list(w.perm) for w in poset.elements[x].words])
        ok = ok and not fiber_failures
    return HomotopyCompareReport(ok, k, hs, hp, checked, fiber_failures)
