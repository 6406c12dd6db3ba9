"""Generalized noncrossing partitions and their order topology.

The interval [e, gamma] of the absolute order and the poset L_m of m-tuples
with additive reflection length below gamma are indexed posets: their
elements are listed in a linear extension, bottom first, with one down-set
bitset per element; covers are looked up by the n simple-root images of a
product, never by the product itself.  An element of L_m is the m-tuple of
its words' simple-root images, and the face-to-tuple map reads each color
class's word off the face test's steps, with no group product.  The
comparison with the positive cluster complex reads every complex off two
face tables, the positive part's and that of the order complex of L_m
minus its bottom: for each k, the (k-1)-skeleton is the positive part's
cells with at most k vertices, the order complex of the ranks 1..k is the
restriction missing the vertices of higher rank, and the fiber of the
face-to-tuple map over an order ideal is the set of cells whose tuple
lies in it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .colored import (ColoredRoot, _max_cliques, _positions, _word,
                      build_complex, get_context, is_face, positive_part)
from .coxeter import absolute_interval
from .roots import RootSystem
from .simplicial import SimplicialComplex
from .topology import _table_of


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
    longer than u (Brady and Watt, 2002).  ut is looked up by its simple-root
    images u(t(alpha_j)): n lookups, no product.  gamma is the one the
    m = 1 context holds, since the interval is L_1.
    """
    elements = sorted(absolute_interval(rs, get_context(rs, 1).gamma),
                      key=lambda w: (w.length, w.perm))
    ranks = [w.length for w in elements]
    where = _by_images(elements)
    simple = rs.simple_positions
    reflections = [tuple(rs.reflection(r).perm[i] for i in simple)
                   for r in rs.positive_roots]
    lower_covers = []
    for j, v in enumerate(elements):
        p = v.perm
        below = (where.get(tuple(p[i] for i in t)) for t in reflections)
        lower_covers.append([i for i in below
                             if i is not None and ranks[i] == ranks[j] - 1])
    return Poset(elements, ranks, lower_covers)


def _by_images(elements: Sequence) -> dict:
    """Each element's position, keyed by its simple-root images."""
    simple = elements[0].system.simple_positions
    return {tuple(w.perm[i] for i in simple): j for j, w in enumerate(elements)}


def build_Lm(interval: Poset, m: int) -> Poset:
    """m-tuples of the interval whose product lies in it with additive length.

    An element is the m-tuple of its words' simple-root images, each as
    ``_by_images`` keys it.  The order is componentwise; its covers raise
    one coordinate by a cover of the interval.  A product is carried as a
    permutation, and its product with w is looked up by its images at w's
    simple-root images.
    """
    if m < 1:
        raise ValueError("the tuple length m must be at least 1")
    elements, ranks = interval.elements, interval.ranks
    where = _by_images(elements)
    images = list(where)  # in element order: the images fix an element
    top = ranks[-1]
    tuples: list = []

    def extend(prefix: tuple, product: tuple, used: int):
        if len(prefix) == m:
            tuples.append(prefix)
            return
        for i, w_images in enumerate(images):
            if used + ranks[i] > top:
                break  # the elements ascend in rank
            # every prefix of a tuple in L_m has its product in the interval
            j = where.get(tuple(product[x] for x in w_images))
            if j is not None and ranks[j] == used + ranks[i]:
                extend(prefix + (i,), elements[j].perm, ranks[j])

    extend((), elements[0].perm, 0)
    tuples.sort(key=lambda t: (sum(ranks[i] for i in t), t))
    position = {t: p for p, t in enumerate(tuples)}
    covers = [[i for i in range(j) if interval.leq(i, j)
               and ranks[i] == ranks[j] - 1] for j in range(len(interval))]
    return Poset(
        [tuple(images[i] for i in t) for t in tuples],
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
                  sigma: Sequence[ColoredRoot]) -> tuple:
    """The simple-root images of a face's color-class words, highest first.

    Each class word is read off the class's sorted steps, the ones
    ``is_face`` multiplies.  The classes, highest color first, make up the
    face's word, so ``is_face`` puts their product below gamma with length
    |sigma|, and their lengths must add up to |sigma|.
    """
    sigma = list(sigma)
    if not sigma:
        raise ValueError("the face-to-tuple map is defined on nonempty faces")
    ctx = get_context(rs, m)
    words = []
    for color in range(m, 0, -1):
        images = rs.simple_positions
        # w = t_1 .. t_k acts by t_k first
        for t in reversed(_word(ctx, _positions(
                ctx, [v for v in sigma if v.color == color]))):
            images = tuple(t[i] for i in images)
        words.append(images)
    if sum(rs.image_length(w) for w in words) != len(sigma):
        raise RuntimeError("face word lengths do not add up to the face size")
    if not is_face(ctx, sigma):
        raise RuntimeError("face tuple escapes the noncrossing interval")
    return tuple(words)


def order_complex(p: Poset, keep: Iterable[int]) -> SimplicialComplex:
    """Chains of the elements at positions ``keep``, as a flag complex."""
    keep = sorted(keep)
    slot = {x: a for a, x in enumerate(keep)}
    kept = sum(1 << x for x in keep)
    adjacency = [0] * len(keep)
    for b, y in enumerate(keep):
        below = p.down[y] & kept ^ 1 << y  # y lies in its own down-set
        while below:
            a = slot[below.bit_length() - 1]
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a
            below ^= 1 << keep[a]
    facets = _max_cliques(adjacency) if keep else []
    return SimplicialComplex([str(i) for i in keep], facets,
                             objects=[p.elements[i] for i in keep])


def face_tuple_table(rs: RootSystem, m: int, pos_cx: SimplicialComplex,
                     poset: Poset) -> list:
    """The position in ``poset`` of the tuple of each cell of the face table.

    Entry [k][c] belongs to cell c with k vertices of the positive part's
    table; the empty face sits at the bottom, position 0.  The map must be
    order-preserving, which the fiber lemma needs and which makes every
    down-set's fiber a subcomplex: each boundary face of a cell must map
    into the down-set of the cell's tuple.  RuntimeError names the first
    face that does not.
    """
    table = _table_of(pos_cx)
    positions = [[0]]
    for faces in table.faces[1:]:
        row = []
        for f in faces:
            t = face_to_tuple(rs, m, [pos_cx.objects[v] for v in f])
            if t not in poset.index:
                raise RuntimeError("face tuple lies outside the multichain poset")
            row.append(poset.index[t])
        positions.append(row)
    for k in range(1, len(positions)):
        for c, column in enumerate(table.columns[k]):
            below = poset.down[positions[k][c]]
            for b in column:
                if not below >> positions[k - 1][b] & 1:
                    raise RuntimeError(
                        "the face-to-tuple map is not order-preserving: face "
                        "%s of %s maps outside the down-set of its tuple" % (
                            _labels(pos_cx, table.faces[k - 1][b]),
                            _labels(pos_cx, table.faces[k][c])))
    return positions


def _labels(cx: SimplicialComplex, face: tuple) -> str:
    return "{%s}" % ", ".join(cx.vertices[v] for v in face)


def fiber_complex(positions: list, ideal: int) -> list:
    """The cells of the face table mapping into an order ideal, by size.

    ``positions`` is the face-to-tuple table and ``ideal`` a bitset of
    poset positions holding the bottom, such as a down-set; the empty
    face is then always listed.
    """
    return [[c for c, x in enumerate(row) if ideal >> x & 1]
            for row in positions]


@dataclass
class HomotopyCompareReport:
    """Entry k - 1 of each homology list belongs to k = 1 .. n."""

    skeleton_homology: list
    poset_homology: list
    fibers_checked: int
    fiber_failures: list  # the L_m elements whose fibers have homology

    def agrees(self, k: int) -> bool:
        """Whether the two complexes at k have the same homology groups."""
        return self.skeleton_homology[k - 1].groups() == \
            self.poset_homology[k - 1].groups()

    @property
    def ok(self) -> bool:
        return all(self.agrees(k) for k in
                   range(1, len(self.skeleton_homology) + 1)) \
            and not self.fiber_failures


def homotopy_compare(rs: RootSystem, m: int,
                     pos_cx: Optional[SimplicialComplex] = None,
                     poset: Optional[Poset] = None) -> HomotopyCompareReport:
    """Compare the skeleta of the positive part with the truncated poset.

    For each k = 1 .. n, the (k-1)-skeleton of the positive part and the
    order complex of the elements of L_m of ranks 1 .. k must have the same
    reduced homology groups.  Every principal-ideal fiber of the
    face-to-tuple map must have trivial reduced homology, as Quillen's
    fiber lemma asks of the whole map.  Both complexes at k are read with
    their cells of at most k vertices, so each profile spans degrees
    0 .. k-1, as the complex's own homology would.
    """
    if pos_cx is None:
        cx, _ = build_complex(rs, m)
        pos_cx = positive_part(cx)
    if poset is None:
        poset = build_Lm(nc_interval(rs), m)
    pos_table = _table_of(pos_cx)
    # the bottom sits at position 0, so order-complex vertex a is position a + 1
    chains = _table_of(order_complex(poset, range(1, len(poset))))

    def upto(table, k: int) -> list:
        return [range(len(faces)) for faces in table.faces[:k + 1]]

    skeleta, truncations = [], []
    for k in range(1, rs.rank + 1):
        higher = sum(1 << (i - 1) for i in range(1, len(poset))
                     if poset.ranks[i] > k)
        skeleta.append(pos_table.profile(upto(pos_table, k)))
        truncations.append(chains.profile(upto(chains, k), higher))
    positions = face_tuple_table(rs, m, pos_cx, poset)
    failures = [poset.elements[x] for x in range(1, len(poset))
                if not pos_table.profile(
                    fiber_complex(positions, poset.down[x])).is_trivial()]
    return HomotopyCompareReport(skeleta, truncations, len(poset) - 1,
                                 failures)
