"""Topological checks: purity, shellings, homology, connectivity audits.

A shelling order is the facet list as it stands, sorted, which is the
lexicographic order in the vertex numbering; a generalized cluster complex
numbers its vertices in the colored total order, whose lexicographic
order shells it.  The order is checked in one pass by its restriction
faces, so a returned order is a checked certificate; no order is searched
for.  Homology is integral and read off a face table that indexes every
face once, with its vertex bitmask, cofaces and boundary (a tuple, signed
by place), kept on its complex with the complex's one audit object, and
so with its link memo, for every later homology or audit of that complex.
A profile is taken of any subcomplex given as the table's cells by size,
less a vertex set: ``homology`` reads a vertex restriction, such as the
positive part, off the complex's own table, and ``noncrossing`` reads
skeleta, restrictions and fibers this way.
A chain complex is a set of the table's cells with the boundary restricted
to them; it is coreduced first, which keeps the integral homology and
creates no fill-in, and only what is left is eliminated on unit pivots,
with a dense Smith normal form on the block left without a unit entry.
Cohen-Macaulayness is decided homologically: every face link must have
vanishing reduced homology below its top dimension.  A k-CM audit decides
each vertex removal W from one face table: Delta|W keeps the faces that
miss W, and a face link in it is the relative complex of the faces that
contain the face and miss W.  When the complex carries a vertex symmetry
(R_m on a generalized cluster complex), the audit first checks that it
maps the facet list onto itself, then decides one removal per orbit of
the group it generates, since Delta|W and Delta|g(W) are isomorphic, and
keys each link verdict by the orbit of the face with the removed part of
its star.  An audit that stops at a given number of failures first scans
the removals with the dimension and purity bitset tests alone, and runs
the full search, in the same scan, only if those find too few.  The
incidence histogram and the sharpness witness are read off ridges.
"""
from __future__ import annotations

import collections
import itertools
import os
import random
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .exact import smith_normal_form
from .roots import RootSystem
from .simplicial import SimplicialComplex


# -- shellings ----------------------------------------------------------------------


class ShellingOrder:
    """A facet order with its restriction faces, or its failing step."""

    __slots__ = ("facets", "restrictions", "failure")

    def __init__(self, facets: tuple, restrictions: tuple = (),
                 failure: Optional[tuple] = None):
        self.facets = facets
        self.restrictions = restrictions
        self.failure = failure  # (k, i) indices violating the condition

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.facets, self.restrictions, self.failure) == \
            (other.facets, other.restrictions, other.failure)

    @property
    def ok(self) -> bool:
        return self.failure is None

    def __len__(self):
        return len(self.facets)


def verify_shelling(cx: SimplicialComplex,
                    order: Sequence[Sequence[int]]) -> ShellingOrder:
    """Check a shelling order in one pass, by its restriction faces.

    R_k is the set of vertices v of F_k with F_k - v in an earlier facet.
    Step k fails iff an earlier facet contains R_k, and ``failure`` names
    the first, as the definition does: an earlier F_i meets F_k outside
    every F_k - v, v in R_k, iff F_i contains R_k.
    """
    if not cx.is_pure():
        raise ValueError("the shelling definition used here is for pure complexes")
    facets = [tuple(sorted(f)) for f in order]
    if sorted(facets) != list(cx.facets):
        raise ValueError("order is not a permutation of the facet list")
    kept: dict = {}  # mask of each face of F_0 .. F_k-1 -> first facet
    restrictions = []
    for k, fk in enumerate(facets):
        bits = [1 << v for v in fk]
        full = sum(bits)
        rest = tuple(v for v, b in zip(fk, bits) if full ^ b in kept)
        first = kept.get(sum(1 << v for v in rest))
        if first is not None:
            return ShellingOrder(tuple(facets), failure=(k, first))
        restrictions.append(rest)
        for size in range(len(bits) + 1):
            for face in itertools.combinations(bits, size):
                kept.setdefault(sum(face), k)
    return ShellingOrder(tuple(facets), tuple(restrictions))


class ShellingFailure(RuntimeError):
    """The lexicographic facet order failed its shelling check.

    ``order`` is the checked ``ShellingOrder``; its ``failure`` (k, i)
    names the failing step k and the earlier facet F_i that holds R_k.
    """

    def __init__(self, order: ShellingOrder):
        k, i = order.failure
        super().__init__("step %d: facet %r has its restriction face in the "
                         "earlier facet %r" % (k, order.facets[k],
                                               order.facets[i]))
        self.order = order


def construct_shelling(cx: SimplicialComplex) -> ShellingOrder:
    """The facet list, in its lexicographic order, checked as a shelling.

    The order is checked by ``verify_shelling`` and returned with its
    restriction faces, or ``ShellingFailure`` names its failing step.
    Raises ``ValueError`` on an impure complex, as ``verify_shelling``
    does.
    """
    order = verify_shelling(cx, cx.facets)
    if not order.ok:
        raise ShellingFailure(order)
    return order


# -- homology ------------------------------------------------------------------------


class HomologyProfile:
    """Reduced integral homology: Betti numbers and torsion per degree.

    ``betti[i]`` and ``torsion[i]`` belong to degree ``first_degree + i``.
    The degrees start at 0, except for the complex {()} whose only reduced
    homology is Z in degree -1.
    """

    __slots__ = ("betti", "torsion", "euler_reduced", "first_degree")

    def __init__(self, betti: tuple, torsion: tuple, euler_reduced: int,
                 first_degree: int = 0):
        self.betti = betti
        self.torsion = torsion  # tuple of tuples of invariant factors > 1
        self.euler_reduced = euler_reduced
        self.first_degree = first_degree

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine = (self.betti, self.torsion, self.euler_reduced, self.first_degree)
        return mine == (other.betti, other.torsion, other.euler_reduced,
                        other.first_degree)

    def is_trivial(self) -> bool:
        return not self.groups()

    def groups(self) -> dict:
        """The nonzero groups: degree -> (Betti number, torsion)."""
        return {deg: (b, t) for deg, (b, t) in
                enumerate(zip(self.betti, self.torsion), self.first_degree)
                if b or t}

    def concentrated(self, dim: int, rank: int) -> bool:
        return self.groups() == ({dim: (rank, ())} if rank else {})

    def to_dict(self) -> dict:
        out = {"betti": list(self.betti),
               "torsion": [list(t) for t in self.torsion],
               "euler_reduced": self.euler_reduced}
        if self.first_degree:
            out["first_degree"] = self.first_degree
        return out


def integer_rank_torsion(columns: list) -> tuple:
    """Rank and torsion coefficients of a sparse integer matrix.

    ``columns`` holds one {row: entry} dict per column, without zero
    entries; the dicts are consumed.  Unit pivots are eliminated first,
    column by column, each on the sparsest of its unit rows.  These are
    unimodular operations, so the invariant factors are kept.  The columns
    left unpivoted go to ``smith_normal_form``.
    Returns (rank, torsion), torsion being the invariant factors > 1.
    """
    rows: dict = {}
    for c, col in enumerate(columns):
        for r in col:
            rows.setdefault(r, set()).add(c)
    rank = 0
    for c, col in enumerate(columns):
        units = [r for r, v in col.items() if v == 1 or v == -1]
        if not units:
            continue
        r = min(units, key=lambda x: len(rows[x]))
        p = col[r]
        for other in list(rows[r]):
            if other == c:
                continue
            oc = columns[other]
            f = oc[r] * p  # p is its own inverse
            for rr, v in col.items():
                w = oc.get(rr, 0) - f * v
                if w:
                    oc[rr] = w
                    rows[rr].add(other)
                else:
                    del oc[rr]
                    rows[rr].discard(other)
        for rr in col:
            rows[rr].discard(c)
        columns[c] = None
        rank += 1
    rest = [col for col in columns if col]
    if not rest:
        return rank, ()
    used = {r: i for i, r in enumerate(sorted({r for col in rest for r in col}))}
    dense = [[0] * len(rest) for _ in used]
    for j, col in enumerate(rest):
        for r, v in col.items():
            dense[used[r]][j] = v
    factors, extra = smith_normal_form(dense)
    return rank + extra, tuple(d for d in factors if d > 1)


class _FaceTable:
    """Every face of a complex, indexed once, for homology.

    ``faces[k]`` lists the faces with k vertices, ``masks[k]`` their vertex
    bitmasks, ``columns[k]`` their boundary columns: the positions in
    faces[k-1] of their (k-1)-subsets, as ``itertools.combinations`` lists
    them, so entry p omits vertex k-1-p and has the sign (-1)^(k-1-p).
    ``cofaces[k]`` holds their cofaces' positions in faces[k+1].  The
    table lives as long as its complex, and so does the complex's audit,
    which ``_audit_of`` keeps on it: every audit of the complex shares it.
    """

    audit = None  # the complex's _Audit, once _audit_of has built it

    def __init__(self, facets: Sequence[tuple]):
        dim = max((len(f) for f in facets), default=0) - 1
        index = [{(): 0}] + [{} for _ in range(dim + 1)]
        for f in facets:
            for k in range(1, len(f) + 1):
                idx = index[k]
                for face in itertools.combinations(f, k):
                    if face not in idx:
                        idx[face] = len(idx)
        self.faces = [list(idx) for idx in index]
        self.masks = [[sum(1 << v for v in face) for face in fs]
                      for fs in self.faces]
        self.columns = [None] + [
            [tuple(map(index[k - 1].__getitem__,
                       itertools.combinations(face, k - 1)))
             for face in self.faces[k]]
            for k in range(1, dim + 2)]
        self.cofaces = [[[] for _ in fs] for fs in self.faces]
        for k in range(1, dim + 2):
            for i, col in enumerate(self.columns[k]):
                for f in col:
                    self.cofaces[k - 1][f].append(i)

    def _reduce(self, base: int, ups: list, removed: int) -> tuple:
        """Reduced homology of the cells in ``ups`` that miss ``removed``.

        ``ups[j]`` lists faces with base + j vertices, ``ups[0]`` the base
        cell alone; the faces of a listed face that contain the base cell
        are listed too.  The base is paired with one cell above it, then
        the rest is coreduced breadth-first, first queued first: a cell
        with one kept boundary face goes with that face.  Its boundary is
        +-1 times the face, so the pair's reduction (Kaczynski, Mrozek and
        Slusarek, 1998) deletes a row and a column and keeps the integral
        homology.  The columns left, if any, go to ``integer_rank_torsion``
        with their signs; on the cluster, link and order complexes measured
        none were left.  Returns (betti, torsion, chi); entry j of
        the first two belongs to degree j - 1.
        """
        masks, columns, cofaces = self.masks, self.columns, self.cofaces
        # each kept cell with its number of kept boundary faces; top cells
        # have no cofaces
        alive = [{c: j for c in cells if not masks[base + j][c] & removed}
                 for j, cells in enumerate(ups)] + [{}]
        top = len(ups)
        chi = sum(-len(c) if j % 2 == 0 else len(c) for j, c in enumerate(alive))
        queue = collections.deque([(1, next(iter(alive[1])))] if alive[1] else ())
        while queue:
            j, c = queue.popleft()
            cells = alive[j]
            if cells.get(c) != 1:
                continue
            below = alive[j - 1]
            for face in columns[base + j][c]:
                if face in below:
                    break
            del cells[c], below[face]
            for jj, up, ds in ((j, cells, cofaces[base + j - 1][face]),
                               (j + 1, alive[j + 1], cofaces[base + j][c])):
                for d in ds:
                    n = up.get(d)
                    if n is not None:
                        up[d] = n - 1
                        if n == 2:
                            queue.append((jj, d))
        ranks = [0] * (top + 1)
        torsion = [()] * (top + 1)
        for j in range(1, top):
            below = alive[j - 1]
            k = base + j
            cols = [{r: (-1) ** (k - 1 - p) for p, r in enumerate(columns[k][c])
                     if r in below} for c, n in alive[j].items() if n]
            if cols:
                ranks[j], torsion[j] = integer_rank_torsion(cols)
        betti = [len(alive[j]) - ranks[j] - ranks[j + 1] for j in range(top)]
        if sum(-b if j % 2 == 0 else b for j, b in enumerate(betti)) != chi:
            raise RuntimeError("homology does not match Euler count")
        return betti, torsion[1:], chi

    def profile(self, cells: Optional[list] = None,
                removed: int = 0) -> HomologyProfile:
        """Reduced integral homology of a subcomplex of the table.

        ``cells[k]`` lists its cells with k vertices, and the cells meeting
        ``removed`` are left out; what is left must be closed under taking
        faces.  The degrees run up to the largest listed size minus one.
        When None, every cell is listed, of each size a kept cell has: the
        restriction missing ``removed``, in its own degrees.  The reduction
        starts at the empty face, so the first coreductions walk a spanning
        forest.  Only {()} has homology in degree -1.
        """
        if cells is None:  # the sizes kept are 0 .. the largest kept size
            cells = [range(len(fs)) for fs, ms in zip(self.faces, self.masks)
                     if any(not mask & removed for mask in ms)]
        betti, torsion, chi = self._reduce(0, cells, removed)
        start = 0 if betti[0] else 1
        return HomologyProfile(tuple(betti[start:]), tuple(torsion[start:]),
                               chi, first_degree=start - 1)


class _Audit:
    """The Cohen-Macaulay audit of one complex, read off its face table.

    ``powers`` are the powers of ``cx.symmetry``, the identity first, or
    the identity alone; building the audit checks that the symmetry maps
    the facet list onto itself, that is, is an automorphism of cx.
    ``cover`` maps each face of a top facet to the top facets containing
    it, as a bitset, and ``lower`` lists the masks of the facets below the
    top dimension.  The powers split the faces s with 1 .. dim - 1
    vertices in a top facet (the link faces) into orbits, and ``stars[o]``
    holds (|s|, ups) for the first face s met in orbit o, its base:
    ``ups[j]`` lists the faces with |s| + j vertices that contain s and lie
    in a top facet.  ``links`` holds (mask of s, mask of its star minus s,
    o, maps) for each link face s, ``maps`` being the bit images of the
    powers that map s onto its base.  The link verdicts are kept for every
    later audit of the complex.
    """

    def __init__(self, cx: SimplicialComplex, table: _FaceTable):
        identity = tuple(range(len(cx.vertices)))
        powers = [identity]
        if cx.symmetry is not None:
            perm, facets = cx.symmetry, set(cx.facets)
            for f in cx.facets:
                image = tuple(sorted(perm[v] for v in f))
                if image not in facets:
                    raise RuntimeError(
                        "the vertex symmetry is not an automorphism: it maps "
                        "facet %r to %r, which is not a facet" % (f, image))
            q = perm
            while q != identity:
                powers.append(q)
                q = tuple(perm[v] for v in q)
        self.table = table
        top = len(table.faces) - 1
        self.dim = top - 1
        self.tops = table.masks[top]
        self.all_tops = (1 << len(self.tops)) - 1
        self.cover: dict = {}
        for j, fmask in enumerate(self.tops):
            bit, sub = 1 << j, fmask
            while True:
                self.cover[sub] = self.cover.get(sub, 0) | bit
                if not sub:
                    break
                sub = (sub - 1) & fmask
        self.lower = [sum(1 << v for v in g) for g in cx.facets if len(g) < top]
        masks, cofaces = table.masks, table.cofaces
        self.images = images = [[1 << v for v in q] for q in powers]
        order = len(powers)
        faces = [(size, s, smask) for size in range(1, self.dim)
                 for s, smask in enumerate(masks[size]) if smask in self.cover]
        where = {smask: i for i, (_, _, smask) in enumerate(faces)}
        self.links: list = [None] * len(faces)
        self.stars: list = []
        for i, (size, s, smask) in enumerate(faces):
            if self.links[i] is not None:
                continue
            ups = [[s]]
            for k in range(size, top):
                ups.append(sorted({d for c in ups[-1] for d in cofaces[k][c]
                                   if masks[k + 1][d] in self.cover}))
            lmask = 0
            for c in ups[-1]:
                lmask |= masks[top][c]
            star, own = _vertices(lmask & ~smask), _vertices(smask)
            orbit = [sum(bits[v] for v in own) for bits in images]
            fixed = [h for h, image in enumerate(orbit) if image == smask]
            # the h-th power maps s onto orbit[h], and power g maps that
            # back onto s iff g + h fixes s
            for h, image in enumerate(orbit):
                j = where[image]
                if self.links[j] is None:
                    self.links[j] = (image, sum(images[h][v] for v in star),
                                     len(self.stars),
                                     [images[(g - h) % order] for g in fixed])
            self.stars.append((size, ups))
        self.verdicts: dict = {}  # link key -> acyclic below the top

    def keys(self, removals: Iterator[tuple]) -> Iterator[tuple]:
        """Each removal with its least image mask under the powers, in turn."""
        columns = list(zip(*self.images))  # vertex -> its bit under each power
        for removed in removals:
            yield removed, min(map(sum, zip(*[columns[v] for v in removed])),
                               default=0)

    def link_keys(self, removed: int) -> Iterator[tuple]:
        """The memo key of each link face missing ``removed``.

        A key is the face's orbit and the least image, under the powers
        mapping the face onto the orbit's base, of the removed part of its
        star: the link of s in Delta|W is isomorphic to the link of g(s) in
        Delta|g(W), so faces with one key have links of one verdict.
        """
        gone = _vertices(removed)
        for smask, lmask, orbit, maps in self.links:
            if smask & removed:
                continue
            part = [v for v in gone if lmask >> v & 1]
            yield orbit, (min(sum(bits[v] for v in part) for bits in maps)
                          if part else 0)

    def purity_failure(self, removed: int) -> Optional[str]:
        """Why the restriction missing ``removed`` is not pure of full
        dimension, or None.

        'dimension-drop' when no top facet misses the removal, 'impure' when
        a face missing it lies in no such top facet.  Both are bitset tests.
        Only the top facets meeting the removal and the facets below the
        top dimension are tested: a top facet that misses the removal is a
        kept top facet holding itself.
        """
        cover = self.cover
        kept, rest = self.all_tops, removed
        while rest:
            low = rest & -rest
            kept &= ~cover.get(low, 0)
            rest ^= low
        if not kept:
            return "dimension-drop"
        tops, rest = self.tops, self.all_tops & ~kept
        while rest:
            low = rest & -rest
            if not cover.get(tops[low.bit_length() - 1] & ~removed, 0) & kept:
                return "impure"
            rest ^= low
        if any(not cover.get(g & ~removed, 0) & kept for g in self.lower):
            return "impure"
        return None

    def failure(self, removed: int = 0) -> Optional[str]:
        """Why the restriction missing ``removed`` fails the audit, or None.

        The reason is ``purity_failure``'s, or 'not-CM' when a face link
        (the empty face included) has reduced homology below its top
        dimension.  In a pure restriction the link of a face s is made of
        the faces that contain s, lie in a top facet and miss the removal,
        so its verdict depends only on s and the removed vertices of its
        star.  It is memoized on the least image of that pair under the
        powers, and reduced on the orbit's base face.
        """
        reason = self.purity_failure(removed)
        if reason is not None or self.dim <= 0:
            # links of dimension <= 0 have nothing below the top
            return reason
        verdicts, stars = self.verdicts, self.stars
        for key in self.link_keys(removed):
            ok = verdicts.get(key)
            if ok is None:
                size, ups = stars[key[0]]
                ok = verdicts[key] = self._acyclic(size, ups, key[1])
            if not ok:
                return "not-CM"
        # the link of the empty face is the restriction itself; a removal
        # is decided once per audit, so its verdict is not kept
        return None if self._acyclic(
            0, [range(len(fs)) for fs in self.table.faces], removed) \
            else "not-CM"

    def _acyclic(self, base: int, ups: list, removed: int) -> bool:
        """Whether the table finds no homology below the top degree."""
        betti, torsion, _ = self.table._reduce(base, ups, removed)
        return not any(betti[:-1]) and not any(torsion[:-1])


def _vertices(mask: int) -> list:
    """The positions of the set bits of ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _table_of(cx: SimplicialComplex) -> _FaceTable:
    """The face table of cx, built on first use and kept on cx."""
    if cx.face_table is None:
        cx.face_table = _FaceTable(cx.facets)
    return cx.face_table


def _audit_of(cx: SimplicialComplex) -> _Audit:
    """The audit of cx, built on first use and kept on its face table."""
    table = _table_of(cx)
    if table.audit is None:
        table.audit = _Audit(cx, table)
    return table.audit


def homology(cx: SimplicialComplex, removed: int = 0) -> HomologyProfile:
    """Reduced integral homology of cx induced on the vertices outside the
    bitmask ``removed``, read off cx's one face table in its own degrees."""
    return _table_of(cx).profile(removed=removed)


# -- sphere counts -------------------------------------------------------------------


def fuss_catalan(rs: RootSystem, m: int, positive: bool = False) -> int:
    """Facet count of the (positive) generalized cluster complex.

    Evaluates prod_i (e_i + m*h + 1)/(e_i + 1), or with - 1 for the positive
    part; multiplicative over irreducible components and 1 for the empty
    system.  The positive count at m - 1 is the number of spheres the
    positive part of the m-complex is a wedge of.
    """
    out = Fraction(1)
    for comp in rs.components:
        num = comp.numerology()
        shift = -1 if positive else 1
        for e in num.exponents:
            out *= Fraction(e + m * num.coxeter_number + shift, e + 1)
    if out.denominator != 1:
        raise RuntimeError("facet count %s is not an integer" % out)
    return int(out)


# -- Cohen-Macaulay audits --------------------------------------------------------------


def is_cohen_macaulay(cx: SimplicialComplex) -> bool:
    """Reisner-style criterion over the integers.

    The complex must be pure, and every face link (the empty face included)
    must have vanishing reduced integral homology below its own top
    dimension.  Link verdicts are shared along the orbits of
    ``cx.symmetry``, so a symmetry that is not an automorphism of cx
    raises RuntimeError.
    """
    return _audit_of(cx).failure() is None


class KCMFailure:
    __slots__ = ("removed", "reason")

    def __init__(self, removed: tuple, reason: str):
        self.removed = removed
        self.reason = reason  # 'dimension-drop' | 'impure' | 'not-CM'

    def to_dict(self):
        return {"removed": list(self.removed), "reason": self.reason}


class KCMReport:
    __slots__ = ("k", "mode", "examined", "seed", "failures")

    def __init__(self, k: int, mode: str, examined: int = 0,
                 seed: Optional[int] = None, failures: Optional[list] = None):
        self.k = k
        self.mode = mode
        self.examined = examined
        self.seed = seed
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {"k": self.k, "mode": self.mode, "examined": self.examined,
                "seed": self.seed, "passed": self.passed,
                "failures": [f.to_dict() for f in self.failures]}


def _audit_chunk(payload) -> list:
    """One worker's share of an audit's distinct keys, with its own audit.

    Module-level so worker pools can pickle it.
    """
    vertices, facets, symmetry, keys = payload
    audit = _audit_of(SimplicialComplex(vertices, facets, symmetry=symmetry))
    return [audit.failure(key) for key in keys]


def kcm_audit(cx: SimplicialComplex, k: int, mode: str = "exhaustive",
              sample_count: int = 200, seed: int = 0,
              max_failures: Optional[int] = None,
              sizes: Optional[Iterable[int]] = None,
              workers: int = 1) -> KCMReport:
    """Audit k-Cohen-Macaulayness by removing vertex subsets of size < k.

    Each removal must leave a complex that is pure, of the same dimension,
    and Cohen-Macaulay by Reisner link homology.  Failures are collected as
    data.  Every removal is decided by the audit of cx, built once per
    complex, which memoizes link verdicts across audits.  Building it
    checks that ``cx.symmetry``, when set, maps the facet list onto itself,
    and raises RuntimeError if not.  An automorphism g gives Delta|W and
    Delta|g(W) isomorphic, and every failure reason is an isomorphism
    invariant, so each removal is keyed by its least image mask under the
    powers of g and each key is decided once; so is each link, by the
    least image of the face and the removed part of its star.  Sample mode
    draws only sizes that fit in the vertex set; no removal list is built.
    ``examined`` counts every removal, and failures name each removal's
    own vertices.  Distinct keys may be split over a process pool of at
    most os.cpu_count() workers, one audit each; results are merged in
    subset order either way, and only then cut at ``max_failures``.

    Structural failures first: when ``max_failures`` is set, the same scan
    first runs with the dimension and purity bitset tests alone.  If that
    finds ``max_failures`` failures, they are the report, and ``examined``
    counts the removals up to the last of them; otherwise the full search
    runs as above.  Either way every reported removal fails.
    ``sharpness_witness`` reads a witness off a ridge, with no search.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if max_failures is not None and max_failures < 1:
        raise ValueError("max_failures must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    workers = min(workers, os.cpu_count() or 1)
    n = len(cx.vertices)
    sizes = list(sizes) if sizes is not None else list(range(0, k))
    if mode == "exhaustive":
        def removals() -> Iterator[tuple]:
            return itertools.chain.from_iterable(
                itertools.combinations(range(n), size) for size in sizes)
    elif mode == "sample":
        rng = random.Random(seed)
        fits = [size for size in sizes if size <= n]
        pool = set()
        for _ in range(sample_count if fits else 0):
            size = rng.choice(fits)
            pool.add(tuple(sorted(rng.sample(range(n), size))))
        removals = sorted(pool).__iter__
    else:
        raise ValueError("mode must be 'exhaustive' or 'sample'")
    audit = _audit_of(cx)

    def scan(decide, verdicts: dict) -> KCMReport:
        # made lazily, so a capped scan stops at its last failure
        report = KCMReport(k, mode, seed=seed if mode != "exhaustive" else None)
        for removed, key in audit.keys(removals()):
            report.examined += 1
            if key not in verdicts:
                verdicts[key] = decide(key)
            reason = verdicts[key]
            if reason is not None:
                report.failures.append(KCMFailure(
                    tuple(cx.vertices[i] for i in removed), reason))
                if len(report.failures) == max_failures:
                    break
        return report

    if max_failures is not None:
        report = scan(audit.purity_failure, {})
        if len(report.failures) == max_failures:
            return report
    verdicts: dict = {}
    if workers > 1:
        import multiprocessing
        distinct = list(dict.fromkeys(key for _, key in audit.keys(removals())))
        step = max(1, -(-len(distinct) // workers))
        chunks = [(cx.vertices, cx.facets, cx.symmetry, distinct[i:i + step])
                  for i in range(0, len(distinct), step)]
        with multiprocessing.Pool(workers) as p:
            parts = p.map(_audit_chunk, chunks)
        verdicts = dict(zip(distinct, itertools.chain.from_iterable(parts)))
    return scan(audit.failure, verdicts)


def _ridges(cx: SimplicialComplex) -> dict:
    """Each ridge's mask -> the mask of the vertices completing it to a facet."""
    if not cx.is_pure():
        raise ValueError("incidence counts require a pure complex")
    ridges = collections.defaultdict(int)
    for f in cx.facets:
        fmask = sum(1 << v for v in f)
        for v in f:
            ridges[fmask ^ 1 << v] |= 1 << v
    return ridges


def codim1_incidence(cx: SimplicialComplex) -> dict:
    """Histogram: number of facets containing each codimension-one face."""
    return dict(collections.Counter(c.bit_count() for c in _ridges(cx).values()))


def sharpness_witness(cx: SimplicialComplex) -> Optional[KCMFailure]:
    """A removal of the fewest vertices that leaves cx impure or lower.

    Removing the c vertices that complete a ridge to its c facets leaves
    the ridge in no facet of full dimension, so cx is not (c+1)-CM.  The
    least such set in subset order, of a ridge in the fewest facets, is
    confirmed by the audit's purity test.  None when cx has no ridge, as
    {()}; ValueError when cx is impure.
    """
    completions = _ridges(cx).values()
    if not completions:
        return None
    _, removed = min((c.bit_count(), _vertices(c)) for c in completions)
    reason = _audit_of(cx).purity_failure(sum(1 << v for v in removed))
    if reason is None:
        raise RuntimeError("removing the completion %r of a ridge left a pure "
                           "restriction of full dimension" % (removed,))
    return KCMFailure(tuple(cx.vertices[v] for v in removed), reason)
