"""Topological checks: purity, shellings, homology, connectivity audits.

Shelling orders are constructed by recursive vertex decomposition and
checked in one pass by their restriction faces, so a returned order is a
checked certificate.  Homology is integral and read off a face table that
indexes every face once, with its vertex bitmask, boundary and cofaces,
kept on its complex with the link memo of its Cohen-Macaulay audits for
every later homology or audit of that complex.  A profile is taken of any
subcomplex given as the table's cells by size, less a vertex set:
``noncrossing`` reads skeleta, restrictions and fibers this way.
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
the full search only if those find too few.  The shelling route uses no
symmetry and no face table.
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
    """No shelling order was found, or the one found failed its check."""


def construct_shelling(cx: SimplicialComplex) -> ShellingOrder:
    """Shelling order by recursive vertex decomposition.

    Candidate shedding vertices follow the complex's vertex ranking when
    present (negative simple roots first, then the extremes of the
    color-then-root order); other complexes fall back to trying every
    vertex, with memoization on the induced facet sets.  The order is
    checked by ``verify_shelling`` and returned with its restriction faces.
    """
    facets = _vd_order(cx.facets, cx, {})
    if facets is None:
        raise ShellingFailure("no vertex decomposition found")
    order = verify_shelling(cx, facets)
    if not order.ok:
        raise ShellingFailure("constructed order failed verification")
    return order


def _vd_order(facets: tuple, cx: SimplicialComplex, memo: dict) -> Optional[list]:
    facets = tuple(sorted(tuple(sorted(f)) for f in facets))
    if facets in memo:
        return memo[facets]
    if len(facets) <= 1:
        memo[facets] = list(facets)
        return memo[facets]
    sizes = {len(f) for f in facets}
    if len(sizes) != 1:
        memo[facets] = None
        return None
    size = sizes.pop()
    verts = sorted({v for f in facets for v in f})
    # cone points join every facet; peel them off first
    apexes = [v for v in verts if all(v in f for f in facets)]
    if apexes:
        core = tuple(tuple(x for x in f if x not in apexes) for f in facets)
        if size == len(apexes):  # a single simplex
            memo[facets] = list(facets)
            return memo[facets]
        sub = _vd_order(core, cx, memo)
        out = None if sub is None else \
            [tuple(sorted(f + tuple(apexes))) for f in sub]
        memo[facets] = out
        return out
    ridges = collections.Counter(f[:i] + f[i + 1:] for f in facets
                                 for i in range(size))
    result = None
    for v in _shedding_candidates(verts, cx):
        vfree = [f for f in facets if v not in f]
        star = [f for f in facets if v in f]
        # deletion stays pure iff each star facet minus v lies in a second
        # facet, which avoids v since all facets have one size
        link = tuple(tuple(x for x in f if x != v) for f in star)
        if any(ridges[r] < 2 for r in link):
            continue
        link_order = _vd_order(link, cx, memo)
        if link_order is None:
            continue
        del_order = _vd_order(tuple(vfree), cx, memo)
        if del_order is None:
            continue
        result = del_order + [tuple(sorted(f + (v,))) for f in link_order]
        break
    memo[facets] = result
    return result


def _shedding_candidates(verts: list, cx: SimplicialComplex) -> list:
    """The vertices in the order of the complex's ``vertex_rank``, if any."""
    rank = cx.meta.get("vertex_rank")
    if not rank:
        return verts
    return sorted(verts, key=lambda v: rank[cx.vertices[v]])


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
    """Every face of a complex, indexed once, for homology and CM audits.

    ``faces[k]`` lists the faces with k vertices, ``masks[k]`` their vertex
    bitmasks, ``columns[k]`` their boundary columns {position in
    faces[k-1]: +-1} and ``cofaces[k]`` their cofaces' positions in
    faces[k+1].  The audit data, with its memo of link verdicts, is built
    by ``_audit_table`` on the first audit of the complex and lives as
    long as the table, that is, as long as its complex: every audit of the
    complex shares it.
    """

    def __init__(self, facets: Sequence[tuple]):
        self.dim = max((len(f) for f in facets), default=0) - 1
        index = [{(): 0}] + [{} for _ in range(self.dim + 1)]
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
            [{index[k - 1][face[:d] + face[d + 1:]]: -1 if d % 2 else 1
              for d in range(k)} for face in self.faces[k]]
            for k in range(1, self.dim + 2)]
        self.cofaces = [[[] for _ in fs] for fs in self.faces]
        for k in range(1, self.dim + 2):
            for i, col in enumerate(self.columns[k]):
                for f in col:
                    self.cofaces[k - 1][f].append(i)
        self.facet_masks = [sum(1 << v for v in f) for f in facets]
        self._audit = None

    def _reduce(self, base: int, ups: list, removed: int) -> tuple:
        """Reduced homology of the cells in ``ups`` that miss ``removed``.

        ``ups[j]`` lists faces with base + j vertices, ``ups[0]`` the base
        cell alone; the faces of a listed face that contain the base cell
        are listed too.  The base is paired with one cell above it, then the rest is
        coreduced, last queued first: a cell with one kept boundary face
        goes with that face.  Its boundary is +-1 times the face, so the
        pair's reduction (Kaczynski, Mrozek and Slusarek, 1998) deletes a
        row and a column and keeps the integral homology.  The columns left
        go to ``integer_rank_torsion`` as they are.  Returns (betti,
        torsion, chi); entry j of the first two belongs to degree j - 1.
        """
        masks, columns, cofaces = self.masks, self.columns, self.cofaces
        # each kept cell with its number of kept boundary faces; top cells
        # have no cofaces
        alive = [{c: j for c in cells if not masks[base + j][c] & removed}
                 for j, cells in enumerate(ups)] + [{}]
        top = len(ups)
        chi = sum(-len(c) if j % 2 == 0 else len(c) for j, c in enumerate(alive))
        stack = [(1, next(iter(alive[1])))] if alive[1] else []
        while stack:
            j, c = stack.pop()
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
                            stack.append((jj, d))
        ranks = [0] * (top + 1)
        torsion = [()] * (top + 1)
        for j in range(1, top):
            below = alive[j - 1]
            cols = [{r: v for r, v in columns[base + j][c].items() if r in below}
                    for c, n in alive[j].items() if n]
            if cols:
                ranks[j], torsion[j] = integer_rank_torsion(cols)
        betti = [len(alive[j]) - ranks[j] - ranks[j + 1] for j in range(top)]
        if sum(-b if j % 2 == 0 else b for j, b in enumerate(betti)) != chi:
            raise RuntimeError("homology does not match Euler count")
        return betti, torsion[1:], chi

    def _acyclic(self, base: int, ups: list, removed: int) -> bool:
        """Whether ``_reduce`` finds no homology below the top degree."""
        betti, torsion, _ = self._reduce(base, ups, removed)
        return not any(betti[:-1]) and not any(torsion[:-1])

    def profile(self, cells: Optional[list] = None,
                removed: int = 0) -> HomologyProfile:
        """Reduced integral homology of a subcomplex of the table.

        ``cells[k]`` lists its cells with k vertices, every cell of the
        table when None, and the cells meeting ``removed`` are left out;
        what is left must be closed under taking faces.  The degrees run
        up to the largest listed size minus one.  The reduction starts at
        the empty face, so the first coreductions walk a spanning forest.
        Only {()} has homology in degree -1.
        """
        if cells is None:
            cells = [range(len(fs)) for fs in self.faces]
        betti, torsion, chi = self._reduce(0, cells, removed)
        start = 0 if betti[0] else 1
        return HomologyProfile(tuple(betti[start:]), tuple(torsion[start:]),
                               chi, first_degree=start - 1)

    def purity_failure(self, removed: int) -> Optional[str]:
        """Why the restriction missing ``removed`` is not pure of full
        dimension, or None.

        'dimension-drop' when no top facet misses the removal, 'impure' when
        a face missing it lies in no such top facet.  Both are bitset tests
        on the audit data.  Only the top facets meeting the removal and the
        facets below the top dimension are tested: a top facet that misses
        the removal is a kept top facet holding itself.
        """
        audit = self._audit
        kept = audit.all_tops
        rest = removed
        while rest:
            low = rest & -rest
            kept &= audit.avoiding.get(low.bit_length() - 1, audit.all_tops)
            rest ^= low
        if not kept:
            return "dimension-drop"
        cover, tops = audit.cover, self.masks[self.dim + 1]
        rest = audit.all_tops & ~kept
        while rest:
            low = rest & -rest
            if not cover.get(tops[low.bit_length() - 1] & ~removed, 0) & kept:
                return "impure"
            rest ^= low
        if any(not cover.get(g & ~removed, 0) & kept for g in audit.lower):
            return "impure"
        return None

    def cm_failure(self, removed: int = 0) -> Optional[str]:
        """Why the restriction missing ``removed`` fails the audit, or None.

        The reason is ``purity_failure``'s, or 'not-CM' when a face link
        (the empty face included) has reduced homology below its top
        dimension.  In a pure restriction the link of a face s is made of
        the faces that contain s, lie in a top facet and miss the removal,
        so its verdict depends only on s and the removed vertices of its
        star.  It is memoized on the least image of that pair under the
        audit data's powers, and reduced on the orbit's base face.  The
        audit data must have been built, by ``_audit_table``.
        """
        reason = self.purity_failure(removed)
        if reason is not None or self.dim <= 0:
            # links of dimension <= 0 have nothing below the top
            return reason
        audit = self._audit
        verdicts, stars = audit.verdicts, audit.stars
        for key in audit.link_keys(removed):
            ok = verdicts.get(key)
            if ok is None:
                size, ups = stars[key[0]]
                ok = verdicts[key] = self._acyclic(size, ups, key[1])
            if not ok:
                return "not-CM"
        # the link of the empty face is the restriction itself; a removal
        # is decided once per audit, so its verdict is not kept
        return None if self._acyclic(
            0, [range(len(fs)) for fs in self.faces], removed) else "not-CM"


class _AuditData:
    """The part of a face table only a Cohen-Macaulay audit reads.

    ``powers`` are the powers of an automorphism of the complex, the
    identity first.  They split the faces s with 1 .. dim - 1 vertices in a
    top facet (the link faces) into orbits, and ``stars[o]`` holds (|s|,
    ups) for the first face s met in orbit o, its base: ``ups[j]`` lists
    the faces with |s| + j vertices that contain s and lie in a top facet.
    ``links`` holds (mask of s, mask of its star minus s, o, maps) for each
    link face s, ``maps`` being the bit images of the powers that map s
    onto its base.
    """

    def __init__(self, table: _FaceTable, powers: list):
        top = table.dim + 1
        self.all_tops = (1 << len(table.faces[top])) - 1
        self.avoiding: dict = {}   # vertex -> top facets missing it
        self.cover: dict = {}      # face mask -> top facets containing it
        # the facets below the top dimension
        self.lower = [g for g in table.facet_masks if g.bit_count() < top]
        for j, (f, fmask) in enumerate(zip(table.faces[top], table.masks[top])):
            bit = 1 << j
            for v in f:
                self.avoiding[v] = self.avoiding.get(v, self.all_tops) & ~bit
            sub = fmask
            while True:
                self.cover[sub] = self.cover.get(sub, 0) | bit
                if not sub:
                    break
                sub = (sub - 1) & fmask
        masks, cofaces = table.masks, table.cofaces
        images = [[1 << v for v in q] for q in powers]
        order = len(powers)
        faces = [(size, s, smask) for size in range(1, table.dim)
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
        self.verdicts: dict = {}

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


def _audit_table(cx: SimplicialComplex) -> _FaceTable:
    """The face table of cx with its audit data, built on first use.

    The audit data is keyed by the powers of ``cx.symmetry``, so building
    it checks that the symmetry is an automorphism of cx.
    """
    table = _table_of(cx)
    if table._audit is None:
        table._audit = _AuditData(table, _symmetry_powers(cx))
    return table


def homology(cx: SimplicialComplex) -> HomologyProfile:
    """Reduced integral simplicial homology of the augmented chain complex."""
    return _table_of(cx).profile()


def verify_wedge(cx: SimplicialComplex, expected_count: int, dim: int) -> bool:
    """Homology matches a wedge of `expected_count` spheres of dimension dim."""
    return homology(cx).concentrated(dim, expected_count)


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
    return _audit_table(cx).cm_failure() is None


class KCMFailure:
    __slots__ = ("removed", "reason")

    def __init__(self, removed: tuple, reason: str):
        self.removed = removed
        self.reason = reason  # 'dimension-drop' | 'impure' | 'not-CM'

    def to_dict(self):
        return {"removed": list(self.removed), "reason": self.reason}


class KCMReport:
    __slots__ = ("k", "mode", "cm_check", "examined", "seed", "failures")

    def __init__(self, k: int, mode: str, cm_check: str, examined: int = 0,
                 seed: Optional[int] = None, failures: Optional[list] = None):
        self.k = k
        self.mode = mode
        self.cm_check = cm_check
        self.examined = examined
        self.seed = seed
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {"k": self.k, "mode": self.mode, "cm_check": self.cm_check,
                "examined": self.examined, "seed": self.seed,
                "passed": self.passed,
                "failures": [f.to_dict() for f in self.failures]}


def _symmetry_powers(cx: SimplicialComplex) -> list:
    """The powers of ``cx.symmetry``, the identity first.

    The symmetry must map the facet list onto itself, that is, be an
    automorphism of cx; a complex without one has only the identity.
    """
    n = len(cx.vertices)
    identity = tuple(range(n))
    perm = cx.symmetry
    if perm is None:
        return [identity]
    facets = set(cx.facets)
    for f in cx.facets:
        image = tuple(sorted(perm[v] for v in f))
        if image not in facets:
            raise RuntimeError(
                "the vertex symmetry is not an automorphism: it maps facet "
                "%r to %r, which is not a facet" % (f, image))
    powers = [identity]
    q = perm
    while q != identity:
        powers.append(q)
        q = tuple(perm[v] for v in q)
    return powers


def _orbit_keys(powers: list, subsets: Iterable[tuple]) -> Iterator[int]:
    """Each removal's least image mask under ``powers``, in subset order.

    The first removal met in an orbit computes the whole orbit, and every
    member's own mask is then looked up.
    """
    images = [[1 << v for v in q] for q in powers]
    least: dict = {}
    for removed in subsets:
        key = least.get(sum(images[0][v] for v in removed))
        if key is None:
            orbit = [sum(bits[v] for v in removed) for bits in images]
            key = min(orbit)
            least.update(dict.fromkeys(orbit, key))
        yield key


def _decider(cx: SimplicialComplex, cm_check: str):
    """The failure reason of a vertex removal, given as a mask, or None.

    The Reisner route reads every removal off the face table of cx, which
    every audit of cx shares with its link verdicts: a verdict is keyed by
    the orbit of a face and the removed vertices of its star, whatever k.
    The shelling route, kept apart as an independent check, builds each
    induced complex and shells it.
    """
    if cm_check == "reisner":
        return _audit_table(cx).cm_failure
    dim = cx.dimension()

    def decide(removed: int) -> Optional[str]:
        rest = cx.induce([i for i in range(len(cx.vertices))
                          if not removed >> i & 1])
        if rest.dimension() != dim:
            return "dimension-drop"
        if not rest.is_pure():
            return "impure"
        try:
            construct_shelling(rest)
        except ShellingFailure:
            return "not-CM"
        return None

    return decide


def _memoized(decide, keys: Iterable[int]) -> Iterator[Optional[str]]:
    """``decide`` of each key, calling it once per distinct key."""
    verdicts: dict = {}
    for key in keys:
        if key not in verdicts:
            verdicts[key] = decide(key)
        yield verdicts[key]


def _audit_chunk(payload) -> list:
    """One worker's share of an audit's distinct keys, with its own table.

    Module-level so worker pools can pickle it.
    """
    vertices, facets, symmetry, keys, cm_check = payload
    decide = _decider(SimplicialComplex(vertices, facets, symmetry=symmetry),
                      cm_check)
    return [decide(key) for key in keys]


def kcm_audit(cx: SimplicialComplex, k: int, mode: str = "exhaustive",
              cm_check: str = "reisner", sample_count: int = 200,
              seed: int = 0, max_failures: Optional[int] = None,
              sizes: Optional[Iterable[int]] = None,
              workers: int = 1) -> KCMReport:
    """Audit k-Cohen-Macaulayness by removing vertex subsets of size < k.

    Each removal must leave a complex that is pure, of the same dimension,
    and Cohen-Macaulay (by Reisner link homology, or by an explicit
    shelling when cm_check='shelling').  Failures are collected as data.
    The Reisner route decides every removal from the face table of cx,
    built once per complex, memoizing link verdicts across audits.  It
    first checks that ``cx.symmetry``, when set, maps the facet list onto
    itself, and raises RuntimeError if not.  An automorphism g gives
    Delta|W and Delta|g(W) isomorphic, and every failure reason is an
    isomorphism invariant, so each removal is keyed by its least image
    mask under the powers of g and each key is decided once; so is each
    link, by the least image of the face and the removed part of its star.
    The shelling route uses no symmetry: every removal is its own key.
    Sample mode draws only sizes that fit in the vertex set.
    ``examined`` counts every removal, and failures name each removal's
    own vertices.  Distinct keys may be split over a process pool of at
    most os.cpu_count() workers, one table each; results are merged in
    subset order either way, and only then cut at ``max_failures``.

    Structural failures first: when ``max_failures`` is set, the Reisner
    route first scans the removals in subset order with the dimension and
    purity bitset tests alone.  If that finds ``max_failures`` failures,
    they are the report, and ``examined`` counts the removals up to the
    last of them; otherwise the full search runs as above.  Either way
    every reported removal fails.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if cm_check not in ("reisner", "shelling"):
        raise ValueError("cm_check must be 'reisner' or 'shelling'")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    workers = min(workers, os.cpu_count() or 1)
    n = len(cx.vertices)
    sizes = list(sizes) if sizes is not None else list(range(0, k))
    report = KCMReport(k=k, mode=mode, cm_check=cm_check,
                       seed=seed if mode != "exhaustive" else None)
    if mode == "exhaustive":
        subsets = [c for size in sizes
                   for c in itertools.combinations(range(n), size)]
    elif mode == "sample":
        rng = random.Random(seed)
        fits = [size for size in sizes if size <= n]
        pool = set()
        for _ in range(sample_count if fits else 0):
            size = rng.choice(fits)
            pool.add(tuple(sorted(rng.sample(range(n), size))))
        subsets = sorted(pool)
    else:
        raise ValueError("mode must be 'exhaustive' or 'sample'")
    if max_failures is not None and cm_check == "reisner":
        table = _audit_table(cx)
        for removed in subsets:
            report.examined += 1
            reason = table.purity_failure(sum(1 << v for v in removed))
            if reason is not None:
                report.failures.append(
                    KCMFailure(tuple(cx.vertices[i] for i in removed), reason))
                if len(report.failures) >= max_failures:
                    return report
        report.examined, report.failures = 0, []
    powers = _symmetry_powers(cx) if cm_check == "reisner" \
        else [tuple(range(n))]
    keys = _orbit_keys(powers, subsets)
    if workers > 1:
        import multiprocessing
        keys = list(keys)
        distinct = list(dict.fromkeys(keys))
        step = max(1, -(-len(distinct) // workers))
        chunks = [(cx.vertices, cx.facets, cx.symmetry, distinct[i:i + step],
                   cm_check)
                  for i in range(0, len(distinct), step)]
        with multiprocessing.Pool(workers) as p:
            decide = dict(zip(distinct, [r for part in
                                         p.map(_audit_chunk, chunks)
                                         for r in part])).__getitem__
    else:
        decide = _decider(cx, cm_check)
    for removed, reason in zip(subsets, _memoized(decide, keys)):
        report.examined += 1
        if reason is not None:
            report.failures.append(
                KCMFailure(tuple(cx.vertices[i] for i in removed), reason))
            if max_failures is not None and len(report.failures) >= max_failures:
                break
    return report


def codim1_incidence(cx: SimplicialComplex) -> dict:
    """Histogram: number of facets containing each codimension-one face."""
    if not cx.is_pure():
        raise ValueError("incidence counts require a pure complex")
    counts: dict = {}
    for f in cx.facets:
        for drop in range(len(f)):
            sub = f[:drop] + f[drop + 1:]
            counts[sub] = counts.get(sub, 0) + 1
    hist: dict = {}
    for c in counts.values():
        hist[c] = hist.get(c, 0) + 1
    return hist
