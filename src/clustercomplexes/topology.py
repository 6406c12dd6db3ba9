"""Topological checks: purity, shellings, homology, connectivity audits.

Shelling orders are constructed by recursive vertex decomposition and are
always re-verified against the definition, so a returned order is a
checked certificate.  Homology is integral and read off a face table
that indexes every face, with its vertex bitmask and sparse boundary
column, once.  The two lowest boundary maps are ranked without a matrix
(the augmentation has rank 1, the edge boundary V minus the components
found by union-find); higher ones are reduced by exact unit-pivot
elimination, and only the block left without a unit entry goes to a dense
Smith normal form, for the torsion.
Cohen-Macaulayness is decided homologically: every face link must have
vanishing reduced homology below its top dimension.  A k-CM audit builds
one face table of the complex and decides each vertex removal from it,
since every face and face link of a restriction Delta|W is the
restriction of one of Delta.  When the complex carries a vertex symmetry
(R_m on a generalized cluster complex), the audit first checks that it
maps the facet list onto itself, then decides one removal per orbit of
the group it generates, since Delta|W and Delta|g(W) are isomorphic.  The
shelling route uses no symmetry.
"""
from __future__ import annotations

import heapq
import itertools
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .exact import smith_normal_form
from .roots import RootSystem
from .simplicial import SimplicialComplex


# -- shellings ----------------------------------------------------------------------


@dataclass
class ShellingOrder:
    """An ordered facet list together with its restriction faces."""

    facets: tuple
    restrictions: tuple = ()

    def __len__(self):
        return len(self.facets)


@dataclass
class ShellingCheck:
    ok: bool
    restrictions: tuple = ()
    failure: Optional[tuple] = None  # (k, i) indices violating the condition

    def __bool__(self):
        return self.ok


def verify_shelling(cx: SimplicialComplex, order: Sequence[Sequence[int]]) -> ShellingCheck:
    """Definition check: each new facet meets an earlier one in codim one."""
    if not cx.is_pure():
        raise ValueError("the shelling definition used here is for pure complexes")
    facets = [tuple(sorted(f)) for f in order]
    if sorted(facets) != list(cx.facets):
        raise ValueError("order is not a permutation of the facet list")
    restrictions = []
    for k, fk in enumerate(facets):
        fk_set = set(fk)
        codim1 = set()
        for j in range(k):
            inter = fk_set & set(facets[j])
            if len(inter) == len(fk) - 1:
                codim1.add(frozenset(inter))
        for i in range(k):
            inter = fk_set & set(facets[i])
            if not any(inter <= c for c in codim1):
                return ShellingCheck(False, failure=(k, i))
        # restriction face: vertices v whose deletion leaves an earlier facet
        rest = tuple(sorted(v for v in fk if frozenset(fk_set - {v}) in codim1))
        restrictions.append(rest)
    return ShellingCheck(True, restrictions=tuple(restrictions))


class ShellingFailure(RuntimeError):
    def __init__(self, message, subcomplex=None):
        super().__init__(message)
        self.subcomplex = subcomplex


def construct_shelling(cx: SimplicialComplex) -> ShellingOrder:
    """Shelling order by recursive vertex decomposition.

    Candidate shedding vertices follow the complex's vertex ranking when
    present (negative simple roots first, then the extremes of the
    color-then-root order); other complexes fall back to trying every
    vertex, with memoization on the induced facet sets.  The result is
    re-verified before being returned.
    """
    memo: dict = {}
    facets = _vd_order(cx.facets, cx, memo)
    if facets is None:
        raise ShellingFailure("no vertex decomposition found", cx)
    order = [tuple(sorted(f)) for f in facets]
    check = verify_shelling(cx, order)
    if not check.ok:
        raise ShellingFailure("constructed order failed verification", cx)
    return ShellingOrder(tuple(order), check.restrictions)


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
    result = None
    for v in _shedding_candidates(verts, cx):
        vfree = [f for f in facets if v not in f]
        star = [f for f in facets if v in f]
        if not vfree or not star:
            continue
        # deletion stays pure of the same dimension iff every star facet
        # minus v is absorbed by a facet avoiding v
        free_sets = [set(f) for f in vfree]
        if not all(any(set(f) - {v} <= g for g in free_sets) for f in star):
            continue
        link = tuple(tuple(x for x in f if x != v) for f in star)
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
    rank = cx.meta.get("vertex_rank")
    if not rank:
        return verts
    negatives = [v for v in verts if cx.vertices[v] in
                 set(cx.meta.get("negative_labels", ()))]
    positives = [v for v in verts if v not in set(negatives)]
    out = list(negatives)
    if positives:
        ranked = sorted(positives, key=lambda v: rank[cx.vertices[v]])
        lo, hi = ranked[0], ranked[-1]
        out.extend([lo] if lo == hi else [lo, hi])
    # fall back to everything else if the canonical picks dead-end
    out.extend(v for v in verts if v not in set(out))
    return out


# -- homology ------------------------------------------------------------------------


@dataclass
class HomologyProfile:
    """Reduced integral homology: Betti numbers and torsion per degree.

    ``betti[i]`` and ``torsion[i]`` belong to degree ``first_degree + i``.
    The degrees start at 0, except for the complex {()} whose only reduced
    homology is Z in degree -1.
    """

    betti: tuple
    torsion: tuple    # tuple of tuples of invariant factors > 1
    euler_reduced: int
    first_degree: int = 0

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
    from the shortest column and within it the sparsest row.  These are
    unimodular operations, so the invariant factors are kept.  Only the
    columns left without a unit entry go to ``smith_normal_form``.
    Returns (rank, torsion), torsion being the invariant factors > 1.
    """
    rows: dict = {}
    for c, col in enumerate(columns):
        for r in col:
            rows.setdefault(r, set()).add(c)
    # a column is pushed again whenever it changes; stale entries are skipped
    heap = [(len(col), c) for c, col in enumerate(columns) if col]
    heapq.heapify(heap)
    rank = 0
    while heap:
        size, c = heapq.heappop(heap)
        col = columns[c]
        if col is None or len(col) != size:
            continue
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
            if oc:
                heapq.heappush(heap, (len(oc), other))
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


def _mask(face) -> int:
    out = 0
    for v in face:
        out |= 1 << v
    return out


def _component_count(vertices: list, edges: list) -> int:
    """Connected components of a graph, by union-find."""
    parent = {v: v for v in vertices}
    count = len(parent)
    for a, b in edges:
        # find both roots, halving the paths on the way
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            count -= 1
    return count


class _FaceTable:
    """Every face of a complex, indexed once, for homology and CM audits.

    ``faces[k]`` lists the faces with k vertices, ``masks[k]`` their vertex
    bitmasks, and for k >= 3 ``columns[k]`` their boundary columns
    {position in faces[k-1]: +-1}.  Every face of a restriction Delta|W is
    a face of Delta, so a restriction is read off by keeping the faces whose
    mask misses the removed vertices.  The audit data (top facets, stars and
    link verdicts) is built on the first ``cm_failure`` call and lives as
    long as the table, that is, for one audit.
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
        self.masks = [[_mask(face) for face in fs] for fs in self.faces]
        self.columns = [None] * 3 + [
            [{index[k - 1][face[:d] + face[d + 1:]]: -1 if d % 2 else 1
              for d in range(k)} for face in self.faces[k]]
            for k in range(3, self.dim + 2)]
        self.facet_masks = [_mask(f) for f in facets]
        self._audit = None

    def profile(self, removed: int = 0) -> HomologyProfile:
        """Reduced integral homology of the restriction missing ``removed``.

        The restriction must keep a face of top size.  The augmentation has
        rank 1 and the boundary from edges to vertices has rank V minus the
        number of components; neither has torsion, an incidence matrix of a
        graph being totally unimodular.  The boundaries from size 3 up are
        eliminated on copies of the kept columns.
        """
        dim = self.dim
        if dim < 0:
            # {()} is the (-1)-sphere
            return HomologyProfile((1,), ((),), -1, first_degree=-1)
        kept = [[i for i, m in enumerate(ms) if not m & removed]
                for ms in self.masks]
        counts = [len(ks) for ks in kept]
        ranks = [0] * (dim + 3)
        torsion = [()] * (dim + 3)
        ranks[1] = 1 if counts[1] else 0
        if dim >= 1:
            vertices = [self.faces[1][i][0] for i in kept[1]]
            edges = [self.faces[2][i] for i in kept[2]]
            ranks[2] = counts[1] - _component_count(vertices, edges)
        for k in range(3, dim + 2):
            columns = self.columns[k]
            ranks[k], torsion[k] = integer_rank_torsion(
                [dict(columns[i]) for i in kept[k]])
        betti = tuple(counts[i + 1] - ranks[i + 1] - ranks[i + 2]
                      for i in range(dim + 1))
        chi = sum(-c if k % 2 == 0 else c for k, c in enumerate(counts))
        if sum((-1) ** i * b for i, b in enumerate(betti)) != chi:
            raise RuntimeError("homology does not match Euler count")
        return HomologyProfile(betti, tuple(torsion[2:]), chi)

    def cm_failure(self, removed: int = 0) -> Optional[str]:
        """Why the restriction missing ``removed`` fails the audit, or None.

        'dimension-drop' when no top facet misses the removal, 'impure' when
        a face missing it lies in no such top facet, 'not-CM' when a face
        link (the empty face included) has reduced homology below its top
        dimension.  The link of a face s in the restriction is its star
        {F - s : F a top facet containing s} cut down to the top facets
        missing the removal, so a link verdict depends only on s and the
        removed vertices of that star.  It is memoized on that pair, then
        on the link's facets relabelled to 0..k-1.
        """
        if self._audit is None:
            self._audit = _AuditData(self)
        audit = self._audit
        kept = audit.all_tops
        rest = removed
        while rest:
            low = rest & -rest
            kept &= audit.avoiding.get(low.bit_length() - 1, audit.all_tops)
            rest ^= low
        if not kept:
            return "dimension-drop"
        cover = audit.cover
        if any(not cover.get(g & ~removed, 0) & kept for g in self.facet_masks):
            return "impure"
        if self.dim <= 0:
            return None  # links of dimension <= 0 have nothing below the top
        verdicts = audit.verdicts
        for s, (smask, lmask, star, d) in enumerate(audit.links):
            if smask & removed:
                continue
            key = (s, removed & lmask)
            ok = verdicts.get(key)
            if ok is None:
                ok = verdicts[key] = audit.link_ok(
                    [g for t, g in star if not t & removed], d)
            if not ok:
                return "not-CM"
        # the link of the empty face is the restriction itself; an audit
        # meets each restriction once, so its verdict is not kept
        return None if _acyclic_below(self.profile(removed), self.dim) \
            else "not-CM"


class _AuditData:
    """The part of a face table only a Cohen-Macaulay audit reads."""

    def __init__(self, table: _FaceTable):
        tops = table.faces[table.dim + 1]
        self.all_tops = (1 << len(tops)) - 1
        self.avoiding: dict = {}   # vertex -> top facets missing it
        self.cover: dict = {}      # face mask -> top facets containing it
        stars: dict = {}
        for j, (f, fmask) in enumerate(zip(tops, table.masks[table.dim + 1])):
            bit = 1 << j
            for v in f:
                self.avoiding[v] = self.avoiding.get(v, self.all_tops) & ~bit
            sub = fmask
            while True:
                self.cover[sub] = self.cover.get(sub, 0) | bit
                if not sub:
                    break
                sub = (sub - 1) & fmask
            for k in range(1, table.dim):
                for s in itertools.combinations(f, k):
                    stars.setdefault(s, []).append(
                        (fmask, tuple(v for v in f if v not in s)))
        self.links = []
        for s, star in stars.items():
            smask = _mask(s)
            lmask = 0
            for fmask, _ in star:
                lmask |= fmask
            self.links.append((smask, lmask & ~smask, star, table.dim - len(s)))
        self.verdicts: dict = {}
        self.relabelled: dict = {}

    def link_ok(self, facets: list, d: int) -> bool:
        relabel = {v: i for i, v in
                   enumerate(sorted({v for g in facets for v in g}))}
        key = tuple(sorted(tuple(relabel[v] for v in g) for g in facets))
        ok = self.relabelled.get(key)
        if ok is None:
            ok = self.relabelled[key] = _acyclic_below(
                homology(SimplicialComplex(range(len(relabel)), key)), d)
        return ok


def homology(cx: SimplicialComplex) -> HomologyProfile:
    """Reduced integral simplicial homology of the augmented chain complex."""
    return _FaceTable(cx.facets).profile()


def verify_wedge(cx: SimplicialComplex, expected_count: int, dim: int) -> bool:
    """Homology matches a wedge of `expected_count` spheres of dimension dim."""
    return homology(cx).concentrated(dim, expected_count)


# -- sphere counts -------------------------------------------------------------------


def fuss_narayana_positive(rs: RootSystem, t: int) -> int:
    """The product formula counting spheres of the positive part.

    Evaluates prod_i (e_i + t*h - 1)/(e_i + 1); multiplicative over
    irreducible components and 1 for the empty system.
    """
    out = Fraction(1)
    for comp in rs.components:
        num = comp.numerology()
        for e in num.exponents:
            out *= Fraction(e + t * num.coxeter_number - 1, e + 1)
    if t >= 0 and out.denominator != 1:
        raise RuntimeError("sphere count %s is not an integer" % out)
    return int(out) if out.denominator == 1 else out


def fuss_catalan(rs: RootSystem, m: int, positive: bool = False) -> int:
    """Facet count of the (positive) generalized cluster complex."""
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
    dimension.
    """
    return _FaceTable(cx.facets).cm_failure() is None


def _acyclic_below(prof: HomologyProfile, d: int) -> bool:
    return not any(prof.betti[i] or prof.torsion[i] for i in range(d))


@dataclass
class KCMFailure:
    removed: tuple
    reason: str  # 'dimension-drop' | 'impure' | 'not-CM'

    def to_dict(self):
        return {"removed": list(self.removed), "reason": self.reason}


@dataclass
class KCMReport:
    k: int
    mode: str
    cm_check: str
    examined: int = 0
    seed: Optional[int] = None
    failures: list = field(default_factory=list)

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

    The Reisner route reads every removal off one face table of cx.  The
    shelling route, kept apart as an independent check, builds each
    induced complex and shells it.
    """
    if cm_check == "reisner":
        return _FaceTable(cx.facets).cm_failure
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
    vertices, facets, keys, cm_check = payload
    decide = _decider(SimplicialComplex(vertices, facets), cm_check)
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
    The Reisner route builds one face table of cx per audit and decides
    every removal from it, memoizing link verdicts for the audit.  It
    first checks that ``cx.symmetry``, when set, maps the facet list onto
    itself, and raises RuntimeError if not.  An automorphism g gives
    Delta|W and Delta|g(W) isomorphic, and every failure reason is an
    isomorphism invariant, so each removal is keyed by its least image
    mask under the powers of g and each key is decided once.  The
    shelling route uses no symmetry: every removal is its own key.
    ``examined`` counts every removal, and failures name each removal's
    own vertices.  Distinct keys may be split over a process pool of at
    most os.cpu_count() workers, one table each; results are merged in
    subset order either way, and only then cut at ``max_failures``.
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
        pool = set()
        for _ in range(sample_count):
            size = rng.choice(sizes)
            pool.add(tuple(sorted(rng.sample(range(n), size))))
        subsets = sorted(pool)
    else:
        raise ValueError("mode must be 'exhaustive' or 'sample'")
    powers = _symmetry_powers(cx) if cm_check == "reisner" \
        else [tuple(range(n))]
    keys = _orbit_keys(powers, subsets)
    if workers > 1:
        import multiprocessing
        keys = list(keys)
        distinct = list(dict.fromkeys(keys))
        step = max(1, -(-len(distinct) // workers))
        chunks = [(cx.vertices, cx.facets, distinct[i:i + step], cm_check)
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
