"""Topological checks: purity, shellings, homology, connectivity audits.

Shelling orders are constructed by recursive vertex decomposition and are
always re-verified against the definition, so a returned order is a
checked certificate.  Homology is integral: each sparse boundary matrix is
reduced by exact unit-pivot elimination, and only the block left without a
unit entry goes to a dense Smith normal form, for the torsion.
Cohen-Macaulayness is decided homologically: every face link must have
vanishing reduced homology below its top dimension.
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


def homology(cx: SimplicialComplex) -> HomologyProfile:
    """Reduced integral simplicial homology of the augmented chain complex."""
    dim = cx.dimension()
    chi = cx.euler_characteristic_reduced()
    if dim < 0:
        # {()} is the (-1)-sphere
        return HomologyProfile((1,), ((),), chi, first_degree=-1)
    by_dim = cx.faces_by_dim()  # sizes 0..dim+1
    # rank and torsion of the boundary from size-k chains, k = 1..dim+1
    ranks = [0] * (dim + 3)
    torsion = [()] * (dim + 3)
    for k in range(1, dim + 2):
        index = {f: i for i, f in enumerate(by_dim[k - 1])}
        columns = [{index[face[:d] + face[d + 1:]]: -1 if d % 2 else 1
                    for d in range(k)} for face in by_dim[k]]
        ranks[k], torsion[k] = integer_rank_torsion(columns)
    betti = tuple(len(by_dim[i + 1]) - ranks[i + 1] - ranks[i + 2]
                  for i in range(dim + 1))
    profile = HomologyProfile(betti, tuple(torsion[2:]), chi)
    if sum((-1) ** i * b for i, b in enumerate(betti)) != chi:
        raise RuntimeError("homology does not match Euler count")
    return profile


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


def is_cohen_macaulay(cx: SimplicialComplex, memo: Optional[dict] = None) -> bool:
    """Reisner-style criterion over the integers.

    Every face link (the empty face included) must have vanishing reduced
    integral homology below its own top dimension.  The link of a face s
    is {F - s : F a facet containing s}, already a list of maximal faces.
    Verdicts on the links of nonempty faces are kept in ``memo``, keyed by
    the link's facets relabelled to 0..k-1, so a caller checking many
    complexes computes each such link once.
    """
    dim = cx.dimension()
    if dim <= 0:
        return True  # links of dimension <= 0 have nothing below the top
    if memo is None:
        memo = {}
    links: dict = {}
    for f in cx.facets:
        for size in range(1, dim):
            for face in itertools.combinations(f, size):
                links.setdefault(face, []).append(
                    tuple(v for v in f if v not in face))
    for star in links.values():
        d = max(len(g) for g in star) - 1
        if d <= 0:
            continue
        relabel = {v: i for i, v in
                   enumerate(sorted({v for g in star for v in g}))}
        key = tuple(sorted(tuple(relabel[v] for v in g) for g in star))
        ok = memo.get(key)
        if ok is None:
            ok = memo[key] = _acyclic_below(
                SimplicialComplex(range(len(relabel)), key), d)
        if not ok:
            return False
    # the link of the empty face is the complex itself; an audit checks
    # each removal's complex once, so keeping it would only cost memory
    return _acyclic_below(cx, dim)


def _acyclic_below(cx: SimplicialComplex, d: int) -> bool:
    prof = homology(cx)
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


def _audit_removals(cx: SimplicialComplex, subsets: Iterable[tuple],
                    cm_check: str, memo: dict) -> Iterator[Optional[str]]:
    """The failure reason of each vertex removal, or None when it passes."""
    dim = cx.dimension()
    n = len(cx.vertices)
    for removed in subsets:
        gone = set(removed)
        rest = cx.induce([i for i in range(n) if i not in gone])
        if rest.dimension() != dim:
            yield "dimension-drop"
        elif not rest.is_pure():
            yield "impure"
        elif cm_check == "reisner":
            yield None if is_cohen_macaulay(rest, memo) else "not-CM"
        else:
            try:
                construct_shelling(rest)
            except ShellingFailure:
                yield "not-CM"
            else:
                yield None


def _audit_chunk(payload) -> list:
    """One worker's share of an audit, with its own link memo.

    Module-level so worker pools can pickle it.
    """
    vertices, facets, subsets, cm_check = payload
    return list(_audit_removals(SimplicialComplex(vertices, facets), subsets,
                                cm_check, {}))


def kcm_audit(cx: SimplicialComplex, k: int, mode: str = "exhaustive",
              cm_check: str = "reisner", sample_count: int = 200,
              seed: int = 0, max_failures: Optional[int] = None,
              sizes: Optional[Iterable[int]] = None,
              workers: int = 1) -> KCMReport:
    """Audit k-Cohen-Macaulayness by removing vertex subsets of size < k.

    Each removal must leave a complex that is pure, of the same dimension,
    and Cohen-Macaulay (by Reisner link homology, or by an explicit
    shelling when cm_check='shelling').  Failures are collected as data.
    Link verdicts are memoized for the length of the audit.  Independent
    removals may be split over a process pool of at most os.cpu_count()
    workers, one memo each; results are merged in subset order either way.
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
    if workers > 1 and max_failures is None:
        import multiprocessing
        step = max(1, -(-len(subsets) // workers))
        chunks = [(cx.vertices, cx.facets, subsets[i:i + step], cm_check)
                  for i in range(0, len(subsets), step)]
        with multiprocessing.Pool(workers) as p:
            reasons = [r for part in p.map(_audit_chunk, chunks) for r in part]
    else:
        reasons = _audit_removals(cx, subsets, cm_check, {})
    for removed, reason in zip(subsets, reasons):
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
