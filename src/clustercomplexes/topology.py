"""Topological checks: purity, shellings, homology, connectivity audits.

Shelling orders are constructed by recursive vertex decomposition and are
always re-verified against the definition, so a returned order is a
checked certificate.  Homology is integral, computed from Smith normal
forms of the (augmented) boundary matrices.  Cohen-Macaulayness is decided
homologically: every face link must have vanishing reduced homology below
its top dimension.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exact import smith_normal_form
from .roots import RootSystem
from .simplicial import SimplicialComplex


def dimension(cx: SimplicialComplex) -> int:
    return cx.dimension()


def check_pure(cx: SimplicialComplex) -> bool:
    return cx.is_pure()


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
    """Reduced integral homology: Betti numbers and torsion per dimension."""

    betti: tuple      # indices 0..dim
    torsion: tuple    # tuple of tuples of invariant factors > 1
    euler_reduced: int

    def is_trivial(self) -> bool:
        return all(b == 0 for b in self.betti) and \
            all(not t for t in self.torsion)

    def concentrated(self, dim: int, rank: int) -> bool:
        for i, b in enumerate(self.betti):
            if b != (rank if i == dim else 0):
                return False
        if any(t for t in self.torsion):
            return False
        return (dim < len(self.betti) or rank == 0)

    def to_dict(self) -> dict:
        return {"betti": list(self.betti),
                "torsion": [list(t) for t in self.torsion],
                "euler_reduced": self.euler_reduced}


def homology(cx: SimplicialComplex) -> HomologyProfile:
    """Reduced integral simplicial homology via Smith normal form."""
    dim = cx.dimension()
    if dim < 0:
        return HomologyProfile((), (), cx.euler_characteristic_reduced())
    by_dim = cx.faces_by_dim()  # sizes 0..dim+1
    index = [
        {f: i for i, f in enumerate(faces)} for faces in by_dim]
    ranks = [0] * (dim + 2)    # rank of boundary from size-k chains, k = 1..dim+1
    invariants = [()] * (dim + 2)
    for k in range(1, dim + 2):
        rows = len(by_dim[k - 1])
        mat = [[0] * len(by_dim[k]) for _ in range(rows)]
        for col, face in enumerate(by_dim[k]):
            for drop in range(len(face)):
                sub = face[:drop] + face[drop + 1:]
                mat[index[k - 1][sub]][col] = (-1) ** drop
        factors, rank = smith_normal_form(mat)
        ranks[k] = rank
        invariants[k] = tuple(d for d in factors if d > 1)
    betti = []
    torsion = []
    for i in range(dim + 1):
        chains = len(by_dim[i + 1])
        upper = ranks[i + 2] if i + 2 <= dim + 1 else 0
        betti.append(chains - ranks[i + 1] - upper)
        torsion.append(invariants[i + 2] if i + 2 <= dim + 1 else ())
    profile = HomologyProfile(tuple(betti), tuple(torsion),
                              cx.euler_characteristic_reduced())
    chi = sum((-1) ** i * b for i, b in enumerate(betti))
    if chi != profile.euler_reduced:
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


def is_cohen_macaulay(cx: SimplicialComplex) -> bool:
    """Reisner-style criterion over the integers.

    Every face link (the empty face included) must have vanishing reduced
    integral homology below its own top dimension.
    """
    dim = cx.dimension()
    if dim < 0:
        return True
    for face in sorted(cx.faces()):
        if len(face) > dim - 1:
            continue  # links of dimension <= 0 have nothing below the top
        link = _link_of_face(cx, face)
        d = link.dimension()
        if d <= 0:
            continue
        prof = homology(link)
        if any(prof.betti[i] != 0 or prof.torsion[i] for i in range(d)):
            return False
    return True


def _link_of_face(cx: SimplicialComplex, face: tuple) -> SimplicialComplex:
    # indices are renumbered by each link, so walk by label
    labels = [cx.vertices[v] for v in face]
    out = cx
    for lab in labels:
        out = out.link(out.index_of(lab))
    return out


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


def _audit_one(payload) -> Optional[str]:
    """Check one vertex removal; module-level so worker pools can pickle it."""
    vertices, facets, dim, removed, cm_check = payload
    cx = SimplicialComplex(vertices, facets)
    keep = [i for i in range(len(vertices)) if i not in set(removed)]
    rest = cx.induce(keep)
    if rest.dimension() != dim:
        return "dimension-drop"
    if not rest.is_pure():
        return "impure"
    if cm_check == "reisner":
        if not is_cohen_macaulay(rest):
            return "not-CM"
    elif cm_check == "shelling":
        try:
            construct_shelling(rest)
        except ShellingFailure:
            return "not-CM"
    else:
        raise ValueError("cm_check must be 'reisner' or 'shelling'")
    return None


def kcm_audit(cx: SimplicialComplex, k: int, mode: str = "exhaustive",
              cm_check: str = "reisner", sample_count: int = 200,
              seed: int = 0, max_failures: Optional[int] = None,
              sizes: Optional[Iterable[int]] = None,
              workers: int = 1) -> KCMReport:
    """Audit k-Cohen-Macaulayness by removing vertex subsets of size < k.

    Each removal must leave a complex that is pure, of the same dimension,
    and Cohen-Macaulay (by Reisner link homology, or by an explicit
    shelling when cm_check='shelling').  Failures are collected as data.
    Independent removals may be distributed over a process pool; results
    are merged in subset order either way.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = len(cx.vertices)
    dim = cx.dimension()
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
    payloads = ((cx.vertices, cx.facets, dim, removed, cm_check)
                for removed in subsets)
    if workers > 1 and max_failures is None:
        import multiprocessing
        with multiprocessing.Pool(workers) as p:
            reasons = p.map(_audit_one, payloads)
    else:
        reasons = map(_audit_one, payloads)
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


def reduced_euler_characteristic(cx: SimplicialComplex) -> int:
    return cx.euler_characteristic_reduced()
