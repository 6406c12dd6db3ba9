"""Checks the benchmark computes from facet lists, apart from the program."""
from __future__ import annotations

import itertools
from collections import Counter

# Fields for the link homology.  By universal coefficients a class seen over
# GF(p) in degree i < top means nonzero integral homology in degree i or
# i - 1, both below the top, so a failure found here is a real one.  A link
# whose only defect is odd torsion is missed, and the re-check then reports
# the witness as unconfirmed rather than passing it.
PRIMES = (2, 2_147_483_647)


def codim1_counts(facets) -> Counter:
    """How many facets contain each codimension-one face."""
    counts: Counter = Counter()
    for f in facets:
        for drop in range(len(f)):
            counts[f[:drop] + f[drop + 1:]] += 1
    return counts


def reduced_euler(f_vector) -> int:
    """sum_i (-1)^i f_i over i >= -1, from an f-vector led by the empty face."""
    return sum((-1) ** (k - 1) * count for k, count in enumerate(f_vector))


def restrict(facets, keep: set) -> list:
    """Maximal faces of the subcomplex induced on ``keep``."""
    faces = {tuple(v for v in f if v in keep) for f in facets}
    return [f for f in faces if not any(set(f) < set(g) for g in faces)]


def not_cohen_macaulay(facets, dim: int) -> str:
    """Why a facet list fails to be Cohen-Macaulay of dimension ``dim``.

    Returns '' when no failure is found: the complex is pure of that
    dimension and every face link has vanishing reduced homology below its
    top degree over each field in PRIMES.
    """
    sizes = {len(f) for f in facets}
    if max(sizes) != dim + 1:
        return "dimension-drop"
    if len(sizes) != 1:
        return "impure"
    faces = {g for f in facets for k in range(len(f) + 1)
             for g in itertools.combinations(f, k)}
    for face in sorted(faces, key=len):
        if len(face) > dim - 1:
            break
        link = [tuple(v for v in f if v not in face) for f in facets
                if set(face) <= set(f)]
        top = dim - len(face)
        for p in PRIMES:
            betti = _reduced_betti(link, p)
            if any(betti.get(i, 0) for i in range(-1, top)):
                return "not-CM"
    return ""


def _reduced_betti(facets, p: int) -> dict:
    """Reduced Betti numbers over GF(p), by degree."""
    by_size: dict = {}
    for f in facets:
        for k in range(len(f) + 1):
            by_size.setdefault(k, set()).update(itertools.combinations(f, k))
    top = max(by_size)
    index = {k: {f: i for i, f in enumerate(sorted(fs))} for k, fs in by_size.items()}
    ranks = {k: _boundary_rank(index[k], index[k - 1], p) for k in range(1, top + 1)}
    return {k - 1: len(index[k]) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            for k in range(top + 1)}


def _boundary_rank(cols: dict, rows: dict, p: int) -> int:
    """Rank over GF(p) of the boundary map from faces ``cols`` to ``rows``."""
    pivots: dict = {}  # leading row index -> reduced column, as {row: coeff}
    rank = 0
    for face in cols:
        col = {rows[face[:d] + face[d + 1:]]: (-1) ** d % p for d in range(len(face))}
        while col:
            lead = max(col)
            if lead not in pivots:
                inv = pow(col[lead], p - 2, p)
                pivots[lead] = {r: c * inv % p for r, c in col.items()}
                rank += 1
                break
            factor = col[lead]
            for r, c in pivots[lead].items():
                v = (col.get(r, 0) - factor * c) % p
                if v:
                    col[r] = v
                else:
                    col.pop(r, None)
    return rank
