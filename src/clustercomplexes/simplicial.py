"""Abstract simplicial complexes with facet-list representation.

Vertices are identified by string labels (kept stable for output); an
optional parallel tuple of payload objects lets callers recover the
underlying combinatorial data of each vertex.  Facets are sorted tuples
of vertex indices, and the facet list itself is kept sorted.  A complex
may carry a vertex permutation, ``symmetry``, that its builder knows to
be an automorphism; ``induce``, the only construction, does not pass it
on, since a subcomplex is in general not invariant under it.
``face_table`` holds the index of every face that ``topology`` builds
once per complex, on first use: its Cohen-Macaulay audits read links
off it, and ``noncrossing`` reads skeleta and fibers off the positive
part's.
"""
from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, Optional, Sequence


class SimplicialComplex:

    def __init__(self, vertices: Sequence[str], facets: Iterable[Sequence[int]],
                 objects: Optional[Sequence] = None, meta: Optional[dict] = None,
                 symmetry: Optional[Sequence[int]] = None):
        self.vertices = tuple(vertices)
        self.objects = tuple(objects) if objects is not None else None
        if self.objects is not None and len(self.objects) != len(self.vertices):
            raise ValueError("objects and vertices differ in length")
        self.symmetry = tuple(symmetry) if symmetry is not None else None
        n = len(self.vertices)
        if self.symmetry is not None and (
                len(self.symmetry) != n or set(self.symmetry) != set(range(n))):
            raise ValueError("symmetry is not a permutation of the vertex "
                             "indices")
        cleaned = sorted({tuple(sorted(f)) for f in facets})
        if len({len(f) for f in cleaned}) > 1:
            # drop faces contained in larger ones: only faces holding its
            # first vertex can contain a face, and () lies in every other one
            sets = [set(f) for f in cleaned]
            holders: dict = {}
            for fs in sets:
                for v in fs:
                    holders.setdefault(v, []).append(fs)
            cleaned = [f for f, fs in zip(cleaned, sets)
                       if f and not any(fs < g for g in holders[f[0]])]
        self.facets = tuple(cleaned)
        self.meta = dict(meta or {})
        self._faces = None
        self.face_table = None

    # -- basic queries -------------------------------------------------------

    def dimension(self) -> int:
        if not self.facets:
            return -1
        return max(len(f) for f in self.facets) - 1

    def is_pure(self) -> bool:
        if not self.facets:
            return True
        sizes = {len(f) for f in self.facets}
        return len(sizes) == 1

    def faces(self) -> set:
        """All faces, the empty face included, as sorted index tuples."""
        if self._faces is None:
            out = {()}
            for f in self.facets:
                for k in range(1, len(f) + 1):
                    out.update(itertools.combinations(f, k))
            self._faces = out
        return self._faces

    def f_vector(self) -> tuple:
        counts = [0] * (self.dimension() + 2)
        for f in self.faces():
            counts[len(f)] += 1
        return tuple(counts)

    def euler_characteristic_reduced(self) -> int:
        chi = 0
        for k, count in enumerate(self.f_vector()):
            chi += count if (k - 1) % 2 == 0 else -count
        return chi

    def index_of(self, label: str) -> int:
        try:
            return self.vertices.index(label)
        except ValueError:
            raise ValueError("unknown vertex %r" % (label,)) from None

    # -- constructions -------------------------------------------------------

    def induce(self, subset: Iterable[int]) -> "SimplicialComplex":
        """The induced subcomplex on ``subset``, its vertices renumbered."""
        keep = sorted(set(subset))
        if any(v < 0 or v >= len(self.vertices) for v in keep):
            raise ValueError("unknown vertex index in %r" % (subset,))
        remap = {old: new for new, old in enumerate(keep)}
        objs = [self.objects[i] for i in keep] if self.objects is not None else None
        return SimplicialComplex(
            [self.vertices[i] for i in keep],
            [tuple(remap[x] for x in f if x in remap) for f in self.facets],
            objects=objs, meta=self.meta)

    # -- output ---------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "facets": [list(f) for f in self.facets],
            "f_vector": list(self.f_vector()),
        }

    def __repr__(self):
        return "SimplicialComplex(%d vertices, %d facets, dim %d)" % (
            len(self.vertices), len(self.facets), self.dimension())


def f_to_h(f_vector: Sequence[int]) -> tuple:
    """Binomial transform sending the f-vector to the h-vector."""
    d = len(f_vector) - 1  # = dim + 1
    h = []
    for k in range(d + 1):
        total = 0
        for i in range(k + 1):
            total += (-1) ** (k - i) * comb(d - i, k - i) * f_vector[i]
        h.append(total)
    return tuple(h)


def f_h_vectors(cx: SimplicialComplex) -> tuple:
    """The f-vector, and the h-vector when the complex is pure (else None)."""
    f = cx.f_vector()
    if not cx.is_pure():
        return f, None
    return f, f_to_h(f)
