"""Colored root sets and generalized cluster complexes.

The vertex set pairs each positive root with a color 1..m and adds the
negative simple roots (which carry color 1 by convention).  The vertices
are numbered in one total order on the colored roots: -Pi_minus, Phi+ in
colors 1 to m, then -Pi_plus, each block by the total order on roots.
That one numbering orders every face's word, its vertices from the last
position to the first, and makes the sorted facet list the lexicographic
shelling order.  Faces are characterized two ways: through the recursive
compatibility relation driven by the color-rotation map, and through the
word criterion that a set is a face exactly when its ordered reflection
product w has length equal to the set's size and sits below the bipartite
Coxeter element in absolute order; the face test decides it with one
reflection length, that of w^-1 gamma (see ``is_face``).  It builds no
group element: the context keeps each position's reflection, and the test
applies a face's reflections to the n simple-root images of gamma.  The
builder decides every pair from one descent set per positive root, that
of t gamma (``RootSystem.descents``), with no length per pair; it
enumerates facets as maximal cliques of the pair graph on bitmasks and
re-validates every clique against the word criterion, so the flag
property is checked rather than assumed.

A product takes the same path as every other system, on the product
itself, whose vertices list each component's in turn: the word criterion
and Carter's lemma hold in any finite reflection group, reflections of
different components commute, and R_m acts on each component as its own,
so the builder, the face test, compatibility, R_m and the shelling need
no split into components.
Its complex comes out as the join of its components' (Fomin and Reading),
which the tests check rather than the builder assume.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .coxeter import bipartite_coxeter, total_order
from .roots import Root, RootSystem
from .simplicial import SimplicialComplex


class ColoredRoot:
    """A positive root with a color, or a negative simple root (color 1)."""

    __slots__ = ("root", "color")

    def __init__(self, root: Root, color: int):
        self.root = root
        self.color = color

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.root == other.root and self.color == other.color

    def __hash__(self):
        return hash((self.root, self.color))

    def __repr__(self):
        return "ColoredRoot(root=%r, color=%r)" % (self.root, self.color)

    def key(self):
        return (self.root.key, self.color)


class ComplexContext:
    """Per-(system, m) data shared by the face tests: vertices, gamma, steps.

    ``vertices`` is ``colored_vertices(rs, m)``, in the colored total
    order, ``position`` maps a vertex key to its place in ``vertices``, and
    ``steps`` holds each place's reflection permutation.  A face's word
    takes its vertices from the last place to the first.
    """

    def __init__(self, rs: RootSystem, m: int):
        if m < 0:
            raise ValueError("the color count m must be nonnegative")
        self.system = rs
        self.m = m
        self.gamma = bipartite_coxeter(rs)
        self.gamma_images = tuple(self.gamma.perm[i]
                                  for i in rs.simple_positions)
        self.vertices = colored_vertices(rs, m)
        self.position = {v.key(): i for i, v in enumerate(self.vertices)}
        self.steps = [rs.reflection(v.root).perm for v in self.vertices]


def get_context(rs: RootSystem, m: int) -> ComplexContext:
    """The context of (rs, m), kept on the system and freed with it."""
    ctx = rs.contexts.get(m)
    if ctx is None:
        ctx = rs.contexts[m] = ComplexContext(rs, m)
    return ctx


def colored_vertices(rs: RootSystem, m: int) -> list:
    """The vertex set in the colored total order.

    Per component in turn: -Pi_minus, Phi+ in color 1, .., Phi+ in color m,
    then -Pi_plus, each block by the total order.  A face's word reads its
    vertices last first, and the facet list, sorted in this numbering, is
    the lexicographic shelling.
    """
    out = []
    for comp in rs.components:
        window = total_order(comp)
        lo, hi = comp.rank - comp.split_s, len(window) - comp.split_s
        out.extend(ColoredRoot(r, 1) for r in window[:lo])
        for color in range(1, m + 1):
            out.extend(ColoredRoot(r, color) for r in window[lo:hi])
        out.extend(ColoredRoot(r, 1) for r in window[hi:])
    return out


def canonical_label(rs: RootSystem, v: ColoredRoot) -> str:
    """Stable vertex label: expansion coefficients plus color, or -s<i>."""
    if not rs.is_positive(v.root):
        i = rs.simple_index(rs.negate(v.root))
        return "-s%d" % (i + 1)
    exp = rs.expansion(v.root)
    if exp is None:  # dihedral interior root: label by angle index
        return "d%d:%d" % (v.root.angle, v.color)
    return "[%s]:%d" % (",".join(str(c) for c in exp), v.color)


# -- the involutions and the color rotation --------------------------------------


def tau(rs: RootSystem, eps: int, alpha: Root) -> Root:
    """The involution fixing the negative simples of the opposite block."""
    s = rs.split_s
    block = rs.simple_roots[:s] if eps > 0 else rs.simple_roots[s:]
    other = rs.simple_roots[s:] if eps > 0 else rs.simple_roots[:s]
    if not rs.is_positive(alpha) and rs.negate(alpha) in set(other):
        return alpha
    out = alpha
    for a in block:
        out = rs.reflection(a).apply(out)
    if rs.is_positive(out) or rs.simple_index(rs.negate(out)) is not None:
        return out
    raise RuntimeError("tau left the admissible root window")


def deformed_coxeter(rs: RootSystem, alpha: Root) -> Root:
    """The composite tau_minus after tau_plus."""
    return tau(rs, -1, tau(rs, +1, alpha))


def rm_map(rs: RootSystem, m: int, v: ColoredRoot) -> ColoredRoot:
    """Rotate colors; at the last color apply the deformed Coxeter map."""
    if rs.is_positive(v.root) and v.color < m:
        return ColoredRoot(v.root, v.color + 1)
    return ColoredRoot(deformed_coxeter(rs, v.root), 1)


def _is_negative_simple(rs: RootSystem, v: ColoredRoot) -> bool:
    return not rs.is_positive(v.root)


def fr_compatible(rs: RootSystem, m: int, a: ColoredRoot, b: ColoredRoot) -> bool:
    """Compatibility via joint color rotation plus the support rule."""
    if a == b:
        raise ValueError("compatibility is a relation on distinct pairs")
    guard = m * len(rs.positive_roots) + rs.rank + 1
    for _ in range(guard):
        if _is_negative_simple(rs, a):
            return _support_rule(rs, a, b)
        if _is_negative_simple(rs, b):
            return _support_rule(rs, b, a)
        a = rm_map(rs, m, a)
        b = rm_map(rs, m, b)
    raise RuntimeError("color rotation failed to reach a negative simple root")


def _support_rule(rs: RootSystem, neg: ColoredRoot, other: ColoredRoot) -> bool:
    alpha_index = rs.simple_index(rs.negate(neg.root))
    if _is_negative_simple(rs, other):
        return rs.simple_index(rs.negate(other.root)) != alpha_index
    return alpha_index not in rs.support(other.root)


# -- the word criterion -----------------------------------------------------------


def _positions(ctx: ComplexContext, sigma: Iterable[ColoredRoot]) -> list:
    """The vertex positions of sigma's colored roots.

    Raises ValueError on a colored root outside the context's vertex set.
    """
    position = ctx.position
    out = []
    for v in sigma:
        p = position.get(v.key())
        if p is None:
            raise ValueError("%r is not a vertex of the complex of %s at "
                             "m = %d" % (v, ctx.system.label, ctx.m))
        out.append(p)
    return out


def _word(ctx: ComplexContext, positions: Iterable[int]) -> list:
    """The reflection permutations of the positions' word, in product order:
    the highest position first."""
    return list(map(ctx.steps.__getitem__, sorted(positions, reverse=True)))


def is_face(ctx: ComplexContext, sigma: Iterable[ColoredRoot]) -> bool:
    """Word criterion: the product has additive length and sits below gamma."""
    sigma = list(sigma)
    if len({v.key() for v in sigma}) != len(sigma):
        raise ValueError("faces may not repeat a colored root")
    return _is_face_at(ctx, _positions(ctx, sigma))


def _is_face_at(ctx: ComplexContext, positions: Sequence[int]) -> bool:
    """``is_face`` on distinct vertex positions."""
    # One length decides l(w) = |sigma| and w <= gamma: w is a product of
    # |sigma| reflections, so l(w) <= |sigma|, and l(gamma) <= l(w) +
    # l(w^-1 gamma).  So l(w^-1 gamma) = l(gamma) - |sigma| forces
    # l(w) >= |sigma|, hence l(w) = |sigma| and l(w) + l(w^-1 gamma) =
    # l(gamma); the converse is immediate.  With w = t_1 .. t_k,
    # w^-1 gamma = t_k .. t_1 gamma, so t_1 is applied first.
    images = ctx.gamma_images
    for t in _word(ctx, positions):
        images = tuple(map(t.__getitem__, images))
    return ctx.system.image_length(images) == \
        ctx.gamma.length - len(positions)


# -- the complex builder -----------------------------------------------------------


def _max_cliques(adjacency: Sequence[int]) -> list:
    """Bron-Kerbosch with pivoting on the neighbour bitmasks of 0 .. n - 1.

    The pivot has the most neighbours left to pick, the lowest such vertex
    on a tie.  Deterministic output order.
    """
    cliques = []

    def expand(r: tuple, p: int, x: int):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        most, rest = -1, p | x
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            count = (adjacency[v] & p).bit_count()
            if count > most:
                pivot, most = v, count
            rest ^= low
        todo = p & ~adjacency[pivot]
        while todo:
            low = todo & -todo
            v = low.bit_length() - 1
            expand(r + (v,), p & adjacency[v], x & adjacency[v])
            p ^= low
            x |= low
            todo ^= low

    expand((), (1 << len(adjacency)) - 1, 0)
    return sorted(cliques)


def build_complex(rs: RootSystem, m: int) -> tuple:
    """The generalized cluster complex and its compatibility graph.

    The facets are the maximal cliques of the pair graph, each re-checked
    against the word criterion.  The graph is the adjacency of the vertex
    positions: i -> the frozenset of the positions j != i that form a face
    with i.
    """
    ctx = get_context(rs, m)
    vertices = ctx.vertices
    adjacency = _pair_graph(ctx)
    facets = _max_cliques(adjacency)
    for facet in facets:
        if not _is_face_at(ctx, facet):
            raise RuntimeError(
                "flagness violated: maximal clique %r fails the word criterion"
                % (facet,))
    labels = [canonical_label(rs, v) for v in vertices]
    cx = SimplicialComplex(labels, facets, objects=vertices,
                           symmetry=_rotation(ctx))
    return cx, {i: frozenset(j for j in range(len(vertices)) if near >> j & 1)
                for i, near in enumerate(adjacency)}


def _rotation(ctx: ComplexContext):
    """R_m as a permutation of the vertex positions, or None.

    R_m preserves compatibility (Fomin and Reading), so the permutation is
    an automorphism of the complex.  At m = 0 the vertex set is -Pi, which
    R_m does not preserve, and at rank 0 there is no vertex to act on.
    """
    if ctx.m < 1 or not ctx.vertices:
        return None
    return [ctx.position[rm_map(ctx.system, ctx.m, v).key()]
            for v in ctx.vertices]


def _pair_graph(ctx: ComplexContext) -> list:
    """The neighbour bitmask of each vertex position.

    A pair {a, b}, a > b, so a's step first, is a face when
    l(t_b t_a gamma) = n - 2.  Every reflection lies below gamma, so
    l(t_a gamma) = n - 1, and the pair is a face exactly when b's root is a
    descent of t_a gamma: one descent set per positive root serves every
    pair.
    """
    rs, steps = ctx.system, ctx.steps
    # each position's root, as an index into positive_roots: the negative
    # roots follow the positive ones in ``roots``, in the same order
    npos = len(rs.positive_roots)
    root = [rs.index_of(v.root) % npos for v in ctx.vertices]
    down = {}  # root -> the descent set of its t gamma
    for p, r in enumerate(root):
        if r not in down:
            images = tuple(map(steps[p].__getitem__, ctx.gamma_images))
            down[r] = rs.descents(images)
            if rs.image_length(images) != ctx.gamma.length - 1:
                raise RuntimeError(
                    "the reflection in %r is not below the Coxeter element "
                    "of %s" % (rs.positive_roots[r], rs.label))
    adjacency = [0] * len(steps)
    for a, r in enumerate(root):
        below = down[r]
        for b in range(a):
            if below >> root[b] & 1:
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a
    return adjacency


def negative_simples(cx: SimplicialComplex) -> int:
    """The bitmask of the vertices of cx that are negative simple roots."""
    return sum(1 << i for i, lab in enumerate(cx.vertices)
               if lab.startswith("-s"))


def positive_part(cx: SimplicialComplex) -> SimplicialComplex:
    """Induced subcomplex on the vertices outside ``negative_simples``."""
    negatives = negative_simples(cx)
    return cx.induce(i for i in range(len(cx.vertices)) if not negatives >> i & 1)


# -- the polygon model for type A ---------------------------------------------------


def typeA_polygon_oracle(n: int, m: int) -> SimplicialComplex:
    """Noncrossing allowable diagonals of a polygon with m*n + 2 vertices.

    Models the rank n-1 complex of type A: a diagonal is allowable when it
    cuts the polygon into parts whose vertex counts are both 2 modulo m,
    and faces are the pairwise noncrossing sets of such diagonals.
    """
    if n < 2:
        raise ValueError("the polygon model needs n >= 2")
    size = m * n + 2
    diagonals = []
    for i in range(size):
        for j in range(i + 2, size):
            if (i, j) == (0, size - 1):
                continue  # polygon edge, not a diagonal
            if (j - i) % m == 1 % m:
                diagonals.append((i, j))
    labels = ["d(%d,%d)" % d for d in diagonals]
    adjacency = [0] * len(diagonals)
    for a, b in itertools.combinations(range(len(diagonals)), 2):
        if not _diagonals_cross(diagonals[a], diagonals[b]):
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a
    facets = _max_cliques(adjacency) if diagonals else []
    return SimplicialComplex(labels, facets, objects=diagonals)


def _diagonals_cross(d1: tuple, d2: tuple) -> bool:
    (a, b), (c, d) = d1, d2
    return (a < c < b < d) or (c < a < d < b)
