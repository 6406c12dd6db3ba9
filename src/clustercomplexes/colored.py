"""Colored root sets and generalized cluster complexes.

The vertex set pairs each positive root with a color 1..m and adds the
negative simple roots (which carry color 1 by convention).  Faces are
characterized two ways: through the recursive compatibility relation
driven by the color-rotation map, and through the word criterion that a
set is a face exactly when its ordered reflection product w has length
equal to the set's size and sits below the bipartite Coxeter element in
absolute order; the face test decides it with one reflection length, that
of w^-1 gamma (see ``is_face``).  It builds no group element: the context
keeps one step per vertex position (its place in the word and its
reflection), and the test applies the sorted steps to the n simple-root
images of gamma.  The builder applies each vertex's step to gamma's images
once, so a pair costs one more step; it enumerates facets as maximal
cliques of the pair graph on bitmasks and re-validates every clique against
the word criterion, so the flag property is checked rather than assumed.

Only the builder treats a product apart: it joins the components' facets
and pair graphs (Fomin and Reading).  All else acts on the product itself,
whose vertices and total order list each component's in turn: the word
criterion and Carter's lemma hold in any finite reflection group, and R_m
acts on each component as its own, so the face test, compatibility, R_m
and the shelling hints need no split into components.
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
    """Per-(system, m) data shared by the face tests: order, gamma, steps."""

    def __init__(self, rs: RootSystem, m: int):
        if m < 0:
            raise ValueError("the color count m must be nonnegative")
        self.system = rs
        self.m = m
        self.gamma = bipartite_coxeter(rs)
        self.gamma_images = tuple(self.gamma.perm[i]
                                  for i in rs.simple_positions)
        self._order = None
        self._steps = None
        self._position = None

    @property
    def order(self):
        if self._order is None:
            self._order = total_order(self.system)
        return self._order

    @property
    def steps(self) -> list:
        """Per vertex position: (word class, -position, reflection permutation).

        The word of a face multiplies the negative simples of the plus
        block first (class 0), then the color classes from m down to 1,
        then the minus-block negatives (class m + 1); inside a class the
        reflections are taken against the total order, largest first.  So
        the steps of a face, sorted, are its word's reflections in order.
        """
        if self._steps is None:
            rs, m = self.system, self.m
            position = self.order.position
            table = []
            for v in colored_vertices(rs, m):
                if rs.is_positive(v.root):
                    cls = m + 1 - v.color
                else:
                    cls = 0 if rs.simple_index(rs.negate(v.root)) < rs.split_s \
                        else m + 1
                table.append((cls, -position(v.root),
                              rs.reflection(v.root).perm))
            self._steps = table
        return self._steps

    @property
    def position(self) -> dict:
        """Vertex key -> its position in ``colored_vertices`` order."""
        if self._position is None:
            self._position = {v.key(): i for i, v in
                              enumerate(colored_vertices(self.system, self.m))}
        return self._position


def get_context(rs: RootSystem, m: int) -> ComplexContext:
    """The context of (rs, m), kept on the system and freed with it."""
    ctx = rs.contexts.get(m)
    if ctx is None:
        ctx = rs.contexts[m] = ComplexContext(rs, m)
    return ctx


def colored_vertices(rs: RootSystem, m: int) -> list:
    """The vertex set: per component in turn, -Pi and m copies of Phi+."""
    out = []
    for comp in rs.components:
        out.extend(ColoredRoot(comp.negate(a), 1) for a in comp.simple_roots)
        for color in range(1, m + 1):
            out.extend(ColoredRoot(r, color) for r in comp.positive_roots)
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
    """The reflection permutations of the positions' word, in product order."""
    steps = ctx.steps
    return [t for _, _, t in sorted([steps[p] for p in positions])]


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

    The graph is the adjacency of the vertex positions: i -> the frozenset
    of the positions j != i that form a face with i.
    """
    ctx = get_context(rs, m)
    vertices = colored_vertices(rs, m)
    facets, adjacency = _facets_and_graph(ctx)
    labels = [canonical_label(rs, v) for v in vertices]
    cx = SimplicialComplex(labels, facets, objects=vertices,
                           meta=_shelling_meta(ctx, vertices, labels),
                           symmetry=_rotation(ctx, vertices))
    return cx, {i: frozenset(j for j in range(len(vertices)) if near >> j & 1)
                for i, near in enumerate(adjacency)}


def _facets_and_graph(ctx: ComplexContext) -> tuple:
    """The facets and the neighbour bitmask of each vertex position.

    An irreducible system's facets are the maximal cliques of its pair
    graph, each re-checked against the word criterion.  A product's are the
    join of its components' ({()} at rank 0, which has none): each vertex
    of a part lies in a facet of it, so it neighbours every other part.
    """
    rs = ctx.system
    if not rs.is_irreducible:
        facets, adjacency = [()], []
        for comp in rs.components:
            part_facets, part_adjacency = _facets_and_graph(
                get_context(comp, ctx.m))
            off = len(adjacency)
            part = ((1 << len(part_adjacency)) - 1) << off
            shifted = [tuple(v + off for v in f) for f in part_facets]
            facets = [f + g for f in facets for g in shifted]
            adjacency = [near | part for near in adjacency] + \
                [near << off | (1 << off) - 1 for near in part_adjacency]
        return facets, adjacency
    adjacency = _pair_graph(ctx)
    cliques = _max_cliques(adjacency)
    for clique in cliques:
        if not _is_face_at(ctx, clique):
            raise RuntimeError(
                "flagness violated: maximal clique %r fails the word criterion"
                % (clique,))
    return cliques, adjacency


def _rotation(ctx: ComplexContext, vertices: Sequence[ColoredRoot]):
    """R_m as a permutation of the vertex positions, or None.

    R_m preserves compatibility (Fomin and Reading), so the permutation is
    an automorphism of the complex.  At m = 0 the vertex set is -Pi, which
    R_m does not preserve, and at rank 0 there is no vertex to act on.
    """
    if ctx.m < 1 or not vertices:
        return None
    return [ctx.position[rm_map(ctx.system, ctx.m, v).key()] for v in vertices]


def _pair_graph(ctx: ComplexContext) -> list:
    """The neighbour bitmask of each vertex position.

    A pair's word applies the earlier of its steps first, so its images are
    the later reflection applied to the earlier vertex's prefix: gamma's
    images after that vertex's own reflection.
    """
    steps, image_length = ctx.steps, ctx.system.image_length
    target = ctx.gamma.length - 2
    adjacency = [0] * len(steps)
    prefixes = []
    for b in sorted(range(len(steps)), key=steps.__getitem__):
        t = steps[b][2].__getitem__
        for a, prefix in prefixes:
            if image_length(tuple(map(t, prefix))) == target:
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a
        prefixes.append((b, tuple(map(t, ctx.gamma_images))))
    return adjacency


def _shelling_meta(ctx: ComplexContext, vertices: Sequence[ColoredRoot],
                   labels: Sequence[str]) -> dict:
    """The vertex ranking the shelling constructor tries shedding vertices in.

    Keys are vertex labels, which stay stable under link/delete/induce.
    Negative simples rank (0, 0), before every positive root's (color,
    position), as colors start at 1.
    """
    rs, position = ctx.system, ctx.order.position
    rank = {label: (0, 0) if _is_negative_simple(rs, v)
            else (v.color, position(v.root))
            for v, label in zip(vertices, labels)}
    return {"vertex_rank": rank}


def positive_part(cx: SimplicialComplex) -> SimplicialComplex:
    """Induced subcomplex on the colored positive roots."""
    keep = [i for i, lab in enumerate(cx.vertices) if not lab.startswith("-s")]
    return cx.induce(keep)


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
