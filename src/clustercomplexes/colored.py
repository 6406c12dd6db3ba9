"""Colored root sets and generalized cluster complexes.

The vertex set pairs each positive root with a color 1..m and adds the
negative simple roots (which carry color 1 by convention).  Faces are
characterized two ways: through the recursive compatibility relation
driven by the color-rotation map, and through the word criterion that a
set is a face exactly when its ordered reflection product w has length
equal to the set's size and sits below the bipartite Coxeter element in
absolute order; the face test decides it with one reflection length, that
of w^-1 gamma (see ``is_face``).  It builds no group element: the context
keeps one step per vertex (its place in the word and its reflection), and
the test applies the sorted steps to the n simple-root images of gamma.
The builder enumerates facets as maximal cliques of the pairwise-face
graph and re-validates every clique against the word criterion, so the
flag property is checked rather than assumed.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .coxeter import bipartite_coxeter, total_order
from .roots import Root, RootSystem
from .simplicial import SimplicialComplex


@dataclass(frozen=True)
class ColoredRoot:
    """A positive root with a color, or a negative simple root (color 1)."""

    root: Root
    color: int

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

    @property
    def order(self):
        if self._order is None:
            self._order = total_order(self.system)
        return self._order

    @property
    def steps(self) -> dict:
        """Vertex key -> (word class, -position, reflection permutation).

        The word of a face multiplies the negative simples of the plus
        block first (class 0), then the color classes from m down to 1,
        then the minus-block negatives (class m + 1); inside a class the
        reflections are taken against the total order, largest first.  So
        the steps of a face, sorted, are its word's reflections in order.
        """
        if self._steps is None:
            rs, m = self.system, self.m
            position = self.order.position
            table = {}
            for v in colored_vertices(rs, m):
                if rs.is_positive(v.root):
                    cls = m + 1 - v.color
                else:
                    cls = 0 if rs.simple_index(rs.negate(v.root)) < rs.split_s \
                        else m + 1
                table[v.key()] = (cls, -position(v.root),
                                  rs.reflection(v.root).perm)
            self._steps = table
        return self._steps


def get_context(rs: RootSystem, m: int) -> ComplexContext:
    """The context of (rs, m), kept on the system and freed with it."""
    ctx = rs.contexts.get(m)
    if ctx is None:
        ctx = rs.contexts[m] = ComplexContext(rs, m)
    return ctx


def colored_vertices(rs: RootSystem, m: int) -> list:
    """The vertex set: m copies of each positive root plus -Pi."""
    out = [ColoredRoot(rs.negate(a), 1) for a in rs.simple_roots]
    for color in range(1, m + 1):
        out.extend(ColoredRoot(r, color) for r in rs.positive_roots)
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
    if not rs.is_irreducible:
        comp_a = _component_of(rs, a.root)
        comp_b = _component_of(rs, b.root)
        if comp_a is not comp_b:
            return True
        return fr_compatible(comp_a, m, a, b)
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


def _component_of(rs: RootSystem, root: Root) -> RootSystem:
    """The component of a positive or negative simple root of rs.

    Raises KeyError for a root of another system and ValueError for any
    other negative root.
    """
    if rs.is_positive(root):
        idx = min(rs.support(root))
    else:
        idx = rs.simple_index(rs.negate(root))
        if idx is None:
            raise ValueError("%r is not the negative of a simple root" % (root,))
    return rs.component_of_simple(idx)


# -- the word criterion -----------------------------------------------------------


def _word(ctx: ComplexContext, sigma: Iterable[ColoredRoot]) -> list:
    """The reflection permutations of sigma's word, in multiplication order.

    Raises ValueError on a colored root outside the context's vertex set.
    """
    table = ctx.steps
    steps = []
    for v in sigma:
        step = table.get(v.key())
        if step is None:
            raise _not_a_vertex(ctx, v)
        steps.append(step)
    steps.sort()
    return [t for _, _, t in steps]


def _not_a_vertex(ctx: ComplexContext, v: ColoredRoot) -> ValueError:
    return ValueError("%r is not a vertex of the complex of %s at m = %d"
                      % (v, ctx.system.label, ctx.m))


def is_face(ctx: ComplexContext, sigma: Iterable[ColoredRoot]) -> bool:
    """Word criterion: the product has additive length and sits below gamma.

    A component's roots carry the parent's coordinates, and roots compare
    by key, so the roots of a reducible system serve its components as is.
    """
    sigma = list(sigma)
    if len({v.key() for v in sigma}) != len(sigma):
        raise ValueError("faces may not repeat a colored root")
    rs = ctx.system
    if not rs.is_irreducible:
        groups = {}
        for v in sigma:
            try:
                comp = _component_of(rs, v.root)
            except (KeyError, ValueError):
                raise _not_a_vertex(ctx, v) from None
            groups.setdefault(id(comp), (comp, []))[1].append(v)
        # every part is tested, so a bad vertex in any of them raises
        return all([is_face(get_context(comp, ctx.m), part)
                    for comp, part in groups.values()])
    # One length decides l(w) = |sigma| and w <= gamma: w is a product of
    # |sigma| reflections, so l(w) <= |sigma|, and l(gamma) <= l(w) +
    # l(w^-1 gamma).  So l(w^-1 gamma) = l(gamma) - |sigma| forces
    # l(w) >= |sigma|, hence l(w) = |sigma| and l(w) + l(w^-1 gamma) =
    # l(gamma); the converse is immediate.  With w = t_1 .. t_k,
    # w^-1 gamma = t_k .. t_1 gamma, so t_1 is applied first.
    images = ctx.gamma_images
    for t in _word(ctx, sigma):
        images = tuple(t[i] for i in images)
    return rs.image_length(images) == ctx.gamma.length - len(sigma)


# -- the complex builder -----------------------------------------------------------


def _max_cliques(adjacency: dict) -> list:
    """Bron-Kerbosch with pivoting; deterministic output order."""
    cliques = []

    def expand(r: list, p: set, x: set):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda v: (len(adjacency[v] & p), -v))
        for v in sorted(p - adjacency[pivot]):
            expand(r + [v], p & adjacency[v], x & adjacency[v])
            p.remove(v)
            x.add(v)

    expand([], set(adjacency), set())
    return sorted(cliques)


def build_complex(rs: RootSystem, m: int) -> tuple:
    """The generalized cluster complex and its compatibility graph.

    The graph is the adjacency of the vertex positions: i -> the frozenset
    of the positions j != i that form a face with i.
    """
    return _build_complex(get_context(rs, m))


def _build_complex(ctx: ComplexContext) -> tuple:
    rs, m = ctx.system, ctx.m
    if rs.rank == 0:
        cx = SimplicialComplex([], [()], objects=[])
        return cx, {}
    if not rs.is_irreducible:
        parts = [_build_complex(get_context(c, m))[0] for c in rs.components]
        # join at the index level, then label in the parent system's basis
        objects = []
        facet_lists = []
        symmetry = []
        for p in parts:
            off = len(objects)
            objects.extend(p.objects)
            fl = p.facets or ((),)
            facet_lists.append([tuple(v + off for v in f) for f in fl])
            if p.symmetry is not None:
                symmetry.extend(v + off for v in p.symmetry)
        facets = [tuple(sorted(sum(fs, ())))
                  for fs in itertools.product(*facet_lists)]
        labels = [canonical_label(rs, v) for v in objects]
        cx = SimplicialComplex(labels, facets, objects=objects,
                               meta=_shelling_meta(ctx, objects),
                               symmetry=symmetry if m >= 1 else None)
        return cx, _pair_graph(ctx, objects)

    vertices = colored_vertices(rs, m)
    adjacency = _pair_graph(ctx, vertices)
    cliques = _max_cliques(adjacency) if vertices else []
    for clique in cliques:
        if not is_face(ctx, [vertices[i] for i in clique]):
            raise RuntimeError(
                "flagness violated: maximal clique %r fails the word criterion"
                % (clique,))
    labels = [canonical_label(rs, v) for v in vertices]
    cx = SimplicialComplex(labels, cliques, objects=vertices,
                           meta=_shelling_meta(ctx, vertices),
                           symmetry=_rotation(rs, m, vertices))
    return cx, adjacency


def _rotation(rs: RootSystem, m: int, vertices: Sequence[ColoredRoot]):
    """R_m as a permutation of the vertex positions, or None at m = 0.

    R_m preserves compatibility (Fomin and Reading), so the permutation is
    an automorphism of the complex.  At m = 0 the vertex set is -Pi, which
    R_m does not preserve.
    """
    if m < 1:
        return None
    position = {v.key(): i for i, v in enumerate(vertices)}
    return [position[rm_map(rs, m, v).key()] for v in vertices]


def _pair_graph(ctx: ComplexContext, vertices: Sequence[ColoredRoot]) -> dict:
    n = len(vertices)
    adjacency = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if is_face(ctx, [vertices[i], vertices[j]]):
                adjacency[i].add(j)
                adjacency[j].add(i)
    return {i: frozenset(a) for i, a in adjacency.items()}


def _shelling_meta(ctx: ComplexContext, vertices: Sequence[ColoredRoot]) -> dict:
    """Vertex ranking hints consumed by the shelling constructor.

    Keys are vertex labels, which stay stable under link/delete/induce.
    """
    rs = ctx.system
    rank = {}
    negatives = []
    for v in vertices:
        label = canonical_label(rs, v)
        if _is_negative_simple(rs, v):
            negatives.append(label)
            rank[label] = (0, 0)
        else:
            owner = rs if rs.is_irreducible else _component_of(rs, v.root)
            pos = get_context(owner, ctx.m).order.position(v.root)
            rank[label] = (v.color, pos)
    return {"vertex_rank": rank, "negative_labels": tuple(negatives)}


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
    adjacency = {i: set() for i in range(len(diagonals))}
    for a, b in itertools.combinations(range(len(diagonals)), 2):
        if not _diagonals_cross(diagonals[a], diagonals[b]):
            adjacency[a].add(b)
            adjacency[b].add(a)
    adjacency = {i: frozenset(s) for i, s in adjacency.items()}
    facets = _max_cliques(adjacency) if diagonals else []
    return SimplicialComplex(labels, facets, objects=diagonals)


def _diagonals_cross(d1: tuple, d2: tuple) -> bool:
    (a, b), (c, d) = d1, d2
    return (a < c < b < d) or (c < a < d < b)
