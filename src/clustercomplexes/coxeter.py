"""Reflection group elements, reflection length and the absolute order.

A group element is its permutation of the system's full root list; the
roots span, so the permutation is faithful.  There is no matrix and no
other backend data.  Reflection length comes from the system's memo,
keyed by the images w(alpha_1), .., w(alpha_n) of the simple roots, which
fix w: coordinate systems apply Carter's lemma,
l_T(w) = codim Fix(w) = rank(w - I), with w - I read in the simple-root
basis from the root expansions of the images; I2(m) reads the length off
its two images (0 for the identity, 1 for a reflection, 2 for a
rotation).  The independent routes at desk scale, a breadth-first search
over reflection words and the type-A permutation oracles, are in the
tests' ``exact_oracles``.

u <= w in absolute order when l(u) + l(u^-1 w) = l(w).  When u is a product
of k reflections, l(u^-1 w) = l(w) - k alone decides both l(u) = k and
u <= w, since l(u) <= k and l(w) <= l(u) + l(u^-1 w); the face test of
``colored`` and ``absolute_interval`` each pay one length per candidate.
Neither builds u^-1 w: each applies reflections to the n simple-root
images of w, n lookups per reflection, and looks the length up by the
images it reaches.

The total order on Phi+ and -Pi is read off the root sequence of the
bipartite Coxeter element; a product's lists each component's in turn.
An irreducible system keeps its root sequence (``rs.rho``) once built, so
a product's order reuses the sequences its components' contexts built.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .roots import Root, RootSystem


class GroupElement:
    """An element of the reflection group, as a permutation of ``roots``."""

    __slots__ = ("system", "perm", "_length")

    def __init__(self, system: RootSystem, perm: tuple):
        self.system = system
        self.perm = perm
        self._length = None

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        # (self * other) acts by other first
        sp = self.perm
        return GroupElement(self.system, tuple(sp[i] for i in other.perm))

    def inverse(self) -> "GroupElement":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return GroupElement(self.system, tuple(inv))

    def apply(self, root: Root) -> Root:
        return self.system.roots[self.perm[self.system.index_of(root)]]

    @property
    def length(self) -> int:
        """Reflection length, from the system's per-permutation memo."""
        if self._length is None:
            self._length = self.system.length_of(self.perm)
        return self._length

    def __eq__(self, other):
        return (isinstance(other, GroupElement) and self.perm == other.perm
                and self.system is other.system)

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return "GroupElement(len=%s, perm=%s)" % (self.length, self.perm)


def absolute_leq(u: GroupElement, w: GroupElement) -> bool:
    """u precedes w when reflection lengths add along u, u^-1 w."""
    return u.length + (u.inverse() * w).length == w.length


def bipartite_coxeter(rs: RootSystem) -> GroupElement:
    """Product of the simple reflections in the stored (bipartite) order.

    For reducible systems the stored order keeps each component's two
    orthogonal blocks grouped, so the product is the product of the
    component Coxeter elements.
    """
    g = rs.identity_element()
    for a in rs.simple_roots:
        g = g * rs.reflection(a)
    return g


class RhoSequence:
    """The root sequence rho_i attached to the bipartite Coxeter element."""

    __slots__ = ("system", "entries", "N", "s")

    def __init__(self, system: RootSystem, entries: dict, N: int, s: int):
        self.system = system
        self.entries = entries  # window index -> Root, for -(n-s-1) .. N+s
        self.N = N
        self.s = s

    def __getitem__(self, i: int) -> Root:
        return self.entries[i]


def rho_sequence(rs: RootSystem) -> RhoSequence:
    """The rho sequence of an irreducible system, kept on it at first use."""
    if not rs.is_irreducible:
        raise ValueError("the rho sequence requires an irreducible system")
    if rs.rho is None:
        rs.rho = _rho_sequence(rs)
    return rs.rho


def _rho_sequence(rs: RootSystem) -> RhoSequence:
    n, s = rs.rank, rs.split_s
    npos = len(rs.positive_roots)
    seq = {}
    prefix = rs.identity_element()
    for i in range(1, 2 * npos + 1):
        alpha = rs.simple_roots[(i - 1) % n]
        seq[i] = prefix.apply(alpha)
        prefix = prefix * rs.reflection(alpha)
    entries = {i: seq[i] for i in range(1, npos + s + 1)}
    for i in range(0, n - s):
        entries[-i] = seq[2 * npos - i]

    # self-checks: the three defining set identities
    if {entries[i].key for i in range(1, npos + 1)} != \
            {r.key for r in rs.positive_roots}:
        raise RuntimeError("rho sequence: first N entries are not Phi+")
    neg_plus = {rs.negate(r).key for r in rs.simple_roots[:s]}
    if {entries[npos + i].key for i in range(1, s + 1)} != neg_plus:
        raise RuntimeError("rho sequence: entries N+1..N+s are not -Pi_plus")
    neg_minus = {rs.negate(r).key for r in rs.simple_roots[s:]}
    if {entries[-i].key for i in range(0, n - s)} != neg_minus:
        raise RuntimeError("rho sequence: trailing window is not -Pi_minus")
    return RhoSequence(rs, entries, npos, s)


class TotalOrder:
    """The total order on Phi+ united with the negative simple roots."""

    def __init__(self, rs: RootSystem, ordered: Sequence[Root]):
        self.system = rs
        self.ordered = list(ordered)
        self._pos = {r.key: i for i, r in enumerate(self.ordered)}

    def position(self, root: Root) -> int:
        return self._pos[root.key]

    def __len__(self):
        return len(self.ordered)

    def __iter__(self):
        return iter(self.ordered)


def total_order(rs: RootSystem) -> TotalOrder:
    """Each component's rho window -Pi_minus, Phi+, -Pi_plus in turn."""
    window = []
    for comp in rs.components:
        rho = rho_sequence(comp)
        n, s, npos = comp.rank, comp.split_s, rho.N
        window += [rho[-i] for i in range(n - s - 1, -1, -1)]
        window += [rho[i] for i in range(1, npos + s + 1)]
    return TotalOrder(rs, window)


# -- enumeration -----------------------------------------------------------------


def absolute_interval(rs: RootSystem, top: Optional[GroupElement] = None) -> list:
    """All w below ``top`` in absolute order, by additive-length closure.

    Each frontier element u carries the simple-root images of u^-1 top.  A
    candidate v = u t is known by its own images u(t(alpha_j)), and
    v^-1 top = t u^-1 top by t applied to u's carried images; v's
    permutation is built only once v is accepted.
    """
    if top is None:
        top = bipartite_coxeter(rs)
    simple = rs.simple_positions
    gens = [(t.perm, tuple(t.perm[i] for i in simple))
            for t in (rs.reflection(r) for r in rs.positive_roots)]
    top_len = top.length
    out = [rs.identity_element()]
    seen = {simple}
    frontier = [(out[0].perm, tuple(top.perm[i] for i in simple))]
    for level in range(1, top_len + 1):
        nxt = []
        for u, carried in frontier:
            for t, t_images in gens:
                key = tuple(u[i] for i in t_images)
                if key in seen:
                    continue
                rest = tuple(t[i] for i in carried)
                # v = u*t gives l(v) <= level, and l(top) <= l(v) + l(v^-1 top)
                # gives l(v) >= level once l(v^-1 top) = l(top) - level
                if rs.image_length(rest) != top_len - level:
                    continue
                seen.add(key)
                nxt.append((tuple(u[i] for i in t), rest))
        out.extend(GroupElement(rs, v) for v, _ in nxt)
        frontier = nxt
    return out
