"""Finite root systems with exact coordinates.

Supported irreducible types: A, B, C, D (crystallographic series), E6, E7,
E8, F4, G2 (exceptional crystallographic), H3, H4 (icosahedral, over
Q(sqrt5)) and the dihedral family I2(m).  Direct products are written with
an ``x`` separator, e.g. ``A1xA1``.

Coordinates follow the standard realizations per type.  Simple roots are
stored with the two orthogonal blocks of the bipartition first/last: the
first ``split_s`` simple roots are pairwise orthogonal, and so are the
remaining ones.  The two-coloring of the Coxeter diagram is normalized by
placing the first simple root of the conventional ordering in the first
block.

I2(m) is modeled combinatorially: its 2m roots are unit vectors at angles
k*pi/m represented by their integer angle index, so no cyclotomic
arithmetic is ever needed.

A coordinate root's ``key`` is the flat tuple of the ints (numerator,
denominator) of each coordinate's a and b, so two keys are equal exactly
when the coordinates are, and every lookup by root hashes machine ints.

Group elements are permutations of ``roots`` (see ``coxeter``).  The
positive closure records s_i(beta) for every positive beta, and set-up turns
those images into the simple reflections as permutations, each checked to
be an involution that sends alpha_i to -alpha_i and the other positive roots
to positive roots.  Every other reflection is a conjugate of a simple one,
built on first use.

The simple roots span, so an element is fixed by its images
w(alpha_1), .., w(alpha_n): the tuple of their indices in ``roots``, read
at ``simple_positions``.  Reflection length is memoized per such tuple.
Coordinate systems read it by Carter's lemma off integer rows: on the
first length, each root's simple-root expansion is scaled by the common
denominator of all of them into int pairs (p, q) = p + q*sqrt5, and the
rank of w - I goes to the fraction-free elimination ``exact.pair_rank``.
I2(m) tells a rotation from a reflection by its two images.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import (GOLDEN, ONE, ZERO, Scalar, coerce_scalar,
                    common_denominator, dot, int_pairs, pair_rank)

_HALF = Fraction(1, 2)

# Classical exponents of the icosahedral types.  These are constants of the
# same standing as the coordinate tables below; the crystallographic series
# get their exponents computed from root heights instead (see numerology).
_ICOSAHEDRAL_EXPONENTS = {"H3": (1, 5, 9), "H4": (1, 11, 19, 29)}


@dataclass(frozen=True)
class Numerology:
    exponents: tuple
    coxeter_number: int
    positive_root_count: int


class Root:
    """A root vector with exact coordinates (or a dihedral angle index)."""

    __slots__ = ("coords", "angle", "key")

    def __init__(self, coords=None, angle=None, dihedral_order=None):
        if coords is not None:
            self.coords = tuple(coerce_scalar(x) for x in coords)
            self.angle = None
            self.key = tuple(n for x in self.coords for n in (
                x.a.numerator, x.a.denominator, x.b.numerator, x.b.denominator))
        else:
            self.coords = None
            self.angle = angle
            self.key = ("I2", dihedral_order, angle)

    def __eq__(self, other):
        return isinstance(other, Root) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if self.coords is not None:
            return "Root(%s)" % (", ".join(map(repr, self.coords)))
        return "Root(angle=%d)" % self.angle


class RootSystem:
    """Common interface of the coordinate and dihedral backends."""

    label: str
    rank: int
    simple_roots: list
    positive_roots: list
    roots: list
    split_s: int
    simple_positions: tuple  # index in ``roots`` of each simple root
    contexts: dict  # m -> colored.ComplexContext, filled by get_context

    def index_of(self, root: Root) -> int:
        return self._index[root.key]

    def is_positive(self, root: Root) -> bool:
        return self._index[root.key] < len(self.positive_roots)

    def negate(self, root: Root) -> Root:
        return self.roots[self._neg[self._index[root.key]]]

    @property
    def is_irreducible(self) -> bool:
        return len(self.components) == 1

    def simple_index(self, root: Root) -> Optional[int]:
        for i, a in enumerate(self.simple_roots):
            if a == root:
                return i
        return None

    def component_of_simple(self, i: int):
        for comp, idxs in zip(self.components, self.component_simple_indices):
            if i in idxs:
                return comp
        raise ValueError("no component for simple index %d" % i)

    def reflection(self, root: Root):
        """The reflection in ``root``; a root and its negative share it."""
        if self._reflections is None:
            self._reflections = self._build_reflections()
        return self._reflections[self._index[root.key]]

    def identity_element(self):
        from .coxeter import GroupElement
        return GroupElement(self, tuple(range(len(self.roots))))

    def length_of(self, perm: tuple) -> int:
        """Reflection length of the element permuting ``roots`` by ``perm``."""
        return self.image_length(tuple(perm[i] for i in self.simple_positions))

    def image_length(self, images: tuple) -> int:
        """Reflection length of the w with w(alpha_j) = roots[images[j]]."""
        out = self._lengths.get(images)
        if out is None:
            out = self._lengths[images] = self._reflection_length(images)
        return out

    def _build_reflections(self) -> list:
        raise NotImplementedError

    def _reflection_length(self, images: tuple) -> int:
        raise NotImplementedError

    def numerology(self) -> Numerology:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


def _scalar_to_json(x: Scalar) -> list:
    return [x.a.numerator, x.a.denominator, x.b.numerator, x.b.denominator]


class CoordinateRootSystem(RootSystem):
    """A root system realized by exact coordinate vectors."""

    def __init__(self, simple_coords: Sequence[Sequence], label: str = "?"):
        simples = [Root(coords=c) for c in simple_coords]
        self.label = label
        self.rank = len(simples)
        self.ambient = len(simples[0].coords) if simples else 0

        positives, expansions, images = _positive_closure(simples)
        # 2-color the Coxeter diagram; trees are always 2-colorable
        order, split = _bipartite_order(simples)
        self.split_s = split
        self.simple_roots = [simples[i] for i in order]
        reorder = {old: new for new, old in enumerate(order)}
        self._expansion = {}
        for root, coeffs in zip(positives, expansions):
            permuted = [ZERO] * self.rank
            for old, c in enumerate(coeffs):
                permuted[reorder[old]] = c
            self._expansion[root.key] = tuple(permuted)

        def sort_key(r):
            exp = self._expansion[r.key]
            height = ZERO
            for c in exp:
                height = height + c
            return (height, exp)

        self.positive_roots = sorted(positives, key=sort_key)
        negatives = [Root(coords=tuple(-x for x in r.coords))
                     for r in self.positive_roots]
        self.roots = self.positive_roots + negatives
        self._index = {r.key: i for i, r in enumerate(self.roots)}
        npos = len(self.positive_roots)
        self._neg = {i: (i + npos if i < npos else i - npos)
                     for i in range(len(self.roots))}
        for root in negatives:
            pos_exp = self._expansion[self.negate(root).key]
            self._expansion[root.key] = tuple(-c for c in pos_exp)

        self.simple_positions = tuple(self._index[a.key]
                                      for a in self.simple_roots)
        self._simple_perms = self._simple_reflections(order, images)
        self._components = None
        self._reflections = None
        self._lengths = {}
        self._int_expansions = None
        self.contexts = {}
        self._numerology = None

    def _simple_reflections(self, order: Sequence[int], images: dict) -> list:
        """The simple reflections as permutations of ``roots``, self-checked.

        ``images`` maps each positive root's key to the keys of its images
        under the simple reflections in the closure's order (``order[j]`` is
        the closure index of the stored simple root j), None where the image
        is negative; s_i(-beta) = -s_i(beta) gives the negative roots.
        """
        index, neg = self._index, self._neg
        npos = len(self.positive_roots)
        out = []
        for a, old in zip(self.simple_roots, order):
            ai = index[a.key]
            perm = [0] * len(self.roots)
            for p in range(npos):
                image = images[self.roots[p].key][old]
                q = neg[ai] if image is None else index[image]
                perm[p], perm[neg[p]] = q, neg[q]
            if perm[ai] != neg[ai] \
                    or any(perm[q] != p for p, q in enumerate(perm)) \
                    or any(perm[p] >= npos for p in range(npos) if p != ai):
                raise RuntimeError(
                    "simple reflection in %r of %s is not an involution sending "
                    "it to its negative and the other positive roots to "
                    "positive roots" % (a, self.label))
            out.append(tuple(perm))
        return out

    # -- structure -----------------------------------------------------------

    @property
    def components(self) -> list:
        if self._components is None:
            groups = _diagram_components(self.simple_roots)
            if len(groups) == 1:
                self._components = [self]
                self.component_simple_indices = [tuple(range(self.rank))]
            else:
                comps = []
                for g in groups:
                    coords = [self.simple_roots[i].coords for i in g]
                    comps.append(CoordinateRootSystem(
                        coords, label=classify_simples([self.simple_roots[i] for i in g])))
                self._components = comps
                self.component_simple_indices = [tuple(g) for g in groups]
        return self._components

    def orthogonal(self, r1: Root, r2: Root) -> bool:
        return dot(r1.coords, r2.coords).sign() == 0

    def expansion(self, root: Root) -> tuple:
        """Coefficients of root over the stored simple-root basis."""
        return self._expansion[root.key]

    def support(self, beta: Root) -> frozenset:
        """Indices of the simple roots appearing in beta's expansion."""
        if not self.is_positive(beta):
            raise ValueError("support is defined for positive roots only")
        return frozenset(i for i, c in enumerate(self.expansion(beta))
                         if c.sign() != 0)

    def _build_reflections(self) -> list:
        """Every reflection, indexed like ``roots``.

        The simple reflections come from the positive closure.  The others
        are conjugates s_{s_i(beta)} = s_i s_beta s_i, found breadth-first
        from the simple roots, whose W-orbit is the whole root system.
        """
        from .coxeter import GroupElement
        index, neg = self._index, self._neg
        simple = self._simple_perms
        perms = [None] * len(self.roots)
        frontier = []
        for a, perm in zip(self.simple_roots, simple):
            i = index[a.key]
            perms[i] = perms[neg[i]] = perm
            frontier.append(i)
        while frontier:
            nxt = []
            for b in frontier:
                sb = perms[b]
                for si in simple:
                    c = si[b]
                    if perms[c] is None:
                        perms[c] = perms[neg[c]] = tuple(si[sb[k]] for k in si)
                        nxt.append(c)
            frontier = nxt
        if None in perms:
            raise RuntimeError("reflection closure missed a root of %s" % self.label)
        out = [None] * len(self.roots)
        for i in range(len(self.positive_roots)):
            out[i] = out[neg[i]] = GroupElement(self, perms[i])
        return out

    def _reflection_length(self, images: tuple) -> int:
        # Carter's lemma: l_T(w) = codim Fix(w) = rank(w - I) on the root
        # span.  Row j below is D (expansion(w(alpha_j)) - e_j), D the common
        # denominator: D times the j-th column of w - I in the simple-root
        # basis.  Neither D nor the transpose moves the rank.
        if self._int_expansions is None:
            self._int_expansions = self._scaled_expansions()
        table, den = self._int_expansions
        rows = []
        for j, i in enumerate(images):
            row = table[i][:]
            p, q = row[j]
            row[j] = (p - den, q)
            rows.append(row)
        return pair_rank(rows)

    def _scaled_expansions(self) -> tuple:
        """Every root's expansion times D, as int pairs, and D.

        The rows are indexed like ``roots``; D is the lcm of the
        denominators of every coefficient's a and b.
        """
        exps = [self._expansion[r.key] for r in self.roots]
        den = common_denominator(c for exp in exps for c in exp)
        return [int_pairs(exp, den) for exp in exps], den

    # -- derived numbers -------------------------------------------------------

    def numerology(self) -> Numerology:
        if not self.is_irreducible:
            raise ValueError("numerology requires an irreducible system; "
                             "apply per component")
        if self._numerology is None:
            n = self.rank
            npos = len(self.positive_roots)
            h, rem = divmod(2 * npos, n)
            if rem != 0:
                raise RuntimeError("2N/n must be an integer")
            if self.label in _ICOSAHEDRAL_EXPONENTS:
                exps = _ICOSAHEDRAL_EXPONENTS[self.label]
            else:
                exps = _exponents_from_heights(self)
            if sum(exps) != npos:
                raise RuntimeError("exponent sum must equal |Phi+|")
            self._numerology = Numerology(tuple(exps), h, npos)
        return self._numerology

    def parabolic(self, removed: Root) -> "CoordinateRootSystem":
        """Standard parabolic subsystem obtained by deleting one simple root."""
        idx = self.simple_index(removed)
        if idx is None:
            raise ValueError("parabolic subsystem: %r is not a simple root" % (removed,))
        kept = [r for i, r in enumerate(self.simple_roots) if i != idx]
        return self.subsystem(kept)

    def subsystem(self, kept_simples: Sequence[Root]) -> "CoordinateRootSystem":
        sub = CoordinateRootSystem([r.coords for r in kept_simples],
                                   label="sub")
        sub.label = classify(sub)
        return sub

    def to_dict(self) -> dict:
        return {
            "type": self.label,
            "rank": self.rank,
            "simple_roots": [[_scalar_to_json(x) for x in r.coords]
                             for r in self.simple_roots],
            "positive_roots": [[_scalar_to_json(x) for x in r.coords]
                               for r in self.positive_roots],
            "split_s": self.split_s,
        }

    def __repr__(self):
        return "RootSystem(%s, rank=%d, N=%d)" % (
            self.label, self.rank, len(self.positive_roots))


class DihedralRootSystem(RootSystem):
    """I2(m), modeled by angle indices instead of coordinates.

    Roots are the 2m indices k in Z/2m (the unit vector at angle k*pi/m);
    positives are 0..m-1, the simple roots are the indices 0 and m-1.
    """

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("I2(m) requires m >= 2")
        self.order = m
        self.label = "I2(%d)" % m
        self.rank = 2
        self.ambient = None
        self.positive_roots = [Root(angle=k, dihedral_order=m) for k in range(m)]
        negatives = [Root(angle=k + m, dihedral_order=m) for k in range(m)]
        self.roots = self.positive_roots + negatives
        self.simple_roots = [self.positive_roots[0], self.positive_roots[m - 1]]
        self.simple_positions = (0, m - 1)
        self.split_s = 1
        self._index = {r.key: i for i, r in enumerate(self.roots)}
        self._neg = {i: (i + m) % (2 * m) for i in range(2 * m)}
        self.components = [self]
        self.component_simple_indices = [(0, 1)]
        self._reflections = None
        self._lengths = {}
        self.contexts = {}

    def support(self, beta: Root) -> frozenset:
        if not self.is_positive(beta):
            raise ValueError("support is defined for positive roots only")
        k = beta.angle
        if k == 0:
            return frozenset([0])
        if k == self.order - 1:
            return frozenset([1])
        return frozenset([0, 1])

    def expansion(self, root: Root):
        # Only the simple roots have an exact expansion in this model.
        m = self.order
        k = root.angle
        if k == 0:
            return (ONE, ZERO)
        if k == m - 1:
            return (ZERO, ONE)
        if k == m:
            return (-ONE, ZERO)
        if k == 2 * m - 1:
            return (ZERO, -ONE)
        return None

    def orthogonal(self, r1: Root, r2: Root) -> bool:
        m = self.order
        return (2 * (r1.angle - r2.angle)) % (2 * m) == m

    def _build_reflections(self) -> list:
        from .coxeter import GroupElement
        m, m2 = self.order, 2 * self.order
        out = []
        for k in range(m):
            # the reflection in the line orthogonal to the root at angle k*pi/m
            shift = (2 * k + m) % m2
            out.append(GroupElement(self, tuple((shift - j) % m2 for j in range(m2))))
        return out + out

    def _reflection_length(self, images: tuple) -> int:
        # Every element is k -> shift + k (a rotation, the identity when
        # shift = 0) or k -> shift - k (a reflection).  The simple roots sit
        # at 0 and m - 1, so their images differ by m - 1 under a rotation
        # and by 1 - m, which is another residue mod 2m, under a reflection.
        m = self.order
        a, b = images
        if (b - a) % (2 * m) != m - 1:
            return 1
        return 0 if a == 0 else 2

    def numerology(self) -> Numerology:
        return Numerology((1, self.order - 1), self.order, self.order)

    def parabolic(self, removed: Root) -> CoordinateRootSystem:
        if self.simple_index(removed) is None:
            raise ValueError("parabolic subsystem: %r is not a simple root" % (removed,))
        # The rank-1 subsystem is returned as a plain A1; the dihedral
        # model keeps no coordinates to share with it.
        return build_root_system("A", 1)

    def to_dict(self) -> dict:
        return {
            "type": "I2",
            "rank": 2,
            "dihedral_order": self.order,
            "simple_roots": [[r.angle] for r in self.simple_roots],
            "positive_roots": [[r.angle] for r in self.positive_roots],
            "split_s": 1,
        }

    def __repr__(self):
        return "RootSystem(%s)" % self.label


# -- closure / diagram helpers -------------------------------------------------


def _positive_closure(simples: Sequence[Root]) -> tuple:
    """All positive roots, their simple-root expansions and reflection images.

    By reflection closure.  The images map each positive root's key to the
    keys of s_1(beta) .. s_n(beta), None where the image is negative.
    """
    n = len(simples)
    norms = [dot(r.coords, r.coords) for r in simples]
    cartan = [[Scalar(2) * dot(a.coords, b.coords) / norms[j]
               for j, b in enumerate(simples)] for a in simples]
    seen = {}
    images = {}
    frontier = []
    for i, r in enumerate(simples):
        exp = tuple(ONE if j == i else ZERO for j in range(n))
        seen[r.key] = (r, exp)
        frontier.append((r, exp))
    while frontier:
        new = []
        for root, exp in frontier:
            image = images[root.key] = [None] * n
            for i in range(n):
                # s_i(beta) = beta - <beta, alpha_i^vee> alpha_i
                c = ZERO
                for j, e in enumerate(exp):
                    if e.sign() != 0:
                        c = c + e * cartan[j][i]
                new_exp = tuple(e - c if j == i else e for j, e in enumerate(exp))
                if all(x.sign() >= 0 for x in new_exp):
                    coords = tuple(x - c * y for x, y in
                                   zip(root.coords, simples[i].coords))
                    nr = Root(coords=coords)
                    image[i] = nr.key
                    if nr.key not in seen:
                        seen[nr.key] = (nr, new_exp)
                        new.append((nr, new_exp))
        frontier = new
    roots = [v[0] for v in seen.values()]
    exps = [v[1] for v in seen.values()]
    return roots, exps, images


def _diagram_components(simples: Sequence[Root]) -> list:
    n = len(simples)
    adj = [[j for j in range(n) if j != i
            and dot(simples[i].coords, simples[j].coords).sign() != 0]
           for i in range(n)]
    seen = [False] * n
    groups = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        groups.append(sorted(comp))
    return groups


def _bipartite_order(simples: Sequence[Root]) -> tuple:
    """Order simple indices as (plus block, minus block); returns (order, s)."""
    n = len(simples)
    color = {}
    for group in _diagram_components(simples):
        color[group[0]] = 0
        stack = [group[0]]
        while stack:
            v = stack.pop()
            for w in group:
                if w == v or w in color:
                    continue
                if dot(simples[v].coords, simples[w].coords).sign() != 0:
                    color[w] = 1 - color[v]
                    stack.append(w)
    plus = [i for i in range(n) if color[i] == 0]
    minus = [i for i in range(n) if color[i] == 1]
    for block in (plus, minus):
        for a in block:
            for b in block:
                if a < b and dot(simples[a].coords, simples[b].coords).sign() != 0:
                    raise ValueError("Coxeter diagram is not bipartite as colored")
    return plus + minus, len(plus)


def _exponents_from_heights(rs: CoordinateRootSystem) -> tuple:
    """Exponents as the conjugate partition of the height distribution.

    Valid for crystallographic systems, where every positive root has an
    integer height (sum of simple-root coefficients).
    """
    heights = []
    for r in rs.positive_roots:
        h = ZERO
        for c in rs.expansion(r):
            h = h + c
        if not h.is_integer():
            raise ValueError("non-integer root height in type %s" % rs.label)
        heights.append(h.as_int())
    top = max(heights)
    dist = [sum(1 for h in heights if h == k) for k in range(1, top + 1)]
    if any(dist[i] < dist[i + 1] for i in range(len(dist) - 1)):
        raise RuntimeError("height distribution must be a partition")
    exps = sorted(sum(1 for p in dist if p >= k) for k in range(1, dist[0] + 1))
    return tuple(exps)


# -- type tables ----------------------------------------------------------------


def _simples_A(n: int) -> list:
    return [[1 if j == i else (-1 if j == i + 1 else 0) for j in range(n + 1)]
            for i in range(n)]


def _simples_B(n: int) -> list:
    out = [[1 if j == i else (-1 if j == i + 1 else 0) for j in range(n)]
           for i in range(n - 1)]
    out.append([1 if j == n - 1 else 0 for j in range(n)])
    return out


def _simples_C(n: int) -> list:
    out = [[1 if j == i else (-1 if j == i + 1 else 0) for j in range(n)]
           for i in range(n - 1)]
    out.append([2 if j == n - 1 else 0 for j in range(n)])
    return out


def _simples_D(n: int) -> list:
    out = [[1 if j == i else (-1 if j == i + 1 else 0) for j in range(n)]
           for i in range(n - 1)]
    out.append([1 if j in (n - 2, n - 1) else 0 for j in range(n)])
    return out


def _simples_E8() -> list:
    a1 = [_HALF, -_HALF, -_HALF, -_HALF, -_HALF, -_HALF, -_HALF, _HALF]
    a2 = [1, 1, 0, 0, 0, 0, 0, 0]
    rest = [[0] * 8 for _ in range(6)]
    for i in range(6):
        rest[i][i] = -1
        rest[i][i + 1] = 1
    return [a1, a2] + rest


def _simples_F4() -> list:
    return [[0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1],
            [_HALF, -_HALF, -_HALF, -_HALF]]


def _simples_G2() -> list:
    return [[1, -1, 0], [-2, 1, 1]]


def _simples_H3() -> list:
    phi = GOLDEN
    inv = GOLDEN - 1  # 1/phi
    return [[Scalar(2), ZERO, ZERO], [-phi, -inv, -ONE], [ZERO, ZERO, Scalar(2)]]


def _h4_root_set() -> list:
    import itertools as it
    phi = GOLDEN
    inv = GOLDEN - 1
    roots = set()
    for i in range(4):
        for s in (Scalar(2), Scalar(-2)):
            v = [ZERO] * 4
            v[i] = s
            roots.add(tuple(v))
    for signs in range(16):
        roots.add(tuple(ONE if signs >> i & 1 else -ONE for i in range(4)))
    base = (phi, ONE, inv)
    for perm in it.permutations(range(4)):
        parity = sum(1 for i in range(4) for j in range(i + 1, 4)
                     if perm[i] > perm[j]) % 2
        if parity:
            continue
        for signs in range(8):
            v = [ZERO] * 4
            for pos, src in enumerate(perm):
                if src == 3:
                    continue
                x = base[src]
                v[pos] = -x if signs >> src & 1 else x
            roots.add(tuple(v))
    if len(roots) != 120:
        raise RuntimeError("H4 root set has %d elements" % len(roots))
    return sorted(roots)


def _simples_H4() -> list:
    """Search the H4 root set for a simple system with diagram 5-3-3."""
    phi = GOLDEN
    roots = _h4_root_set()
    want_12 = Scalar(-2) * phi
    want_edge = Scalar(-2)
    a1 = roots[0]
    for a2 in roots:
        if dot(a1, a2) != want_12:
            continue
        for a3 in roots:
            if dot(a2, a3) != want_edge or dot(a1, a3).sign() != 0:
                continue
            for a4 in roots:
                if (dot(a3, a4) == want_edge and dot(a1, a4).sign() == 0
                        and dot(a2, a4).sign() == 0):
                    return [list(a1), list(a2), list(a3), list(a4)]
    raise RuntimeError("no H4 simple system found")  # pragma: no cover


_EXPECTED_POSITIVE_COUNT = {
    "E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6, "H3": 15, "H4": 60,
}

_SUPPORTED = "A(n>=1) B(n>=2) C(n>=2) D(n>=3) E6 E7 E8 F4 G2 H3 H4 I2(m>=2), products with 'x'"

_build_cache: dict = {}


def build_root_system(label: str, rank: int | None = None,
                      dihedral_order: int | None = None) -> RootSystem:
    """Build a root system by type label, e.g. ('A', 2), 'B3' or 'I2(7)'."""
    key = (label, rank, dihedral_order)
    if key in _build_cache:
        return _build_cache[key]
    rs = _build_root_system(label, rank, dihedral_order)
    _build_cache[key] = rs
    return rs


def _build_root_system(label, rank, dihedral_order) -> RootSystem:
    if "x" in label:
        factors = [parse_label(part) for part in label.split("x")]
        return product_system([_build_root_system(*f) for f in factors])
    if rank is None or dihedral_order is not None:
        label, rank, parsed_m = parse_label(label)
        dihedral_order = dihedral_order if dihedral_order is not None else parsed_m
    if label == "I2":
        m = dihedral_order if dihedral_order is not None else rank
        if m is None or m < 2:
            raise ValueError("I2 requires a dihedral order m >= 2; supported: %s"
                             % _SUPPORTED)
        return DihedralRootSystem(m)
    builders = {"A": (_simples_A, lambda n: n >= 1),
                "B": (_simples_B, lambda n: n >= 2),
                "C": (_simples_C, lambda n: n >= 2),
                "D": (_simples_D, lambda n: n >= 3)}
    if label in builders:
        fn, ok = builders[label]
        if rank is None or not ok(rank):
            raise ValueError("unsupported rank %r for type %s; supported: %s"
                             % (rank, label, _SUPPORTED))
        return CoordinateRootSystem(fn(rank), label="%s%d" % (label, rank))
    fixed = {"E6": (lambda: _simples_E8()[:6], 6),
             "E7": (lambda: _simples_E8()[:7], 7),
             "E8": (_simples_E8, 8),
             "F4": (_simples_F4, 4),
             "G2": (_simples_G2, 2),
             "H3": (_simples_H3, 3),
             "H4": (_simples_H4, 4)}
    name = label if label in fixed else "%s%s" % (label, rank)
    if name in fixed:
        fn, want_rank = fixed[name]
        if rank not in (None, want_rank):
            raise ValueError("type %s has rank %d, got %r" % (name, want_rank, rank))
        rs = CoordinateRootSystem(fn(), label=name)
        expected = _EXPECTED_POSITIVE_COUNT[name]
        if len(rs.positive_roots) != expected:
            raise RuntimeError(
                "closure produced %d positive roots for %s, expected %d" % (
                    len(rs.positive_roots), name, expected))
        return rs
    raise ValueError("unsupported root system %r; supported: %s"
                     % (label if rank is None else (label, rank), _SUPPORTED))


_LABEL_RE = re.compile(r"^(I2|[A-H])\s*\(?\s*(\d*)\s*\)?$")


def parse_label(text: str) -> tuple:
    """Parse 'A2', 'I2(7)' or 'E8' into (family, rank, dihedral_order)."""
    m = _LABEL_RE.match(text.strip())
    if not m:
        raise ValueError("cannot parse root-system label %r; supported: %s"
                         % (text, _SUPPORTED))
    fam, num = m.group(1), m.group(2)
    if fam == "I2":
        return ("I2", 2, int(num) if num else None)
    if fam in ("E", "F", "G", "H") and num:
        return (fam + num, int(num[-1]) if fam != "E" else int(num), None)
    return (fam, int(num) if num else None, None)


def product_system(factors: Sequence[RootSystem]) -> CoordinateRootSystem:
    """Direct product, embedded in orthogonal coordinate blocks."""
    if any(isinstance(f, DihedralRootSystem) for f in factors):
        raise ValueError("products with I2 factors are not supported "
                         "(the dihedral model has no coordinates)")
    total = sum(f.ambient for f in factors)
    coords = []
    offset = 0
    for f in factors:
        for r in f.simple_roots:
            row = [ZERO] * total
            for j, x in enumerate(r.coords):
                row[offset + j] = x
            coords.append(row)
        offset += f.ambient
    return CoordinateRootSystem(coords, label="x".join(f.label for f in factors))


# -- diagram classification (labels for parabolics) ------------------------------


def _bond(a: Root, b: Root) -> int:
    """Coxeter bond m(a, b) read off from the angle between two roots."""
    num = dot(a.coords, b.coords)
    c2 = (num * num) / (dot(a.coords, a.coords) * dot(b.coords, b.coords))
    table = {Scalar(0): 2, Scalar(Fraction(1, 4)): 3, Scalar(Fraction(1, 2)): 4,
             Scalar(Fraction(3, 4)): 6,
             (GOLDEN * GOLDEN) / 4: 5}
    for val, m in table.items():
        if c2 == val:
            return m
    raise ValueError("unrecognized bond angle")


def classify_simples(simples: Sequence[Root]) -> str:
    n = len(simples)
    if n == 0:
        return "0"
    if n == 1:
        return "A1"
    bonds = {}
    degree = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            m = _bond(simples[i], simples[j])
            if m > 2:
                bonds[(i, j)] = m
                degree[i] += 1
                degree[j] += 1
    marks = sorted(bonds.values())
    norms = [dot(r.coords, r.coords) for r in simples]
    if n == 2:
        m = marks[0]
        return {3: "A2", 4: "B2", 6: "G2"}.get(m, "I2(%d)" % m)
    if max(degree) <= 2:  # path
        if marks == [3] * (n - 1):
            return "A%d" % n
        if marks == [3] * (n - 2) + [4]:
            i, j = next(k for k, v in bonds.items() if v == 4)
            if degree[i] == 2 and degree[j] == 2:
                return "F%d" % n
            # the degree-1 end of the 4-bond is short in B, long in C
            end = i if degree[i] == 1 else j
            other = j if end == i else i
            return ("B%d" if norms[end] < norms[other] else "C%d") % n
        if marks == [3] * (n - 2) + [5]:
            return "H%d" % n
        return "W(path)%d" % n
    if marks == [3] * (n - 1):
        arm_lengths = sorted(_arms(bonds, n))
        if arm_lengths[:2] == [1, 1]:
            return "D%d" % n
        if arm_lengths[0] == 1 and arm_lengths[1] == 2:
            return "E%d" % n
    return "W?%d" % n


def _arms(bonds: dict, n: int) -> list:
    adj = {i: set() for i in range(n)}
    for (i, j) in bonds:
        adj[i].add(j)
        adj[j].add(i)
    center = next(v for v in adj if len(adj[v]) == 3)
    arms = []
    for start in adj[center]:
        length, prev, cur = 1, center, start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    return arms


def classify(rs: RootSystem) -> str:
    if isinstance(rs, DihedralRootSystem):
        return rs.label
    if rs.rank == 0:
        return "0"
    parts = []
    for comp, idxs in zip(rs.components, rs.component_simple_indices):
        if comp is rs:
            return classify_simples(rs.simple_roots)
        parts.append(classify_simples([rs.simple_roots[i] for i in idxs]))
    return "x".join(sorted(parts))
