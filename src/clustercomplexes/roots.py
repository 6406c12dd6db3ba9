"""Finite root systems with exact coordinates.

Supported irreducible types: A, B, C, D (crystallographic series), E6, E7,
E8, F4, G2 (exceptional crystallographic), H3, H4 (icosahedral, over
Q(sqrt5)) and the dihedral family I2(m).  Direct products are written with
an ``x`` separator, e.g. ``A1xA1``.  A label names a system once: a
product lists its irreducible factors in ``components``, each a system of
its own on the product's coordinates, named by its factor in the product's
label, so a factor's roots are the product's; an irreducible system is its
own one component, and a rank-0 system has none.

Coordinates follow the standard realizations per type; H4's simple roots
are a stated table, which the tests find again by searching its 120 roots.
Simple roots are stored with the two orthogonal blocks of the bipartition
first/last: the first ``split_s`` simple roots are pairwise orthogonal, and
so are the remaining ones.  One walk of the Coxeter diagram gives its
components and its two-coloring, normalized by placing the first simple
root of each component's conventional ordering in the first block.

I2(m) is modeled combinatorially: its 2m roots are unit vectors at angles
k*pi/m represented by their integer angle index, so no cyclotomic
arithmetic is ever needed.

A coordinate root's ``key`` is the flat tuple of the ints (numerator,
denominator) of each coordinate's a and b, so two keys are equal exactly
when the coordinates are, and every lookup by root hashes machine ints.

Set-up runs on ints.  The simple coordinates, scaled by their common
denominator D, are int pairs (p, q) = p + q*sqrt5, and the Gram matrix
D^2 (alpha_i, alpha_j) is formed from them once.  Every Cartan entry and
every expansion coefficient of a finite root system lies in Z[phi],
phi = (1 + sqrt5)/2, so the positive closure keeps them as int pairs
(p, q) standing for (p + q*sqrt5)/2, with p and q of one parity; a Cartan
entry outside Z[phi] raises ``ValueError``.  The closure self-checks that
every root's norm, read from the Gram matrix, is a simple root's norm
(``RuntimeError`` otherwise).  A root's coordinates are built once, from
its expansion, so its key is the same as from any other route.  Positive
roots are sorted by height, then expansion, on int ranks of the
coefficients' exact order.  The Coxeter diagram and its components are
read off the same Gram matrix.

Group elements are permutations of ``roots`` (see ``coxeter``).  The
positive closure records s_i(beta) for every positive beta, and set-up turns
those images into the simple reflections as permutations, each checked to
be an involution that sends alpha_i to -alpha_i and the other positive roots
to positive roots.  I2(m) states its two simple reflections instead,
j -> 2k + m - j (mod 2m) for the simple root k.  In both backends every
other reflection is a conjugate of a simple one, built by one closure on
first use.

The simple roots span, so an element is fixed by its images
w(alpha_1), .., w(alpha_n): the tuple of their indices in ``roots``, read
at ``simple_positions``.  Reflection length is memoized per such tuple.
Coordinate systems read it by Carter's lemma off integer rows: on the
first length, each root's expansion pairs are scaled by the common
denominator of all of them (1 or 2) into int pairs (p, q) = p + q*sqrt5,
and the rank of w - I goes to the fraction-free elimination
``exact.pair_rank``.  I2(m) tells a rotation from a reflection by its two
images.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence

from .exact import (GOLDEN, ONE, ZERO, Scalar, coerce_scalar,
                    common_denominator, int_pairs, pair_dot, pair_is_negative,
                    pair_rank, pair_ranks)

_HALF = Fraction(1, 2)

# Classical exponents of the icosahedral types.  These are constants of the
# same standing as the coordinate tables below; the crystallographic series
# get their exponents computed from root heights instead (see numerology).
_ICOSAHEDRAL_EXPONENTS = {"H3": (1, 5, 9), "H4": (1, 11, 19, 29)}


class Numerology:
    """The exponents, Coxeter number h and positive root count N of a system."""

    __slots__ = ("exponents", "coxeter_number", "positive_root_count")

    def __init__(self, exponents: tuple, coxeter_number: int,
                 positive_root_count: int):
        self.exponents = exponents
        self.coxeter_number = coxeter_number
        self.positive_root_count = positive_root_count

    def _fields(self) -> tuple:
        return (self.exponents, self.coxeter_number, self.positive_root_count)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


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
    rho: object  # coxeter.RhoSequence of an irreducible system, on first use

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
        """Every reflection, indexed like ``roots``.

        The simple reflections are each backend's ``_simple_perms``.  The
        others are conjugates s_{s_i(beta)} = s_i s_beta s_i, found
        breadth-first from the simple roots, whose W-orbit is the whole root
        system.
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
        basis = _Basis(simples)
        positives, expansions, images = _positive_closure(basis)
        # 2-color the Coxeter diagram, a forest; the plus block comes first
        groups, color = _diagram(basis.gram)
        order = sorted(range(self.rank), key=color.__getitem__)
        self.split_s = color.count(0)
        self.simple_roots = [simples[i] for i in order]
        stored_at = {old: new for new, old in enumerate(order)}
        self._groups = [sorted(stored_at[i] for i in g) for g in groups]
        found = {root.key: exp for root, exp in zip(positives, expansions)}
        stored = {key: tuple(exp[old] for old in order)
                  for key, exp in found.items()}

        # height, then expansion, each read as int ranks of the exact order
        heights = {key: (sum(p for p, _ in exp), sum(q for _, q in exp))
                   for key, exp in stored.items()}
        rank = pair_ranks([*heights.values(),
                       *(c for exp in stored.values() for c in exp)])
        self.positive_roots = sorted(positives, key=lambda r: (
            rank[heights[r.key]], tuple(rank[c] for c in stored[r.key])))
        negatives = _roots_at(basis, [tuple((-p, -q) for p, q in found[r.key])
                                      for r in self.positive_roots])
        self.roots = self.positive_roots + negatives
        self._index = {r.key: i for i, r in enumerate(self.roots)}
        npos = len(self.positive_roots)
        self._neg = {i: (i + npos if i < npos else i - npos)
                     for i in range(len(self.roots))}
        # expansions as int pairs (p, q) = (p + q*sqrt5)/2, indexed like roots
        self._pairs = [stored[r.key] for r in self.positive_roots]
        self._pairs += [tuple((-p, -q) for p, q in exp) for exp in self._pairs]
        halved = {c: Scalar(Fraction(c[0], 2), Fraction(c[1], 2))
                  for c in {c for exp in self._pairs for c in exp}}
        self._expansion = {r.key: tuple(halved[c] for c in exp)
                           for r, exp in zip(self.roots, self._pairs)}

        self.simple_positions = tuple(self._index[a.key]
                                      for a in self.simple_roots)
        self._simple_perms = self._simple_reflections(order, images)
        self._components = None
        self._reflections = None
        self._lengths = {}
        self._int_expansions = None
        self.contexts = {}
        self.rho = None
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
            groups = self._groups
            if len(groups) == 1:
                self._components = [self]
            else:
                # each factor's first simple root is in the plus block, so
                # the groups come out in the order of the label's factors
                names = self.label.split("x") if groups else []
                if [parse_label(name)[1] for name in names] != \
                        [len(g) for g in groups]:
                    raise ValueError(
                        "label %r does not name one factor per diagram "
                        "component, of ranks %s" % (
                            self.label, [len(g) for g in groups]))
                self._components = [CoordinateRootSystem(
                    [self.simple_roots[i].coords for i in g], label=name)
                    for name, g in zip(names, groups)]
        return self._components

    def expansion(self, root: Root) -> tuple:
        """Coefficients of root over the stored simple-root basis."""
        return self._expansion[root.key]

    def support(self, beta: Root) -> frozenset:
        """Indices of the simple roots appearing in beta's expansion."""
        if not self.is_positive(beta):
            raise ValueError("support is defined for positive roots only")
        return frozenset(i for i, c in enumerate(self.expansion(beta))
                         if c.sign() != 0)

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
        """Every root's expansion times D, as int pairs p + q*sqrt5, and D.

        The rows are indexed like ``roots``; D, the lcm of the denominators
        of every coefficient's a and b, is 2 when a pair (p, q) standing for
        (p + q*sqrt5)/2 has p odd (q has its parity), else 1.
        """
        if any(p % 2 for exp in self._pairs for p, _ in exp):
            return [list(exp) for exp in self._pairs], 2
        return [[(p // 2, q // 2) for p, q in exp] for exp in self._pairs], 1

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
        # the reflection in the line orthogonal to the root at angle k*pi/m
        self._simple_perms = [tuple((2 * k + m - j) % (2 * m)
                                    for j in range(2 * m)) for k in (0, m - 1)]
        self._reflections = None
        self._lengths = {}
        self.contexts = {}
        self.rho = None

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


class _Basis:
    """The simple roots ``simples`` on ints, scaled by their common
    denominator ``den``.

    ``columns[k]`` lists coordinate k of den * alpha_i for every i, and
    ``gram[i][j]`` is den^2 (alpha_i, alpha_j), each an int pair
    (p, q) = p + q*sqrt5.
    """

    __slots__ = ("simples", "den", "columns", "gram")

    def __init__(self, simples: Sequence[Root]):
        self.simples = list(simples)
        self.den = common_denominator(x for r in simples for x in r.coords)
        dense = [int_pairs(r.coords, self.den) for r in simples]
        self.columns = list(zip(*dense))
        self.gram = [[None] * len(dense) for _ in dense]
        for i, u in enumerate(dense):
            for j in range(i, len(dense)):
                self.gram[i][j] = self.gram[j][i] = pair_dot(u, dense[j])


def _cartan(gram: list) -> list:
    """Per simple root i, (j, p, q) for each nonzero <alpha_j, alpha_i^vee>.

    The entry 2 (alpha_j, alpha_i) / (alpha_i, alpha_i) is the int pair
    (p, q) = (p + q*sqrt5)/2: 4 (x + y*sqrt5)(a - b*sqrt5), with
    (alpha_j, alpha_i) = x + y*sqrt5 and (alpha_i, alpha_i) = a + b*sqrt5,
    divided exactly by the norm a^2 - 5 b^2.  ``ValueError`` when the entry
    is not in Z[phi]: a remainder, or p and q of different parity.
    """
    columns = []
    for i in range(len(gram)):
        a, b = gram[i][i]
        norm = a * a - 5 * b * b
        column = []
        for j, row in enumerate(gram):
            x, y = row[i]
            if x == 0 and y == 0:
                continue
            p, r = divmod(4 * (x * a - 5 * y * b), norm)
            q, t = divmod(4 * (y * a - x * b), norm)
            if r or t or (p - q) % 2:
                raise ValueError(
                    "Cartan entry <alpha_%d, alpha_%d^vee> is not in Z[phi]: "
                    "the simple roots span no finite root system"
                    % (j + 1, i + 1))
            column.append((j, p, q))
        columns.append(column)
    return columns


def _roots_at(basis: _Basis, exps: Sequence[tuple]) -> list:
    """The Root with each expansion pair tuple in ``exps``, in turn.

    Each coordinate's int pair is memoized with its Scalar and the four
    ints it adds to the key, so a Root is put together from the memo.
    """
    den = 2 * basis.den
    memo = {}
    out = []
    for exp in exps:
        coords, key = [], []
        for column in basis.columns:
            pair = pair_dot(exp, column)
            entry = memo.get(pair)
            if entry is None:
                a, b = Fraction(pair[0], den), Fraction(pair[1], den)
                entry = memo[pair] = (Scalar(a, b), (
                    a.numerator, a.denominator, b.numerator, b.denominator))
            coords.append(entry[0])
            key += entry[1]
        root = Root.__new__(Root)
        root.coords, root.angle, root.key = tuple(coords), None, tuple(key)
        out.append(root)
    return out


def _positive_closure(basis: _Basis) -> tuple:
    """All positive roots, their simple-root expansions and reflection images.

    By reflection closure on expansions, each coefficient an int pair
    (p, q) = (p + q*sqrt5)/2, in one first-in first-out queue.  The
    expansions are listed like the roots; the images map each positive
    root's key to the keys of s_1(beta) .. s_n(beta), None where the image
    is negative.  ``RuntimeError`` when a new root's norm, read from the
    Gram matrix, is no simple root's norm.
    """
    gram = basis.gram
    n = len(gram)
    columns = _cartan(gram)
    norms = {(4 * row[i][0], 4 * row[i][1]) for i, row in enumerate(gram)}
    queue = [tuple((2, 0) if j == i else (0, 0) for j in range(n))
             for i in range(n)]
    images = dict.fromkeys(queue)
    for exp in queue:  # the queue grows while it is read
        image = images[exp] = [None] * n
        for i, column in enumerate(columns):
            # s_i(beta) = beta - <beta, alpha_i^vee> alpha_i; each product
            # below is four times a coefficient, so the sum halves exactly
            s = t = 0
            for j, x, y in column:
                p, q = exp[j]
                s += p * x + 5 * q * y
                t += p * y + q * x
            p, q = exp[i]
            p, q = p - s // 2, q - t // 2
            if pair_is_negative(p, q):  # the only coefficient that moved
                continue
            new = image[i] = exp[:i] + ((p, q),) + exp[i + 1:]
            if new not in images:
                # 4 den^2 (beta, beta): each pair is twice its coefficient
                if pair_dot(new, [pair_dot(new, row) for row in gram]) \
                        not in norms:
                    raise RuntimeError(
                        "closure root with expansion pairs %r has no simple "
                        "root's norm" % (new,))
                images[new] = None
                queue.append(new)
    roots = basis.simples + _roots_at(basis, queue[n:])
    keys = {exp: r.key for exp, r in zip(queue, roots)}
    return roots, queue, {keys[exp]: [None if e is None else keys[e]
                                      for e in images[exp]] for exp in queue}


def _diagram(gram: list) -> tuple:
    """The components of the Coxeter diagram and a 2-coloring of its nodes.

    The components are sorted index lists, in the order of their least
    index, which gets color 0.  ``ValueError`` when two neighbours get one
    color.
    """
    n = len(gram)
    color = [None] * n
    groups = []
    for start in range(n):
        if color[start] is not None:
            continue
        color[start] = 0
        stack, group = [start], []
        while stack:
            v = stack.pop()
            group.append(v)
            for w in range(n):
                if w == v or gram[v][w] == (0, 0):
                    continue
                if color[w] is None:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    raise ValueError("Coxeter diagram is not bipartite as colored")
        groups.append(sorted(group))
    return groups, color


def _exponents_from_heights(rs: CoordinateRootSystem) -> tuple:
    """Exponents as the conjugate partition of the height distribution.

    Valid for crystallographic systems, where every positive root has an
    integer height (sum of simple-root coefficients).
    """
    heights = []
    for exp in rs._pairs[:len(rs.positive_roots)]:
        p, q = sum(c[0] for c in exp), sum(c[1] for c in exp)
        if q or p % 2:
            raise ValueError("non-integer root height in type %s" % rs.label)
        heights.append(p // 2)
    top = max(heights)
    dist = [sum(1 for h in heights if h == k) for k in range(1, top + 1)]
    if any(dist[i] < dist[i + 1] for i in range(len(dist) - 1)):
        raise RuntimeError("height distribution must be a partition")
    exps = sorted(sum(1 for p in dist if p >= k) for k in range(1, dist[0] + 1))
    return tuple(exps)


# -- type tables ----------------------------------------------------------------


def _simples_classical(family: str, n: int) -> list:
    """The simple roots of A_n in n + 1 coordinates, or of B_n, C_n, D_n in n.

    A_n is the chain e_i - e_{i+1}; the others are A_{n-1}'s chain, then
    e_n, 2 e_n or e_{n-1} + e_n.
    """
    if family == "A":
        return [[1 if j == i else (-1 if j == i + 1 else 0)
                 for j in range(n + 1)] for i in range(n)]
    last = [0] * n
    last[-1] = 2 if family == "C" else 1
    if family == "D":
        last[-2] = 1
    return _simples_classical("A", n - 1) + [last]


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


def _simples_H4() -> list:
    """A simple system of H4, diagram 5-3-3, each coordinate (p + q*sqrt5)/2.

    The tests find the same four roots by searching the 120 roots of H4.
    """
    rows = (((-4, 0), (0, 0), (0, 0), (0, 0)),
            ((1, 1), (-2, 0), (1, -1), (0, 0)),
            ((0, 0), (2, 0), (1, 1), (1, -1)),
            ((0, 0), (-1, 1), (-2, 0), (1, 1)))
    return [[Scalar(Fraction(p, 2), Fraction(q, 2)) for p, q in row]
            for row in rows]


_EXPECTED_POSITIVE_COUNT = {
    "E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6, "H3": 15, "H4": 60,
}

_SUPPORTED = "A(n>=1) B(n>=2) C(n>=2) D(n>=3) E6 E7 E8 F4 G2 H3 H4 I2(m>=2), products with 'x'"

_LEAST_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}

_FIXED = {"E6": lambda: _simples_E8()[:6],
          "E7": lambda: _simples_E8()[:7],
          "E8": _simples_E8,
          "F4": _simples_F4,
          "G2": _simples_G2,
          "H3": _simples_H3,
          "H4": _simples_H4}

_build_cache: dict = {}


def build_root_system(label: str) -> RootSystem:
    """Build a root system by its label, e.g. 'B3', 'I2(7)' or 'A1xA2'.

    Systems are cached by the factor keys ``parse_label`` reads off the
    label, so ' A1 x A2' and 'A1xA2' give the same system.
    """
    key = tuple(parse_label(part) for part in label.split("x"))
    if key not in _build_cache:
        factors = [_build_factor(*f) for f in key]
        _build_cache[key] = product_system(factors) if len(key) > 1 \
            else factors[0]
    return _build_cache[key]


def _build_factor(family, rank, dihedral_order) -> RootSystem:
    if family == "I2":
        if dihedral_order is None or dihedral_order < 2:
            raise ValueError("I2 requires a dihedral order m >= 2; supported: %s"
                             % _SUPPORTED)
        return DihedralRootSystem(dihedral_order)
    if family in _LEAST_RANK:
        if rank is None or rank < _LEAST_RANK[family]:
            raise ValueError("unsupported rank %r for type %s; supported: %s"
                             % (rank, family, _SUPPORTED))
        return CoordinateRootSystem(_simples_classical(family, rank),
                                    label="%s%d" % (family, rank))
    if family in _FIXED:
        rs = CoordinateRootSystem(_FIXED[family](), label=family)
        expected = _EXPECTED_POSITIVE_COUNT[family]
        if len(rs.positive_roots) != expected:
            raise RuntimeError(
                "closure produced %d positive roots for %s, expected %d" % (
                    len(rs.positive_roots), family, expected))
        return rs
    raise ValueError("unsupported root system %r; supported: %s"
                     % (family, _SUPPORTED))


# I2 takes its order in balanced parentheses, or none; other families no
# parentheses at all.  Digits are ASCII: int() would read any others too.
_LABEL_RE = re.compile(r"(I2)(?:\s*\(\s*([0-9]*)\s*\))?|([A-H])\s*([0-9]*)")


def parse_label(text: str) -> tuple:
    """The factor key (family, rank, dihedral order) of one factor's label.

    'A2' gives ('A', 2, None), 'E8' gives ('E8', 8, None) and 'I2(7)'
    gives ('I2', 2, 7); a missing number reads as None.
    """
    m = _LABEL_RE.fullmatch(text.strip())
    if not m:
        raise ValueError("cannot parse root-system label %r; supported: %s"
                         % (text, _SUPPORTED))
    fam, num = m.group(1) or m.group(3), m.group(2) or m.group(4)
    number = int(num) if num else None
    if fam == "I2":
        return ("I2", 2, number)
    if fam in "EFGH" and num:
        return (fam + num, number, None)
    return (fam, number, None)


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

