"""Exact scalar and matrix kernel.

Scalars are elements a + b*sqrt(5) of the real quadratic field Q(sqrt5),
stored as pairs of arbitrary-precision rationals.  This single extension
covers the icosahedral types H3 and H4 (via the golden ratio); every
crystallographic type stays inside the rationals (b == 0).  No floating
point enters any computation in this module.

``pair_eliminate`` eliminates fraction-free over the ring Z[sqrt5], each
entry an int pair (p, q) standing for p + q*sqrt5; no ``Fraction`` is
built during the elimination.  It is the one elimination of the package:
reflection length and descent sets (see ``roots``) read the rank, and a
left kernel, off it on their own integer rows, and ``Matrix.rank`` clears
denominators row by row and calls it too.

``common_denominator`` and ``int_pairs`` turn Scalars into such int
pairs.  ``Matrix.rank`` calls them per row; ``roots`` calls them once per
system, on the simple coordinates, and builds its Gram matrix, positive
closure and diagram on the pairs with no Scalar arithmetic: products by
``pair_dot``, order by the exact sign test ``pair_is_negative``
(``pair_compare``, ``pair_ranks``).
"""
from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm
from typing import Iterable, Sequence


class Scalar:
    """An element a + b*sqrt(5) with exact rational components a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = coerce_scalar(other)
        return Scalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = coerce_scalar(other)
        return Scalar(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return coerce_scalar(other) - self

    def __mul__(self, other):
        other = coerce_scalar(other)
        # (a + b r)(c + d r) with r^2 = 5
        return Scalar(self.a * other.a + 5 * self.b * other.b,
                      self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(-self.a, -self.b)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def inverse(self) -> "Scalar":
        norm = self.a * self.a - 5 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("scalar has no inverse: %r" % (self,))
        return Scalar(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        return self * coerce_scalar(other).inverse()

    def __rtruediv__(self, other):
        return coerce_scalar(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparisons (exact, via the real embedding sqrt(5) > 0) -------------

    def sign(self) -> int:
        if not self:
            return 0
        return -1 if pair_is_negative(self.a, self.b) else 1

    def __eq__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            other = coerce_scalar(other)
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __lt__(self, other):
        return (self - coerce_scalar(other)).sign() < 0

    def __le__(self, other):
        return (self - coerce_scalar(other)).sign() <= 0

    def __gt__(self, other):
        return (self - coerce_scalar(other)).sign() > 0

    def __ge__(self, other):
        return (self - coerce_scalar(other)).sign() >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- views ---------------------------------------------------------------

    def __float__(self):
        # Reporting/diagnostics only; engine code never converts to float.
        return float(self.a) + float(self.b) * 5 ** 0.5

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return "%s*r5" % (self.b,)
        return "%s%s%s*r5" % (self.a, "+" if self.b > 0 else "-", abs(self.b))


ZERO = Scalar(0)
ONE = Scalar(1)
SQRT5 = Scalar(0, 1)
GOLDEN = Scalar(Fraction(1, 2), Fraction(1, 2))  # (1 + sqrt5) / 2


def coerce_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    raise TypeError("cannot coerce %r to Scalar" % (x,))


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    out = ZERO
    for x, y in zip(u, v):
        out = out + x * y
    return out


class Matrix:
    """Immutable dense matrix of Scalars."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(tuple(coerce_scalar(x) for x in row) for row in entries)
        self.entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        if any(len(r) != self.cols for r in rows):
            raise ValueError("ragged matrix")

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        ot = tuple(zip(*other.entries))
        return Matrix([[dot(row, col) for col in ot] for row in self.entries])

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def rank(self) -> int:
        """Rank, by clearing denominators row by row for ``pair_eliminate``.

        Scaling a row by the lcm of its denominators leaves the rank alone.
        """
        return pair_eliminate([int_pairs(row, common_denominator(row))
                               for row in self.entries], self.cols)

    def __repr__(self):
        return "Matrix(%r)" % (self.entries,)


def common_denominator(xs: Iterable[Scalar]) -> int:
    """The lcm of the denominators of every a and b in ``xs``."""
    return lcm(*(d for x in xs for d in (x.a.denominator, x.b.denominator)))


def int_pairs(xs: Iterable[Scalar], den: int) -> list:
    """Each x in ``xs`` times ``den``, as an int pair (p, q) = p + q*sqrt5.

    ``den`` must be a multiple of ``common_denominator(xs)``.
    """
    return [(x.a.numerator * (den // x.a.denominator),
             x.b.numerator * (den // x.b.denominator)) for x in xs]


def pair_dot(u: Sequence[tuple], v: Sequence[tuple]) -> tuple:
    """The sum of u_k v_k over int pairs (p, q) = p + q*sqrt5, as a pair."""
    a = b = 0
    for (p, q), (s, t) in zip(u, v):
        a += p * s + 5 * q * t
        b += p * t + q * s
    return a, b


def pair_is_negative(p, q) -> bool:
    """Whether p + q*sqrt5 < 0, for ints or rationals p and q.

    By the sign of p^2 - 5 q^2 when the signs of p and q do not decide;
    it is never 0, as sqrt5 is irrational.
    """
    if q == 0:
        return p < 0
    if p == 0 or (p < 0) == (q < 0):
        return q < 0
    return (p * p > 5 * q * q) == (p < 0)


def pair_compare(u: tuple, v: tuple) -> int:
    """The sign of u - v, for int pairs (p, q) standing for p + q*sqrt5.

    A common scale, such as (p + q*sqrt5)/2 for both, moves no sign.
    """
    p, q = u[0] - v[0], u[1] - v[1]
    if p == 0 and q == 0:
        return 0
    return -1 if pair_is_negative(p, q) else 1


def pair_ranks(values: Iterable[tuple]) -> dict:
    """Each distinct int pair in ``values`` -> its place in increasing order."""
    return {v: i for i, v in
            enumerate(sorted(set(values), key=cmp_to_key(pair_compare)))}


def pair_eliminate(m: list, cols: int) -> int:
    """Rank of the first ``cols`` columns of a matrix over Z[sqrt5].

    ``m`` is a list of rows of one length, each entry an int pair (p, q)
    standing for p + q*sqrt5; the rows are reduced in place by
    fraction-free forward elimination on their first ``cols`` columns.  A
    pivot (x, y) clears the entry (u, v) of a lower row by
    row <- (x + y r) row - (u + v r) pivot_row, with r = sqrt5, and the new
    row is divided by the gcd of its ints.  Z[sqrt5] is a domain and sqrt5
    is irrational, so a pair is zero exactly when both ints are.

    The rows from the rank on end zero in the first ``cols`` columns.  So
    when each row is followed by the matching row of an identity matrix,
    their remaining entries span the left kernel of the first block.
    """
    rows = len(m)
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][col] != (0, 0)), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        x, y = top[col]
        for i in range(rank + 1, rows):
            u, v = m[i][col]
            if u == 0 and v == 0:
                continue
            row = [(x * p + 5 * y * q - u * s - 5 * v * t,
                    x * q + y * p - u * t - v * s)
                   for (p, q), (s, t) in zip(m[i], top)]
            g = gcd(*(n for pair in row for n in pair))
            m[i] = [(p // g, q // g) for p, q in row] if g > 1 else row
        rank += 1
        if rank == rows:
            break
    return rank


def smith_normal_form(a: list) -> tuple:
    """Smith normal form of an integer matrix, given as a list of rows.

    The rows are lists of ints of one length; they are consumed.  Returns
    (factors, rank) where factors is the tuple of invariant factors
    d1 | d2 | ... (all positive) and rank their count.
    """
    if any(len(r) != len(a[0]) for r in a):
        raise ValueError("ragged matrix")
    rows = len(a)
    cols = len(a[0]) if rows else 0
    factors = []
    t = 0
    while t < rows and t < cols:
        # pick the nonzero entry of smallest magnitude as pivot
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(a[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, pi, pj = best
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            # clear column t
            dirty = False
            for i in range(rows):
                if i == t or a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                for j in range(cols):
                    a[i][j] -= q * a[t][j]
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(cols):
                if j == t or a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                for i in range(rows):
                    a[i][j] -= q * a[i][t]
                if a[t][j]:
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    dirty = True
            if dirty:
                continue
            # force divisibility of the remaining block by the pivot
            bad = next(((i, j) for i in range(t + 1, rows)
                        for j in range(t + 1, cols) if a[i][j] % a[t][t]), None)
            if bad is None:
                break
            bi = bad[0]
            for j in range(cols):
                a[t][j] += a[bi][j]
        factors.append(abs(a[t][t]))
        t += 1
    # normalize the divisibility chain (already holds; keep as a safeguard)
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] // g * factors[j]
    return tuple(factors), len(factors)
