"""Brute-force exact-arithmetic oracles the tests check the library against.

Each is an independent, slower route to something the library computes:
ranks by Gaussian elimination over Q(sqrt5) with ``Fraction`` components,
the whole group by closure, type-A one-line notation, the two-length face
test, and a root system rebuilt from its JSON report.
"""
import itertools
from fractions import Fraction
from math import gcd

from clustercomplexes.colored import _component_of, get_context, word_of_face
from clustercomplexes.coxeter import absolute_leq
from clustercomplexes.exact import Matrix, Scalar
from clustercomplexes.roots import CoordinateRootSystem


def difference(a: Matrix, b: Matrix) -> Matrix:
    """The entrywise difference a - b of two matrices of one shape."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("dimension mismatch in difference")
    return Matrix([[x - y for x, y in zip(r1, r2)]
                   for r1, r2 in zip(a.entries, b.entries)])


def fixed_space_dim(m: Matrix) -> int:
    """Dimension of the fixed space ker(M - I), by exact elimination."""
    if m.rows != m.cols:
        raise ValueError("fixed space requires a square matrix")
    return m.rows - difference(m, Matrix.identity(m.rows)).rank()


def fraction_rank(m: Matrix) -> int:
    """Rank by Gaussian elimination over Q(sqrt5), dividing by each pivot."""
    rows = [list(r) for r in m.entries]
    rank = 0
    for col in range(m.cols):
        pivot = next((i for i in range(rank, m.rows)
                      if rows[i][col].sign() != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        for i in range(rank + 1, m.rows):
            f = rows[i][col]
            if f.sign() == 0:
                continue
            factor = f * inv
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == m.rows:
            break
    return rank


def minor_gcd(a: list, k: int) -> int:
    """gcd of all k x k minors of an integer matrix given as rows."""
    rows, cols = len(a), len(a[0]) if a else 0
    g = 0
    for ri in itertools.combinations(range(rows), k):
        for ci in itertools.combinations(range(cols), k):
            g = gcd(g, int_det([[a[i][j] for j in ci] for i in ri]))
    return g


def int_det(a: list) -> int:
    """Determinant of a small integer matrix by exact elimination."""
    n = len(a)
    a = [row[:] for row in a]
    det = 1
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        for i in range(col + 1, n):
            f = Fraction(a[i][col], a[col][col])
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    for i in range(n):
        det *= a[i][i]
    return int(det)


def enumerate_group(rs, limit: int = 200000) -> list:
    """The full reflection group, by closure under the simple reflections."""
    gens = [rs.reflection(r) for r in rs.simple_roots]
    ident = rs.identity_element()
    seen = {ident.perm: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for u in frontier:
            for t in gens:
                v = u * t
                if v.perm not in seen:
                    seen[v.perm] = v
                    nxt.append(v)
                    if len(seen) > limit:
                        raise ValueError("group exceeds enumeration limit %d" % limit)
        frontier = nxt
    return list(seen.values())


def one_line_permutation(w) -> tuple:
    """One-line notation of a type-A element acting on coordinates.

    Every root is some e_i - e_j, and w sends it to e_pi(i) - e_pi(j);
    pi is read off the permutation of the roots and checked on all of them.
    """
    rs = w.system
    pairs = [unit_difference(r) for r in rs.roots]
    if None in pairs:
        raise ValueError("one-line notation needs roots of the form e_i - e_j")
    out = [None] * rs.ambient
    for k, (i, j) in enumerate(pairs):
        for src, dst in zip((i, j), pairs[w.perm[k]]):
            if out[src] not in (None, dst):
                raise ValueError("element is not a coordinate permutation")
            out[src] = dst
    if None in out or len(set(out)) != len(out):
        raise ValueError("element is not a coordinate permutation")
    return tuple(out)


def unit_difference(root):
    """(i, j) when root is e_i - e_j, else None."""
    if root.coords is None:
        return None
    nonzero = [(k, x) for k, x in enumerate(root.coords) if x.sign() != 0]
    if len(nonzero) != 2:
        return None
    (i, x), (j, y) = nonzero
    if x == 1 and y == -1:
        return (i, j)
    if x == -1 and y == 1:
        return (j, i)
    return None


def two_length_is_face(ctx, sigma) -> bool:
    """The word criterion with both lengths: l(w) = |sigma| and w <= gamma."""
    sigma = list(sigma)
    rs = ctx.system
    if not rs.is_irreducible:
        groups = {}
        for v in sigma:
            comp = _component_of(rs, v.root)
            groups.setdefault(id(comp), (comp, []))[1].append(v)
        return all(two_length_is_face(get_context(comp, ctx.m), part)
                   for comp, part in groups.values())
    w = word_of_face(ctx, sigma)
    return w.length == len(sigma) and absolute_leq(w, ctx.gamma)


def facets_as_label_sets(cx) -> set:
    return {frozenset(f) for f in cx.labeled_facets()}


def root_system_from_dict(data: dict) -> CoordinateRootSystem:
    """Rebuild a coordinate system from the simple roots of its report."""
    coords = [[Scalar(Fraction(q[0], q[1]), Fraction(q[2], q[3])) for q in r]
              for r in data["simple_roots"]]
    return CoordinateRootSystem(coords, label=data["type"])
