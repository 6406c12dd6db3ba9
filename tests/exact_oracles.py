"""Brute-force exact-arithmetic oracles the tests check the library against."""
import itertools
from fractions import Fraction
from math import gcd

from clustercomplexes.exact import Matrix


def fixed_space_dim(m: Matrix) -> int:
    """Dimension of the fixed space ker(M - I), by exact elimination."""
    if m.rows != m.cols:
        raise ValueError("fixed space requires a square matrix")
    return m.rows - (m - Matrix.identity(m.rows)).rank()


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
