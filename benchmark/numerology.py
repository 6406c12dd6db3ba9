"""The benchmark's own table of Coxeter numerology.

Rank, exponents and Coxeter number are written out by hand for every
irreducible type the workloads run, so the checks do not depend on the
program's own numerology.  Product types multiply: ranks and positive root
counts add, and the Fuss-Catalan numbers multiply.
"""
from __future__ import annotations

from fractions import Fraction

# type -> (exponents e_1 <= ... <= e_n, Coxeter number h)
TABLE = {
    "A1": ((1,), 2),
    "A2": ((1, 2), 3),
    "A3": ((1, 2, 3), 4),
    "A4": ((1, 2, 3, 4), 5),
    "B3": ((1, 3, 5), 6),
    "D4": ((1, 3, 3, 5), 6),
    "F4": ((1, 5, 7, 11), 12),
    "H3": ((1, 5, 9), 10),
    "I2(5)": ((1, 4), 5),
}


def factors(label: str) -> list:
    """The irreducible factors of a label such as 'A1xA2'."""
    parts = label.split("x")
    unknown = [p for p in parts if p not in TABLE]
    if unknown:
        raise KeyError("no numerology for %s" % ", ".join(unknown))
    return [TABLE[p] for p in parts]


def rank(label: str) -> int:
    return sum(len(exps) for exps, _ in factors(label))


def positive_roots(label: str) -> int:
    """|Phi+| = n h / 2, summed over the factors."""
    return sum(len(exps) * h // 2 for exps, h in factors(label))


def _product(label: str, m: int, shift: int) -> int:
    out = Fraction(1)
    for exps, h in factors(label):
        for e in exps:
            out *= Fraction(e + m * h + shift, e + 1)
    if out.denominator != 1:
        raise ArithmeticError("%s at m=%d is not an integer" % (label, m))
    return int(out)


def fuss_catalan(label: str, m: int) -> int:
    """N(Phi, m) = prod (e_i + m h + 1) / (e_i + 1): facets of the complex."""
    return _product(label, m, 1)


def fuss_catalan_positive(label: str, m: int) -> int:
    """N+(Phi, m) = prod (e_i + m h - 1) / (e_i + 1): facets of the positive part."""
    return _product(label, m, -1)
