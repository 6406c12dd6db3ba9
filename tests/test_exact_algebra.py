import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercomplexes.exact import (GOLDEN, ONE, SQRT5, ZERO, Matrix, Scalar,
                                    smith_normal_form)
from clustercomplexes.coxeter import absolute_interval
from clustercomplexes.roots import build_root_system
from exact_oracles import (apply, fixed_space_dim, fraction_rank, identity,
                           minor_gcd, reflection_matrix, transpose)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
scalars = st.builds(Scalar, rationals, rationals)


class TestScalar:

    def test_golden_ratio_identity(self):
        assert GOLDEN * GOLDEN == GOLDEN + 1
        assert SQRT5 * SQRT5 == Scalar(5)

    @settings(derandomize=True, max_examples=150)
    @given(scalars)
    def test_exact_inverse(self, x):
        if x == ZERO:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == ONE

    @settings(derandomize=True, max_examples=150)
    @given(scalars, scalars, scalars)
    def test_field_axioms(self, x, y, z):
        assert (x + y) * z == x * z + y * z
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x - x == ZERO

    @settings(derandomize=True, max_examples=150)
    @given(scalars, scalars)
    def test_order_matches_real_embedding(self, x, y):
        assert (x < y) == (float(x) < float(y)) or abs(float(x) - float(y)) < 1e-9

    def test_sign_against_sqrt5(self):
        assert Scalar(2) < SQRT5 < Scalar(3)
        assert Scalar(-9, 4) < ZERO        # 4*sqrt5 = 8.94... < 9
        assert Scalar(9, -4) > ZERO
        assert Scalar(-8, 4) > ZERO
        assert Scalar(Fraction(161, 72), -1) > ZERO  # convergent, very close

    def test_hash_consistent_with_rationals(self):
        assert hash(Scalar(3)) == hash(Fraction(3))
        assert Scalar(Fraction(1, 2), 0) == Fraction(1, 2)


class TestReflectionMatrix:

    def test_coordinate_reflection(self):
        assert reflection_matrix([1, 0]).entries == \
            Matrix([[-1, 0], [0, 1]]).entries

    def test_transposition(self):
        swap = reflection_matrix([1, -1, 0])
        assert apply(swap, (ONE, ZERO, ZERO)) == (ZERO, ONE, ZERO)

    def test_involution_over_b3_positive_roots(self, complexes):
        rs, _, _ = complexes("B3", 1)
        ident = identity(3)
        for root in rs.positive_roots:
            m = reflection_matrix(root.coords)
            assert m * m == ident
            assert transpose(m) * m == ident  # orthogonality

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            reflection_matrix([0, 0])


class TestFixedSpace:

    def test_identity(self):
        assert fixed_space_dim(identity(3)) == 3

    def test_reflection_fixes_a_line(self):
        assert fixed_space_dim(Matrix([[-1, 0], [0, 1]])) == 1

    def test_rotation_by_third_has_no_fixed_vectors(self):
        # bipartite Coxeter element of the rank-2 type A system, written in
        # the simple-root basis
        assert fixed_space_dim(Matrix([[0, -1], [1, -1]])) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            fixed_space_dim(Matrix([[1, 0, 0], [0, 1, 0]]))


class TestSmithNormalForm:

    def test_diag_2_3(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == ((1, 6), 2)

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0, 0], [0, 0, 0]]) == ((), 0)

    def test_hollow_triangle_boundary(self):
        # vertex-edge incidence of a 3-cycle: rank 2, free cokernel
        d1 = [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
        assert smith_normal_form(d1) == ((1, 1), 2)

    def test_torsion_example(self):
        factors, rank = smith_normal_form([[2, 0], [0, 2]])
        assert factors == (2, 2) and rank == 2

    @settings(derandomize=True, max_examples=60)
    @given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_divisibility_and_minor_gcds(self, rows):
        factors, rank = smith_normal_form([row[:] for row in rows])
        for i in range(len(factors) - 1):
            assert factors[i + 1] % factors[i] == 0
        prod = 1
        for k in range(1, rank + 1):
            prod *= factors[k - 1]
            assert prod == abs(minor_gcd(rows, k))


def random_scalar(rnd):
    """Zero a third of the time; otherwise fractional a and, often, b."""
    if rnd.random() < 0.3:
        return ZERO
    a = Fraction(rnd.randint(-9, 9), rnd.randint(1, 12))
    b = Fraction(rnd.randint(-9, 9), rnd.randint(1, 12)) if rnd.random() < 0.6 else 0
    return Scalar(a, b)


def random_matrix(rnd, rows, cols):
    return Matrix([[random_scalar(rnd) for _ in range(cols)] for _ in range(rows)])


class TestFractionFreeRank:

    def test_golden_ratio_cases(self):
        # phi^2 = phi + 1 and (1 + sqrt5)^2 / 2 = 3 + sqrt5 make rank-one rows
        assert Matrix([[ONE, GOLDEN], [GOLDEN, GOLDEN + 1]]).rank() == 1
        assert Matrix([[ONE, GOLDEN], [GOLDEN, ONE]]).rank() == 2
        assert Matrix([[Scalar(2), Scalar(1, 1)],
                       [Scalar(1, 1), Scalar(3, 1)]]).rank() == 1
        assert Matrix([[SQRT5, ONE], [Scalar(5), SQRT5]]).rank() == 1

    def test_zero_and_empty(self):
        assert Matrix([]).rank() == 0
        assert Matrix([[0, 0, 0], [0, 0, 0]]).rank() == 0
        assert Matrix([[], []]).rank() == 0

    def test_random_matrices_match_fraction_elimination(self):
        for seed in range(400):
            rnd = random.Random(seed)
            rows, cols = rnd.randint(1, 8), rnd.randint(1, 8)
            entries = [list(r) for r in random_matrix(rnd, rows, cols).entries]
            if rnd.random() < 0.3:
                entries[rnd.randrange(rows)] = [ZERO] * cols
            if rnd.random() < 0.3:
                j = rnd.randrange(cols)
                for row in entries:
                    row[j] = ZERO
            m = Matrix(entries)
            assert m.rank() == fraction_rank(m), (seed, m)

    def test_rank_deficient_by_construction(self):
        for seed in range(200):
            rnd = random.Random(1000 + seed)
            rows, cols = rnd.randint(2, 8), rnd.randint(2, 8)
            inner = rnd.randint(1, min(rows, cols) - 1)
            m = random_matrix(rnd, rows, inner) * random_matrix(rnd, inner, cols)
            assert m.rank() == fraction_rank(m) <= inner, (seed, m)
            # a row that repeats a combination of two others adds no rank
            r0, r1 = m.entries[0], m.entries[1]
            c = random_scalar(rnd)
            extra = Matrix(m.entries + (tuple(x + c * y for x, y in zip(r0, r1)),))
            assert extra.rank() == m.rank()

    @pytest.mark.parametrize("label", ["B3", "H3"])
    def test_carter_matrices_over_the_interval(self, label):
        # w - I in the simple-root basis, for every w below gamma
        rs = build_root_system(label)
        for w in absolute_interval(rs):
            rows = []
            for j, a in enumerate(rs.simple_roots):
                image = rs.expansion(w.apply(a))
                rows.append([c - ONE if k == j else c for k, c in enumerate(image)])
            m = Matrix(rows)
            assert m.rank() == fraction_rank(m) == w.length
