"""Property suites with fixed seeds, runnable standalone.

Covers the invariants that back the desk-scale verification: color
rotation orbits, join convolution of face counts, h-vector nonnegativity
under certified shellings, Smith-normal-form divisibility, and the sparse
homology engine against the dense Smith normal form.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercomplexes.colored import (build_complex, colored_vertices,
                                      positive_part, rm_map)
from clustercomplexes.exact import minor_gcd, smith_normal_form
from clustercomplexes.roots import build_root_system, product_system
from clustercomplexes.simplicial import SimplicialComplex, f_to_h
from clustercomplexes.topology import (codim1_incidence, construct_shelling,
                                       fuss_catalan, fuss_narayana_positive,
                                       integer_rank_torsion, verify_shelling)

SMALL_SYSTEMS = ["A1", "A2", "B2", "G2", "I2(5)"]


class TestColorRotationOrbits:

    @pytest.mark.parametrize("label", SMALL_SYSTEMS)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_every_orbit_reaches_a_negative_simple(self, label, m):
        rs = build_root_system(label)
        bound = m * len(rs.positive_roots)
        for v in colored_vertices(rs, m):
            x = v
            for _ in range(bound):
                if not rs.is_positive(x.root):
                    break
                x = rm_map(rs, m, x)
            else:
                if rs.is_positive(x.root):
                    raise AssertionError("orbit of %r stayed positive" % (v,))

    @pytest.mark.parametrize("label", SMALL_SYSTEMS)
    def test_rotation_is_a_bijection(self, label):
        rs = build_root_system(label)
        for m in (1, 2):
            verts = colored_vertices(rs, m)
            assert len({rm_map(rs, m, v).key() for v in verts}) == len(verts)


class TestJoinConvolution:

    @pytest.mark.parametrize("labels", [("A1", "A1"), ("A1", "A2"),
                                        ("A2", "B2")])
    @pytest.mark.parametrize("m", [1, 2])
    def test_f_vector_convolves(self, labels, m):
        parts = [build_root_system(l) for l in labels]
        f_parts = [build_complex(p, m)[0].f_vector() for p in parts]
        prod = product_system(parts)
        f_prod = build_complex(prod, m)[0].f_vector()
        conv = [0] * (sum(len(f) for f in f_parts) - 1)
        for i, a in enumerate(f_parts[0]):
            for j, b in enumerate(f_parts[1]):
                conv[i + j] += a * b
        assert f_prod == tuple(conv)


class TestShellingInvariants:

    @pytest.mark.parametrize("label,m", [("A2", 1), ("A2", 2), ("A2", 3),
                                         ("B2", 2), ("G2", 2), ("I2(7)", 2)])
    def test_h_vectors_nonnegative_and_sum_to_facets(self, label, m):
        rs = build_root_system(label)
        cx, _ = build_complex(rs, m)
        order = construct_shelling(cx)
        assert verify_shelling(cx, order.facets).ok
        h = f_to_h(cx.f_vector())
        assert all(x >= 0 for x in h)
        assert sum(h) == len(cx.facets)

    @pytest.mark.parametrize("label,m", [("A2", 2), ("B2", 3), ("I2(6)", 2)])
    def test_incidence_concentration(self, label, m):
        rs = build_root_system(label)
        cx, _ = build_complex(rs, m)
        assert set(codim1_incidence(cx)) == {m + 1}


class TestCountingFormulas:

    @pytest.mark.parametrize("label", SMALL_SYSTEMS + ["A3", "B3"])
    def test_facet_formula_matches_enumeration(self, label):
        rs = build_root_system(label)
        for m in (1, 2):
            cx, _ = build_complex(rs, m)
            assert len(cx.facets) == fuss_catalan(rs, m)
            assert len(positive_part(cx).facets) == \
                fuss_catalan(rs, m, positive=True)

    @pytest.mark.parametrize("label", SMALL_SYSTEMS + ["A3", "B3", "H3"])
    def test_sphere_counts_are_integers(self, label):
        rs = build_root_system(label)
        for t in range(0, 4):
            assert isinstance(fuss_narayana_positive(rs, t), int)


class TestSmithNormalForm:

    @settings(derandomize=True, max_examples=80)
    @given(st.integers(2, 4), st.integers(2, 4), st.data())
    def test_divisibility_chain(self, rows, cols, data):
        mat = [[data.draw(st.integers(-9, 9)) for _ in range(cols)]
               for _ in range(rows)]
        factors, rank = smith_normal_form([row[:] for row in mat])
        assert rank == len(factors) <= min(rows, cols)
        assert all(f > 0 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0

    @settings(derandomize=True, max_examples=40)
    @given(st.data())
    def test_factor_products_are_minor_gcds(self, data):
        mat = [[data.draw(st.integers(-5, 5)) for _ in range(3)]
               for _ in range(3)]
        factors, rank = smith_normal_form([row[:] for row in mat])
        prod = 1
        for k in range(1, rank + 1):
            prod *= factors[k - 1]
            assert prod == abs(minor_gcd(mat, k))

    def test_seeded_random_rectangular(self):
        rng = random.Random(2024)
        for _ in range(30):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            mat = [[rng.randint(-7, 7) for _ in range(cols)]
                   for _ in range(rows)]
            factors, rank = smith_normal_form([row[:] for row in mat])
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0
            prod = 1
            for k in range(1, rank + 1):
                prod *= factors[k - 1]
                assert prod == abs(minor_gcd(mat, k))


def assert_sparse_matches_dense(mat):
    """Rank and invariant factors: sparse engine against dense SNF."""
    columns = [{i: row[j] for i, row in enumerate(mat) if row[j]}
               for j in range(len(mat[0]))]
    rank, torsion = integer_rank_torsion(columns)
    factors, dense_rank = smith_normal_form([row[:] for row in mat])
    assert rank == dense_rank
    assert (1,) * (rank - len(torsion)) + torsion == factors


class TestSparseEngine:

    @settings(derandomize=True, max_examples=150)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_random_integer_matrices(self, rows, cols, data):
        mat = [[data.draw(st.integers(-3, 3)) for _ in range(cols)]
               for _ in range(rows)]
        assert_sparse_matches_dense(mat)

    @settings(derandomize=True, max_examples=60)
    @given(st.lists(st.frozensets(st.integers(0, 6), min_size=1, max_size=4),
                    min_size=1, max_size=10))
    def test_boundary_maps_of_random_complexes(self, faces):
        cx = SimplicialComplex([str(v) for v in range(7)], faces)
        assert list(cx.facets) == sorted(
            tuple(sorted(f)) for f in set(faces) if not any(f < g for g in faces))
        by_dim = cx.faces_by_dim()
        for k in range(1, len(by_dim)):
            index = {f: i for i, f in enumerate(by_dim[k - 1])}
            mat = [[0] * len(by_dim[k]) for _ in by_dim[k - 1]]
            for j, face in enumerate(by_dim[k]):
                for d in range(k):
                    mat[index[face[:d] + face[d + 1:]]][j] = (-1) ** d
            assert_sparse_matches_dense(mat)

    def test_remainders_without_unit_entries(self):
        # no entry is a unit, yet the gcd of the entries is 1
        assert integer_rank_torsion([{0: 2, 1: 4}, {0: 3, 1: 5}]) == (2, (2,))
        assert integer_rank_torsion([{0: 2}, {1: 6}]) == (2, (2, 6))
        assert integer_rank_torsion([{0: 2, 1: 2}, {0: -2, 1: -2}]) == (1, (2,))
        assert integer_rank_torsion([{}, {0: 1, 1: 3}]) == (1, ())
