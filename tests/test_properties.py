"""Property suites with fixed seeds, runnable standalone.

Covers the invariants that back the desk-scale verification: color
rotation orbits, join convolution of face counts, h-vector nonnegativity
under certified shellings, Smith-normal-form divisibility, and the sparse
homology engine and the face-table k-CM audit against dense Smith normal
form references.
"""
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercomplexes import topology
from clustercomplexes.colored import (build_complex, colored_vertices,
                                      positive_part, rm_map)
from clustercomplexes.exact import smith_normal_form
from clustercomplexes.roots import build_root_system, product_system
from clustercomplexes.simplicial import SimplicialComplex, f_to_h
from clustercomplexes.topology import (codim1_incidence, construct_shelling,
                                       fuss_catalan, homology,
                                       integer_rank_torsion, is_cohen_macaulay,
                                       kcm_audit, verify_shelling)
from conftest import RP2
from exact_oracles import minor_gcd
from test_root_systems import EXPECTED

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


ROTATION_CASES = (
    [(label, m) for label in ["A1", "A2", "A3", "B2", "B3", "G2", "H3",
                              "A1xA1", "A1xA2"]
     + ["I2(%d)" % p for p in range(2, 13)] for m in (1, 2, 3)]
    + [(label, 1) for label in ("A4", "B4", "D4", "F4", "H4")])


class TestComplexSymmetry:

    @pytest.mark.parametrize("label,m", ROTATION_CASES)
    def test_order_and_facets_match_fomin_reading(self, label, m):
        # R_m has order (mh+2)/2 when w0 = -1, that is, when every exponent
        # is odd, and mh+2 otherwise; a product takes the lcm
        rs = build_root_system(label)
        cx, _ = build_complex(rs, m)
        want = 1
        for comp in rs.components:
            num = comp.numerology()
            order = m * num.coxeter_number + 2
            want = lcm(want, order // 2 if all(e % 2 for e in num.exponents)
                       else order)
        perm = cx.symmetry
        got, seen = 1, set()
        for start in range(len(perm)):
            cycle, v = 0, start
            while v not in seen:
                seen.add(v)
                v = perm[v]
                cycle += 1
            got = lcm(got, cycle or 1)
        assert got == want
        assert {tuple(sorted(perm[v] for v in f)) for f in cx.facets} == \
            set(cx.facets)


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
        # prod (e + t*h - 1)/(e + 1) from the stated exponents and Coxeter
        # number, not from the system's own numerology
        _, h, exponents = EXPECTED[label]
        rs = build_root_system(label)
        for t in range(0, 4):
            count = Fraction(1)
            for e in exponents:
                count *= Fraction(e + t * h - 1, e + 1)
            assert count.denominator == 1, (label, t)
            assert count == fuss_catalan(rs, t, positive=True), (label, t)


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


def faces_by_size(facets):
    """Every face of the complex with these facets, by size, sorted."""
    faces = {()}
    for f in facets:
        for k in range(1, len(f) + 1):
            faces.update(itertools.combinations(sorted(f), k))
    by_size = [[] for _ in range(max(len(f) for f in faces) + 1)]
    for f in faces:
        by_size[len(f)].append(f)
    return [sorted(fs) for fs in by_size]


def boundary_matrix(by_size, k):
    """Dense boundary from the size-k faces to the size-(k-1) faces."""
    index = {f: i for i, f in enumerate(by_size[k - 1])}
    mat = [[0] * len(by_size[k]) for _ in by_size[k - 1]]
    for j, face in enumerate(by_size[k]):
        for d in range(k):
            mat[index[face[:d] + face[d + 1:]]][j] = (-1) ** d
    return mat


def dense_homology(facets):
    """Nonzero reduced homology, degree -> (Betti number, torsion).

    Every boundary map, the augmentation included, goes through the dense
    Smith normal form.
    """
    by_size = faces_by_size(facets)
    top = len(by_size) - 1
    ranks = [0] * (top + 2)
    torsion = [()] * (top + 2)
    for k in range(1, top + 1):
        factors, ranks[k] = smith_normal_form(boundary_matrix(by_size, k))
        torsion[k] = tuple(d for d in factors if d > 1)
    groups = {}
    for k in range(top + 1):  # chains on size-k faces sit in degree k - 1
        betti = len(by_size[k]) - ranks[k] - ranks[k + 1]
        if betti or torsion[k + 1]:
            groups[k - 1] = (betti, torsion[k + 1])
    return groups


def dense_cohen_macaulay(facets):
    """Reisner's criterion with every face link taken from the facets."""
    for face in itertools.chain.from_iterable(faces_by_size(facets)):
        link = [tuple(v for v in f if v not in face)
                for f in facets if set(face) <= set(f)]
        d = max(len(g) for g in link) - 1
        if any(deg < d for deg in dense_homology(link)):
            return False
    return True


def reference_audit(cx, k):
    """(examined, failures) of the exhaustive k-CM audit, removal by removal."""
    n, dim = len(cx.vertices), cx.dimension()
    examined, failures = 0, []
    for size in range(k):
        for removed in itertools.combinations(range(n), size):
            examined += 1
            rest = cx.induce([i for i in range(n) if i not in removed])
            if rest.dimension() != dim:
                reason = "dimension-drop"
            elif not rest.is_pure():
                reason = "impure"
            elif rest.facets and not dense_cohen_macaulay(rest.facets):
                reason = "not-CM"
            else:
                continue
            failures.append({"removed": [cx.vertices[i] for i in removed],
                             "reason": reason})
    return examined, failures


@st.composite
def small_complexes(draw):
    """Complexes on at most 8 vertices: pure, impure, or a simplex skeleton.

    Vertices in no facet and facets of one vertex both occur, and so do
    disconnected complexes.
    """
    n = draw(st.integers(4, 8))
    size = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["pure", "skeleton", "impure"]))
    if kind == "skeleton":
        n = min(n, 6)
        faces = list(itertools.combinations(range(n), size))
        dropped = draw(st.sets(st.sampled_from(faces), max_size=3))
        faces = [f for f in faces if f not in dropped] or faces
    else:
        lo = size if kind == "pure" else 1
        faces = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=lo,
                                      max_size=size), min_size=2, max_size=10))
    return SimplicialComplex([str(v) for v in range(n)], faces)


class TestFaceTable:

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(small_complexes())
    def test_homology_matches_dense_reference(self, cx):
        prof = homology(cx)
        assert prof.groups() == dense_homology(cx.facets)
        assert prof.euler_reduced == sum(
            (-1) ** (k - 1) * c for k, c in enumerate(cx.f_vector()))

    def test_projective_plane_keeps_its_torsion(self):
        cx = SimplicialComplex([str(v) for v in range(6)], RP2)
        assert homology(cx).groups() == dense_homology(RP2) == {1: (0, (2,))}

    @pytest.mark.parametrize("name,facets", [
        # the link of the apex is the projective plane
        ("cone over RP2", [f + (6,) for f in RP2]),
        # so is the link of the edge (6, 7)
        ("RP2 joined with an edge", [f + (6, 7) for f in RP2]),
    ])
    def test_torsion_in_a_link_breaks_cohen_macaulay(self, name, facets):
        cx = SimplicialComplex([str(v) for v in range(8)], facets)
        assert not dense_cohen_macaulay(cx.facets)
        assert not is_cohen_macaulay(cx)
        assert [f.to_dict() for f in kcm_audit(cx, 1).failures] == \
            [{"removed": [], "reason": "not-CM"}]

    @pytest.mark.parametrize("label,m", [("B3", 2), ("D4", 1)])
    def test_link_verdicts_match_link_complexes(self, label, m):
        # every face link of every pure restriction after removing at most
        # two vertices: the face's own reduction against the homology of
        # the link's own complex, and the verdict kept under the face's
        # canonical key (its R_m orbit) against the face's own reduction
        cx, _ = build_complex(build_root_system(label), m)
        audit = topology._audit_of(cx)
        table = audit.table
        tops = [set(f) for f in cx.facets]
        top = cx.dimension() + 1
        own = {}
        for smask, *_ in audit.links:
            face = {v for v in range(len(cx.vertices)) if smask >> v & 1}
            own[smask] = (len(face), [
                [i for i, f in enumerate(table.faces[size])
                 if face <= set(f) and any(set(f) <= t for t in tops)]
                for size in range(len(face), top + 1)])
        checked = 0
        for size in range(3):
            for removed in itertools.combinations(range(len(cx.vertices)), size):
                mask = sum(1 << v for v in removed)
                if audit.failure(mask) not in (None, "not-CM"):
                    continue
                missing = [smask for smask, *_ in audit.links
                           if not smask & mask]
                keys = list(audit.link_keys(mask))
                assert len(keys) == len(missing)
                for smask, key in zip(missing, keys):
                    face = {v for v in range(len(cx.vertices)) if smask >> v & 1}
                    link = [tuple(sorted(f - face)) for f in tops
                            if face <= f and not f & set(removed)]
                    prof = homology(SimplicialComplex(cx.vertices, link))
                    # acyclic below the top dimension of the link
                    want = set(prof.groups()) <= {cx.dimension() - len(face)}
                    k, ups = own[smask]
                    assert audit._acyclic(k, ups, mask) == want, (removed, face)
                    kept = audit.verdicts.get(key)
                    if kept is None:  # past the restriction's first bad link
                        kept = audit._acyclic(*audit.stars[key[0]], key[1])
                    assert kept == want, (removed, face, key)
                    checked += 1
        assert checked > 1000

    def test_cluster_complexes_coreduce_to_their_top_homology(self, monkeypatch):
        # coreduction leaves nothing to eliminate: no integer_rank_torsion
        calls = []
        real = topology.integer_rank_torsion

        def counting(columns):
            calls.append(len(columns))
            return real(columns)

        monkeypatch.setattr(topology, "integer_rank_torsion", counting)
        for label, m in [("A3", 2), ("B3", 2), ("D4", 2), ("H3", 2), ("A4", 2),
                         ("F4", 1), ("E6", 1)]:
            cx, _ = build_complex(build_root_system(label), m)
            for complex_ in (cx, positive_part(cx)):
                assert set(homology(complex_).groups()) <= {cx.dimension()}
        assert calls == []

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(small_complexes())
    def test_cohen_macaulay_matches_dense_reference(self, cx):
        assert is_cohen_macaulay(cx) == dense_cohen_macaulay(cx.facets)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(small_complexes(), st.sampled_from([3, 2, 1]))
    def test_audit_matches_removal_by_removal_reference(self, cx, k):
        rep = kcm_audit(cx, k)
        assert (rep.examined, [f.to_dict() for f in rep.failures]) == \
            reference_audit(cx, k)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(small_complexes(), st.sampled_from([3, 2, 1]),
           st.integers(1, 4))
    def test_capped_audit_reports_structural_failures_first(self, cx, k, cap):
        # the first `cap` dimension or purity failures when there are that
        # many, else the first `cap` failures of any kind, in subset order
        rep = kcm_audit(cx, k, max_failures=cap)
        _, failures = reference_audit(cx, k)
        structural = [f for f in failures if f["reason"] != "not-CM"]
        want = structural[:cap] if len(structural) >= cap else failures[:cap]
        assert [f.to_dict() for f in rep.failures] == want


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
        by_size = faces_by_size(cx.facets)
        for k in range(1, len(by_size)):
            assert_sparse_matches_dense(boundary_matrix(by_size, k))

    def test_remainders_without_unit_entries(self):
        # no entry is a unit, yet the gcd of the entries is 1
        assert integer_rank_torsion([{0: 2, 1: 4}, {0: 3, 1: 5}]) == (2, (2,))
        assert integer_rank_torsion([{0: 2}, {1: 6}]) == (2, (2, 6))
        assert integer_rank_torsion([{0: 2, 1: 2}, {0: -2, 1: -2}]) == (1, (2,))
        assert integer_rank_torsion([{}, {0: 1, 1: 3}]) == (1, ())
