import collections
import itertools

import pytest

from clustercomplexes import topology
from clustercomplexes.colored import build_complex, positive_part
from clustercomplexes.roots import build_root_system
from clustercomplexes.simplicial import SimplicialComplex, f_to_h
from clustercomplexes.topology import (ShellingFailure, codim1_incidence,
                                       construct_shelling,
                                       fuss_narayana_positive, homology,
                                       is_cohen_macaulay, kcm_audit,
                                       verify_shelling, verify_wedge)

MATRIX = [(label, m) for label in ("A2", "A3", "B2", "B3", "G2")
          for m in (1, 2, 3)]


def pentagon():
    return SimplicialComplex(
        list("abcde"), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def pentagon_cyclic_order(cx):
    order = [cx.facets[0]]
    rest = list(cx.facets[1:])
    while rest:
        nxt = next(f for f in rest if set(f) & set(order[-1]))
        order.append(nxt)
        rest.remove(nxt)
    return order


class TestPurity:

    def test_a2_m2(self, complexes):
        _, cx, _ = complexes("A2", 2)
        assert cx.is_pure() and cx.dimension() == 1

    def test_impure(self):
        cx = SimplicialComplex(list("abc"), [(0, 1), (2,)])
        assert not cx.is_pure()

    def test_positive_parts_pure(self, positive_complexes):
        for label, m in MATRIX:
            pos = positive_complexes(label, m)
            rank = build_root_system(label).rank
            assert pos.is_pure() and pos.dimension() == rank - 1

    def test_empty_complex(self):
        cx = SimplicialComplex([], [])
        assert cx.dimension() == -1 and cx.is_pure()


class TestVerifyShelling:

    def test_simplex_any_order(self):
        cx = SimplicialComplex(list("abcd"), [(0, 1, 2, 3)])
        assert verify_shelling(cx, cx.facets).ok

    def test_pentagon_cycle(self):
        cx = pentagon()
        assert verify_shelling(cx, pentagon_cyclic_order(cx)).ok

    def test_pentagon_disconnected_prefix_fails(self):
        cx = pentagon()
        order = pentagon_cyclic_order(cx)
        swapped = [order[-1]] + order[1:-1] + [order[0]]
        check = verify_shelling(cx, swapped)
        assert not check.ok
        assert check.failure is not None

    def test_restriction_faces_recover_h_vector(self, complexes):
        _, cx, _ = complexes("A2", 2)
        order = construct_shelling(cx)
        hist = collections.Counter(len(r) for r in order.restrictions)
        h = f_to_h(cx.f_vector())
        assert tuple(hist.get(i, 0) for i in range(len(h))) == h

    def test_rejects_non_permutations(self):
        cx = pentagon()
        with pytest.raises(ValueError):
            verify_shelling(cx, cx.facets[:3])

    def test_rejects_impure(self):
        cx = SimplicialComplex(list("abc"), [(0, 1), (2,)])
        with pytest.raises(ValueError):
            verify_shelling(cx, cx.facets)


class TestConstructShelling:

    def test_pentagon(self):
        order = construct_shelling(pentagon())
        assert len(order) == 5

    def test_full_matrix_and_positive_parts(self, complexes, positive_complexes):
        for label, m in MATRIX:
            _, cx, _ = complexes(label, m)
            order = construct_shelling(cx)
            assert verify_shelling(cx, order.facets).ok
            pos = positive_complexes(label, m)
            order_p = construct_shelling(pos)
            assert verify_shelling(pos, order_p.facets).ok

    def test_join_of_shellable_is_shellable(self):
        rs = build_root_system("A1xA1")
        cx, _ = build_complex(rs, 1)
        assert verify_shelling(cx, construct_shelling(cx).facets).ok

    def test_nonshellable_raises(self):
        # two triangles glued at a vertex: pure, connected, not shellable
        cx = SimplicialComplex(list("abcde"), [(0, 1, 2), (2, 3, 4)])
        with pytest.raises(ShellingFailure):
            construct_shelling(cx)

    def test_shellable_implies_wedge_profile(self, complexes):
        for label, m in [("A2", 2), ("B2", 2), ("A3", 2)]:
            _, cx, _ = complexes(label, m)
            prof = homology(cx)
            top = cx.dimension()
            assert all(b == 0 for b in prof.betti[:top])
            assert all(not t for t in prof.torsion)
            assert prof.betti[top] == abs(prof.euler_reduced)

    def test_h_vector_nonnegative_for_shellable(self, complexes):
        for label, m in MATRIX:
            _, cx, _ = complexes(label, m)
            h = f_to_h(cx.f_vector())
            assert all(x >= 0 for x in h)
            assert sum(h) == len(cx.facets)


class TestHomology:

    def test_pentagon_is_a_circle(self):
        prof = homology(pentagon())
        assert prof.betti == (0, 1) and prof.torsion == ((), ())

    def test_positive_a2_m2_is_two_circles(self, positive_complexes):
        prof = homology(positive_complexes("A2", 2))
        assert prof.betti == (0, 2)

    def test_simplex_contractible(self):
        cx = SimplicialComplex(list("abcd"), [(0, 1, 2, 3)])
        assert homology(cx).is_trivial()

    def test_torsion_detected(self):
        # minimal 6-vertex triangulation of the projective plane
        cx = SimplicialComplex(["v%d" % i for i in range(6)], [
            (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 3, 4), (0, 4, 5),
            (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)])
        assert all(c == 2 for c in codim1_incidence(cx))  # closed surface
        prof = homology(cx)
        assert prof.betti == (0, 0, 0)
        assert prof.torsion[1] == (2,)

    def test_disconnected(self):
        cx = SimplicialComplex(list("abcd"), [(0, 1), (2, 3)])
        assert homology(cx).betti[0] == 1

    def test_empty_face_complex_is_the_minus_one_sphere(self):
        for cx in (SimplicialComplex([], []), SimplicialComplex(["a"], [()])):
            prof = homology(cx)
            assert prof.betti == (1,) and prof.first_degree == -1
            assert prof.concentrated(-1, 1) and not prof.is_trivial()
            assert prof.to_dict() == {"betti": [1], "torsion": [[]],
                                      "euler_reduced": -1, "first_degree": -1}

    def test_profiles_of_nonempty_complexes_start_at_degree_zero(self):
        prof = homology(pentagon())
        assert prof.first_degree == 0 and "first_degree" not in prof.to_dict()
        assert prof.groups() == {1: (1, ())}


class TestSphereCounts:

    def test_formula_values(self):
        assert fuss_narayana_positive(build_root_system("A2"), 1) == 2
        assert fuss_narayana_positive(build_root_system("A2"), 0) == 0
        assert fuss_narayana_positive(build_root_system("A3"), 1) == 5

    def test_multiplicative_over_components(self):
        rs = build_root_system("A1xA1")
        assert fuss_narayana_positive(rs, 2) == \
            fuss_narayana_positive(build_root_system("A1"), 2) ** 2

    def test_wedge_verification(self, complexes, positive_complexes):
        assert verify_wedge(positive_complexes("A2", 2), 2, 1)
        assert verify_wedge(complexes("A2", 2)[1], 5, 1)
        simplex = SimplicialComplex(list("ab"), [(0, 1)])
        assert verify_wedge(simplex, 0, 4)

    def test_euler_identity_across_matrix(self, positive_complexes):
        for label, m in MATRIX:
            rs = build_root_system(label)
            pos = positive_complexes(label, m)
            chi = pos.euler_characteristic_reduced()
            want = fuss_narayana_positive(rs, m - 1)
            assert chi == (-1) ** (rs.rank - 1) * want

    def test_positive_parts_are_sphere_wedges(self, positive_complexes):
        cases = [("A2", 1), ("A2", 2), ("A2", 3), ("B2", 1), ("B2", 2),
                 ("B2", 3), ("G2", 1), ("G2", 2), ("A3", 1), ("A3", 2),
                 ("B3", 1)]
        for label, m in cases:
            rs = build_root_system(label)
            pos = positive_complexes(label, m)
            want = fuss_narayana_positive(rs, m - 1)
            assert verify_wedge(pos, want, rs.rank - 1), (label, m)

    def test_inclusion_exclusion_identity(self):
        # the alternating sum over parabolic subsets ties the full complex
        # to the positive parts
        for label, m in [("A3", 1), ("A3", 2), ("B3", 2)]:
            rs = build_root_system(label)
            n = rs.rank
            lhs_sign = 1 if (n - 1) % 2 == 0 else -1
            lhs = lhs_sign * build_complex(rs, m)[0].euler_characteristic_reduced()
            rhs = 0
            for size in range(n + 1):
                sign = 1 if (size - 1) % 2 == 0 else -1
                for keep in itertools.combinations(range(n), size):
                    sub = rs.subsystem([rs.simple_roots[i] for i in keep])
                    cx, _ = build_complex(sub, m)
                    rhs += sign * positive_part(cx).euler_characteristic_reduced()
            assert lhs == rhs, (label, m, lhs, rhs)

    def test_wedge_count_equals_parabolic_sum(self):
        # sphere count of the full complex as a sum over parabolic subsets
        rs = build_root_system("A2")
        cx, _ = build_complex(rs, 2)
        total = 0
        for size in range(rs.rank + 1):
            for keep in itertools.combinations(range(rs.rank), size):
                sub = rs.subsystem([rs.simple_roots[i] for i in keep])
                total += fuss_narayana_positive(sub, 1)
        assert abs(cx.euler_characteristic_reduced()) == total == 5


class TestKCM:

    def test_full_complex_passes_at_m_plus_one(self, complexes):
        for label, m in [("A2", 1), ("A2", 2), ("A2", 3), ("A3", 1), ("A3", 2)]:
            _, cx, _ = complexes(label, m)
            report = kcm_audit(cx, m + 1)
            assert report.passed, (label, m, report.failures[:1])

    def test_full_complex_fails_at_m_plus_two(self, complexes):
        for label, m in [("A2", 1), ("A2", 2), ("A2", 3), ("A3", 1), ("A3", 2)]:
            _, cx, _ = complexes(label, m)
            report = kcm_audit(cx, m + 2, sizes=[m + 1], max_failures=1)
            assert not report.passed
            assert len(report.failures[0].removed) == m + 1

    def test_positive_part_passes_at_m(self, positive_complexes):
        for label, m in [("A2", 1), ("A2", 2), ("A2", 3), ("A3", 1), ("A3", 2)]:
            pos = positive_complexes(label, m)
            assert kcm_audit(pos, m).passed

    def test_positive_part_fails_at_m_plus_one(self, positive_complexes):
        for label, m in [("A2", 1), ("A2", 2), ("A2", 3), ("A3", 1), ("A3", 2)]:
            pos = positive_complexes(label, m)
            report = kcm_audit(pos, m + 1, sizes=[m], max_failures=1)
            assert not report.passed

    def test_shelling_mode_agrees(self, complexes):
        _, cx, _ = complexes("A2", 2)
        assert kcm_audit(cx, 3, cm_check="shelling").passed

    def test_sampled_mode_reproducible(self, complexes):
        _, cx, _ = complexes("A3", 2)
        a = kcm_audit(cx, 4, mode="sample", sample_count=25, seed=11)
        b = kcm_audit(cx, 4, mode="sample", sample_count=25, seed=11)
        assert [f.to_dict() for f in a.failures] == \
            [f.to_dict() for f in b.failures]
        assert a.examined == b.examined
        assert a.seed == 11

    def test_worker_pool_matches_serial(self, complexes):
        _, cx, _ = complexes("A2", 2)
        serial = kcm_audit(cx, 4)
        parallel = kcm_audit(cx, 4, workers=2)
        assert [f.to_dict() for f in serial.failures] == \
            [f.to_dict() for f in parallel.failures]
        assert serial.examined == parallel.examined

    def test_worker_pool_honours_max_failures(self, complexes, pool_sizes):
        _, cx, _ = complexes("A2", 2)
        serial = kcm_audit(cx, 4, max_failures=2)
        assert pool_sizes == []
        parallel = kcm_audit(cx, 4, max_failures=2, workers=2)
        assert pool_sizes == [2]
        assert len(serial.failures) == 2
        assert parallel.to_dict() == serial.to_dict()

    def test_audit_computes_each_link_once(self, complexes, monkeypatch):
        seen = []
        real = topology.homology

        def counting(cx):
            seen.append(cx.facets)
            return real(cx)

        monkeypatch.setattr(topology, "homology", counting)
        _, cx, _ = complexes("B3", 2)
        assert kcm_audit(cx, 3).passed
        assert seen and len(seen) == len(set(seen))

    def test_reisner_criterion_basics(self):
        assert is_cohen_macaulay(pentagon())
        two_triangles = SimplicialComplex(list("abcde"), [(0, 1, 2), (2, 3, 4)])
        assert not is_cohen_macaulay(two_triangles)

    def test_reisner_with_deep_links(self):
        # rank 4 forces iterated links (faces of size two and more)
        rs = build_root_system("D4")
        cx, _ = build_complex(rs, 1)
        assert is_cohen_macaulay(cx)
        rep = kcm_audit(cx, 2)
        assert rep.passed and rep.examined == len(cx.vertices) + 1

    def test_invalid_parameters(self, complexes):
        _, cx, _ = complexes("A2", 1)
        with pytest.raises(ValueError):
            kcm_audit(cx, 0)
        with pytest.raises(ValueError):
            kcm_audit(cx, 2, mode="nope")
        with pytest.raises(ValueError):
            kcm_audit(cx, 2, workers=0)
        with pytest.raises(ValueError):
            kcm_audit(cx, 2, cm_check="nope")


AUDITS = ("exhaustive", "sample", "witness")


def orbit_and_plain(cx, m, audit, **extra):
    """An audit of cx, and the same audit, serial, of cx without symmetry.

    The audits are the exhaustive (m+1)-CM audit, a sampled (m+2)-CM audit
    and the search for a removal of size m+1 that breaks (m+2)-CM.
    """
    k, kwargs = {
        "exhaustive": (m + 1, {}),
        "sample": (m + 2, {"mode": "sample", "sample_count": 60, "seed": 5}),
        "witness": (m + 2, {"sizes": [m + 1], "max_failures": 1}),
    }[audit]
    plain = SimplicialComplex(cx.vertices, cx.facets)
    assert plain.symmetry is None
    return (kcm_audit(cx, k, **kwargs, **extra).to_dict(),
            kcm_audit(plain, k, **kwargs).to_dict())


class TestOrbitAudit:

    @pytest.mark.parametrize("audit", AUDITS)
    @pytest.mark.parametrize("label,m", MATRIX + [("A1xA2", 2), ("I2(5)", 2)])
    def test_orbit_audit_equals_plain_audit(self, label, m, audit, complexes):
        if label in ("A1xA2", "I2(5)"):
            cx, _ = build_complex(build_root_system(label), m)
        else:
            _, cx, _ = complexes(label, m)
        assert cx.symmetry is not None
        orbit, plain = orbit_and_plain(cx, m, audit)
        assert orbit == plain

    def test_worker_pool_splits_the_orbit_keys(self, complexes, pool_sizes):
        _, cx, _ = complexes("B3", 2)
        for audit in AUDITS:
            orbit, plain = orbit_and_plain(cx, 2, audit, workers=2)
            assert orbit == plain
        assert pool_sizes == [2] * len(AUDITS)

    def test_each_orbit_is_decided_once(self, complexes, monkeypatch):
        # B3 m=2: R_m has order 7, and the 232 removals of the exhaustive
        # 3-CM audit fall into 34 orbits
        calls = []
        real = topology._FaceTable.cm_failure

        def counting(table, removed=0):
            calls.append(removed)
            return real(table, removed)

        monkeypatch.setattr(topology._FaceTable, "cm_failure", counting)
        _, cx, _ = complexes("B3", 2)
        report = kcm_audit(cx, 3)
        assert report.passed and report.examined == 232
        assert len(calls) == len(set(calls)) == 34

    def test_symmetry_must_be_an_automorphism(self):
        cx = pentagon()
        rotated = SimplicialComplex(cx.vertices, cx.facets,
                                    symmetry=[1, 2, 3, 4, 0])
        assert kcm_audit(rotated, 2).to_dict() == kcm_audit(cx, 2).to_dict()
        # a transposition is no automorphism of a 5-cycle
        swapped = SimplicialComplex(cx.vertices, cx.facets,
                                    symmetry=[1, 0, 2, 3, 4])
        with pytest.raises(RuntimeError, match="not an automorphism"):
            kcm_audit(swapped, 2)
        # the shelling route uses no symmetry
        assert kcm_audit(swapped, 2, cm_check="shelling").passed


class TestIncidence:

    def test_pentagon_vertices_in_two_edges(self, complexes):
        _, cx, _ = complexes("A2", 1)
        assert codim1_incidence(cx) == {2: 5}

    def test_a2_m2_concentrated_at_three(self, complexes):
        _, cx, _ = complexes("A2", 2)
        assert codim1_incidence(cx) == {3: 8}

    def test_positive_part_has_m_fold_faces(self, positive_complexes):
        hist = codim1_incidence(positive_complexes("A2", 2))
        assert 2 in hist  # some vertex lies in exactly m facets

    def test_full_matrix_concentrated(self, complexes):
        for label, m in MATRIX:
            _, cx, _ = complexes(label, m)
            hist = codim1_incidence(cx)
            assert set(hist) == {m + 1}, (label, m, hist)

    def test_impure_rejected(self):
        cx = SimplicialComplex(list("abc"), [(0, 1), (2,)])
        with pytest.raises(ValueError):
            codim1_incidence(cx)
