import collections
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercomplexes import cli, topology
from clustercomplexes.colored import (build_complex, negative_simples,
                                      positive_part)
from clustercomplexes.noncrossing import build_Lm, nc_interval, order_complex
from clustercomplexes.roots import build_root_system
from clustercomplexes.simplicial import SimplicialComplex, f_to_h
from clustercomplexes.topology import (ShellingFailure, codim1_incidence,
                                       construct_shelling, fuss_catalan,
                                       homology, is_cohen_macaulay, kcm_audit,
                                       sharpness_witness, verify_shelling)
from conftest import ACCEPTANCE_MATRIX, RP2
from exact_oracles import (kcm_by_shelling, purity_failure_by_all_facets,
                           shelling_by_definition,
                           shelling_by_vertex_decomposition, subsystem)

MATRIX = [(label, m) for label in ("A2", "A3", "B2", "B3", "G2")
          for m in (1, 2, 3)]
# complexes whose shelling orders are reordered against the definition
ORDER_CASES = [("pentagon", None, False)] + [
    (label, m, positive)
    for label, m in [("A2", 1), ("A2", 2), ("B2", 2), ("I2(5)", 2),
                     ("A1xA2", 1)]
    for positive in (False, True)]
# complexes whose shelling is held to exactly the sorted facet list
LEX_CASES = [(label, m) for label in ("A1", "A2", "B2", "G2", "I2(5)",
                                      "A1xA2", "B2xG2") for m in range(4)] + \
    [(label, m) for label in ("A3", "B3", "H3") for m in range(3)] + \
    [("D4", 1)]


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

    @pytest.mark.parametrize("label, m", ACCEPTANCE_MATRIX)
    def test_audit_scan_equals_the_all_facet_scan(self, label, m, complexes):
        # every removal of at most two vertices
        _, cx, _ = complexes(label, m)
        audit = topology._audit_of(cx)
        n = len(cx.vertices)
        for k in (0, 1, 2):
            for removal in itertools.combinations(range(n), k):
                mask = sum(1 << v for v in removal)
                assert audit.purity_failure(mask) == \
                    purity_failure_by_all_facets(cx, mask), removal

    def test_audit_scan_on_an_impure_complex(self):
        # a triangle with a pendant edge and an isolated vertex, every removal
        cx = SimplicialComplex(list("abcdef"),
                               [(0, 1, 2), (1, 2, 3), (3, 4), (5,)])
        audit = topology._audit_of(cx)
        seen = set()
        for mask in range(1 << len(cx.vertices)):
            reason = audit.purity_failure(mask)
            assert reason == purity_failure_by_all_facets(cx, mask), mask
            seen.add(reason)
        assert seen == {None, "impure", "dimension-drop"}


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

    @pytest.mark.parametrize("positive", [False, True],
                             ids=["full", "positive"])
    @pytest.mark.parametrize("label, m", ACCEPTANCE_MATRIX)
    def test_restriction_faces_recover_h_vector(self, label, m, positive,
                                                complexes, positive_complexes):
        rs, cx, _ = complexes(label, m)
        if positive:
            cx = positive_complexes(label, m)
        order = construct_shelling(cx)
        assert order == shelling_by_definition(cx, order.facets)
        hist = collections.Counter(len(r) for r in order.restrictions)
        h = f_to_h(cx.f_vector())
        assert tuple(hist.get(i, 0) for i in range(len(h))) == h
        # the facets whose restriction is the whole facet count the spheres
        spheres = sum(r == f for r, f in zip(order.restrictions, order.facets))
        assert spheres == (fuss_catalan(rs, m - 1, positive=True) if positive
                           else fuss_catalan(rs, m - 1))

    @pytest.mark.parametrize("label, m, positive", ORDER_CASES)
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_the_definition_on_reordered_shellings(
            self, label, m, positive, data, complexes, positive_complexes):
        if label == "pentagon":
            cx = pentagon()
        else:
            cx = positive_complexes(label, m) if positive \
                else complexes(label, m)[1]
        order = list(construct_shelling(cx).facets)
        if data.draw(st.booleans()):
            order = data.draw(st.permutations(order))
        else:
            i = data.draw(st.integers(0, len(order) - 1))
            j = data.draw(st.integers(0, len(order) - 1))
            order[i], order[j] = order[j], order[i]
        assert verify_shelling(cx, order) == shelling_by_definition(cx, order)

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

    @pytest.mark.parametrize("positive", [False, True],
                             ids=["full", "positive"])
    @pytest.mark.parametrize("label, m", LEX_CASES)
    def test_is_the_lexicographic_order(self, label, m, positive, complexes,
                                        positive_complexes):
        # the vertices are numbered in the colored total order, so the
        # lexicographic order is the sorted facet list
        cx = positive_complexes(label, m) if positive else \
            complexes(label, m)[1]
        order = construct_shelling(cx)
        assert order.facets == cx.facets
        assert order == shelling_by_definition(cx, cx.facets)

    def test_a_shellable_path_out_of_index_order_fails(self):
        # (0,2), (2,3), (1,3) is a shelling, but in index order (1,3)
        # meets (0,2) in the empty face alone; the search finds one
        cx = SimplicialComplex(list("abcd"), [(0, 2), (1, 3), (2, 3)])
        with pytest.raises(ShellingFailure, match="step 1") as failure:
            construct_shelling(cx)
        assert failure.value.order.failure == (1, 0)
        assert failure.value.order.facets == cx.facets
        assert verify_shelling(cx, shelling_by_vertex_decomposition(cx)).ok

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


# the acceptance matrix, the products and I2(5), at m = 0 .. 3
RESTRICTION_CASES = [(label, m) for label in ("A2", "A3", "B2", "B3", "G2",
                                              "A1xA1", "A1xA2", "A1xB2",
                                              "A2xA2", "A1xA1xA1", "I2(5)")
                     for m in range(4)]


def _signed(table, k: int, c: int) -> dict:
    """Column c of the cells with k vertices as {row: sign}, by the table's
    rule: entry p omits vertex k - 1 - p and has the sign (-1)^(k-1-p)."""
    return {r: (-1) ** (k - 1 - p) for p, r in enumerate(table.columns[k][c])}


def _assert_chain_complex(table):
    for k in range(1, len(table.faces)):
        below = table.faces[k - 1]
        for c, face in enumerate(table.faces[k]):
            assert [below[r] for r in table.columns[k][c]] == \
                [face[:k - 1 - p] + face[k - p:] for p in range(k)]
            if k < 2:
                continue
            total = collections.Counter()
            for r, sign in _signed(table, k, c).items():
                for rr, inner in _signed(table, k - 1, r).items():
                    total[rr] += sign * inner
            assert not any(total.values()), face


class TestRestrictedHomology:

    @pytest.mark.parametrize("label, m", RESTRICTION_CASES)
    def test_equals_the_induced_complex(self, label, m, complexes):
        # W: the negative simple roots, two seeded random vertex sets, and
        # every vertex, which leaves {()}
        _, cx, _ = complexes(label, m)
        n = len(cx.vertices)
        rng = random.Random("%s/%d" % (label, m))
        negatives = negative_simples(cx)
        removals = [negatives] + [
            sum(1 << v for v in rng.sample(range(n), rng.randrange(n + 1)))
            for _ in range(2)] + [(1 << n) - 1]
        for removed in removals:
            keep = [v for v in range(n) if not removed >> v & 1]
            assert homology(cx, removed=removed).to_dict() == \
                homology(cx.induce(keep)).to_dict(), keep
        assert homology(cx, removed=negatives) == homology(positive_part(cx))
        assert homology(cx, removed=(1 << n) - 1).to_dict() == {
            "betti": [1], "torsion": [[]], "euler_reduced": -1,
            "first_degree": -1}

    def test_the_positive_part_is_outside_the_negative_simples(
            self, complexes):
        for label, m in RESTRICTION_CASES:
            _, cx, _ = complexes(label, m)
            negatives = negative_simples(cx)
            assert [lab for v, lab in enumerate(cx.vertices)
                    if negatives >> v & 1] == \
                [lab for lab in cx.vertices if lab.startswith("-s")]
            assert positive_part(cx).vertices == tuple(
                lab for v, lab in enumerate(cx.vertices)
                if not negatives >> v & 1)

    @pytest.mark.parametrize("label, m", RESTRICTION_CASES)
    def test_boundary_squares_to_zero(self, label, m, complexes,
                                      positive_complexes):
        _, cx, _ = complexes(label, m)
        for complex_ in (cx, positive_complexes(label, m)):
            _assert_chain_complex(topology._table_of(complex_))

    def test_boundary_squares_to_zero_on_an_order_complex(self):
        L = build_Lm(nc_interval(build_root_system("A3")), 2)
        _assert_chain_complex(
            topology._table_of(order_complex(L, range(1, len(L)))))


class TestSphereCounts:

    def test_formula_values(self):
        assert fuss_catalan(build_root_system("A2"), 1, positive=True) == 2
        assert fuss_catalan(build_root_system("A2"), 0, positive=True) == 0
        assert fuss_catalan(build_root_system("A3"), 1, positive=True) == 5

    def test_multiplicative_over_components(self):
        rs = build_root_system("A1xA1")
        assert fuss_catalan(rs, 2, positive=True) == \
            fuss_catalan(build_root_system("A1"), 2, positive=True) ** 2

    def test_wedge_verification(self, complexes, positive_complexes):
        assert homology(positive_complexes("A2", 2)).concentrated(1, 2)
        assert homology(complexes("A2", 2)[1]).concentrated(1, 5)
        simplex = SimplicialComplex(list("ab"), [(0, 1)])
        assert homology(simplex).concentrated(4, 0)

    def test_euler_identity_across_matrix(self, positive_complexes):
        for label, m in MATRIX:
            rs = build_root_system(label)
            pos = positive_complexes(label, m)
            chi = pos.euler_characteristic_reduced()
            want = fuss_catalan(rs, m - 1, positive=True)
            assert chi == (-1) ** (rs.rank - 1) * want

    def test_positive_parts_are_sphere_wedges(self, positive_complexes):
        cases = [("A2", 1), ("A2", 2), ("A2", 3), ("B2", 1), ("B2", 2),
                 ("B2", 3), ("G2", 1), ("G2", 2), ("A3", 1), ("A3", 2),
                 ("B3", 1)]
        for label, m in cases:
            rs = build_root_system(label)
            pos = positive_complexes(label, m)
            want = fuss_catalan(rs, m - 1, positive=True)
            assert homology(pos).concentrated(rs.rank - 1, want), (label, m)

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
                    sub = subsystem([rs.simple_roots[i] for i in keep])
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
                sub = subsystem([rs.simple_roots[i] for i in keep])
                total += fuss_catalan(sub, 1, positive=True)
        assert abs(cx.euler_characteristic_reduced()) == total == 5


class TestKCM:

    def test_coreduction_pairs_every_cell_of_these_audits(self, monkeypatch):
        # breadth-first coreduction leaves no column to eliminate; last
        # queued first left six blocks of full row rank on these audits
        calls = []
        real = topology.integer_rank_torsion

        def counting(columns):
            calls.append(len(columns))
            return real(columns)

        monkeypatch.setattr(topology, "integer_rank_torsion", counting)
        cx, _ = build_complex(build_root_system("B3"), 2)
        assert kcm_audit(cx, 3).passed
        assert not kcm_audit(cx, 4, sizes=[3], max_failures=1).passed
        cx, _ = build_complex(build_root_system("A3"), 3)
        assert kcm_audit(cx, 4, mode="sample", seed=1).passed
        assert calls == []
        # torsion still reaches the elimination
        assert homology(SimplicialComplex(list("abcdef"), RP2)).torsion[1] \
            == (2,)
        assert calls

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

    @pytest.mark.parametrize("label,m", [
        ("A2", 1), ("A2", 2), ("A2", 3), ("B2", 1), ("B2", 2), ("G2", 1),
        ("A3", 1), ("B3", 1), ("I2(5)", 2), ("A1xA2", 2)])
    def test_shelling_route_agrees_on_every_removal(self, label, m):
        # the sharp audits fail on some removals, so the two routes are
        # held to the same failures, removal by removal and reason by reason
        cx, _ = build_complex(build_root_system(label), m)
        for complex_, k in ((cx, m + 2), (positive_part(cx), m + 1)):
            report = kcm_audit(complex_, k)
            assert not report.passed
            assert report.to_dict() == kcm_by_shelling(complex_, k).to_dict()

    def test_sampled_mode_reproducible(self, complexes):
        _, cx, _ = complexes("A3", 2)
        a = kcm_audit(cx, 4, mode="sample", sample_count=25, seed=11)
        b = kcm_audit(cx, 4, mode="sample", sample_count=25, seed=11)
        assert [f.to_dict() for f in a.failures] == \
            [f.to_dict() for f in b.failures]
        assert a.examined == b.examined
        assert a.seed == 11
        # the drawn removals are scanned in subset order
        index = {lab: v for v, lab in enumerate(cx.vertices)}
        drawn = [tuple(index[lab] for lab in f.removed) for f in kcm_audit(
            cx, 8, mode="sample", sample_count=40, seed=11).failures]
        assert len(drawn) > 1 and drawn == sorted(drawn)

    def test_worker_pool_matches_serial(self, complexes):
        _, cx, _ = complexes("A2", 2)
        serial = kcm_audit(cx, 4)
        parallel = kcm_audit(cx, 4, workers=2)
        assert [f.to_dict() for f in serial.failures] == \
            [f.to_dict() for f in parallel.failures]
        assert serial.examined == parallel.examined

    def test_worker_pool_honours_max_failures(self, pool_sizes):
        # RP2 and RP2 minus a vertex (a Moebius band) are pure and not CM:
        # the bitset first pass finds no failure, so the full search runs,
        # in the pool when there is one
        cx = SimplicialComplex([str(v) for v in range(6)], RP2)
        serial = kcm_audit(cx, 2, max_failures=2)
        assert pool_sizes == []
        parallel = kcm_audit(cx, 2, max_failures=2, workers=2)
        assert pool_sizes == [2]
        assert [f.to_dict() for f in serial.failures] == [
            {"removed": [], "reason": "not-CM"},
            {"removed": ["0"], "reason": "not-CM"}]
        assert serial.examined == 2
        assert parallel.to_dict() == serial.to_dict()

    @pytest.mark.parametrize("label,m", MATRIX)
    def test_witness_is_the_first_failing_removal(self, label, m, complexes):
        # every witness on the matrix is structural, so the first pass finds
        # the first removal that fails in subset order
        _, cx, _ = complexes(label, m)
        report = kcm_audit(cx, m + 2, sizes=[m + 1], max_failures=1)
        decide = topology._audit_of(cx).failure
        removals = itertools.combinations(range(len(cx.vertices)), m + 1)
        examined, (removed, reason) = next(
            (i, (r, why)) for i, r in enumerate(removals, 1)
            if (why := decide(sum(1 << v for v in r))) is not None)
        assert [f.to_dict() for f in report.failures] == [
            {"removed": [cx.vertices[v] for v in removed], "reason": reason}]
        assert report.examined == examined

    def test_structural_failures_come_first(self):
        # two triangles at a vertex: the complex itself is not CM (the link
        # of the shared vertex is two edges), each removal of an outer
        # vertex leaves it impure
        cx = SimplicialComplex(list("abcde"), [(0, 1, 2), (2, 3, 4)])
        everything = kcm_audit(cx, 2)
        assert everything.failures[0].to_dict() == \
            {"removed": [], "reason": "not-CM"}
        first = kcm_audit(cx, 2, max_failures=1)
        assert [f.to_dict() for f in first.failures] == [
            {"removed": ["a"], "reason": "impure"}]
        assert first.examined == 2
        # too few structural failures: the full search, in subset order
        capped = kcm_audit(cx, 2, max_failures=len(everything.failures))
        assert capped.to_dict() == everything.to_dict()

    def test_audit_reduces_each_link_once(self, monkeypatch):
        # every removal of a passing audit reaches every link of a face it
        # misses; each canonical key (the R_m orbit of the face and of the
        # removed part of its star) is reduced once, on the orbit's base.  A
        # complex keeps its link verdicts, so this one is built afresh
        decided, reduced = [], []
        real_cm = topology._Audit.failure
        real_acyclic = topology._Audit._acyclic

        def deciding(audit, removed=0):
            decided.append((audit, removed))
            return real_cm(audit, removed)

        def reducing(audit, base, ups, removed):
            if base:  # not the restriction itself
                reduced.append((id(ups), removed))
            return real_acyclic(audit, base, ups, removed)

        monkeypatch.setattr(topology._Audit, "failure", deciding)
        monkeypatch.setattr(topology._Audit, "_acyclic", reducing)
        cx, _ = build_complex(build_root_system("B3"), 2)
        assert kcm_audit(cx, 3).passed
        (audit,) = {a for a, _ in decided}
        keys = {key for _, removed in decided
                for key in audit.link_keys(removed)}
        assert len(reduced) == len(set(reduced)) == len(keys) == 115
        assert set(reduced) == {(id(audit.stars[orbit][1]), part)
                                for orbit, part in keys}
        # one key per face and removed part of its star would be 196; the
        # count depends on the removal each orbit is decided on, its first
        # in index order
        assert len({(smask, removed & lmask) for _, removed in decided
                    for smask, lmask, _, _ in audit.links
                    if not smask & removed}) == 196

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
        for cap in (0, -3):
            with pytest.raises(ValueError, match="max_failures"):
                kcm_audit(cx, 2, max_failures=cap)
        with pytest.raises(ValueError, match="sample_count"):
            kcm_audit(cx, 2, mode="sample", sample_count=0)


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
        # the witness is structural, so the first pass finds it before any
        # pool is started
        assert pool_sizes == [2, 2]

    def test_each_orbit_is_decided_once(self, complexes, monkeypatch):
        # B3 m=2: R_m has order 7, and the 232 removals of the exhaustive
        # 3-CM audit fall into 34 orbits
        calls = []
        real = topology._Audit.failure

        def counting(audit, removed=0):
            calls.append(removed)
            return real(audit, removed)

        monkeypatch.setattr(topology._Audit, "failure", counting)
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
        with pytest.raises(RuntimeError, match="not an automorphism"):
            is_cohen_macaulay(swapped)
        # the shelling route uses no symmetry
        assert kcm_by_shelling(swapped, 2).passed


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


# the acceptance matrix with rank 1, a dihedral type and two products, and
# the positive parts at m >= 1
WITNESS_CASES = [(label, m, positive)
                 for label in ("A2", "A3", "B2", "B3", "G2", "A1", "I2(5)",
                               "A1xA2", "A1xB2")
                 for m in range(4) for positive in (False, True)
                 if m or not positive]


class TestSharpnessWitness:

    @pytest.mark.parametrize("label, m, positive", WITNESS_CASES)
    def test_the_witness_is_the_first_failure_of_the_capped_scan(
            self, label, m, positive, complexes, positive_complexes):
        # a ridge of the complex lies in m+1 facets, a boundary ridge of
        # the positive part in m
        cx = positive_complexes(label, m) if positive else complexes(label, m)[1]
        size = m if positive else m + 1
        witness = sharpness_witness(cx)
        scan = kcm_audit(cx, size + 1, sizes=[size], max_failures=1)
        assert witness.to_dict() == scan.failures[0].to_dict()
        index = {lab: v for v, lab in enumerate(cx.vertices)}
        mask = sum(1 << index[lab] for lab in witness.removed)
        assert witness.reason == purity_failure_by_all_facets(cx, mask)

    def test_no_ridge_no_witness(self):
        assert sharpness_witness(SimplicialComplex([], [()])) is None

    def test_impure_rejected(self):
        cx = SimplicialComplex(list("abc"), [(0, 1), (2,)])
        with pytest.raises(ValueError, match="pure complex"):
            sharpness_witness(cx)

    @pytest.mark.parametrize("label, m", [("A1", 0), ("A1xB2", 1), ("B2", 2)])
    def test_verify_all_runs_no_capped_scan(self, label, m, monkeypatch,
                                           capsys):
        calls = []
        real = cli.kcm_audit

        def recording(cx, k, **kwargs):
            calls.append((k, kwargs.get("max_failures")))
            return real(cx, k, **kwargs)

        monkeypatch.setattr(cli, "kcm_audit", recording)
        assert cli.run(["verify-all", "--phi", label, "--m", str(m),
                        "--format", "json"]) == 0
        assert calls == [(m + 1, None)]
        (check,) = [c for c in json.loads(capsys.readouterr().out)["checks"]
                    if c["id"] == "kcm-witness"]
        assert check["ok"] and len(check["detail"]["witness"]["removed"]) == m + 1
