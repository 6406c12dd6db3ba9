import itertools

import pytest

from clustercomplexes.colored import positive_part
from clustercomplexes.coxeter import bipartite_coxeter
from clustercomplexes.noncrossing import (MultichainTuple, PosetView,
                                          build_Lm, face_to_tuple,
                                          face_tuple_table, fiber_complex,
                                          homotopy_compare, moebius,
                                          nc_interval, order_complex,
                                          truncate)
from clustercomplexes.roots import build_root_system
from clustercomplexes.topology import fuss_narayana_positive, homology


def identity_of(interval):
    return next(w for w in interval.elements if w.is_identity())


class TestInterval:

    def test_a2_has_five_elements(self):
        interval = nc_interval(build_root_system("A2"))
        assert len(interval) == 5
        assert sorted(w.length for w in interval.elements) == [0, 1, 1, 1, 2]

    def test_a1(self):
        assert len(nc_interval(build_root_system("A1"))) == 2

    def test_a3_counts_noncrossing_partitions(self):
        assert len(nc_interval(build_root_system("A3"))) == 14

    def test_square_of_coxeter_element_outside(self):
        rs = build_root_system("A2")
        interval = nc_interval(rs)
        gamma = interval.gamma
        assert all(w != gamma * gamma for w in interval.elements)


class TestMultichainPoset:

    def test_m1_collapses_to_the_interval(self):
        rs = build_root_system("A2")
        L = build_Lm(rs, 1)
        assert len(L.elements) == len(nc_interval(rs))

    def test_a2_m2_rank_counts(self):
        L = build_Lm(build_root_system("A2"), 2)
        by_rank = {}
        for t in L.elements:
            by_rank[t.rank] = by_rank.get(t.rank, 0) + 1
        assert by_rank == {0: 1, 1: 6, 2: 5}

    def test_unique_bottom(self):
        L = build_Lm(build_root_system("A2"), 2)
        bottom = L.minimum()
        assert bottom.rank == 0
        assert all(w.is_identity() for w in bottom.words)

    def test_membership_requires_additive_lengths(self):
        rs = build_root_system("A2")
        gamma = bipartite_coxeter(rs)
        L = build_Lm(rs, 2)
        keys = {t.key() for t in L.elements}
        assert (gamma.perm, gamma.perm) not in keys

    def test_downward_closure(self):
        rs = build_root_system("A2")
        interval = nc_interval(rs)
        for m in (1, 2, 3):
            L = build_Lm(rs, m)
            keys = {t.key() for t in L.elements}
            for t in L.elements:
                for smaller in itertools.product(interval.elements, repeat=m):
                    cand = MultichainTuple(tuple(smaller))
                    if cand.leq(t):
                        assert cand.key() in keys

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            build_Lm(build_root_system("A1"), 0)


class TestMoebius:

    def test_two_chain(self):
        chain = PosetView([0, 1], lambda a, b: a <= b, lambda x: x)
        assert moebius(chain, 0, 1) == -1

    def test_incomparable_rejected(self):
        antichain = PosetView([0, 1], lambda a, b: a == b, lambda x: 0)
        with pytest.raises(ValueError):
            moebius(antichain, 0, 1)

    @pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3"])
    def test_bottom_to_top_counts_positive_facets(self, label, complexes,
                                                  positive_complexes):
        rs, cx, _ = complexes(label, 1)
        interval = nc_interval(rs)
        p = interval.poset()
        mu = moebius(p, identity_of(interval), interval.gamma)
        facets = len(positive_complexes(label, 1).facets)
        sign = 1 if rs.rank % 2 == 0 else -1
        assert mu == sign * facets


class TestFaceToTuple:

    def test_facet_of_two_colors(self, complexes, positive_complexes):
        rs, cx, _ = complexes("A2", 2)
        pos = positive_complexes("A2", 2)
        idx = {lab: i for i, lab in enumerate(pos.vertices)}
        sigma = [pos.objects[idx["[0,1]:1"]], pos.objects[idx["[1,0]:2"]]]
        t = face_to_tuple(rs, 2, sigma)
        assert t.rank == 2
        assert [w.length for w in t.words] == [1, 1]
        assert t.words[0] * t.words[1] == bipartite_coxeter(rs)

    def test_singleton_slot_placement(self, complexes):
        rs, cx, _ = complexes("A2", 2)
        pos = positive_part(cx)
        for i, v in enumerate(pos.objects):
            t = face_to_tuple(rs, 2, [v])
            assert t.rank == 1
            # color i lands in slot m - i + 1 (1-indexed from the left)
            slot = 2 - v.color  # 0-indexed
            assert t.words[slot].length == 1

    def test_rank_equals_size_everywhere(self, complexes, positive_complexes):
        for label, m in [("A2", 1), ("A2", 2), ("B2", 2)]:
            rs, cx, _ = complexes(label, m)
            pos = positive_complexes(label, m)
            for face, t in face_tuple_table(rs, m, pos).items():
                assert t.rank == len(face)

    def test_order_preserving(self, complexes, positive_complexes):
        rs, _, _ = complexes("A2", 2)
        pos = positive_complexes("A2", 2)
        table = face_tuple_table(rs, 2, pos)
        assert len(table) == 13
        for tau_face, tau_t in table.items():
            for sigma_face, sigma_t in table.items():
                if set(tau_face) <= set(sigma_face):
                    assert tau_t.leq(sigma_t)

    def test_empty_face_rejected(self):
        rs = build_root_system("A2")
        with pytest.raises(ValueError):
            face_to_tuple(rs, 1, [])


class TestOrderComplexes:

    def test_two_chain_gives_a_segment(self):
        chain = PosetView([0, 1], lambda a, b: a <= b, lambda x: x)
        cx = order_complex(chain)
        assert cx.f_vector() == (1, 2, 1)

    def test_interval_minus_bottom_contractible(self):
        rs = build_root_system("A2")
        interval = nc_interval(rs)
        p = interval.poset()
        cx = order_complex(p, strip=[identity_of(interval)])
        assert homology(cx).is_trivial()

    def test_truncated_poset_is_an_antichain(self):
        L = build_Lm(build_root_system("A2"), 2)
        t = truncate(L, 1)
        cx = order_complex(t, strip=[L.minimum()])
        assert cx.dimension() == 0
        assert len(cx.vertices) == 6

    def test_wedge_ranks_match_sphere_counts(self):
        for label, m in [("A2", 1), ("A2", 2), ("A2", 3), ("B2", 2)]:
            rs = build_root_system(label)
            L = build_Lm(rs, m)
            cx = order_complex(L, strip=[L.minimum()])
            want = fuss_narayana_positive(rs, m - 1)
            assert homology(cx).concentrated(rs.rank - 1, want)


class TestHomotopyCompare:

    @pytest.mark.parametrize("m,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_a2(self, m, k, complexes, positive_complexes):
        rs, _, _ = complexes("A2", m)
        report = homotopy_compare(rs, m, k,
                                  pos_cx=positive_complexes("A2", m))
        assert report.ok
        assert not report.fiber_failures

    def test_a3_m2_all_k(self, complexes, positive_complexes):
        rs, _, _ = complexes("A3", 2)
        pos = positive_complexes("A3", 2)
        L = build_Lm(rs, 2)
        for k in (1, 2, 3):
            report = homotopy_compare(rs, 2, k, pos_cx=pos, poset=L,
                                      check_fibers=(k == 3))
            assert report.ok, (k, report)

    def test_k_range_validated(self):
        rs = build_root_system("A2")
        with pytest.raises(ValueError):
            homotopy_compare(rs, 1, 3)

    def test_fibers_are_joins_of_below_complexes(self, complexes,
                                                 positive_complexes):
        # the fiber over a tuple equals the faces below it componentwise;
        # spot-check euler characteristics are those of cones (contractible)
        rs, _, _ = complexes("A2", 2)
        pos = positive_complexes("A2", 2)
        L = build_Lm(rs, 2)
        table = face_tuple_table(rs, 2, pos)
        for x in L.elements:
            if x.rank == 0:
                continue
            fib = fiber_complex(rs, 2, [x], pos_cx=pos, table=table)
            assert fib.euler_characteristic_reduced() == 0
            assert homology(fib).is_trivial()

    def test_sampled_order_ideals(self, complexes, positive_complexes):
        # non-principal ideals: homology of the fiber matches the ideal's
        # order complex
        import random
        rs, _, _ = complexes("A2", 2)
        pos = positive_complexes("A2", 2)
        L = build_Lm(rs, 2)
        table = face_tuple_table(rs, 2, pos)
        rng = random.Random(3)
        nontrivial = [t for t in L.elements if t.rank > 0]
        for _ in range(6):
            seeds = rng.sample(nontrivial, 2)
            ideal = [t for t in nontrivial
                     if any(t.leq(s) for s in seeds)]
            fib = fiber_complex(rs, 2, seeds, pos_cx=pos, table=table)
            sub = PosetView(ideal, lambda a, b: a.leq(b), lambda t: t.rank)
            oc = order_complex(sub)
            ha, hb = homology(fib), homology(oc)
            la = list(ha.betti) + [0] * (len(hb.betti) - len(ha.betti))
            lb = list(hb.betti) + [0] * (len(ha.betti) - len(hb.betti))
            assert la == lb


class TestPosetView:

    def test_covers_and_serialization(self):
        rs = build_root_system("A2")
        interval = nc_interval(rs)
        p = interval.poset()
        data = p.to_dict()
        assert len(data["elements"]) == 5
        assert sorted(data["ranks"]) == [0, 1, 1, 1, 2]
        # covers: bottom under each atom, each atom under the top
        assert len(data["covers"]) == 6

    def test_truncate_and_without(self):
        L = build_Lm(build_root_system("A2"), 2)
        t = truncate(L, 1)
        assert all(x.rank <= 1 for x in t.elements)
        stripped = L.without([L.minimum()])
        assert len(stripped.elements) == len(L.elements) - 1
