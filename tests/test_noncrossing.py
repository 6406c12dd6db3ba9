import contextlib
import copy
import io
import itertools
import random

import pytest

from clustercomplexes import coxeter, noncrossing
from clustercomplexes.cli import run
from clustercomplexes.colored import build_complex, get_context, positive_part
from clustercomplexes.coxeter import absolute_leq, bipartite_coxeter
from clustercomplexes.noncrossing import (Poset, build_Lm, face_to_tuple,
                                          face_tuple_table,
                                          fiber_complex, homotopy_compare,
                                          moebius, nc_interval, order_complex)
from clustercomplexes.roots import build_root_system
from clustercomplexes.topology import _table_of, fuss_catalan, homology
from exact_oracles import (componentwise_leq, face_tuple_by_products,
                           face_tuple_dict, fiber_subcomplex, is_identity,
                           skeleton_and_poset_homology)


def multichains(label, m):
    return build_Lm(nc_interval(build_root_system(label)), m)


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
        gamma = interval.elements[-1]
        assert gamma == bipartite_coxeter(rs)
        assert all(w != gamma * gamma for w in interval.elements)

    def test_gamma_comes_from_the_context(self, monkeypatch):
        # the top is read off the system's m = 1 context: a second interval
        # of a system makes no group product
        rs = build_root_system("B3")
        first = nc_interval(rs)
        assert first.elements[-1] == get_context(rs, 1).gamma
        calls = []
        element = coxeter.GroupElement
        real = element.__mul__

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(element, "__mul__", counted)
        assert nc_interval(rs).elements == first.elements
        assert calls == []

    @pytest.mark.parametrize("label", ["A3", "B3", "H3", "D4"])
    def test_bitset_order_is_the_absolute_order(self, label):
        interval = nc_interval(build_root_system(label))
        els = interval.elements
        assert is_identity(els[0])
        for i, u in enumerate(els):
            for j, w in enumerate(els):
                assert interval.leq(i, j) == absolute_leq(u, w), (i, j)


class TestMultichainPoset:

    def test_m1_collapses_to_the_interval(self):
        rs = build_root_system("A2")
        interval = nc_interval(rs)
        assert len(build_Lm(interval, 1)) == len(interval)

    def test_a2_m2_rank_counts(self):
        rs = build_root_system("A2")
        L = build_Lm(nc_interval(rs), 2)
        by_rank = {}
        for r in L.ranks:
            by_rank[r] = by_rank.get(r, 0) + 1
        assert by_rank == {0: 1, 1: 6, 2: 5}
        assert L.ranks == [sum(rs.image_length(w) for w in t)
                           for t in L.elements]

    def test_unique_bottom(self):
        rs = build_root_system("A2")
        L = build_Lm(nc_interval(rs), 2)
        assert L.ranks[0] == 0
        assert L.elements[0] == (rs.simple_positions,) * 2
        assert all(L.leq(0, j) for j in range(len(L)))

    def test_membership_requires_additive_lengths(self):
        rs = build_root_system("A2")
        gamma = bipartite_coxeter(rs)
        L = build_Lm(nc_interval(rs), 2)
        images = tuple(gamma.perm[i] for i in rs.simple_positions)
        assert (images, images) not in L.index

    def test_downward_closure(self):
        rs = build_root_system("A2")
        interval = nc_interval(rs)
        leq = componentwise_leq(interval)
        words = [tuple(w.perm[i] for i in rs.simple_positions)
                 for w in interval.elements]
        for m in (1, 2, 3):
            L = build_Lm(interval, m)
            for t in L.elements:
                for cand in itertools.product(words, repeat=m):
                    if leq(cand, t):
                        assert cand in L.index

    @pytest.mark.parametrize("label,m", [("A3", 1), ("A3", 2), ("A3", 3),
                                         ("B3", 1), ("B3", 2), ("D4", 1)])
    def test_bitset_order_is_the_componentwise_order(self, label, m):
        interval = nc_interval(build_root_system(label))
        L = build_Lm(interval, m)
        leq = componentwise_leq(interval)
        for i, s in enumerate(L.elements):
            for j, t in enumerate(L.elements):
                assert L.leq(i, j) == leq(s, t), (i, j)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            build_Lm(nc_interval(build_root_system("A1")), 0)


def test_the_bitset_route_never_calls_absolute_leq(monkeypatch, complexes,
                                                   positive_complexes):
    cases = [(complexes(label, m)[0], m, positive_complexes(label, m))
             for label, m in [("A2", 2), ("B3", 2), ("A3", 3)]]
    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    leq = counted("absolute_leq", coxeter.absolute_leq)
    for module in (coxeter, noncrossing):
        monkeypatch.setattr(module, "absolute_leq", leq, raising=False)
    # each interval's top is gamma, the product of the simple reflections
    # that a system's m = 1 context makes once, so products are counted
    # only once the intervals are built
    intervals = [nc_interval(rs) for rs, _, _ in cases]
    element = coxeter.GroupElement
    monkeypatch.setattr(element, "__mul__",
                        counted("__mul__", element.__mul__))
    monkeypatch.setattr(element, "inverse",
                        counted("inverse", element.inverse))
    for (rs, m, pos), interval in zip(cases, intervals):
        L = build_Lm(interval, m)
        moebius(interval, 0, len(interval) - 1)
        moebius(L, 0, len(L) - 1)
        order_complex(L, range(1, len(L)))
        positions = face_tuple_table(rs, m, pos, L)
        for x in range(1, len(L)):
            fiber_complex(positions, L.down[x])
        assert homotopy_compare(rs, m, pos_cx=pos, poset=L).ok
    assert calls == []


class TestMoebius:

    def test_two_chain(self):
        chain = Poset([0, 1], [0, 1], [[], [0]])
        assert moebius(chain, 0, 1) == -1

    def test_incomparable_rejected(self):
        antichain = Poset([0, 1], [0, 0], [[], []])
        with pytest.raises(ValueError):
            moebius(antichain, 0, 1)

    @pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3"])
    def test_bottom_to_top_counts_positive_facets(self, label, complexes,
                                                  positive_complexes):
        rs, cx, _ = complexes(label, 1)
        interval = nc_interval(rs)
        mu = moebius(interval, 0, len(interval) - 1)
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
        assert [rs.image_length(w) for w in t] == [1, 1]
        element = {tuple(w.perm[i] for i in rs.simple_positions): w
                   for w in nc_interval(rs).elements}
        assert element[t[0]] * element[t[1]] == bipartite_coxeter(rs)

    def test_singleton_slot_placement(self, complexes):
        rs, cx, _ = complexes("A2", 2)
        pos = positive_part(cx)
        for i, v in enumerate(pos.objects):
            t = face_to_tuple(rs, 2, [v])
            # color i lands in slot m - i + 1 (1-indexed from the left)
            slot = 2 - v.color  # 0-indexed
            assert [rs.image_length(w) for w in t] == \
                [int(c == slot) for c in range(2)]

    def test_rank_equals_size_everywhere(self, complexes, positive_complexes):
        for label, m in [("A2", 1), ("A2", 2), ("B2", 2)]:
            rs, cx, _ = complexes(label, m)
            pos = positive_complexes(label, m)
            L = build_Lm(nc_interval(rs), m)
            for size, row in enumerate(face_tuple_table(rs, m, pos, L)):
                assert all(L.ranks[i] == size for i in row)

    def test_order_preserving(self, complexes, positive_complexes):
        rs, _, _ = complexes("A2", 2)
        pos = positive_complexes("A2", 2)
        interval = nc_interval(rs)
        L = build_Lm(interval, 2)
        leq = componentwise_leq(interval)
        table = face_tuple_dict(rs, 2, pos, L)
        assert len(table) == 13
        for tau_face, tau_i in table.items():
            for sigma_face, sigma_i in table.items():
                if set(tau_face) <= set(sigma_face):
                    assert leq(L.elements[tau_i], L.elements[sigma_i])

    @pytest.mark.parametrize("label,m", [
        ("A2", 1), ("A2", 2), ("A2", 3), ("A3", 1), ("A3", 2), ("B3", 1),
        ("B3", 2), ("H3", 1), ("D4", 1), ("G2", 2), ("I2(5)", 2)])
    def test_equals_the_product_route(self, label, m, complexes,
                                      positive_complexes):
        rs, _, _ = complexes(label, m)
        pos = positive_complexes(label, m)
        for f in pos.faces():
            if f:
                sigma = [pos.objects[v] for v in f]
                assert face_to_tuple(rs, m, sigma) == \
                    face_tuple_by_products(rs, m, sigma), f

    def test_a_swapped_step_table_is_refused(self, monkeypatch):
        # the two vertices of an edge trade reflections, so its word is
        # reversed and leaves the interval below gamma
        rs = build_root_system("A2")
        L = build_Lm(nc_interval(rs), 1)
        pos = positive_part(build_complex(rs, 1)[0])
        u, v = (pos.objects[i] for i in pos.facets[0])
        real = get_context(rs, 1)
        iu, iv = real.position[u.key()], real.position[v.key()]
        (cu, pu, tu), (cv, pv, tv) = real.steps[iu], real.steps[iv]

        def context(tu_, tv_):
            ctx = copy.copy(real)
            ctx._steps = list(real.steps)
            ctx._steps[iu] = (cu, pu, tu_)
            ctx._steps[iv] = (cv, pv, tv_)
            return ctx

        # with one reflection twice, the class word is the identity
        monkeypatch.setattr(noncrossing, "get_context",
                            lambda rs_, m_: context(tv, tv))
        with pytest.raises(RuntimeError, match="do not add up"):
            face_to_tuple(rs, 1, [u, v])
        swapped = context(tv, tu)
        monkeypatch.setattr(noncrossing, "get_context",
                            lambda rs_, m_: swapped)
        with pytest.raises(RuntimeError, match="escapes the noncrossing"):
            face_to_tuple(rs, 1, [u, v])
        with pytest.raises(RuntimeError):
            homotopy_compare(rs, 1, pos_cx=pos, poset=L)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            assert run(["ncp", "--phi", "A2", "--m", "1"]) == 1
        assert "escapes the noncrossing interval" in err.getvalue()

    def test_table_matches_the_face_map(self, complexes, positive_complexes):
        rs, _, _ = complexes("A2", 2)
        pos = positive_complexes("A2", 2)
        L = build_Lm(nc_interval(rs), 2)
        positions = face_tuple_table(rs, 2, pos, L)
        faces = _table_of(pos).faces
        assert positions[0] == [0]
        assert {f: i for size, row in enumerate(positions) if size
                for f, i in zip(faces[size], row)} == \
            face_tuple_dict(rs, 2, pos, L)

    def test_empty_face_rejected(self):
        rs = build_root_system("A2")
        with pytest.raises(ValueError):
            face_to_tuple(rs, 1, [])


class TestOrderComplexes:

    def test_two_chain_gives_a_segment(self):
        chain = Poset([0, 1], [0, 1], [[], [0]])
        cx = order_complex(chain, [0, 1])
        assert cx.f_vector() == (1, 2, 1)

    def test_interval_minus_bottom_contractible(self):
        interval = nc_interval(build_root_system("A2"))
        cx = order_complex(interval, range(1, len(interval)))
        assert homology(cx).is_trivial()

    def test_truncated_poset_is_an_antichain(self):
        L = multichains("A2", 2)
        cx = order_complex(L, [i for i in range(1, len(L)) if L.ranks[i] <= 1])
        assert cx.dimension() == 0
        assert len(cx.vertices) == 6

    def test_wedge_ranks_match_sphere_counts(self):
        for label, m in [("A2", 1), ("A2", 2), ("A2", 3), ("B2", 2)]:
            rs = build_root_system(label)
            L = build_Lm(nc_interval(rs), m)
            cx = order_complex(L, range(1, len(L)))
            want = fuss_catalan(rs, m - 1, positive=True)
            assert homology(cx).concentrated(rs.rank - 1, want)


REFERENCE_CASES = [("A2", 1), ("A2", 2), ("A2", 3), ("A3", 1), ("A3", 2),
                   ("B3", 1), ("B3", 2), ("H3", 1), ("D4", 1), ("G2", 2),
                   ("I2(5)", 2)]


def _fiber_homology(pos, positions, ideal):
    return _table_of(pos).profile(fiber_complex(positions, ideal))


class TestHomotopyCompare:

    @pytest.mark.parametrize("m", [1, 2])
    def test_a2(self, m, complexes, positive_complexes):
        rs, _, _ = complexes("A2", m)
        report = homotopy_compare(rs, m, pos_cx=positive_complexes("A2", m))
        assert report.ok
        assert [report.agrees(k) for k in (1, 2)] == [True, True]
        assert not report.fiber_failures

    def test_a3_m2_all_k(self, complexes, positive_complexes):
        rs, _, _ = complexes("A3", 2)
        report = homotopy_compare(rs, 2, pos_cx=positive_complexes("A3", 2))
        assert report.ok, report
        assert len(report.skeleton_homology) == 3
        assert report.fibers_checked == len(multichains("A3", 2)) - 1

    @pytest.mark.parametrize("label,m", REFERENCE_CASES)
    def test_matches_the_complex_route(self, label, m, complexes,
                                       positive_complexes):
        # per k the skeleton and the order complex, and every principal
        # fiber, as explicit complexes of their own
        rs, _, _ = complexes(label, m)
        pos = positive_complexes(label, m)
        L = build_Lm(nc_interval(rs), m)
        report = homotopy_compare(rs, m, pos_cx=pos, poset=L)
        want = skeleton_and_poset_homology(rs, pos, L)
        assert list(zip(report.skeleton_homology, report.poset_homology)) == \
            want
        assert report.ok
        positions = face_tuple_table(rs, m, pos, L)
        table = face_tuple_dict(rs, m, pos, L)
        for x in range(1, len(L)):
            got = _fiber_homology(pos, positions, L.down[x])
            fib = fiber_subcomplex(pos, table, L.down[x])
            assert got.groups() == homology(fib).groups() == {}, x

    def test_fibers_are_joins_of_below_complexes(self, complexes,
                                                 positive_complexes):
        # the fiber over a tuple equals the faces below it componentwise;
        # spot-check euler characteristics are those of cones (contractible)
        rs, _, _ = complexes("A2", 2)
        pos = positive_complexes("A2", 2)
        L = build_Lm(nc_interval(rs), 2)
        positions = face_tuple_table(rs, 2, pos, L)
        for x in range(1, len(L)):
            fib = _fiber_homology(pos, positions, L.down[x])
            assert fib.euler_reduced == 0
            assert fib.is_trivial()

    def test_sampled_order_ideals(self, complexes, positive_complexes):
        # non-principal ideals: homology of the fiber matches the ideal's
        # order complex, and the fiber as a complex of its own
        rs, _, _ = complexes("A2", 2)
        pos = positive_complexes("A2", 2)
        interval = nc_interval(rs)
        L = build_Lm(interval, 2)
        leq = componentwise_leq(interval)
        positions = face_tuple_table(rs, 2, pos, L)
        table = face_tuple_dict(rs, 2, pos, L)
        rng = random.Random(3)
        nontrivial = range(1, len(L))
        for _ in range(6):
            seeds = rng.sample(nontrivial, 2)
            ideal = [i for i in nontrivial
                     if any(leq(L.elements[i], L.elements[s]) for s in seeds)]
            bits = L.down[seeds[0]] | L.down[seeds[1]]
            fib = _fiber_homology(pos, positions, bits)
            assert fib.groups() == \
                homology(order_complex(L, ideal)).groups() == \
                homology(fiber_subcomplex(pos, table, bits)).groups()

    def test_a_map_that_is_not_order_preserving_is_refused(self, monkeypatch):
        # move one vertex's tuple to another's, below no tuple of its edges
        rs = build_root_system("A2")
        L = build_Lm(nc_interval(rs), 2)
        real = noncrossing.face_to_tuple
        atoms = [t for t, r in zip(L.elements, L.ranks) if r == 1]

        def moved(rs_, m_, sigma):
            t = real(rs_, m_, sigma)
            return atoms[(atoms.index(t) + 1) % len(atoms)] \
                if len(sigma) == 1 and t == atoms[0] else t

        monkeypatch.setattr(noncrossing, "face_to_tuple", moved)
        with pytest.raises(RuntimeError, match="not order-preserving"):
            homotopy_compare(rs, 2, poset=L)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            assert run(["ncp", "--phi", "A2", "--m", "2"]) == 1
        assert "not order-preserving: face {" in err.getvalue()


class TestPoset:

    def test_a2_interval_ranks_and_covers(self):
        interval = nc_interval(build_root_system("A2"))
        assert len(interval) == 5
        assert sorted(interval.ranks) == [0, 1, 1, 1, 2]
        # covers: bottom under each atom, each atom under the top
        covers = [(i, j) for j in range(5) for i in range(j)
                  if interval.leq(i, j)
                  and interval.ranks[j] == interval.ranks[i] + 1]
        assert len(covers) == 6

    def test_cover_after_its_element_rejected(self):
        with pytest.raises(ValueError):
            Poset([0, 1], [1, 0], [[1], []])
