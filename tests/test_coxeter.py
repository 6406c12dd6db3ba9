import itertools

import pytest

from clustercomplexes.coxeter import (GroupElement, absolute_interval,
                                      absolute_leq, bipartite_coxeter,
                                      rho_sequence, total_order)
from clustercomplexes.colored import get_context
from clustercomplexes.roots import (CoordinateRootSystem, build_root_system,
                                    product_system)
from exact_oracles import (cycles_of, enumerate_group, is_identity,
                           one_line_permutation, permutation_length,
                           typeA_absolute_leq, typeA_reflection_length,
                           word_length_bfs)


def simple_images(w):
    return tuple(w.perm[i] for i in w.system.simple_positions)


def label_of(rs, root):
    sign = "" if rs.is_positive(root) else "-"
    base = root if rs.is_positive(root) else rs.negate(root)
    return sign + "[%s]" % ",".join(str(c) for c in rs.expansion(base))


class TestReflectionLength:

    def test_identity(self):
        rs = build_root_system("A2")
        assert rs.identity_element().length == 0

    def test_reflections(self):
        rs = build_root_system("B3")
        for root in rs.positive_roots:
            assert rs.reflection(root).length == 1

    def test_bipartite_element_a2(self):
        rs = build_root_system("A2")
        gamma = bipartite_coxeter(rs)
        assert gamma.length == 2
        assert word_length_bfs(gamma) == 2
        assert is_identity(gamma * gamma * gamma)  # rotation by a third

    def test_modes_agree_on_intervals(self):
        for label in ("A3", "B3"):
            rs = build_root_system(label)
            for w in absolute_interval(rs):
                assert w.length == word_length_bfs(w)

    @pytest.mark.parametrize("label", ["A3", "B3", "H3", "G2", "A1xA2", "I2(5)"])
    def test_carter_length_is_word_length_on_the_group(self, label):
        rs = build_root_system(label)
        gens = [rs.reflection(r) for r in rs.positive_roots]
        e = rs.identity_element()
        depth = {e.perm: 0}
        frontier = [e]
        while frontier:
            nxt = []
            for u in frontier:
                for t in gens:
                    v = u * t
                    if v.perm not in depth:
                        depth[v.perm] = depth[u.perm] + 1
                        nxt.append(v)
            frontier = nxt
        assert len(depth) == len(enumerate_group(rs))
        for perm, d in depth.items():
            assert rs.length_of(perm) == d

    @pytest.mark.parametrize("label", ["A3", "B3", "H3", "D4", "F4", "H4"])
    def test_image_length_matches_the_permutation_route(self, label):
        rs = build_root_system(label)
        interval = absolute_interval(rs)
        for w in interval:
            assert rs.image_length(simple_images(w)) == permutation_length(w)
        if len(rs.positive_roots) <= 15:  # desk scale for the word search
            for w in interval:
                assert rs.image_length(simple_images(w)) == word_length_bfs(w)

    @pytest.mark.parametrize("label", ["A3", "B3", "H3", "D4", "F4", "I2(5)",
                                       "I2(6)", "I2(7)", "I2(8)"])
    def test_descents_match_lengths_on_the_interval(self, label):
        # bit i is set iff l(t_i w) = l(w) - 1, by the permutation route
        # and by the length memo
        rs = build_root_system(label)
        reflections = [rs.reflection(r) for r in rs.positive_roots]
        for w in absolute_interval(rs):
            length = permutation_length(w)
            below = [permutation_length(t * w) == length - 1
                     for t in reflections]
            got = rs.descents(simple_images(w))
            assert [bool(got >> i & 1) for i in range(len(below))] == below
            assert got >> len(below) == 0
            assert [rs.image_length(simple_images(t * w)) == length - 1
                    for t in reflections] == below
            assert rs.image_length(simple_images(w)) == length

    @pytest.mark.parametrize("order", range(2, 13))
    def test_dihedral_image_length_on_the_group(self, order):
        rs = build_root_system("I2(%d)" % order)
        assert rs.simple_positions == (0, order - 1)
        group = enumerate_group(rs)
        assert len(group) == 2 * order
        lengths = []
        for w in group:
            got = rs.image_length(simple_images(w))
            assert got == permutation_length(w) == word_length_bfs(w)
            lengths.append(got)
        assert sorted(lengths) == [0] + [1] * order + [2] * (order - 1)

    def test_simple_positions_index_the_simple_roots(self):
        for label in ("A3", "G2", "H4", "A1xA2", "I2(7)"):
            rs = build_root_system(label)
            assert [rs.roots[i] for i in rs.simple_positions] == rs.simple_roots

    def test_integer_rows_are_built_on_the_first_length(self):
        # a fresh system: set-up leaves the table to the first length
        h3 = build_root_system("H3")
        rs = CoordinateRootSystem([r.coords for r in h3.simple_roots])
        assert rs._int_expansions is None
        assert rs.identity_element().length == 0
        rows, den = rs._int_expansions
        assert den == 2 and len(rows) == len(rs.roots)

    def test_bfs_guard(self):
        rs = build_root_system("E7")
        with pytest.raises(ValueError, match="cap"):
            word_length_bfs(rs.identity_element())


class TestAbsoluteOrder:

    def test_identity_below_everything(self):
        rs = build_root_system("A3")
        e = rs.identity_element()
        for w in absolute_interval(rs):
            assert absolute_leq(e, w)

    def test_reflections_below_gamma_a2(self):
        rs = build_root_system("A2")
        gamma = bipartite_coxeter(rs)
        for root in rs.positive_roots:
            assert absolute_leq(rs.reflection(root), gamma)
            assert not absolute_leq(gamma, rs.reflection(root))

    def test_partial_order_and_grading(self):
        for label in ("A2", "A3", "B3"):
            rs = build_root_system(label)
            interval = absolute_interval(rs)
            for u in interval:
                assert absolute_leq(u, u)
            for u, w in itertools.permutations(interval, 2):
                if absolute_leq(u, w) and absolute_leq(w, u):
                    raise AssertionError("antisymmetry violated")
            for u, v, w in itertools.permutations(interval, 3):
                if absolute_leq(u, v) and absolute_leq(v, w):
                    assert absolute_leq(u, w)
            # graded with rank ell: every nontrivial element covers down
            for w in interval:
                if w.length == 0:
                    continue
                assert any(absolute_leq(u, w) and u.length == w.length - 1
                           for u in interval)

    def test_prefix_exchange_property(self):
        rs = build_root_system("A3")
        interval = absolute_interval(rs)
        for v in interval:
            vi = v.inverse()
            for u in interval:
                if not absolute_leq(v, u):
                    continue
                for w in interval:
                    if absolute_leq(u, w):
                        assert absolute_leq(vi * u, vi * w)


class TestBipartiteCoxeter:

    def test_a1_is_the_reflection(self):
        rs = build_root_system("A1")
        assert bipartite_coxeter(rs) == rs.reflection(rs.positive_roots[0])

    def test_a3_is_a_four_cycle(self):
        rs = build_root_system("A3")
        gamma = bipartite_coxeter(rs)
        assert gamma.length == 3
        perm = one_line_permutation(gamma)
        assert sorted(len(c) for c in cycles_of(perm)) == [4]

    def test_reducible_composes_per_component(self):
        rs = build_root_system("A1xA1")
        gamma = bipartite_coxeter(rs)
        assert gamma.length == 2
        assert is_identity(gamma * gamma)

    def test_block_product_order_independent(self):
        # within each orthogonal block the reflections commute
        for label in ("A3", "B3", "D4"):
            rs = build_root_system(label)
            s = rs.split_s
            plus = [rs.reflection(a) for a in rs.simple_roots[:s]]
            minus = [rs.reflection(a) for a in rs.simple_roots[s:]]
            for block in (plus, minus):
                for perm in itertools.permutations(block):
                    prod_a = rs.identity_element()
                    prod_b = rs.identity_element()
                    for x, y in zip(block, perm):
                        prod_a = prod_a * x
                        prod_b = prod_b * y
                    assert prod_a == prod_b


class TestRhoSequence:

    def test_a2_values(self):
        rs = build_root_system("A2")
        rho = rho_sequence(rs)
        assert [label_of(rs, rho[i]) for i in (1, 2, 3, 4, 0)] == \
            ["[1,0]", "[1,1]", "[0,1]", "-[1,0]", "-[0,1]"]

    def test_a2_total_order(self):
        rs = build_root_system("A2")
        order = total_order(rs)
        assert [label_of(rs, r) for r in order] == \
            ["-[0,1]", "[1,0]", "[1,1]", "[0,1]", "-[1,0]"]

    def test_a1_window(self):
        rs = build_root_system("A1")
        order = total_order(rs)
        assert [label_of(rs, r) for r in order] == ["[1]", "-[1]"]

    def test_window_partitions(self):
        for label in ("A3", "B3", "G2", "I2(7)", "H3"):
            rs = build_root_system(label)
            order = list(total_order(rs))
            assert len(order) == len(rs.positive_roots) + rs.rank
            n, s = rs.rank, rs.split_s
            head, mid, tail = order[:n - s], order[n - s:-s or None], order[-s:]
            assert all(not rs.is_positive(r) for r in head)
            assert all(rs.is_positive(r) for r in mid)
            assert all(not rs.is_positive(r) for r in tail)

    def test_reducible_rejected(self):
        rs = build_root_system("A1xA1")
        with pytest.raises(ValueError):
            rho_sequence(rs)

    def test_a_product_reuses_its_components_sequences(self, monkeypatch):
        products = []
        real = GroupElement.__mul__

        def counting(u, w):
            products.append((u, w))
            return real(u, w)

        monkeypatch.setattr(GroupElement, "__mul__", counting)
        factors = [build_root_system("A1"), build_root_system("A2")]
        cold = product_system(factors)
        total_order(cold)
        assert len(products) == 8  # A1's 2 and A2's 6 prefix products
        rs = product_system(factors)
        for comp in rs.components:
            get_context(comp, 2)  # each builds its component's sequence
        del products[:]
        order = total_order(rs)
        assert products == []
        assert [r.key for r in order] == [r.key for r in total_order(cold)]

    @pytest.mark.parametrize("label", ["A1xA1", "A1xA2", "A1xB2", "A2xA2",
                                       "A1xA1xA1", "B2xG2"])
    def test_a_product_lists_each_components_window_in_turn(self, label):
        rs = build_root_system(label)
        order = [r.key for r in total_order(rs)]
        assert order == [r.key for comp in rs.components
                         for r in total_order(comp)]
        assert sorted(order) == sorted(
            [r.key for r in rs.positive_roots] +
            [rs.negate(a).key for a in rs.simple_roots])


class TestTypeAOracles:

    def test_three_cycle_length(self):
        assert typeA_reflection_length((1, 2, 0)) == 2

    def test_deletion_examples(self):
        leq = typeA_absolute_leq
        assert leq((1, 0, 2, 3), (1, 2, 0, 3))        # (12) below (123)
        assert leq((1, 0, 3, 2), (1, 2, 3, 0))        # (12)(34) below (1234)
        assert leq((2, 1, 0, 3), (1, 2, 3, 0))        # (13) below (1234)
        assert not leq((2, 3, 0, 1), (1, 2, 3, 0))    # (13)(24) crosses
        assert not leq((2, 0, 1, 3), (1, 2, 3, 0))    # (132) reversed cycle

    def test_s4_exhaustive_agreement(self):
        rs = build_root_system("A3")
        group = enumerate_group(rs)
        assert len(group) == 24
        for w in group:
            assert typeA_reflection_length(one_line_permutation(w)) == w.length
        for u in group:
            pu = one_line_permutation(u)
            for w in group:
                assert typeA_absolute_leq(pu, one_line_permutation(w)) == \
                    absolute_leq(u, w)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            typeA_absolute_leq((0, 1), (0, 1, 2))


class TestIntervalEnumeration:

    def test_noncrossing_cardinalities(self):
        # Catalan counts for the noncrossing partition intervals
        assert len(absolute_interval(build_root_system("A2"))) == 5
        assert len(absolute_interval(build_root_system("A3"))) == 14
        assert len(absolute_interval(build_root_system("B2"))) == 6
        assert len(absolute_interval(build_root_system("B3"))) == 20
        assert len(absolute_interval(build_root_system("I2(7)"))) == 9

    def test_interval_below_reflection(self):
        rs = build_root_system("A2")
        t = rs.reflection(rs.positive_roots[0])
        assert len(absolute_interval(rs, t)) == 2

    @pytest.mark.parametrize("label", ["A3", "B3", "H3", "D4", "F4", "B4", "A5",
                                       "H4", "I2(5)", "I2(6)", "I2(7)",
                                       "I2(8)"])
    def test_interval_matches_brute_force_and_old_order(self, label):
        # the closure tests only l(v^-1 gamma); the old loop also tested
        # l(v) = level, which that test implies
        rs = build_root_system(label)
        gamma = bipartite_coxeter(rs)
        gens = [rs.reflection(r) for r in rs.positive_roots]
        old = [rs.identity_element()]
        seen = {old[0].perm}
        frontier = old[:]
        for level in range(1, gamma.length + 1):
            nxt = []
            for u in frontier:
                for t in gens:
                    v = u * t
                    if v.perm in seen or v.length != level or \
                            (v.inverse() * gamma).length != gamma.length - level:
                        continue
                    seen.add(v.perm)
                    nxt.append(v)
            old.extend(nxt)
            frontier = nxt
        interval = [w.perm for w in absolute_interval(rs)]
        assert interval == [w.perm for w in old]
        brute = {w.perm for w in enumerate_group(rs)
                 if w.length + (w.inverse() * gamma).length == gamma.length}
        assert set(interval) == brute and len(interval) == len(brute)
