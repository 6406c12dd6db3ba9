import gc
import itertools
import weakref
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercomplexes.colored import (ColoredRoot, _max_cliques, _pair_graph,
                                      build_complex, canonical_label,
                                      colored_vertices, deformed_coxeter,
                                      fr_compatible, get_context, is_face,
                                      positive_part, rm_map, tau,
                                      typeA_polygon_oracle)
from clustercomplexes.coxeter import (GroupElement, absolute_interval,
                                      bipartite_coxeter)
from clustercomplexes.exact import Matrix, Scalar
from clustercomplexes.roots import build_root_system
from clustercomplexes.simplicial import SimplicialComplex, f_h_vectors
from clustercomplexes.topology import fuss_catalan
from conftest import ACCEPTANCE_MATRIX
from exact_oracles import (complex_by_all_pairs, component_of,
                           componentwise_fr_compatible, delete,
                           facets_as_label_sets, is_identity, labeled_facets,
                           link,
                           max_cliques_by_sets, parabolic, permutation_is_face,
                           skeleton, subcomplex_below, subsystem,
                           two_length_is_face, word_of_face)

A2_FACETS_M1 = {
    frozenset(f) for f in [
        ("[1,1]:1", "[0,1]:1"),
        ("[1,0]:1", "[1,1]:1"),
        ("-s2", "[1,0]:1"),
        ("-s1", "-s2"),
        ("[0,1]:1", "-s1"),
    ]
}

A2_FACETS_M2 = {
    frozenset(f) for f in [
        ("[1,0]:1", "[1,1]:1"),
        ("[1,0]:1", "[1,1]:2"),
        ("[1,0]:2", "[1,1]:2"),
        ("[1,1]:1", "[0,1]:1"),
        ("[1,1]:1", "[0,1]:2"),
        ("[1,1]:2", "[0,1]:2"),
        ("[0,1]:1", "[1,0]:2"),
        ("-s2", "[1,0]:1"),
        ("-s2", "[1,0]:2"),
        ("[0,1]:1", "-s1"),
        ("[0,1]:2", "-s1"),
        ("-s1", "-s2"),
    ]
}


def roots_by_label(rs):
    out = {}
    for r in rs.positive_roots:
        out[canonical_label(rs, ColoredRoot(r, 1)).rsplit(":", 1)[0]] = r
    return out


class TestInvolutions:

    def test_tau_plus_fixes_minus_block(self):
        rs = build_root_system("A2")
        neg = rs.negate(rs.simple_roots[1])  # -alpha2, the minus block
        assert tau(rs, +1, neg) == neg

    def test_tau_plus_negates_plus_block(self):
        rs = build_root_system("A2")
        a1 = rs.simple_roots[0]
        assert tau(rs, +1, a1) == rs.negate(a1)

    def test_deformed_coxeter_orbit_is_a_pentagon(self):
        # R acts on the five admissible roots as a single (h+2)-cycle
        rs = build_root_system("A2")
        roots = roots_by_label(rs)
        start = roots["[1,0]"]
        orbit = [start]
        x = start
        for _ in range(5):
            x = deformed_coxeter(rs, x)
            orbit.append(x)
        assert orbit[-1] == start
        assert len({r.key for r in orbit[:-1]}) == 5
        assert orbit[1] == rs.negate(roots["[1,0]"])
        assert orbit[2] == roots["[1,1]"]

    def test_involutions(self):
        for label in ("A2", "B2", "A3"):
            rs = build_root_system(label)
            admissible = list(rs.positive_roots) + \
                [rs.negate(a) for a in rs.simple_roots]
            for eps in (+1, -1):
                for r in admissible:
                    assert tau(rs, eps, tau(rs, eps, r)) == r


class TestColorRotation:

    def test_increment_branch(self):
        rs = build_root_system("A2")
        v = ColoredRoot(rs.positive_roots[0], 1)
        assert rm_map(rs, 2, v) == ColoredRoot(rs.positive_roots[0], 2)

    def test_top_color_applies_deformation(self):
        rs = build_root_system("A2")
        r = rs.positive_roots[0]
        v = ColoredRoot(r, 2)
        out = rm_map(rs, 2, v)
        assert out.color == 1 and out.root == deformed_coxeter(rs, r)

    @pytest.mark.parametrize("label,m", [("A2", 1), ("A2", 2), ("B2", 2),
                                         ("G2", 1), ("A3", 2), ("I2(5)", 2)])
    def test_orbits_reach_negative_simples(self, label, m):
        rs = build_root_system(label)
        bound = m * len(rs.positive_roots)
        for v in colored_vertices(rs, m):
            x, steps = v, 0
            while rs.is_positive(x.root):
                x = rm_map(rs, m, x)
                steps += 1
                assert steps <= bound
        # and the rotation is a bijection
        verts = colored_vertices(rs, m)
        images = {rm_map(rs, m, v).key() for v in verts}
        assert len(images) == len(verts)


class TestCompatibility:

    def test_negative_simples_compatible(self):
        rs = build_root_system("A2")
        a, b = (ColoredRoot(rs.negate(s), 1) for s in rs.simple_roots)
        assert fr_compatible(rs, 1, a, b)

    def test_negative_against_own_copies(self):
        rs = build_root_system("A2")
        a1 = rs.simple_roots[0]
        neg = ColoredRoot(rs.negate(a1), 1)
        for color in (1, 2):
            assert not fr_compatible(rs, 2, neg, ColoredRoot(a1, color))

    def test_paper_pair(self):
        rs = build_root_system("A2")
        roots = roots_by_label(rs)
        a = ColoredRoot(roots["[0,1]"], 1)
        b = ColoredRoot(roots["[1,0]"], 2)
        assert fr_compatible(rs, 2, a, b)

    def test_same_vertex_rejected(self):
        rs = build_root_system("A2")
        v = ColoredRoot(rs.positive_roots[0], 1)
        with pytest.raises(ValueError):
            fr_compatible(rs, 2, v, v)

    @pytest.mark.parametrize("label,m", [(l, m) for l in ("A2", "A3", "B2",
                                                          "B3", "G2")
                                         for m in (1, 2, 3)])
    def test_agrees_with_word_criterion(self, label, m, complexes):
        rs, cx, adjacency = complexes(label, m)
        verts = cx.objects
        for i, j in itertools.combinations(range(len(verts)), 2):
            assert fr_compatible(rs, m, verts[i], verts[j]) == \
                (j in adjacency[i])


class TestWordCriterion:

    def test_facet_word_is_gamma(self):
        rs = build_root_system("A2")
        roots = roots_by_label(rs)
        ctx = get_context(rs, 2)
        sigma = [ColoredRoot(roots["[0,1]"], 1), ColoredRoot(roots["[1,0]"], 2)]
        assert word_of_face(ctx, sigma) == bipartite_coxeter(rs)
        ctx1 = get_context(rs, 1)
        sigma1 = [ColoredRoot(roots["[1,1]"], 1), ColoredRoot(roots["[0,1]"], 1)]
        assert word_of_face(ctx1, sigma1) == bipartite_coxeter(rs)

    def test_empty_set_gives_identity(self):
        rs = build_root_system("A2")
        assert is_identity(word_of_face(get_context(rs, 1), []))

    def test_negative_against_positive_copy_is_no_face(self):
        rs = build_root_system("A2")
        a1 = rs.simple_roots[0]
        sigma = [ColoredRoot(rs.negate(a1), 1), ColoredRoot(a1, 1)]
        assert not is_face(get_context(rs, 1), sigma)

    def test_two_element_face_count_m2(self):
        rs = build_root_system("A2")
        verts = colored_vertices(rs, 2)
        ctx = get_context(rs, 2)
        count = sum(1 for a, b in itertools.combinations(verts, 2)
                    if is_face(ctx, [a, b]))
        assert count == 12

    def test_repeated_vertex_rejected(self):
        rs = build_root_system("A2")
        v = ColoredRoot(rs.positive_roots[0], 1)
        with pytest.raises(ValueError):
            is_face(get_context(rs, 1), [v, v])

    @pytest.mark.parametrize("label", ["A2", "B3", "I2(5)", "A1xA2"])
    def test_vertex_outside_the_vertex_set_rejected(self, label):
        rs = build_root_system(label)
        ctx = get_context(rs, 2)
        ok = ColoredRoot(rs.positive_roots[0], 1)
        # a negative root that is not the negative of a simple one, and a
        # root of another system
        neg = rs.negate(next(r for r in rs.positive_roots
                             if rs.simple_index(r) is None))
        foreign = build_root_system("H3").positive_roots[-1]
        bad = [ColoredRoot(rs.positive_roots[0], 0),
               ColoredRoot(rs.positive_roots[-1], 3),
               ColoredRoot(rs.negate(rs.simple_roots[0]), 2),
               ColoredRoot(neg, 1), ColoredRoot(foreign, 1)]
        for v in bad:
            with pytest.raises(ValueError, match="not a vertex"):
                is_face(ctx, [ok, v])
            if rs.is_irreducible:
                with pytest.raises(ValueError, match="not a vertex"):
                    word_of_face(ctx, [v])
        # a non-face part does not hide a bad vertex in another component
        if not rs.is_irreducible:
            a1 = rs.components[0].simple_roots[0]
            other = rs.components[1].positive_roots[0]
            pair = [ColoredRoot(a1, 1), ColoredRoot(rs.negate(a1), 1)]
            assert not is_face(ctx, pair)
            with pytest.raises(ValueError, match="not a vertex"):
                is_face(ctx, pair + [ColoredRoot(other, 0)])

    @pytest.mark.parametrize("label, m", ACCEPTANCE_MATRIX + [
        ("A1xA2", 2), ("I2(5)", 2), ("I2(7)", 3)])
    def test_face_test_matches_the_permutation_route(self, label, m):
        # every pair and every facet, against l(w^-1 gamma) of the whole
        # permutations, ranked over Scalars
        rs = build_root_system(label)
        cx, _ = build_complex(rs, m)
        ctx = get_context(rs, m)
        verts = cx.objects
        sets = [list(p) for p in itertools.combinations(verts, 2)]
        sets += [[verts[i] for i in f] for f in cx.facets]
        verdicts = [is_face(ctx, sigma) for sigma in sets]
        assert verdicts == [permutation_is_face(ctx, sigma) for sigma in sets]
        assert True in verdicts and False in verdicts

    def test_face_test_builds_no_group_element(self, monkeypatch):
        # the face test walks n simple-root images; it makes no permutation
        # product and no Scalar rank
        for label, m in [("B3", 2), ("H3", 1), ("I2(5)", 2), ("A1xA2", 2)]:
            rs = build_root_system(label)
            cx, _ = build_complex(rs, m)
            ctx = get_context(rs, m)
            made = []
            real = GroupElement.__init__

            def counting(self, system, perm):
                made.append(perm)
                real(self, system, perm)

            monkeypatch.setattr(GroupElement, "__init__", counting)
            monkeypatch.setattr(Matrix, "rank", None)
            verts = cx.objects
            for f in cx.facets:
                assert is_face(ctx, [verts[i] for i in f])
            monkeypatch.undo()
            assert made == []


class TestBuildComplex:

    def test_a2_m1_exact_facets(self, complexes):
        _, cx, _ = complexes("A2", 1)
        assert facets_as_label_sets(cx) == A2_FACETS_M1

    def test_a2_m2_exact_facets(self, complexes):
        _, cx, _ = complexes("A2", 2)
        assert facets_as_label_sets(cx) == A2_FACETS_M2
        assert cx.f_vector() == (1, 8, 12)

    def test_a1_any_m(self):
        rs = build_root_system("A1")
        for m in (0, 1, 2, 5):
            cx, _ = build_complex(rs, m)
            assert cx.dimension() == 0
            assert len(cx.facets) == m + 1
            assert all(len(f) == 1 for f in cx.facets)

    def test_m0_is_the_negative_simplex(self):
        rs = build_root_system("B2")
        cx, _ = build_complex(rs, 0)
        assert labeled_facets(cx) == [("-s1", "-s2")]

    @pytest.mark.parametrize("label,m", [(l, m) for l in ("A2", "A3", "B2",
                                                          "B3", "G2")
                                         for m in (1, 2, 3)])
    def test_purity_and_counts(self, label, m, complexes):
        rs, cx, _ = complexes(label, m)
        assert cx.is_pure()
        assert cx.dimension() == rs.rank - 1
        assert len(cx.vertices) == m * len(rs.positive_roots) + rs.rank
        assert len(cx.facets) == fuss_catalan(rs, m)

    def test_cliques_equal_faces_small(self):
        # flagness: every mutually-compatible subset is a face, exhaustively
        for label, m in [("A2", 2), ("B2", 2), ("A3", 2)]:
            rs = build_root_system(label)
            cx, adjacency = build_complex(rs, m)
            ctx = get_context(rs, m)
            verts = cx.objects
            for size in range(2, rs.rank + 1):
                for combo in itertools.combinations(range(len(verts)), size):
                    pairwise = all(j in adjacency[i]
                                   for i, j in itertools.combinations(combo, 2))
                    word = is_face(ctx, [verts[i] for i in combo])
                    assert pairwise == word

    def test_rotation_equivariance_on_facets(self):
        for label, m in [("A2", 2), ("B2", 2), ("A3", 2)]:
            rs = build_root_system(label)
            cx, _ = build_complex(rs, m)
            for f in cx.facets:
                image = [rm_map(rs, m, cx.objects[i]) for i in f]
                assert is_face(get_context(rs, m), image)

    def test_rotation_equivariance_of_the_graph(self, complexes):
        rs, cx, adjacency = complexes("A2", 2)
        index = {v.key(): i for i, v in enumerate(cx.objects)}
        for i, j in itertools.combinations(range(len(cx.objects)), 2):
            ri = index[rm_map(rs, 2, cx.objects[i]).key()]
            rj = index[rm_map(rs, 2, cx.objects[j]).key()]
            assert (j in adjacency[i]) == (rj in adjacency[ri])

    def test_join_for_products(self):
        rs = build_root_system("A1xA2")
        cx, _ = build_complex(rs, 2)
        f1 = build_complex(build_root_system("A1"), 2)[0].f_vector()
        f2 = build_complex(build_root_system("A2"), 2)[0].f_vector()
        conv = [0] * (len(f1) + len(f2) - 1)
        for i, a in enumerate(f1):
            for j, b in enumerate(f2):
                conv[i + j] += a * b
        assert cx.f_vector() == tuple(conv)

    def test_rank_zero(self):
        rs = subsystem([])
        cx, _ = build_complex(rs, 2)
        assert cx.dimension() == -1
        assert cx.facets == ((),)

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            build_complex(build_root_system("A2"), -1)


BUILDER_LABELS = ["A2", "A3", "B2", "B3", "G2", "A1", "A1xA1", "A1xA2",
                  "A1xB2", "A2xA2", "A1xA1xA1"] + \
    ["I2(%d)" % k for k in range(2, 13)]
PRODUCT_CASES = [(label, m) for label in BUILDER_LABELS if "x" in label
                 for m in range(4)]


class TestBuilderReference:

    @pytest.mark.parametrize("label, m", [(label, m)
                                          for label in BUILDER_LABELS
                                          for m in range(4)])
    def test_equals_the_all_pairs_builder(self, label, m):
        rs = build_root_system(label)
        cx, adjacency = build_complex(rs, m)
        vertices, facets, pairs = complex_by_all_pairs(rs, m)
        assert [v.key() for v in cx.objects] == [v.key() for v in vertices]
        assert list(cx.facets) == facets
        assert adjacency == {i: frozenset(near) for i, near in pairs.items()}

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bitset_cliques_equal_a_brute_force_list(self, data):
        n = data.draw(st.integers(0, 12))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                                   max_size=len(pairs)))
        near = [0] * n
        for (a, b), edge in zip(pairs, edges):
            if edge:
                near[a] |= 1 << b
                near[b] |= 1 << a
        # a clique lies in the closed neighbourhood of each of its
        # vertices, and a maximal one in that of no other vertex
        closed = [near[v] | 1 << v for v in range(n)]
        brute = [tuple(v for v in range(n) if s >> v & 1)
                 for s in range(1 << n)
                 if all(closed[v] & s == s for v in range(n) if s >> v & 1)
                 and not any(near[v] & s == s for v in range(n)
                             if not s >> v & 1)]
        assert _max_cliques(near) == sorted(brute)
        assert _max_cliques(near) == max_cliques_by_sets(
            {v: {u for u in range(n) if near[v] >> u & 1} for v in range(n)})

    @pytest.mark.parametrize("label, m", PRODUCT_CASES)
    def test_product_compatibility_equals_the_componentwise_route(self, label,
                                                                  m):
        rs = build_root_system(label)
        pairs = list(itertools.combinations(colored_vertices(rs, m), 2))
        verdicts = [fr_compatible(rs, m, a, b) for a, b in pairs]
        assert verdicts == [componentwise_fr_compatible(rs, m, a, b)
                            for a, b in pairs]

    @pytest.mark.parametrize("label, m", PRODUCT_CASES)
    def test_product_face_test_equals_the_componentwise_routes(self, label, m):
        # is_face acts on the product; the two oracles split it
        rs = build_root_system(label)
        cx, _ = build_complex(rs, m)
        ctx = get_context(rs, m)
        sets = [list(pair) for pair in itertools.combinations(cx.objects, 2)]
        sets += [[cx.objects[i] for i in f] for f in cx.facets]
        verdicts = [is_face(ctx, sigma) for sigma in sets]
        assert verdicts == [permutation_is_face(ctx, sigma) for sigma in sets]
        assert verdicts == [two_length_is_face(ctx, sigma) for sigma in sets]

    def test_a_poisoned_length_trips_the_flag_recheck(self, monkeypatch):
        # a facet's word is gamma, so its images are the identity's; at
        # rank 3 no pair's images are, so only the re-check reads the entry
        rs = build_root_system("A3")
        monkeypatch.setitem(rs._lengths, tuple(rs.simple_positions), 1)
        with pytest.raises(RuntimeError, match="flagness violated"):
            build_complex(rs, 1)

    def test_one_length_per_pair_and_no_product(self, monkeypatch):
        rs = build_root_system("D4")
        ctx = get_context(rs, 2)
        ctx.steps, ctx.gamma.length  # the context exists
        real = rs.image_length
        lookups, products = [], []

        def counting(images):
            lookups.append(images)
            return real(images)

        monkeypatch.setattr(rs, "image_length", counting)
        monkeypatch.setattr(GroupElement, "__mul__",
                            lambda *args: products.append(args))
        n = len(colored_vertices(rs, 2))
        _pair_graph(ctx)
        assert len(lookups) == comb(n, 2) == 378
        cx, _ = build_complex(rs, 2)
        # the pairs again, and the flag re-check of each facet
        assert len(lookups) == 2 * comb(n, 2) + len(cx.facets)
        assert products == []


class TestSubcomplexes:

    def test_positive_part_a2_m2(self, complexes):
        _, cx, _ = complexes("A2", 2)
        pos = positive_part(cx)
        assert len(pos.vertices) == 6
        assert len(pos.facets) == 7
        assert not any(v.startswith("-s") for v in pos.vertices)

    def test_below_gamma_is_the_positive_part(self, complexes):
        rs, cx, _ = complexes("A2", 2)
        below = subcomplex_below(rs, 2, bipartite_coxeter(rs), cx=cx)
        pos = positive_part(cx)
        assert facets_as_label_sets(below) == facets_as_label_sets(pos)

    def test_below_reflection_is_one_vertex(self, complexes):
        rs, cx, _ = complexes("A2", 1)
        t = rs.reflection(rs.positive_roots[0])
        below = subcomplex_below(rs, 1, t, cx=cx)
        assert below.f_vector() == (1, 1)

    def test_rejects_elements_outside_interval(self):
        rs = build_root_system("A2")
        gamma = bipartite_coxeter(rs)
        with pytest.raises(ValueError):
            subcomplex_below(rs, 1, gamma * gamma)

    def test_below_on_products(self):
        rs = build_root_system("A1xA1")
        cx, _ = build_complex(rs, 2)
        below = subcomplex_below(rs, 2, bipartite_coxeter(rs), cx=cx)
        assert facets_as_label_sets(below) == \
            facets_as_label_sets(positive_part(cx))
        t = rs.reflection(rs.positive_roots[0])
        small = subcomplex_below(rs, 2, t, cx=cx)
        assert small.f_vector() == (1, 2)  # both colors of one root, no edge

    def test_below_matches_word_filter(self, complexes):
        rs, cx, _ = complexes("A2", 2)
        pos = positive_part(cx)
        ctx = get_context(rs, 2)
        for w in absolute_interval(rs):
            if is_identity(w):
                continue
            below = subcomplex_below(rs, 2, w, cx=cx)
            expected = {
                frozenset(pos.vertices[i] for i in f)
                for f in pos.faces()
                if absolute_leq_word(ctx, pos, f, w)}
            got = {frozenset(below.vertices[i] for i in f)
                   for f in below.faces()}
            assert got == expected


def absolute_leq_word(ctx, pos, face, w):
    from clustercomplexes.coxeter import absolute_leq
    sigma = [pos.objects[i] for i in face]
    return absolute_leq(word_of_face(ctx, sigma), w)


class TestRestrictions:

    def test_link_of_negative_simple(self, complexes):
        rs, cx, _ = complexes("A2", 2)
        lk = link(cx, cx.vertices.index("-s1"))
        assert set(lk.vertices) == {"-s2", "[0,1]:1", "[0,1]:2"}
        assert all(len(f) == 1 for f in lk.facets)
        # combinatorially the rank-one complex with two colors
        sub = build_complex(build_root_system("A1"), 2)[0]
        assert lk.f_vector() == sub.f_vector()

    def test_link_matches_parabolic_complex(self, complexes):
        rs, cx, _ = complexes("A2", 2)
        lk = link(cx, cx.vertices.index("-s1"))
        par = parabolic(rs, rs.simple_roots[0])
        sub, _ = build_complex(par, 2)
        key = lambda c, f: frozenset((c.objects[i].root.key, c.objects[i].color)
                                     for i in f)
        assert {key(lk, f) for f in lk.facets} == \
            {key(sub, f) for f in sub.facets}

    def test_delete_equals_induce_complement(self, complexes):
        _, cx, _ = complexes("A2", 2)
        deleted = delete(cx, cx.vertices.index("[1,1]:1"))
        complement = [i for i, v in enumerate(cx.vertices) if v != "[1,1]:1"]
        induced = cx.induce(complement)
        assert deleted.facets == induced.facets
        assert deleted.vertices == induced.vertices

    def test_zero_skeleton(self, complexes):
        _, cx, _ = complexes("A2", 2)
        skel = skeleton(cx, 0)
        assert len(skel.facets) == len(cx.vertices)

    def test_unknown_vertex(self, complexes):
        _, cx, _ = complexes("A2", 1)
        with pytest.raises(ValueError):
            link(cx, len(cx.vertices))

    def test_restrictions_drop_the_symmetry(self, complexes):
        # a subcomplex is in general not invariant under R_m
        _, cx, _ = complexes("A2", 2)
        assert cx.symmetry is not None
        v = cx.vertices.index("-s1")
        for sub in (cx.induce(range(5)), link(cx, v), delete(cx, v),
                    skeleton(cx, 0), positive_part(cx)):
            assert sub.symmetry is None


class TestSymmetry:

    def test_symmetry_is_r_m_on_the_vertices(self, complexes):
        rs, cx, _ = complexes("A3", 2)
        assert [cx.objects[j].key() for j in cx.symmetry] == \
            [rm_map(rs, 2, v).key() for v in cx.objects]

    def test_products_join_the_component_rotations(self):
        # the symmetry is the product's own R_m, which acts on each
        # component as the component's R_m
        for label in ("A1xA2", "A1xB2", "A1xA1xA1"):
            rs = build_root_system(label)
            cx, _ = build_complex(rs, 2)
            images = [rm_map(rs, 2, v).key() for v in cx.objects]
            assert [cx.objects[j].key() for j in cx.symmetry] == images
            assert images == [rm_map(component_of(rs, v.root), 2, v).key()
                              for v in cx.objects]

    def test_no_symmetry_at_m0_or_rank_0(self):
        # at m = 0, R_m sends -Pi outside the vertex set
        for label in ("A1", "B3", "A1xA2"):
            assert build_complex(build_root_system(label), 0)[0].symmetry \
                is None
        rank0 = subsystem([])
        assert build_complex(rank0, 2)[0].symmetry is None

    def test_non_permutations_are_rejected(self):
        for bad in ((0, 0, 1), (0, 1), (0, 1, 2, 3), (0, 1, 3)):
            with pytest.raises(ValueError):
                SimplicialComplex("abc", [(0, 1), (1, 2)], symmetry=bad)
        assert SimplicialComplex("abc", [(0, 1), (1, 2)],
                                 symmetry=[2, 1, 0]).symmetry == (2, 1, 0)


class TestFHVectors:

    def test_a2_m2(self, complexes):
        _, cx, _ = complexes("A2", 2)
        f, h = f_h_vectors(cx)
        assert f == (1, 8, 12) and h == (1, 6, 5)

    def test_a2_m1(self, complexes):
        _, cx, _ = complexes("A2", 1)
        f, h = f_h_vectors(cx)
        assert f == (1, 5, 5) and h == (1, 3, 1)

    def test_simplex(self):
        from clustercomplexes.simplicial import SimplicialComplex
        f, h = f_h_vectors(SimplicialComplex(list("abc"), [(0, 1, 2)]))
        assert h[0] == 1 and not any(h[1:])
        assert sum(h) == 1  # one facet

    def test_impure_refuses_h(self):
        from clustercomplexes.simplicial import SimplicialComplex
        f, h = f_h_vectors(SimplicialComplex(list("abc"), [(0, 1), (2,)]))
        assert h is None and f == (1, 3, 1)


class TestPolygonOracle:

    def test_square(self):
        cx = typeA_polygon_oracle(2, 1)
        assert cx.f_vector() == (1, 2)
        assert cx.dimension() == 0

    def test_pentagon(self):
        cx = typeA_polygon_oracle(3, 1)
        assert len(cx.vertices) == 5
        assert len(cx.facets) == 5

    def test_octagon_two_colors(self):
        cx = typeA_polygon_oracle(3, 2)
        assert len(cx.vertices) == 8
        assert len(cx.facets) == 12

    @pytest.mark.parametrize("n,m", [(n, m) for n in (2, 3, 4)
                                     for m in (1, 2, 3)])
    def test_matches_builder(self, n, m, complexes):
        _, cx, _ = complexes("A%d" % (n - 1), m)
        assert typeA_polygon_oracle(n, m).f_vector() == cx.f_vector()


class TestDihedralComplexes:

    def test_facet_counts(self):
        for k, m in [(5, 1), (5, 2), (7, 1), (8, 2)]:
            rs = build_root_system("I2(%d)" % k)
            cx, _ = build_complex(rs, m)
            assert cx.is_pure() and cx.dimension() == 1
            assert len(cx.facets) == fuss_catalan(rs, m)
            pos = positive_part(cx)
            assert len(pos.facets) == fuss_catalan(rs, m, positive=True)


def test_context_is_freed_with_its_system():
    rs = build_root_system("A3")
    sub = subsystem(rs.simple_roots[:2])
    build_complex(sub, 1)
    assert get_context(sub, 1) is get_context(sub, 1)
    ref = weakref.ref(sub)
    del sub
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("label, m", [("A3", 2), ("B3", 2), ("H3", 1), ("D4", 1),
                                      ("G2", 3), ("I2(5)", 2), ("A1xA2", 2)])
def test_one_length_face_test_matches_two_lengths(label, m):
    rs = build_root_system(label)
    cx, _ = build_complex(rs, m)
    ctx = get_context(rs, m)
    verts = cx.objects
    sets = [list(s) for k in (2, 3) for s in itertools.combinations(verts, k)]
    sets += [[verts[i] for i in f] for f in cx.facets]
    verdicts = [is_face(ctx, sigma) for sigma in sets]
    assert verdicts == [two_length_is_face(ctx, sigma) for sigma in sets]
    assert True in verdicts and False in verdicts


def test_building_a_complex_hashes_no_scalar(monkeypatch):
    # root keys are int tuples, so no lookup by root hashes a Scalar
    cases = [("F4", 1), ("H3", 2), ("D4", 2), ("A1xA2", 2)]
    systems = {label: build_root_system(label) for label, _ in cases}
    for rs in systems.values():
        rs.components
    calls = []
    real = Scalar.__hash__

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Scalar, "__hash__", counted)
    for label, m in cases:
        build_complex(systems[label], m)
    assert len(calls) == 0
