from fractions import Fraction

import numpy as np
import pytest

from clustercomplexes import exact, roots
from clustercomplexes.cli import run
from clustercomplexes.coxeter import bipartite_coxeter
from clustercomplexes.exact import ZERO, Scalar, dot
from clustercomplexes.roots import (CoordinateRootSystem, DihedralRootSystem,
                                    Root, build_root_system)
from exact_oracles import (bipartition, classify, enumerate_group, orthogonal,
                           parabolic, scalar_h4_simples, scalar_root_system)

EXPECTED = {
    # label -> (positive root count, coxeter number, exponents)
    "A1": (1, 2, (1,)),
    "A2": (3, 3, (1, 2)),
    "A3": (6, 4, (1, 2, 3)),
    "A4": (10, 5, (1, 2, 3, 4)),
    "B2": (4, 4, (1, 3)),
    "B3": (9, 6, (1, 3, 5)),
    "B4": (16, 8, (1, 3, 5, 7)),
    "C3": (9, 6, (1, 3, 5)),
    "C4": (16, 8, (1, 3, 5, 7)),
    "D4": (12, 6, (1, 3, 3, 5)),
    "F4": (24, 12, (1, 5, 7, 11)),
    "G2": (6, 6, (1, 5)),
    "H3": (15, 10, (1, 5, 9)),
    "H4": (60, 30, (1, 11, 19, 29)),
    "E6": (36, 12, (1, 4, 5, 7, 8, 11)),
    "I2(5)": (5, 5, (1, 4)),
    "I2(7)": (7, 7, (1, 6)),
    "I2(8)": (8, 8, (1, 7)),
}


def simple_basis_matrix(w):
    """Float matrix of w on the root span in the simple-root basis.

    Column j is expansion(w(alpha_j)), read from the permutation.
    """
    rs = w.system
    cols = [[float(c) for c in rs.expansion(w.apply(a))] for a in rs.simple_roots]
    return np.array(cols).T


def eigenvalue_exponent_oracle(rs):
    """Exponents from the rotation angles of the bipartite Coxeter element.

    Numeric (test-side only): the eigenvalues of the element on the root
    span are exp(2*pi*i*e/h).
    """
    eigenvalues = np.linalg.eigvals(simple_basis_matrix(bipartite_coxeter(rs)))
    h = rs.numerology().coxeter_number
    raw = sorted((np.angle(ev) % (2 * np.pi)) * h / (2 * np.pi) for ev in eigenvalues)
    rounded = [round(x) for x in raw]
    assert all(abs(x - r) < 1e-9 for x, r in zip(raw, rounded))
    return tuple(rounded)


class TestConstruction:

    @pytest.mark.parametrize("label", sorted(EXPECTED))
    def test_counts_and_numerology(self, label):
        rs = build_root_system(label)
        count, h, exps = EXPECTED[label]
        assert len(rs.positive_roots) == count
        num = rs.numerology()
        assert num.coxeter_number == h
        assert num.exponents == exps
        assert num.positive_root_count == count
        assert sum(exps) == count
        if rs.rank:
            assert h == 2 * count // rs.rank

    def test_a2_positive_roots(self):
        rs = build_root_system("A2")
        assert {rs.expansion(r) for r in rs.positive_roots} == \
            {(1, 0), (0, 1), (1, 1)}

    def test_supported_type_listing_in_errors(self):
        with pytest.raises(ValueError, match="supported"):
            build_root_system("Z9")
        with pytest.raises(ValueError, match="supported"):
            build_root_system("D2")
        with pytest.raises(ValueError, match="'E9'"):
            build_root_system("E9")

    @pytest.mark.parametrize("a,b", [
        (" A2 ", "A2"), ("I2 (5)", "I2(5)"), (" A1 x A2", "A1xA2")],
        ids=["padded", "I2-spaced", "product"])
    def test_every_form_of_a_label_gives_one_system(self, a, b):
        assert build_root_system(a) is build_root_system(b)

    @pytest.mark.parametrize("label, names", [
        ("B2xC2", ["B2", "C2"]), ("D3xA1", ["D3", "A1"]),
        ("C2xA1", ["C2", "A1"]), ("A1xH3xA1", ["A1", "H3", "A1"])])
    def test_a_product_names_its_components_by_its_factors(self, label, names):
        assert [c.label for c in build_root_system(label).components] == names

    @pytest.mark.parametrize("label", ["A2xA1", "A3"])
    def test_a_label_names_each_component_with_its_rank(self, label):
        rs = CoordinateRootSystem(conventional_coords("A1xA2"), label=label)
        with pytest.raises(ValueError, match="one factor per diagram"):
            rs.components

    @pytest.mark.parametrize("label", [
        "Z9", "A", "A0", "D2", "E66", "E9", "I2(1)", "I2", "A1xZ2", "",
        "I25", "A(2", "A2)", "E(8)", "A\u0663"],
        ids=["Z9", "A", "A0", "D2", "E66", "E9", "I2(1)", "I2", "A1xZ2",
             "empty", "I25", "A(2", "A2)", "E(8)", "A-arabic-3"])
    def test_bad_labels_still_raise(self, label):
        with pytest.raises(ValueError):
            build_root_system(label)

    def test_closure_under_simple_reflections(self):
        for label in ("A3", "B3", "G2", "H3"):
            rs = build_root_system(label)
            for simple in rs.simple_roots:
                refl = rs.reflection(simple)
                for root in rs.roots:
                    image = refl.apply(root)  # raises if outside the system
                    assert image in rs.roots or True
                    rs.index_of(image)

    @pytest.mark.parametrize("label", sorted(
        [k for k in EXPECTED if not k.startswith("I2")] + ["A1xA2", "B2xG2"]))
    def test_reflections_by_conjugation_match_matrices(self, label):
        # the reflection formula x - 2 (x, a)/(a, a) a on each root's coordinates
        rs = build_root_system(label)
        for r in rs.positive_roots:
            a = r.coords
            scale = Scalar(2) / dot(a, a)
            want = tuple(
                rs.index_of(Root(coords=[y - c * z for y, z in zip(x.coords, a)]))
                for x in rs.roots for c in [scale * dot(x.coords, a)])
            assert rs.reflection(r).perm == want
            assert rs.reflection(rs.negate(r)) is rs.reflection(r)

    def test_positive_roots_have_nonnegative_expansions(self):
        for label in ("B3", "F4", "H3"):
            rs = build_root_system(label)
            for root in rs.positive_roots:
                assert all(c.sign() >= 0 for c in rs.expansion(root))


class TestBipartition:

    def test_a2(self):
        rs = build_root_system("A2")
        plus, minus = bipartition(rs)
        assert [rs.expansion(r) for r in plus] == [(1, 0)]
        assert [rs.expansion(r) for r in minus] == [(0, 1)]

    def test_a3(self):
        rs = build_root_system("A3")
        plus, minus = bipartition(rs)
        assert len(plus) == 2 and len(minus) == 1

    def test_a1_has_empty_minus_block(self):
        rs = build_root_system("A1")
        plus, minus = bipartition(rs)
        assert len(plus) == 1 and minus == []

    def test_blocks_pairwise_orthogonal(self):
        for label in ("A3", "B3", "D4", "F4", "H3", "E6"):
            rs = build_root_system(label)
            plus, minus = bipartition(rs)
            for block in (plus, minus):
                for i, a in enumerate(block):
                    for b in block[i + 1:]:
                        assert orthogonal(rs, a, b)

    def test_reducible_rejected(self):
        rs = build_root_system("A1xA1")
        with pytest.raises(ValueError):
            bipartition(rs)


class TestParabolic:

    def test_a3_drop_middle(self):
        rs = build_root_system("A3")
        middle = next(r for r in rs.simple_roots
                      if sum(1 for s in rs.simple_roots
                             if s != r and not orthogonal(rs, r, s)) == 2)
        sub = parabolic(rs, middle)
        assert classify(sub) == "A1xA1"
        assert len(sub.positive_roots) == 2
        assert not sub.is_irreducible

    def test_a2_drop_first(self):
        rs = build_root_system("A2")
        sub = parabolic(rs, rs.simple_roots[0])
        assert classify(sub) == "A1"
        assert len(sub.positive_roots) == 1

    def test_b3_drop_long_end(self):
        rs = build_root_system("B3")
        # remove the simple root orthogonal to the short root e3
        target = next(r for r in rs.simple_roots
                      if all(x.sign() == 0 or abs(x) == 1 for x in r.coords)
                      and r.coords[2].sign() == 0 and r.coords[0].sign() != 0)
        sub = parabolic(rs, target)
        assert len(sub.positive_roots) == 4
        assert classify(sub) == "B2"

    def test_non_simple_rejected(self):
        rs = build_root_system("A2")
        with pytest.raises(ValueError):
            parabolic(rs, rs.positive_roots[-1])

    def test_root_count_matches_support_filter(self):
        for label in ("A3", "B3", "G2", "I2(5)"):
            rs = build_root_system(label)
            for i, removed in enumerate(rs.simple_roots):
                sub = parabolic(rs, removed)
                kept = set(range(rs.rank)) - {i}
                direct = [r for r in rs.positive_roots
                          if rs.support(r) <= kept]
                assert len(sub.positive_roots) == len(direct)


class TestSupport:

    def test_highest_root_a2(self):
        rs = build_root_system("A2")
        full = next(r for r in rs.positive_roots if rs.expansion(r) == (1, 1))
        assert rs.support(full) == {0, 1}

    def test_simple_root(self):
        rs = build_root_system("A2")
        assert rs.support(rs.simple_roots[0]) == {0}

    def test_highest_root_b2(self):
        rs = build_root_system("B2")
        top = max(rs.positive_roots,
                  key=lambda r: sum(int(c.a) for c in rs.expansion(r)))
        assert rs.support(top) == {0, 1}

    def test_negative_root_rejected(self):
        rs = build_root_system("A2")
        with pytest.raises(ValueError):
            rs.support(rs.negate(rs.positive_roots[0]))


class TestExponentOracles:

    @pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3",
                                       "B4", "C3", "C4", "D4", "F4", "G2",
                                       "H3", "H4", "E6"])
    def test_eigenvalue_angles(self, label):
        rs = build_root_system(label)
        assert eigenvalue_exponent_oracle(rs) == rs.numerology().exponents

    @pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3", "G2", "H3"])
    def test_fixed_space_statistic(self, label):
        rs = build_root_system(label)
        elements = enumerate_group(rs)
        exps = rs.numerology().exponents
        order = 1
        for e in exps:
            order *= e + 1
        assert len(elements) == order
        # Shephard-Todd/Solomon: sum_w t^(dim Fix w) = prod (t + e_i)
        for t in range(0, 4):
            lhs = sum(t ** (rs.rank - w.length) for w in elements)
            rhs = 1
            for e in exps:
                rhs *= t + e
            assert lhs == rhs


class TestDihedralModel:

    def test_i2_is_index_based(self):
        rs = build_root_system("I2(7)")
        assert isinstance(rs, DihedralRootSystem)
        assert all(r.coords is None for r in rs.roots)

    def test_interior_support(self):
        rs = build_root_system("I2(5)")
        assert rs.support(rs.positive_roots[0]) == {0}
        assert rs.support(rs.positive_roots[4]) == {1}
        assert rs.support(rs.positive_roots[2]) == {0, 1}

    def test_small_orders(self):
        rs = build_root_system("I2(2)")
        assert rs.numerology().exponents == (1, 1)
        for label in ("I2(1)", "I2"):
            with pytest.raises(ValueError, match="dihedral order"):
                build_root_system(label)

    def test_orthogonality_by_angle(self):
        rs = build_root_system("I2(4)")
        right, diagonal = rs.positive_roots[2], rs.positive_roots[1]
        assert orthogonal(rs, rs.positive_roots[0], right)
        assert not orthogonal(rs, rs.positive_roots[0], diagonal)

    def test_products_with_dihedral_factors_rejected(self):
        with pytest.raises(ValueError, match="dihedral"):
            build_root_system("A1xI2(5)")

    @pytest.mark.parametrize("m", range(2, 13))
    def test_reflections_by_conjugation_match_the_angle_formula(self, m):
        # the reflection in the line orthogonal to the root at angle k*pi/m
        # sends the root at angle j*pi/m to the one at (2k + m - j)*pi/m
        rs = DihedralRootSystem(m)
        for k, root in enumerate(rs.roots):
            assert rs.reflection(root).perm == tuple(
                (2 * k + m - j) % (2 * m) for j in range(2 * m))


class TestClassification:

    @pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "F4", "G2",
                                       "H3", "E6"])
    def test_self_classification(self, label):
        rs = build_root_system(label)
        assert classify(rs) == label


SUPPORTED = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3",
             "D4", "D5", "E6", "E7", "E8", "F4", "G2", "H3", "H4", "I2(2)",
             "I2(5)", "I2(8)", "A1xA2", "B2xG2"]


class TestRootKeys:

    @pytest.mark.parametrize("label", SUPPORTED)
    def test_keys_are_equal_exactly_when_coordinates_are(self, label):
        rs = build_root_system(label)
        for r in rs.roots:
            if r.coords is not None:
                assert all(type(n) is int for n in r.key)
                rebuilt = Root(coords=[Scalar(x.a, x.b) for x in r.coords])
                assert rebuilt.key == r.key and rebuilt == r
        for r1 in rs.roots:
            for r2 in rs.roots:
                same = r1.coords == r2.coords if r1.coords is not None \
                    else r1.angle == r2.angle
                assert (r1.key == r2.key) == same

    def test_keys_separate_rational_and_sqrt5_parts(self):
        values = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3, 4)]
        scalars = [Scalar(a, b) for a in values for b in values[::5]]
        for x in scalars:
            for y in scalars:
                assert (Root(coords=[x, ZERO]).key == Root(coords=[y, ZERO]).key) \
                    == (x == y)

    @pytest.mark.parametrize("label", ["A1xA2", "B2xG2"])
    def test_components_share_the_parents_keys(self, label):
        rs = build_root_system(label)
        assert len(rs.components) == 2
        for comp in rs.components:
            for r in comp.roots:
                assert rs.roots[rs.index_of(r)].coords == r.coords
        assert sum(len(c.roots) for c in rs.components) == len(rs.roots)


class TestSimpleReflectionsFromTheClosure:

    @pytest.mark.parametrize("label", [k for k in SUPPORTED if "I2" not in k])
    def test_involution_negating_its_root_and_permuting_the_rest(self, label):
        rs = build_root_system(label)
        npos = len(rs.positive_roots)
        for a in rs.simple_roots:
            perm = rs.reflection(a).perm
            i = rs.index_of(a)
            assert all(perm[perm[k]] == k for k in range(len(perm)))
            assert rs.roots[perm[i]] == rs.negate(a)
            assert all(perm[p] < npos for p in range(npos) if p != i)

    @pytest.mark.parametrize("corrupt", ["negative image", "simple root kept",
                                         "not an involution"])
    def test_a_corrupt_closure_raises(self, monkeypatch, corrupt):
        # A2: s_1 sends a1 to -a1, a2 to a1 + a2 and a1 + a2 to a2
        a1, a2 = (Root(coords=c) for c in roots._simples_classical("A", 2))
        top = Root(coords=[x + y for x, y in zip(a1.coords, a2.coords)])
        real = roots._positive_closure

        def corrupted(simples):
            positives, expansions, images = real(simples)
            if corrupt == "negative image":
                images[top.key][0] = None
            elif corrupt == "simple root kept":
                images[a1.key][0] = a1.key
            else:
                images[a2.key][0] = a2.key
            return positives, expansions, images

        monkeypatch.setattr(roots, "_positive_closure", corrupted)
        with pytest.raises(RuntimeError, match="simple reflection"):
            CoordinateRootSystem(roots._simples_classical("A", 2), label="A2")

    def test_a_corrupt_closure_exits_1(self, monkeypatch, capsys):
        real = roots._positive_closure

        def corrupted(simples):
            positives, expansions, images = real(simples)
            images[positives[0].key][0] = positives[0].key
            return positives, expansions, images

        monkeypatch.setattr(roots, "_positive_closure", corrupted)
        monkeypatch.setattr(roots, "_build_cache", {})
        assert run(["build", "--phi", "A2", "--m", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: simple reflection")


SWEEP = (["A%d" % n for n in range(1, 9)] + ["B%d" % n for n in range(2, 9)]
         + ["C%d" % n for n in range(2, 7)] + ["D%d" % n for n in range(3, 9)]
         + ["E6", "E7", "E8", "F4", "G2", "H3", "H4", "A1xA2", "B2xG2",
            "A2xA2", "A1xA1xA1", "H3xA1"])


def conventional_coords(label):
    """The simple coordinates a label is built from, before any reordering.

    A product gets its factors' in orthogonal coordinate blocks.
    """
    factors = []
    for part in label.split("x"):
        family, rank, _ = roots.parse_label(part)
        factors.append(roots._FIXED[family]() if family in roots._FIXED
                       else roots._simples_classical(family, rank))
    total = sum(len(f[0]) for f in factors)
    out, offset = [], 0
    for f in factors:
        for row in f:
            out.append([0] * offset + list(row)
                       + [0] * (total - offset - len(row)))
        offset += len(f[0])
    return out


class TestIntegerSetUp:
    """The int-pair set-up against the Scalar reference in the oracles."""

    @pytest.mark.parametrize("label", SWEEP)
    def test_matches_the_scalar_reference(self, label):
        coords = conventional_coords(label)
        rs = CoordinateRootSystem(coords, label=label)
        ref = scalar_root_system(coords)
        # roots put together from the int-pair memo carry the keys of the
        # Scalar route and the keys their own coordinates give
        assert [r.key for r in rs.roots] == ref["roots"]
        assert all(Root(coords=r.coords).key == r.key for r in rs.roots)
        assert all(rs.expansion(r) == ref["expansions"][r.key]
                   for r in rs.roots)
        assert rs.split_s == ref["split_s"]
        assert rs.simple_positions == ref["simple_positions"]
        assert [rs.reflection(a).perm for a in rs.simple_roots] == \
            ref["simple_perms"]
        if "x" in label:
            assert [c.label for c in rs.components] == ref["components"]

    def test_h4_simple_system_matches_the_scalar_search(self):
        assert roots._simples_H4() == scalar_h4_simples()

    def test_a_cartan_entry_outside_z_phi_raises(self):
        # (a1, a2) = 3 and (a1, a1) = 9: <a2, a1^vee> = 2/3
        with pytest.raises(ValueError, match=r"not in Z\[phi\]"):
            CoordinateRootSystem([[3, 0], [1, 1]])
        # 2 (a1, a2) / (a1, a1) = 2 sqrt5 / 4 = sqrt5 / 2, not in Z[phi]
        with pytest.raises(ValueError, match=r"not in Z\[phi\]"):
            CoordinateRootSystem([[2, 0], [Scalar(0, 1) / 2, 1]])

    def test_a_corrupted_norm_raises(self, monkeypatch):
        # A2's Gram matrix with a B2 Cartan column: a1 + 2 a2 has norm 6
        real = roots._cartan

        def corrupted(gram):
            columns = real(gram)
            columns[1] = [(j, 2 * p, 2 * q) if j == 0 else (j, p, q)
                          for j, p, q in columns[1]]
            return columns

        monkeypatch.setattr(roots, "_cartan", corrupted)
        with pytest.raises(RuntimeError, match="norm"):
            CoordinateRootSystem(roots._simples_classical("A", 2), label="A2")

    def test_set_up_does_no_scalar_arithmetic(self, monkeypatch):
        coords = {label: conventional_coords(label)
                  for label in ("F4", "E8", "H4")}
        calls = []

        def counting(name, real):
            def shim(*args):
                calls.append(name)
                return real(*args)
            return shim

        monkeypatch.setattr(exact, "dot", counting("dot", exact.dot))
        # a name bound in roots by a later import would be read from here
        monkeypatch.setattr(roots, "dot", counting("dot", exact.dot),
                            raising=False)
        for name in ("__mul__", "__rmul__", "__add__", "__radd__",
                     "__sub__", "__rsub__", "__truediv__", "__rtruediv__"):
            monkeypatch.setattr(Scalar, name,
                                counting(name, getattr(Scalar, name)))
        for label, simple in coords.items():
            rs = CoordinateRootSystem(simple, label=label)
            rs.components, rs.numerology()
        roots._simples_H4()
        product = roots.product_system([build_root_system("B3"),
                                        build_root_system("H3")])
        [c.label for c in product.components]
        assert calls == []
        assert Scalar(1) + Scalar(1) == 2 and calls == ["__add__"]
