import json
from fractions import Fraction

import numpy as np
import pytest

from clustercomplexes import roots
from clustercomplexes.cli import run
from clustercomplexes.coxeter import bipartite_coxeter
from clustercomplexes.exact import ZERO, Scalar, dot
from clustercomplexes.roots import (CoordinateRootSystem, DihedralRootSystem,
                                    Root, build_root_system, classify)
from exact_oracles import bipartition, enumerate_group, root_system_from_dict

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
        rs = build_root_system("A", 2)
        assert {rs.expansion(r) for r in rs.positive_roots} == \
            {(1, 0), (0, 1), (1, 1)}

    def test_supported_type_listing_in_errors(self):
        with pytest.raises(ValueError, match="supported"):
            build_root_system("Z9")
        with pytest.raises(ValueError, match="supported"):
            build_root_system("D", 2)
        with pytest.raises(ValueError):
            build_root_system("E6", 7)

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
                        assert rs.orthogonal(a, b)

    def test_reducible_rejected(self):
        rs = build_root_system("A1xA1")
        with pytest.raises(ValueError):
            bipartition(rs)


class TestParabolic:

    def test_a3_drop_middle(self):
        rs = build_root_system("A3")
        middle = next(r for r in rs.simple_roots
                      if sum(1 for s in rs.simple_roots
                             if s != r and not rs.orthogonal(r, s)) == 2)
        sub = rs.parabolic(middle)
        assert classify(sub) == "A1xA1"
        assert len(sub.positive_roots) == 2
        assert not sub.is_irreducible

    def test_a2_drop_first(self):
        rs = build_root_system("A2")
        sub = rs.parabolic(rs.simple_roots[0])
        assert classify(sub) == "A1"
        assert len(sub.positive_roots) == 1

    def test_b3_drop_long_end(self):
        rs = build_root_system("B3")
        # remove the simple root orthogonal to the short root e3
        target = next(r for r in rs.simple_roots
                      if all(x.sign() == 0 or abs(x) == 1 for x in r.coords)
                      and r.coords[2].sign() == 0 and r.coords[0].sign() != 0)
        sub = rs.parabolic(target)
        assert len(sub.positive_roots) == 4
        assert classify(sub) == "B2"

    def test_non_simple_rejected(self):
        rs = build_root_system("A2")
        with pytest.raises(ValueError):
            rs.parabolic(rs.positive_roots[-1])

    def test_root_count_matches_support_filter(self):
        for label in ("A3", "B3", "G2"):
            rs = build_root_system(label)
            for i, removed in enumerate(rs.simple_roots):
                sub = rs.parabolic(removed)
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


class TestSerialization:

    def test_roundtrip_b3(self):
        rs = build_root_system("B3")
        data = json.loads(json.dumps(rs.to_dict()))
        assert set(data) == {"type", "rank", "simple_roots", "positive_roots",
                             "split_s"}
        assert data["type"] == "B3" and data["rank"] == 3
        assert all(len(q) == 4 for row in data["simple_roots"] for q in row)
        back = root_system_from_dict(data)
        assert classify(back) == "B3"
        assert len(back.positive_roots) == 9
        assert back.split_s == rs.split_s

    def test_dihedral_dict(self):
        rs = build_root_system("I2(7)")
        data = rs.to_dict()
        assert data["dihedral_order"] == 7
        assert data["split_s"] == 1


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
        rs = build_root_system("I2", dihedral_order=2)
        assert rs.numerology().exponents == (1, 1)
        with pytest.raises(ValueError):
            build_root_system("I2", dihedral_order=1)

    def test_products_with_dihedral_factors_rejected(self):
        with pytest.raises(ValueError, match="dihedral"):
            build_root_system("A1xI2(5)")


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
        a1, a2 = (Root(coords=c) for c in roots._simples_A(2))
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
            CoordinateRootSystem(roots._simples_A(2), label="A2")

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
