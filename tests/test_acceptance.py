"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible under ``pytest -s`` or
on failure) and enforces the stated wall-clock budget.  Every expected
value is pinned here; nothing is deferred to later calibration.
"""
import itertools
import subprocess
import sys
import time
from pathlib import Path

from clustercomplexes.colored import (build_complex, fr_compatible,
                                      get_context, is_face, positive_part,
                                      typeA_polygon_oracle)
from clustercomplexes.coxeter import absolute_leq, rho_sequence, total_order
from clustercomplexes.noncrossing import (build_Lm, homotopy_compare, moebius,
                                          nc_interval)
from clustercomplexes.roots import build_root_system
from clustercomplexes.topology import (codim1_incidence, construct_shelling,
                                       fuss_catalan, homology, kcm_audit,
                                       verify_shelling, verify_wedge)
from exact_oracles import (enumerate_group, facets_as_label_sets,
                           one_line_permutation, typeA_absolute_leq,
                           typeA_reflection_length)

MATRIX = [(label, m) for label in ("A2", "A3", "B2", "B3", "G2")
          for m in (1, 2, 3)]


def report(criterion, ok, started, budget):
    elapsed = time.time() - started
    print("ACCEPTANCE %-38s %s  (%.1fs / budget %ds)"
          % (criterion, "PASS" if ok else "FAIL", elapsed, budget))
    assert ok, criterion
    assert elapsed < budget, "%s exceeded its %ds budget (%.1fs)" % (
        criterion, budget, elapsed)


def test_criterion_01_small_rank_facet_fidelity(complexes):
    t0 = time.time()
    _, cx1, _ = complexes("A2", 1)
    _, cx2, _ = complexes("A2", 2)
    expected_m1 = {
        frozenset(f) for f in [
            ("[1,1]:1", "[0,1]:1"), ("[1,0]:1", "[1,1]:1"),
            ("-s2", "[1,0]:1"), ("-s1", "-s2"), ("[0,1]:1", "-s1")]}
    expected_m2 = {
        frozenset(f) for f in [
            ("[1,0]:1", "[1,1]:1"), ("[1,0]:1", "[1,1]:2"),
            ("[1,0]:2", "[1,1]:2"), ("[1,1]:1", "[0,1]:1"),
            ("[1,1]:1", "[0,1]:2"), ("[1,1]:2", "[0,1]:2"),
            ("[0,1]:1", "[1,0]:2"), ("-s2", "[1,0]:1"), ("-s2", "[1,0]:2"),
            ("[0,1]:1", "-s1"), ("[0,1]:2", "-s1"), ("-s1", "-s2")]}
    ok = (facets_as_label_sets(cx1) == expected_m1
          and facets_as_label_sets(cx2) == expected_m2)
    report("1 facet-list fidelity (rank 2)", ok, t0, 1)


def test_criterion_02_root_sequence_fidelity():
    t0 = time.time()
    rs = build_root_system("A2")
    rho = rho_sequence(rs)

    def tag(root):
        if rs.is_positive(root):
            return "[%s]" % ",".join(str(c) for c in rs.expansion(root))
        return "-[%s]" % ",".join(str(c) for c in
                                  rs.expansion(rs.negate(root)))

    got = [tag(rho[i]) for i in (1, 2, 3, 4, 0)]
    ok = got == ["[1,0]", "[1,1]", "[0,1]", "-[1,0]", "-[0,1]"]
    order = [tag(r) for r in total_order(rs)]
    ok = ok and order == ["-[0,1]", "[1,0]", "[1,1]", "[0,1]", "-[1,0]"]
    report("2 root-sequence fidelity", ok, t0, 1)


def test_criterion_03_definition_equivalence(complexes):
    t0 = time.time()
    ok = True
    for label, m in MATRIX:
        rs, cx, adjacency = complexes(label, m)
        ctx = get_context(rs, m)
        verts = cx.objects
        for i, j in itertools.combinations(range(len(verts)), 2):
            ok = ok and (fr_compatible(rs, m, verts[i], verts[j])
                         == (j in adjacency[i]))
        for facet in cx.facets:  # maximal cliques satisfy the word test
            ok = ok and is_face(ctx, [verts[i] for i in facet])
        if not ok:
            break
    report("3 definition equivalence", ok, t0, 30)


def test_criterion_04_purity_and_incidence(complexes):
    t0 = time.time()
    ok = True
    for label, m in MATRIX:
        rs, cx, _ = complexes(label, m)
        ok = ok and all(len(f) == rs.rank for f in cx.facets)
        ok = ok and set(codim1_incidence(cx)) == {m + 1}
    report("4 purity and incidence", ok, t0, 30)


def test_criterion_05_shelling(complexes, positive_complexes):
    t0 = time.time()
    ok = True
    for label, m in MATRIX:
        _, cx, _ = complexes(label, m)
        pos = positive_complexes(label, m)
        for complex_ in (cx, pos):
            order = construct_shelling(complex_)
            ok = ok and verify_shelling(complex_, order.facets).ok
    report("5 shelling construction", ok, t0, 60)


def test_criterion_06_wedge_counts(complexes, positive_complexes):
    t0 = time.time()
    ok = verify_wedge(positive_complexes("A2", 2), 2, 1)
    ok = ok and verify_wedge(positive_complexes("A3", 2), 5, 2)
    ok = ok and verify_wedge(positive_complexes("A2", 1), 0, 1)
    full = complexes("A2", 2)[1]
    prof = homology(full)
    ok = ok and prof.betti == (0, 5) and not any(prof.torsion)
    for label, m in MATRIX:
        rs, _, _ = complexes(label, m)
        pos = positive_complexes(label, m)
        want = fuss_catalan(rs, m - 1, positive=True)
        sign = 1 if (rs.rank - 1) % 2 == 0 else -1
        ok = ok and pos.euler_characteristic_reduced() == sign * want
    report("6 wedge and sphere counts", ok, t0, 60)


def test_criterion_07_kcm_audits(complexes, positive_complexes):
    t0 = time.time()
    cases = [("A2", 1), ("A2", 2), ("A2", 3), ("A3", 1), ("A3", 2)]
    ok = True
    for label, m in cases:
        _, cx, _ = complexes(label, m)
        ok = ok and kcm_audit(cx, m + 1, mode="exhaustive").passed
        witness = kcm_audit(cx, m + 2, sizes=[m + 1], max_failures=1)
        ok = ok and not witness.passed
        pos = positive_complexes(label, m)
        ok = ok and kcm_audit(pos, m, mode="exhaustive").passed
        pos_witness = kcm_audit(pos, m + 1, sizes=[m], max_failures=1)
        ok = ok and not pos_witness.passed
    report("7 connectivity audits", ok, t0, 600)


def test_criterion_08_polygon_oracle(complexes):
    t0 = time.time()
    ok = True
    for n in (2, 3, 4):
        for m in (1, 2, 3):
            _, cx, _ = complexes("A%d" % (n - 1), m)
            ok = ok and typeA_polygon_oracle(n, m).f_vector() == cx.f_vector()
    report("8 polygon model agreement", ok, t0, 30)


def test_criterion_09_permutation_oracles():
    t0 = time.time()
    rs = build_root_system("A3")
    group = enumerate_group(rs)
    ok = len(group) == 24
    lines = {w: one_line_permutation(w) for w in group}
    for w in group:
        ok = ok and typeA_reflection_length(lines[w]) == w.length
    for u in group:
        for w in group:
            ok = ok and (typeA_absolute_leq(lines[u], lines[w])
                         == absolute_leq(u, w))
    report("9 permutation oracles on S4", ok, t0, 10)


def test_criterion_10_noncrossing_checks(complexes, positive_complexes):
    t0 = time.time()
    ok = True
    for label in ("A2", "A3", "B2", "B3"):
        rs, _, _ = complexes(label, 1)
        interval = nc_interval(rs)
        mu = moebius(interval, 0, len(interval) - 1)
        facets = len(positive_complexes(label, 1).facets)
        sign = 1 if rs.rank % 2 == 0 else -1
        ok = ok and mu == sign * facets
    for label, m in [("A2", 1), ("A2", 2), ("A3", 2)]:
        rs, _, _ = complexes(label, m)
        pos = positive_complexes(label, m)
        poset = build_Lm(nc_interval(rs), m)
        ok = ok and homotopy_compare(rs, m, pos_cx=pos, poset=poset).ok
    report("10 noncrossing checks", ok, t0, 300)


def test_criterion_11_property_suites_standalone():
    t0 = time.time()
    suite = Path(__file__).with_name("test_properties.py")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", str(suite)],
                          capture_output=True, text=True)
    ok = proc.returncode == 0
    if not ok:
        print(proc.stdout[-2000:])
    report("11 property suites standalone", ok, t0, 120)


def test_criterion_12_frontier_facet_counts():
    t0 = time.time()
    # Facets: prod (e_i + m*h + 1)/(e_i + 1);
    # positive part: prod (e_i + m*h - 1)/(e_i + 1).
    # H4, m=1: e = 1, 11, 19, 29 and h = 30, so the denominator is
    #   2*12*20*30 = 14400, the facets 32*42*50*60/14400 = 4032000/14400 = 280,
    #   the positive facets 30*40*48*58/14400 = 3340800/14400 = 232.
    # B4, m=2: e = 1, 3, 5, 7 and h = 8, so the denominator is
    #   2*4*6*8 = 384, the facets 18*20*22*24/384 = 190080/384 = 495,
    #   the positive facets 16*18*20*22/384 = 126720/384 = 330.
    ok = True
    for label, m, facets, positive in (("H4", 1, 280, 232), ("B4", 2, 495, 330)):
        cx, _ = build_complex(build_root_system(label), m)
        ok = ok and len(cx.facets) == facets
        ok = ok and len(positive_part(cx).facets) == positive
    report("12 frontier facet counts (H4, B4)", ok, t0, 15)


def test_criterion_13_frontier_homology():
    t0 = time.time()
    # The full complex is a wedge of N(m-1) spheres and the positive part
    # of N+(m-1), all of dimension n-1:
    # N(0) = 1 and N+(0) = prod (e_i - 1)/(e_i + 1) = 0, since e_1 = 1.
    # B4, m=2: N(1) = 10*12*14*16/384 = 26880/384 = 70 and
    #   N+(1) = 8*10*12*14/384 = 13440/384 = 35.
    ok = True
    for label, m, full, positive in (("H4", 1, 1, 0), ("B4", 2, 70, 35),
                                     ("D5", 1, 1, 0)):
        rs = build_root_system(label)
        cx, _ = build_complex(rs, m)
        ok = ok and (full, positive) == (fuss_catalan(rs, m - 1),
                                         fuss_catalan(rs, m - 1, positive=True))
        ok = ok and homology(cx).concentrated(rs.rank - 1, full)
        ok = ok and homology(positive_part(cx)).concentrated(rs.rank - 1,
                                                             positive)
    report("13 frontier homology (H4, B4, D5)", ok, t0, 15)


def test_criterion_14_frontier_kcm_audit():
    t0 = time.time()
    # D4, m=2 has 2*12 + 4 = 28 vertices, so the exhaustive 3-CM audit
    # examines 1 + 28 + 28*27/2 = 407 removals.
    cx, _ = build_complex(build_root_system("D4"), 2)
    rep = kcm_audit(cx, 3, mode="exhaustive")
    ok = rep.examined == 407 and rep.passed
    report("14 frontier k-CM audit (D4 m=2)", ok, t0, 15)
