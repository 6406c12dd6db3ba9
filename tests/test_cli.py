import argparse
import contextlib
import io
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clustercomplexes
from clustercomplexes import cli
from clustercomplexes.cli import run
from clustercomplexes.simplicial import SimplicialComplex
from clustercomplexes.topology import (ShellingFailure, ShellingOrder,
                                       fuss_catalan)


def test_build_writes_twelve_facets(tmp_path):
    out = tmp_path / "cx.json"
    code = run(["build", "--phi", "A2", "--m", "2", "--out", str(out),
                "--format", "json"])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["facets"]) == 12
    assert data["f_vector"] == [1, 8, 12]
    assert data["version"] == "0.1.0"
    assert data["config"]["phi"] == "A2"


def test_verify_all_smallest_case():
    assert run(["verify-all", "--phi", "A2", "--m", "1"]) == 0


def _recording_tables(monkeypatch) -> list:
    """The facet list of every face table built from now on, in turn."""
    from clustercomplexes import topology
    tables = []
    real = topology._FaceTable.__init__

    def recording(self, facets):
        tables.append(tuple(facets))
        real(self, facets)

    monkeypatch.setattr(topology._FaceTable, "__init__", recording)
    return tables


@pytest.mark.parametrize("phi, m", [("A2", 1), ("B3", 2), ("I2(5)", 2),
                                    ("A1xA2", 2), ("D4", 1)])
def test_verify_all_builds_the_audit_data_once(phi, m, monkeypatch, capsys):
    # the (m+1)-CM audit and the witness search read one face table of the
    # complex, with one link index and one memo of link verdicts; the
    # positive part's homology is read off that table too, so only the
    # homotopy comparison (irreducible, rank <= 3) builds more: one table
    # of the positive part, for its face-to-tuple map, and one of the
    # order complex
    from clustercomplexes import topology
    built = []
    real = topology._Audit.__init__

    def recording(self, cx, table):
        built.append(cx)
        real(self, cx, table)

    monkeypatch.setattr(topology._Audit, "__init__", recording)
    tables = _recording_tables(monkeypatch)
    assert run(["verify-all", "--phi", phi, "--m", str(m)]) == 0
    capsys.readouterr()
    rs = clustercomplexes.build_root_system(phi)
    cx, _ = clustercomplexes.build_complex(rs, m)
    assert len(built) == 1
    assert built[0].dimension() == rs.rank - 1
    if rs.is_irreducible and rs.rank <= 3:
        assert tables[:2] == [cx.facets,
                              clustercomplexes.positive_part(cx).facets]
        assert len(tables) == 3
    else:
        assert tables == [cx.facets]


@pytest.mark.parametrize("phi, m", [("A2", 0), ("A2", 2), ("B3", 1),
                                    ("A1xB2", 2), ("D4", 1)])
def test_homology_builds_one_face_table(phi, m, monkeypatch, capsys):
    # the positive part is read off the complex's own table
    tables = _recording_tables(monkeypatch)
    assert run(["homology", "--phi", phi, "--m", str(m)]) == 0
    capsys.readouterr()
    cx, _ = clustercomplexes.build_complex(
        clustercomplexes.build_root_system(phi), m)
    assert tables == [cx.facets]


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("phi", ["A1", "A2", "B2", "G2", "A1xA1", "A1xA2",
                                 "A1xB2", "A2xA2", "A1xA1xA1"]
                         + ["I2(%d)" % q for q in range(2, 13)])
def test_shelling_counts_the_facets(phi, m, capsys):
    assert run(["shelling", "--phi", phi, "--m", str(m),
                "--format", "json"]) == 0
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert all(c["ok"] for c in checks.values())
    rs = clustercomplexes.build_root_system(phi)
    assert checks["shelling-full"]["detail"]["facets"] == fuss_catalan(rs, m)
    # at m = 0 the positive part is {()}: one empty facet
    assert checks["shelling-positive"]["detail"]["facets"] == \
        (fuss_catalan(rs, m, positive=True) if m else 1)


@pytest.mark.parametrize("m", range(3))
@pytest.mark.parametrize("phi", ["A1", "A2", "B2", "G2", "A1xA1", "A1xA2",
                                 "I2(5)", "A3", "B3"])
def test_verify_all_reads_spheres_and_h_vector_off_the_shelling(phi, m, capsys):
    assert run(["verify-all", "--phi", phi, "--m", str(m),
                "--format", "json"]) == 0
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    rs = clustercomplexes.build_root_system(phi)
    full = checks["shelling-spheres-full"]
    positive = checks["shelling-spheres-positive"]
    assert full["ok"] and positive["ok"]
    # Delta^0 is a simplex, and its positive part {()} one (-1)-sphere
    assert full["detail"]["spheres"] == (fuss_catalan(rs, m - 1) if m else 0)
    assert positive["detail"]["spheres"] == \
        (fuss_catalan(rs, m - 1, positive=True) if m else 1)
    assert checks["wedge-positive"]["detail"]["expected"] == \
        positive["detail"]["spheres"]
    for name in ("full", "positive"):
        h = checks["shelling-h-vector-%s" % name]
        assert h["ok"] and sum(h["detail"]["h_vector"]) == \
            checks["shelling-%s" % name]["detail"]["facets"]


@pytest.mark.parametrize("flags", [[], ["--mode", "exhaustive"], ["--k", "2"],
                                   ["--mode", "sample", "--k", "9"]])
def test_verify_all_records_the_audit_it_ran(flags, capsys):
    # G2 m=4 has 17,902 removals of at most 4 of its 26 vertices, above
    # the exhaustive cap, so the 5-CM audit samples whatever the flags
    # say; A2 m=1 has 6 and is audited exhaustively at k = 2
    for phi, m, mode in (("G2", 4, "sample"), ("A2", 1, "exhaustive")):
        assert run(["verify-all", "--phi", phi, "--m", str(m),
                    "--format", "json"] + flags) == 0
        report = json.loads(capsys.readouterr().out)
        kcm = next(c for c in report["checks"] if c["id"] == "kcm")
        assert kcm["detail"]["mode"] == report["config"]["mode"] == mode
        assert kcm["detail"]["k"] == report["config"]["k"] == m + 1


def test_verify_all_samples_past_the_exhaustive_cap(monkeypatch, capsys):
    # A2 m=1 has 6 removals of at most one of its 5 vertices
    for cap, mode in ((6, "exhaustive"), (5, "sample")):
        monkeypatch.setattr(cli, "EXHAUSTIVE_CAP", cap)
        assert run(["verify-all", "--phi", "A2", "--m", "1",
                    "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        kcm = next(c for c in report["checks"] if c["id"] == "kcm")
        assert kcm["detail"]["mode"] == report["config"]["mode"] == mode


@pytest.mark.parametrize("command", ["shelling", "verify-all"])
def test_a_failed_shelling_names_its_facets_by_label(command, monkeypatch,
                                                     capsys):
    def failing(cx):
        # step 1 fails, its restriction face lying in the first facet
        raise ShellingFailure(ShellingOrder(cx.facets, failure=(1, 0)))

    monkeypatch.setattr(cli, "construct_shelling", failing)
    assert run([command, "--phi", "A2", "--m", "2", "--format", "json"]) == 1
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    cx, _ = clustercomplexes.build_complex(
        clustercomplexes.build_root_system("A2"), 2)
    for name, complex_ in (("full", cx),
                           ("positive", clustercomplexes.positive_part(cx))):
        first, second = ([complex_.vertices[v] for v in f]
                         for f in complex_.facets[:2])
        assert checks["shelling-" + name] == {
            "id": "shelling-" + name, "ok": False,
            "detail": {"facets": len(complex_.facets), "step": 1,
                       "facet": second, "earlier": first}}
        assert "shelling-spheres-" + name not in checks


def test_verify_all_fails_on_wrong_restriction_faces(monkeypatch, capsys):
    real = cli.construct_shelling

    def emptied(cx):
        order = real(cx)
        order.restrictions = tuple(() for _ in order.restrictions)
        return order

    monkeypatch.setattr(cli, "construct_shelling", emptied)
    # A2 m=2: five spheres, and two in the positive part
    assert run(["verify-all", "--phi", "A2", "--m", "2",
                "--format", "json"]) == 1
    checks = {c["id"]: c["ok"]
              for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["shelling-full"] and checks["shelling-positive"]
    assert not any(checks["shelling-%s-%s" % (kind, name)]
                   for kind in ("spheres", "h-vector")
                   for name in ("full", "positive"))


@pytest.mark.parametrize("m", range(3))
@pytest.mark.parametrize("phi", ["A1", "A2", "B2", "G2", "A1xA1", "I2(5)"])
def test_sampled_kcm_survives_removals_larger_than_the_vertex_set(phi, m,
                                                                  capsys):
    for k in range(1, 9):
        code = run(["kcm", "--phi", phi, "--m", str(m), "--k", str(k),
                    "--mode", "sample", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == (0 if report["audit"]["passed"] else 1), k


def test_sampled_kcm_finds_the_exhaustive_witness(capsys):
    failures = []
    for mode in ("sample", "exhaustive"):
        assert run(["kcm", "--phi", "A1", "--m", "1", "--k", "5", "--mode",
                    mode, "--format", "json"]) == 1
        failures.append(json.loads(capsys.readouterr().out)["audit"]["failures"])
    assert failures[0] == failures[1]
    assert [f["reason"] for f in failures[0]] == ["dimension-drop"]


def test_kcm_failure_exit_code_and_witness(tmp_path, capsys):
    out = tmp_path / "kcm.json"
    code = run(["kcm", "--phi", "A2", "--m", "2", "--k", "4", "--mode",
                "exhaustive", "--format", "json", "--out", str(out)])
    assert code == 1
    data = json.loads(out.read_text())
    failures = data["audit"]["failures"]
    assert failures and len(failures[0]["removed"]) == 3


def test_usage_error_exit_code():
    assert run(["build"]) == 2
    assert run(["nonsense"]) == 2
    assert run(["build", "--phi", "Z9"]) == 2


def test_vertex_cap_guard(capsys):
    assert run(["build", "--phi", "I2(60)", "--m", "4"]) == 2
    assert "cap" in capsys.readouterr().err
    assert run(["build", "--phi", "A3", "--m", "2",
                "--cap-vertices", "10"]) == 2
    assert "cap" in capsys.readouterr().err


def test_rank_and_color_guards(capsys):
    assert run(["build", "--phi", "E7", "--m", "1"]) == 2
    assert "rank" in capsys.readouterr().err
    assert run(["build", "--phi", "A1", "--m", "5"]) == 2


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["homology", "--phi", "A2", "--m", "2", "--seed", "5",
                    "--format", "json", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fvector_csv(tmp_path):
    out = tmp_path / "f.csv"
    assert run(["fvector", "--phi", "A2", "--m", "2", "--format", "csv",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("complex")
    assert any("[1, 8, 12]" in line for line in lines)


def test_incidence_and_shelling_and_polygon():
    assert run(["incidence", "--phi", "B2", "--m", "2"]) == 0
    assert run(["shelling", "--phi", "B2", "--m", "2"]) == 0
    assert run(["polygon", "--phi", "A2", "--m", "2"]) == 0


def test_ncp_command():
    assert run(["ncp", "--phi", "A2", "--m", "1"]) == 0


def test_ncp_guards_m0_and_reducible_systems(capsys):
    assert run(["ncp", "--phi", "A2", "--m", "0"]) == 2
    assert "ncp needs m >= 1" in capsys.readouterr().err
    assert run(["ncp", "--phi", "A1xA2", "--m", "1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("phi", ["A1xA1", "A1xA2", "A1xB2", "B2xG2"])
def test_ncp_on_products(phi, m, capsys):
    assert run(["ncp", "--phi", phi, "--m", str(m), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] and all(c["ok"] for c in report["checks"])
    size = 1
    for comp in clustercomplexes.build_root_system(phi).components:
        size *= fuss_catalan(comp, m)
    assert report["poset_size"] == size
    checks = {c["id"]: c for c in report["checks"]}
    assert checks["ncp-poset-size"]["detail"] == {"expected": size}


@pytest.mark.parametrize("phi, m", [("B3", 1), ("A2", 3), ("A2", 1),
                                    ("I2(5)", 2), ("H3", 1)])
def test_ncp_checks_the_poset_size(phi, m, capsys, monkeypatch):
    argv = ["ncp", "--phi", phi, "--m", str(m), "--format", "json"]
    assert run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    check = next(c for c in report["checks"] if c["id"] == "ncp-poset-size")
    want = fuss_catalan(clustercomplexes.build_root_system(phi), m)
    assert check == {"id": "ncp-poset-size", "ok": True,
                     "detail": {"expected": want}}
    assert report["poset_size"] == want
    # a wrong count fails the check, and only it
    monkeypatch.setattr(cli, "fuss_catalan", lambda rs, m_: want + 1)
    assert run(argv) == 1
    failed = [c["id"] for c in json.loads(capsys.readouterr().out)["checks"]
              if not c["ok"]]
    assert failed == ["ncp-poset-size"]


def test_polygon_guards_m0(capsys):
    for label in ("A2", "A3"):
        assert run(["polygon", "--phi", label, "--m", "0"]) == 2
        assert "the polygon oracle needs m >= 1" in capsys.readouterr().err


def test_the_label_alone_names_the_system(capsys):
    assert run(["incidence", "--phi", "I2", "--m", "1"]) == 2
    assert "dihedral order" in capsys.readouterr().err
    assert run(["build", "--phi", "E9", "--m", "1"]) == 2
    assert "unsupported root system 'E9'" in capsys.readouterr().err
    assert run(["incidence", "--phi", "A", "--rank", "2", "--m", "1"]) == 2
    assert "--rank" in capsys.readouterr().err


def test_readme_names_every_common_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"Common flags:(.*?)\.\s", readme, re.S).group(1)
    named = set(re.findall(r"`(--[a-z-]+)", sentence))
    commands = next(a for a in cli._parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for name, parser in commands.items():
        options = {o for a in parser._actions for o in a.option_strings}
        assert options - {"-h", "--help"} == named, name


HELP_USAGE = {
    "kcm": """\
usage: clustercx kcm [-h] --phi PHI [--m M] [--k K]
                     [--mode {exhaustive,sample}] [--seed SEED]
                     [--workers WORKERS] [--out OUT]
                     [--format {table,json,csv}] [--cap-vertices CAP_VERTICES]
""",
    "verify-all": """\
usage: clustercx verify-all [-h] --phi PHI [--m M] [--k K]
                            [--mode {exhaustive,sample}] [--seed SEED]
                            [--workers WORKERS] [--out OUT]
                            [--format {table,json,csv}]
                            [--cap-vertices CAP_VERTICES]
"""}
HELP_OPTIONS = """
options:
  -h, --help            show this help message and exit
  --phi PHI             root system label, e.g. A2, B3, I2(7), A1xA1
  --m M                 number of colors
  --k K                 connectivity parameter for kcm
  --mode {exhaustive,sample}
  --seed SEED
  --workers WORKERS     audit processes; more than the CPUs are not started
  --out OUT
  --format {table,json,csv}
  --cap-vertices CAP_VERTICES
"""


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_subcommand_help_is_unchanged(command, monkeypatch, capsys):
    # the options are declared once, on a parent parser; each subcommand's
    # help reads as it did when every subparser declared its own
    monkeypatch.setenv("COLUMNS", "80")
    assert run([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: clustercx %s [-h] --phi PHI" % command)
    assert out.endswith(HELP_OPTIONS)
    if command in HELP_USAGE:
        assert out == HELP_USAGE[command] + HELP_OPTIONS


ENVELOPE_CONFIG = {"phi", "m", "k", "mode", "seed", "workers", "format",
                   "cap_vertices", "command"}


@pytest.mark.parametrize("argv", [[command, "--m", "1"]
                                  for command in cli.COMMANDS]
                         + [["kcm", "--m", "2", "--k", "4"]], ids=" ".join)
def test_run_adds_the_envelope_and_derives_the_exit_code(argv, capsys):
    # a command returns its report body; run adds the parsed options but
    # --out, and the version, and exits 0 iff every check passes
    code = run(argv + ["--phi", "A2", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == clustercomplexes.__version__
    assert set(report["config"]) == ENVELOPE_CONFIG
    assert report["config"]["command"] == argv[0]
    assert code == (0 if all(c["ok"] for c in report.get("checks", ())) else 1)
    # A2 m=2 is 3-CM but not 4-CM
    assert code == (1 if "--k" in argv else 0)


@pytest.mark.parametrize("label", ["I25", "A(2", "A2)", "E(8)"])
def test_a_malformed_label_exits_2(label, capsys):
    assert run(["build", "--phi", label, "--m", "1"]) == 2
    assert "cannot parse root-system label %r" % label in \
        capsys.readouterr().err


def test_table_format_prints_checks(capsys):
    assert run(["incidence", "--phi", "A2", "--m", "1"]) == 0
    captured = capsys.readouterr().out
    assert "codim1-incidence" in captured and "pass" in captured


def test_verify_all_passes_workers_to_the_audit(pool_sizes):
    assert run(["verify-all", "--phi", "A2", "--m", "1", "--workers", "2"]) == 0
    assert pool_sizes == [2]


def test_workers_are_bounded(pool_sizes, capsys):
    assert run(["kcm", "--phi", "A2", "--m", "1", "--workers", "10000"]) == 0
    assert pool_sizes == [4]
    for bad in ("0", "-3"):
        assert run(["kcm", "--phi", "A2", "--m", "1", "--workers", bad]) == 2
    assert "at least 1" in capsys.readouterr().err
    assert pool_sizes == [4]


def test_homology_at_m0_expects_one_minus_one_sphere(capsys):
    for label in ("A1", "A2", "B3", "A1xA2"):
        assert run(["homology", "--phi", label, "--m", "0",
                    "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["positive"] == {"betti": [1], "torsion": [[]],
                                      "euler_reduced": -1, "first_degree": -1}
        assert report["checks"][0]["detail"] == {"expected_spheres": 1}


def test_verify_all_at_m0_passes(capsys):
    # the positive part is {()}: no facet of full size, dimension -1
    for label in ("A1", "A2", "B2", "G2", "I2(5)", "A1xA2"):
        assert run(["verify-all", "--phi", label, "--m", "0",
                    "--format", "json"]) == 0
        detail = {c["id"]: c["detail"]
                  for c in json.loads(capsys.readouterr().out)["checks"]}
        assert detail["purity-positive"] == {"dim": -1}
        assert detail["facet-count-positive"] == {"facets": 0}
        assert "polygon-oracle" not in detail and "ncp-homotopy" not in detail


def test_homology_cap_guards_every_command_that_takes_homology(monkeypatch,
                                                                capsys):
    monkeypatch.setattr(cli, "HOMOLOGY_FACE_CAP", 10)
    for command in ("homology", "verify-all", "ncp", "kcm"):
        assert run([command, "--phi", "A2", "--m", "1"]) == 2
        assert "exceeds the homology cap 10" in capsys.readouterr().err


def test_an_unwritable_out_is_a_usage_error(tmp_path, capsys):
    # a directory, and a file in a directory that does not exist
    for target in (tmp_path, tmp_path / "missing" / "cx.json"):
        assert run(["build", "--phi", "A2", "--m", "1",
                    "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write the report to %s: "
                              % target)
        assert err.count("\n") == 1


def test_an_unwritable_out_is_refused_before_any_work(tmp_path, monkeypatch,
                                                      capsys):
    def never(rs, m):
        raise AssertionError("the complex was built")

    monkeypatch.setattr(cli, "build_complex", never)
    for target in (tmp_path, tmp_path / "missing" / "cx.json"):
        for command in ("build", "verify-all", "kcm"):
            assert run([command, "--phi", "B4", "--m", "2",
                        "--out", str(target)]) == 2
            assert capsys.readouterr().err.startswith(
                "error: cannot write the report to %s: " % target)
    assert not (tmp_path / "missing").exists()


def test_a_writable_out_is_left_alone_until_the_report_is_ready(
        tmp_path, monkeypatch, capsys):
    def failing(rs, m):
        raise RuntimeError("flagness violated")

    monkeypatch.setattr(cli, "build_complex", failing)
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    kept.write_text("earlier report\n")
    for target in (kept, fresh):
        assert run(["build", "--phi", "A2", "--m", "1",
                    "--out", str(target)]) == 1
        assert capsys.readouterr().err == "error: flagness violated\n"
    assert kept.read_text() == "earlier report\n"
    assert not fresh.exists()


def test_library_self_check_failure_exits_1(monkeypatch, capsys):
    def failing(rs, m):
        raise RuntimeError("flagness violated: maximal clique (0, 1) fails "
                           "the word criterion")

    monkeypatch.setattr(cli, "build_complex", failing)
    for command in ("build", "verify-all", "ncp"):
        assert run([command, "--phi", "A2", "--m", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: flagness violated: maximal clique (0, 1) fails the word "
            "criterion\n")


def test_kcm_symmetry_self_check_failure_exits_1(monkeypatch, capsys):
    real = cli.build_complex

    def swapped(rs, m):
        # A2, m=1 is a pentagon, and no transposition is an automorphism
        cx, adjacency = real(rs, m)
        bad = SimplicialComplex(cx.vertices, cx.facets, objects=cx.objects,
                                symmetry=[1, 0, 2, 3, 4])
        return bad, adjacency

    monkeypatch.setattr(cli, "build_complex", swapped)
    assert run(["kcm", "--phi", "A2", "--m", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the vertex symmetry is not an automorphism")
    assert err.count("\n") == 1


def test_library_value_error_is_a_fault_not_a_usage_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("dimension mismatch in product")

    monkeypatch.setattr(cli, "kcm_audit", broken)
    for command in ("kcm", "verify-all"):
        with pytest.raises(ValueError, match="dimension mismatch"):
            run([command, "--phi", "A2", "--m", "1"])
    # as a process: a traceback and exit 1, not the usage exit 2
    src = Path(clustercomplexes.__file__).resolve().parents[1]
    code = ("import sys\n"
            "from clustercomplexes import cli\n"
            "def broken(*args, **kwargs):\n"
            "    raise ValueError('dimension mismatch in product')\n"
            "cli.homology = broken\n"
            "sys.exit(cli.run(['homology', '--phi', 'A2', '--m', '1']))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 1
    assert "ValueError: dimension mismatch in product" in proc.stderr


def test_bad_m_and_k_are_usage_errors(capsys):
    assert run(["build", "--phi", "A2", "--m", "-1"]) == 2
    assert "m must be nonnegative" in capsys.readouterr().err
    for k in ("0", "-2"):
        assert run(["kcm", "--phi", "A2", "--m", "1", "--k", k]) == 2
        assert "k must be at least 1" in capsys.readouterr().err
    assert run(["polygon", "--phi", "Q2", "--m", "1"]) == 2
    assert "cannot parse root-system label" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code", [
    (["--types", "Q3", "--colors", "1"], 2),
    (["--types", "A2", "--colors", "9"], 2),
    (["--types", "A2", "--colors", "1", "--workers", "0"], 2),
    (["--types", "A2", "--colors", "1"], 0),
])
def test_verification_matrix_keeps_the_exit_codes(argv, code, monkeypatch,
                                                  capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / \
        "run_verification_matrix.py"
    monkeypatch.setattr(sys, "argv", [str(script)] + argv)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == code
    assert capsys.readouterr().out.endswith(
        "overall: %s\n" % ("PASS" if code == 0 else "FAIL"))


@pytest.mark.parametrize("types, code", [(["X9"], 2), (["A2", "E7"], 2),
                                         (["A1"], 0)])
def test_export_fvectors_exits_2_on_a_bad_label(types, code, monkeypatch,
                                                capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / \
        "export_fvectors.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--types"] + types +
                        ["--max-m", "1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == code
    captured = capsys.readouterr()
    if code:
        # the guards run before any row is written
        assert captured.out == ""
        assert captured.err.startswith("error: ") and \
            captured.err.count("\n") == 1
    else:
        assert captured.out == ("type,m,part,f_vector,h_vector\r\n"
                                'A1,1,full,"[1, 2]","[1, 1]"\r\n'
                                'A1,1,positive,"[1, 1]","[1, 0]"\r\n')


# the supported edges: rank 1, products and the dihedral types, at m = 0, 1
EDGE_LABELS = ["A1", "A1xA1", "A1xA2", "A1xB2", "B2xA1", "A1xA1xA1"] + \
    ["I2(%d)" % p for p in range(2, 13)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(sorted(cli.COMMANDS)), st.sampled_from(EDGE_LABELS),
       st.sampled_from([0, 1]))
@example("verify-all", "A1", 0)
@example("verify-all", "A1", 1)
@example("verify-all", "A1xA1", 0)
@example("verify-all", "A1xB2", 1)
@example("verify-all", "I2(12)", 1)
def test_every_command_passes_or_exits_2_on_the_edges(command, label, m):
    # a correct report with every check passing, or a clean usage exit;
    # any other exception propagates with its traceback and fails the test
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([command, "--phi", label, "--m", str(m),
                    "--format", "json"])
    if code == 2:
        assert err.getvalue().startswith("error: ") and not out.getvalue()
        return
    assert code == 0 and not err.getvalue()
    report = json.loads(out.getvalue())
    assert all(c["ok"] for c in report.get("checks", ())), report["checks"]
    if command == "verify-all":
        (witness,) = [c["detail"]["witness"] for c in report["checks"]
                      if c["id"] == "kcm-witness"]
        assert len(witness["removed"]) == m + 1
