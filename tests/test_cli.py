import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clustercomplexes
from clustercomplexes import cli
from clustercomplexes.cli import run
from clustercomplexes.simplicial import SimplicialComplex


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


def test_kcm_failure_exit_code_and_witness(tmp_path, capsys):
    out = tmp_path / "kcm.json"
    code = run(["kcm", "--phi", "A2", "--m", "2", "--k", "4", "--exhaustive",
                "--format", "json", "--out", str(out)])
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
    assert run(["ncp", "--phi", "A1xA2", "--m", "1"]) == 2
    assert "ncp needs an irreducible system" in capsys.readouterr().err


def test_polygon_guards_m0(capsys):
    for label in ("A2", "A3"):
        assert run(["polygon", "--phi", label, "--m", "0"]) == 2
        assert "the polygon oracle needs m >= 1" in capsys.readouterr().err


def test_separate_rank_flag():
    assert run(["incidence", "--phi", "A", "--rank", "2", "--m", "1"]) == 0


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
    for command in ("homology", "verify-all", "ncp"):
        assert run([command, "--phi", "A2", "--m", "1"]) == 2
        assert "exceeds the homology cap 10" in capsys.readouterr().err


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
                                meta=cx.meta, symmetry=[1, 0, 2, 3, 4])
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
