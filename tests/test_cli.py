"""Command line surface: files, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twista as tw
from twista.cli import main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def test_console_entry_point():
    # the child does not inherit pytest's pythonpath, so point it at the
    # directory this twista was imported from
    src = str(Path(tw.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "twista.cli", "--help"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0
    assert "twista" in out.stdout


def test_group_build_and_validate(workdir):
    out = workdir / "z6.json"
    assert run(["group", "build", "--kind", "cyclic", "--n", 6, "-o", out]) == 0
    assert run(["group", "validate", "--in", out]) == 0
    g = tw.load_group(out)
    assert g.order == 6


def test_group_validate_rejects_corruption(workdir):
    out = workdir / "z3.json"
    run(["group", "build", "--kind", "cyclic", "--n", 3, "-o", out])
    doc = json.loads(out.read_text())
    doc["mul"][1][2] = 1
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(doc))
    report = workdir / "report.json"
    assert run(["group", "validate", "--in", bad, "-o", report]) == 2
    assert json.loads(report.read_text())["ok"] is False


def test_group_unsupported_size(workdir):
    assert run(["group", "build", "--kind", "symmetric", "--n", 7,
                "-o", workdir / "s7.json"]) == 4


@pytest.mark.parametrize("kind, flag", [("cyclic", "--n"), ("dihedral", "--n"),
                                        ("symmetric", "--n"),
                                        ("cyclic-product", "--orders"),
                                        ("product", "--inputs")])
def test_group_build_names_a_missing_parameter(workdir, capsys, kind, flag):
    out = workdir / "g.json"
    assert run(["group", "build", "--kind", kind, "-o", out]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_is_io_error(workdir):
    assert run(["group", "validate", "--in", workdir / "nope.json"]) == 3


def test_cocycle_workflow(workdir):
    gpath = workdir / "z3z3.json"
    run(["group", "build", "--kind", "cyclic-product", "--orders", "3,3",
         "-o", gpath])
    sig = workdir / "sig.json"
    assert run(["cocycle", "bilinear", "--group", gpath, "--A", "0,1,0,0",
                "--m", 3, "-o", sig]) == 0
    assert run(["cocycle", "validate", "--in", sig]) == 0
    cmp_out = workdir / "cmp.json"
    assert run(["cocycle", "compare", "--a", sig, "--b", "trivial",
                "--group", gpath, "-o", cmp_out]) == 0
    assert json.loads(cmp_out.read_text())["similar"] is False
    norm_out = workdir / "norm.json"
    assert run(["cocycle", "normalize", "--in", sig, "-o", norm_out]) == 0
    doc = json.loads(norm_out.read_text())
    c = tw.validate_cocycle(doc["exponents"], doc["m"], tw.load_group(gpath))
    g = c.group
    assert not c.exponents[np.arange(g.order), g.inv].any()


def test_cocycle_validate_reports_violations(workdir):
    gpath = workdir / "z2.json"
    run(["group", "build", "--kind", "cyclic", "--n", 2, "-o", gpath])
    bad = workdir / "badcocycle.json"
    bad.write_text(json.dumps({"m": 2, "exponents": [[1, 0], [0, 0]]}))
    assert run(["cocycle", "validate", "--in", bad, "--group", gpath]) == 2


@pytest.mark.parametrize("bits, code", [(26, 0), (31, 4)])
def test_cocycle_compare_modulus_beyond_int64_is_unsupported(workdir, bits, code):
    # 4 rows * m^2 must stay below 2^63: m = 2^26 is solved, m = 2^31 refused
    gpath = workdir / "z2.json"
    run(["group", "build", "--kind", "cyclic", "--n", 2, "-o", gpath])
    sig = workdir / "sig.json"
    m = 1 << bits
    sig.write_text(json.dumps({"m": m, "exponents": [[0, 0], [0, m // 2]]}))
    assert run(["cocycle", "compare", "--a", sig, "--b", "trivial",
                "--group", gpath, "-o", workdir / "cmp.json"]) == code


def test_norm_commands_and_certificates(workdir):
    gpath = workdir / "z4.json"
    run(["group", "build", "--kind", "cyclic", "--n", 4, "-o", gpath])
    g = tw.load_group(gpath)
    fpath = workdir / "delta.json"
    tw.save_function(tw.delta(g, 0), fpath)

    fout = workdir / "f.json"
    assert run(["norm", "fourier", "--phi", fpath, "--sigma", "trivial",
                "--group", gpath, "-o", fout]) == 0
    doc = json.loads(fout.read_text())
    assert abs(doc["value"] - 1.0) < 1e-10
    assert doc["label"] == "A=B (finite group)"

    mout = workdir / "m.json"
    assert run(["norm", "multiplier", "--phi", fpath, "--sigma1", "trivial",
                "--sigma2", "trivial", "--group", gpath, "-o", mout]) == 0
    doc = json.loads(mout.read_text())
    assert abs(doc["value"] - 1.0) < 1e-5
    assert doc["gap"] <= 1e-6

    lout = workdir / "l.json"
    assert run(["norm", "littlewood", "--phi", fpath, "-o", lout]) == 0
    doc = json.loads(lout.read_text())
    assert abs(doc["value"] - 1.0) <= 1e-4
    # a closed-form certificate: no solver iterations, and no gap to speak of
    assert doc["iterations"] == 0 and doc["budget_exhausted"] is False
    assert doc["gap"] <= 1e-12


def test_oversize_multiplier_norm_is_unsupported(workdir):
    gpath = workdir / "z130.json"
    assert run(["group", "build", "--kind", "cyclic", "--n", 130, "-o", gpath]) == 0
    fpath = workdir / "delta.json"
    tw.save_function(tw.delta(tw.load_group(gpath), 0), fpath)
    code = run(["norm", "multiplier", "--phi", fpath, "--sigma1", "trivial",
                "--sigma2", "trivial", "--group", gpath, "-o", workdir / "m.json"])
    assert code == 4


def test_norm_deterministic_across_runs(workdir):
    gpath = workdir / "z3z3.json"
    run(["group", "build", "--kind", "cyclic-product", "--orders", "3,3",
         "-o", gpath])
    sig = workdir / "sig.json"
    run(["cocycle", "bilinear", "--group", gpath, "--A", "0,1,0,0", "--m", 3,
         "-o", sig])
    g = tw.load_group(gpath)
    rng = np.random.default_rng(0)
    f = tw.GroupFunction(g, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    fpath = workdir / "f.json"
    tw.save_function(f, fpath)
    outs = []
    for name in ("a.json", "b.json"):
        out = workdir / name
        assert run(["norm", "multiplier", "--phi", fpath, "--sigma1", "trivial",
                    "--sigma2", sig, "--group", gpath, "-o", out]) == 0
        outs.append(json.loads(out.read_text())["value"])
    assert outs[0] == outs[1]


def test_report_amenability(workdir):
    gpath = workdir / "z3z3.json"
    run(["group", "build", "--kind", "cyclic-product", "--orders", "3,3",
         "-o", gpath])
    sig = workdir / "sig.json"
    run(["cocycle", "bilinear", "--group", gpath, "--A", "0,1,0,0", "--m", 3,
         "-o", sig])
    rep = workdir / "rep.json"
    csvp = workdir / "rep.csv"
    assert run(["report", "amenability", "--group", gpath, "--sigma", sig,
                "--samples", 4, "--seed", 2, "-o", rep, "--csv", csvp]) == 0
    doc = json.loads(rep.read_text())
    assert doc["max_rel_gap"] <= 1e-4
    lines = csvp.read_text().strip().splitlines()
    assert lines[0].split(",") == list(tw.norms.CSV_COLUMNS)
    assert len(lines) == 5


def test_report_gap_threshold_exit_code(workdir):
    gpath = workdir / "z4.json"
    run(["group", "build", "--kind", "cyclic", "--n", 4, "-o", gpath])
    rep = workdir / "rep.json"
    # an impossible threshold: the report is still written, exit code is 6
    code = run(["report", "amenability", "--group", gpath, "--sigma", "trivial",
                "--samples", 2, "--seed", 0, "--threshold", 1e-14, "-o", rep])
    assert code == 6
    assert json.loads(rep.read_text())["samples"]


def test_report_amenability_empty(workdir):
    gpath = workdir / "z2.json"
    run(["group", "build", "--kind", "cyclic", "--n", 2, "-o", gpath])
    rep = workdir / "rep.json"
    assert run(["report", "amenability", "--group", gpath, "--sigma", "trivial",
                "--samples", 0, "-o", rep]) == 0
    assert json.loads(rep.read_text())["samples"] == []


def test_solver_failure_exit_code_writes_partial(workdir):
    gpath = workdir / "z2.json"
    run(["group", "build", "--kind", "cyclic", "--n", 2, "-o", gpath])
    g = tw.load_group(gpath)
    fpath = workdir / "f.json"
    rng = np.random.default_rng(1)
    tw.save_function(tw.GroupFunction(g, rng.standard_normal(2) + 0j), fpath)
    out = workdir / "partial.json"
    code = run(["norm", "multiplier", "--phi", fpath, "--sigma1", "trivial",
                "--sigma2", "trivial", "--group", gpath, "--tol", "1e-16",
                "-o", out])
    assert code == 5
    doc = json.loads(out.read_text())
    assert doc["status"] == "solver_failure"
    assert doc["value"] is not None


def test_demo_quantum_torus(capsys):
    assert run(["demo", "quantum-torus", "--q", 3, "--p", 1]) == 0
    out = capsys.readouterr().out
    assert "center dimension 1" in out
    assert "M_3" in out
    assert run(["demo", "quantum-torus", "--q", 4, "--p", 2]) == 0
    out = capsys.readouterr().out
    assert "center dimension 4" in out
    assert run(["demo", "quantum-torus", "--q", 2, "--p", 0]) == 0
    out = capsys.readouterr().out
    assert "center dimension 4" in out
