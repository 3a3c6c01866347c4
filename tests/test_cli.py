"""Command line surface: files, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import twista as tw
from twista import cli, sdp
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


_Z3 = {"order": 3, "mul": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
_ZERO = [[0, 0, 0]] * 3


@pytest.mark.parametrize("kind, doc", [
    ("function", {"group": _Z3, "values": 5}),
    ("function", {"group": _Z3, "values": [["a", 0], [0, 0], [0, 0]]}),
    ("function", {"group": _Z3, "values": [[1, 0], None, [0, 0]]}),
    ("function", [[1, 0], [0, 0], [0, 0]]),
    ("cocycle", {"group": _Z3, "m": None, "exponents": _ZERO}),
    ("cocycle", {"group": _Z3, "m": 2, "exponents": None}),
    ("group", _Z3["mul"]),
    ("group", {**_Z3, "order": None}),
    ("group", {**_Z3, "labels": 5}),
    ("group-file", _Z3["mul"]),
])
def test_malformed_input_file_is_a_validation_failure(workdir, capsys, kind, doc):
    # a wrongly typed entry is bad input, reported on one line, not a traceback
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(doc))
    phi = workdir / "phi.json"
    phi.write_text(json.dumps({"group": _Z3, "values": [[1, 0]] * 3}))
    argv = {"function": ["norm", "fourier", "--phi", bad, "--sigma", "trivial"],
            "cocycle": ["cocycle", "normalize", "--in", bad],
            "group": ["norm", "littlewood", "--phi", phi, "--group", bad],
            "group-file": ["group", "validate", "--in", bad]}[kind]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


_Z2 = {"order": 2, "mul": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("doc", [
    _Z3,
    {**_Z3, "order": 5},
    {**_Z3, "order": 2.9},
    {**_Z3, "order": 3.0},
    {**_Z2, "order": 2.9},
    {"mul": _Z3["mul"]},
    {"order": 3},
    {**_Z3, "mul": [[0, 1, 2], [1, 2, 0], [2, 0, 1.5]]},
    {**_Z3, "order": None},
    {**_Z3, "labels": 5},
    {**_Z3, "labels": ["a"]},
    {**_Z3, "order": "3"},
    _Z3["mul"],
])
def test_group_validate_agrees_with_group_loading(workdir, capsys, doc):
    # one verdict per file: `group validate` passes exactly the files that
    # load through --group, and each refusal exits 2 with one stderr line
    path = workdir / "g.json"
    path.write_text(json.dumps(doc))
    phi = workdir / "phi.json"
    phi.write_text(json.dumps({"values": [[1, 0]] * 3}))
    report = workdir / "report.json"
    code = run(["group", "validate", "--in", path, "-o", report])
    assert json.loads(report.read_text())["ok"] is (code == 0)
    assert code == run(["norm", "littlewood", "--phi", phi, "--group", path])
    err = capsys.readouterr().err.splitlines()
    assert code == 0 or (code == 2 and len(err) == 2), err


def test_group_validate_reads_the_declared_order(workdir):
    path = workdir / "g.json"
    path.write_text(json.dumps({**_Z3, "order": 5}))
    report = workdir / "report.json"
    assert run(["group", "validate", "--in", path, "-o", report]) == 2
    assert json.loads(report.read_text()) == {
        "ok": False, "violations": [["order", "declared 5, table has 3"]]}


def test_group_validate_reports_a_ragged_table(workdir):
    path = workdir / "g.json"
    path.write_text(json.dumps({"mul": [[0, 1], [1]]}))
    report = workdir / "report.json"
    assert run(["group", "validate", "--in", path, "-o", report]) == 2
    assert json.loads(report.read_text()) == {
        "ok": False, "violations": [["table rows differ in length"]]}


@pytest.mark.parametrize("doc", [
    {"m": 0, "exponents": [[0, 0], [0, 0]]},
    {"m": -2, "exponents": [[0, 0], [0, 0]]},
    {"m": 2, "exponents": [[1, 0], [0, 0]]},
    {"m": 2, "exponents": [[0, 0, 0]]},
    {"m": 2.5, "exponents": [[0, 0], [0, 0]]},
    {"m": 2, "exponents": [[0, 0], [0, 1.9]]},
    {"m": None, "exponents": [[0, 0], [0, 0]]},
    {"exponents": [[0, 0], [0, 0]]},
    [[0, 0], [0, 0]],
    {"m": "4", "exponents": [[0, 0], [0, 0]]},
])
def test_cocycle_validate_writes_every_refusal(workdir, doc):
    # m = 2.5 and the exponent 1.9 are refused, not read as 2 and 1, and
    # every refusal is the one any other command gives the file
    gpath = workdir / "z2.json"
    run(["group", "build", "--kind", "cyclic", "--n", 2, "-o", gpath])
    path = workdir / "sig.json"
    path.write_text(json.dumps(doc))
    report = workdir / "report.json"
    assert run(["cocycle", "validate", "--in", path, "--group", gpath, "-o", report]) == 2
    out = json.loads(report.read_text())
    assert out["ok"] is False and out["violations"], out
    assert run(["cocycle", "normalize", "--in", path, "--group", gpath]) == 2


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


@pytest.mark.parametrize("m", [0, -1])
def test_cocycle_bilinear_refuses_a_nonpositive_modulus_without_a_warning(workdir, m):
    gpath = workdir / "z3z3.json"
    run(["group", "build", "--kind", "cyclic-product", "--orders", "3,3", "-o", gpath])
    sig = workdir / "sig.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["cocycle", "bilinear", "--group", gpath, "--A", "0,1,0,0",
                    "--m", m, "-o", sig]) == 2
    assert not sig.exists()


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


def _z2_cocycle(workdir, name, m, e11):
    """A Z2 group file and a cocycle file over m-th roots, exponents 0 but e(1, 1)."""
    gpath = workdir / "z2.json"
    tw.save_group(tw.cyclic(2), gpath)
    path = workdir / f"{name}.json"
    path.write_text(json.dumps({"m": m, "exponents": [[0, 0], [0, e11]]}))
    return gpath, path


@pytest.mark.parametrize("action", ["validate", "normalize"])
def test_a_root_order_beyond_2_61_is_unsupported(workdir, capsys, action):
    # the file's m = 2^62 fits int64, but sums of exponents below it do not;
    # 2^63 and 2^64 are past int64 and reach the same bound, not a type error
    for m in (1 << 62, 1 << 63, 1 << 64):
        gpath, sig = _z2_cocycle(workdir, "big", m, 1 << 61)
        out = workdir / "out.json"
        out.unlink(missing_ok=True)
        assert run(["cocycle", action, "--in", sig, "--group", gpath, "-o", out]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"unsupported size: root order {m} ") and "Traceback" not in err
        if action == "validate":
            assert json.loads(out.read_text())["ok"] is False
        else:
            assert not out.exists()


def test_a_whole_float_root_order_is_read_as_an_integer(workdir):
    gpath, sig = _z2_cocycle(workdir, "float", 4.0, 2)
    out = workdir / "out.json"
    assert run(["cocycle", "validate", "--in", sig, "--group", gpath, "-o", out]) == 0
    assert json.loads(out.read_text()) == {"ok": True, "m": 4}


def test_normalize_refuses_the_doubled_root_order(workdir, capsys):
    # m = 2^61 loads, and normalize refuses 2m before its arithmetic modulo 2m
    gpath, sig = _z2_cocycle(workdir, "edge", 1 << 61, 1 << 60)
    assert run(["cocycle", "validate", "--in", sig, "--group", gpath]) == 0
    out = workdir / "norm.json"
    assert run(["cocycle", "normalize", "--in", sig, "--group", gpath, "-o", out]) == 4
    assert "root order 4611686018427387904" in capsys.readouterr().err
    assert not out.exists()


def test_cocycle_compare_refuses_a_common_root_order_beyond_2_61(workdir, capsys):
    # lcm(2^40, 2^40 + 1) is past 2^80: refused before either table is rescaled
    gpath, a = _z2_cocycle(workdir, "a", 1 << 40, 1 << 39)
    _, b = _z2_cocycle(workdir, "b", (1 << 40) + 1, 0)
    assert run(["cocycle", "compare", "--a", a, "--b", b, "--group", gpath,
                "-o", workdir / "cmp.json"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("unsupported size: root order") and "Traceback" not in err


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


def _arrays(doc):
    """Every {"shape", "entries"} array in a document, by its key."""
    for key, value in doc.items():
        if isinstance(value, dict):
            if set(value) == {"shape", "entries"}:
                yield key, value
            else:
                yield from _arrays(value)


def _complex_array(d):
    z = np.array(d["entries"])
    return (z[:, 0] + 1j * z[:, 1]).reshape(d["shape"])


def test_group_function_documents_write_arrays_of_shape_n(workdir):
    # the FS dual element and the closed-form T2 split are written as
    # functions on the group, n coefficients each, never as n x n tables
    g = tw.symmetric(4)
    gpath, fpath = workdir / "s4.json", workdir / "phi.json"
    tw.save_group(g, gpath)
    rng = np.random.default_rng(4)
    tw.save_function(tw.GroupFunction(g, rng.standard_normal(24) + 1j * rng.standard_normal(24)),
                     fpath)
    phi = tw.load_function(fpath, g)
    fout, lout = workdir / "fs.json", workdir / "t2.json"
    assert run(["norm", "fourier", "--phi", fpath, "--sigma", "trivial",
                "--group", gpath, "-o", fout]) == 0
    assert run(["norm", "littlewood", "--phi", fpath, "--group", gpath, "-o", lout]) == 0
    fs, t2 = json.loads(fout.read_text()), json.loads(lout.read_text())
    assert [key for key, _ in _arrays(fs)] == ["dual_element"]
    assert [key for key, _ in _arrays(t2)] == ["psi1", "psi2"]
    for _, a in [*_arrays(fs), *_arrays(t2)]:
        assert a["shape"] == [g.order] and len(a["entries"]) == g.order

    f = phi.values[g.mul]
    psi1, psi2 = _complex_array(t2["psi1"])[g.mul], _complex_array(t2["psi2"])[g.mul]
    assert np.array_equal(psi1, f) and not psi2.any()
    assert np.array_equal(psi1 + psi2, f)
    cert = tw.littlewood_T2_norm(phi)
    assert (t2["value"], t2["dual_bound"], t2["gap"]) == (cert.value, cert.dual_bound, cert.gap)
    assert fs["value"] == tw.fourier_stieltjes_norm(phi, tw.trivial_cocycle(g)).value


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_norm_multiplier_refuses_a_nan_or_negative_tolerance(workdir, capsys, tol):
    g = tw.cyclic(4)
    gpath, fpath = workdir / "z4.json", workdir / "f.json"
    tw.save_group(g, gpath)
    tw.save_function(tw.delta(g, 0), fpath)
    out = workdir / "m.json"
    assert run(["norm", "multiplier", "--phi", fpath, "--sigma1", "trivial",
                "--sigma2", "trivial", "--group", gpath, "--tol", tol, "-o", out]) == 2
    assert not out.exists()
    assert "tolerance must be nonnegative" in capsys.readouterr().err


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


def test_report_amenability_refuses_a_group_above_the_gamma2_cap(workdir, monkeypatch,
                                                                  capsys):
    gpath = workdir / "z130.json"
    tw.save_group(tw.cyclic(130), gpath)

    def no_sample(*args):
        raise AssertionError("a sample was computed")

    monkeypatch.setattr(tw.norms, "fourier_stieltjes_norm", no_sample)
    rep = workdir / "rep.json"
    assert run(["report", "amenability", "--group", gpath, "--sigma", "trivial",
                "--samples", 1, "-o", rep]) == 4
    assert "|G| <= 128, got 130" in capsys.readouterr().err
    assert not rep.exists()


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


@pytest.mark.parametrize("threshold", ["nan", "-1"])
def test_report_amenability_refuses_a_nan_or_negative_threshold(workdir, monkeypatch,
                                                               threshold):
    # a NaN threshold would pass every gap; it is refused before any sample
    gpath = workdir / "z2.json"
    run(["group", "build", "--kind", "cyclic", "--n", 2, "-o", gpath])
    monkeypatch.setattr(cli.norms, "amenability_report", None)
    rep, csvp = workdir / "rep.json", workdir / "rep.csv"
    assert run(["report", "amenability", "--group", gpath, "--sigma", "trivial",
                "--threshold", threshold, "-o", rep, "--csv", csvp]) == 2
    assert not rep.exists() and not csvp.exists()


@pytest.mark.parametrize("samples", [0, 2])
@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_report_amenability_refuses_a_nan_or_negative_tolerance(workdir, monkeypatch,
                                                               tol, samples):
    gpath = workdir / "z2.json"
    run(["group", "build", "--kind", "cyclic", "--n", 2, "-o", gpath])
    monkeypatch.setattr(cli.norms, "fourier_stieltjes_norm", None)
    rep = workdir / "rep.json"
    assert run(["report", "amenability", "--group", gpath, "--sigma", "trivial",
                "--samples", samples, "--tol", tol, "-o", rep]) == 2
    assert not rep.exists()


def test_report_amenability_empty(workdir):
    gpath = workdir / "z2.json"
    run(["group", "build", "--kind", "cyclic", "--n", 2, "-o", gpath])
    rep = workdir / "rep.json"
    assert run(["report", "amenability", "--group", gpath, "--sigma", "trivial",
                "--samples", 0, "-o", rep]) == 0
    assert json.loads(rep.read_text())["samples"] == []


def test_report_amenability_refuses_a_negative_sample_count(workdir):
    gpath = workdir / "z2.json"
    run(["group", "build", "--kind", "cyclic", "--n", 2, "-o", gpath])
    rep = workdir / "rep.json"
    assert run(["report", "amenability", "--group", gpath, "--sigma", "trivial",
                "--samples", -3, "-o", rep]) == 2
    assert not rep.exists()


def test_report_json_keys_follow_the_report_fields(workdir):
    gpath = workdir / "z2.json"
    run(["group", "build", "--kind", "cyclic", "--n", 2, "-o", gpath])
    rep = workdir / "rep.json"
    assert run(["report", "amenability", "--group", gpath, "--sigma", "trivial",
                "--samples", 1, "-o", rep]) == 0
    doc = json.loads(rep.read_text())
    assert list(doc) == ["group_order", "cocycle_m", "n_samples", "seed", "tol",
                         "max_rel_gap", "inclusion_violations", "samples", "threshold"]
    assert list(doc["samples"][0]) == ["sample_id", "seed", "b_norm", "cb_norm",
                                       "rel_gap", "sdp_gap", "wall_time_ms", "status"]


README = Path(__file__).resolve().parents[1] / "README.md"

CERTIFICATE_KEYS = {
    "norm fourier": ["norm", "label", "value", "method", "singular_values",
                     "pairing_check", "dual_element"],
    "norm multiplier": ["norm", "value", "dual_bound", "gap", "iterations",
                        "ill_conditioned", "dual_u", "dual_v", "xi", "eta"],
    "norm littlewood": ["norm", "value", "dual_bound", "gap", "iterations",
                        "budget_exhausted", "psi1", "psi2"],
}


def _readme_keys(command):
    """The keys of one bullet of the README's "Certificate documents": the
    backticked names of its first sentence, parenthesised values left out."""
    section = README.read_text().split("### Certificate documents", 1)[1].split("\n## ", 1)[0]
    bullet = " ".join(section.split(f"* `{command}`:", 1)[1].split())
    return re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", bullet.split("`. ", 1)[0] + "`"))


@pytest.mark.parametrize("command", sorted(CERTIFICATE_KEYS))
def test_the_readme_lists_each_certificate_document_in_key_order(command):
    assert _readme_keys(command) == CERTIFICATE_KEYS[command]


def test_certificate_documents_keep_their_key_order(workdir):
    # the certificate classes may order their fields as they like; the
    # documents keep the README's order, wall_time_ms and status written last
    g = tw.cyclic_product([3, 3])
    gpath, fpath = workdir / "g.json", workdir / "phi.json"
    tw.save_group(g, gpath)
    rng = np.random.default_rng(5)
    tw.save_function(tw.GroupFunction(g, rng.standard_normal(9) + 1j * rng.standard_normal(9)),
                     fpath)
    argv = {"norm fourier": ["--sigma", "trivial"],
            "norm multiplier": ["--sigma1", "trivial", "--sigma2", "trivial"],
            "norm littlewood": []}
    for command, extra in argv.items():
        out = workdir / "doc.json"
        assert run([*command.split(), "--phi", fpath, "--group", gpath, *extra, "-o", out]) == 0
        assert list(json.loads(out.read_text())) == CERTIFICATE_KEYS[command] + ["wall_time_ms"]
    assert run(["norm", "multiplier", "--phi", fpath, "--group", gpath, *argv["norm multiplier"],
                "--tol", 1e-16, "-o", out]) == 5
    assert list(json.loads(out.read_text())) == (CERTIFICATE_KEYS["norm multiplier"]
                                                 + ["wall_time_ms", "status"])
    split = tw.t2_split(rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7)))
    assert list(tw.norms.certificate_to_json(split)) == CERTIFICATE_KEYS["norm littlewood"]


@pytest.fixture()
def z3z3_sigma_and_z9(workdir):
    """A bilinear cocycle file on Z3 x Z3 (group inline) and a Z9 group file."""
    z3z3, z9 = workdir / "z3z3.json", workdir / "z9.json"
    run(["group", "build", "--kind", "cyclic-product", "--orders", "3,3", "-o", z3z3])
    run(["group", "build", "--kind", "cyclic", "--n", 9, "-o", z9])
    sig = workdir / "sig.json"
    assert run(["cocycle", "bilinear", "--group", z3z3, "--A", "0,1,0,0",
                "-o", sig]) == 0
    return z3z3, sig, z9


@pytest.mark.parametrize("action", ["validate", "normalize"])
def test_a_file_group_must_be_the_supplied_group(workdir, capsys, z3z3_sigma_and_z9, action):
    z3z3, sig, z9 = z3z3_sigma_and_z9
    assert run(["cocycle", action, "--in", sig, "--group", z3z3,
                "-o", workdir / "ok.json"]) == 0
    out = workdir / "out.json"
    assert run(["cocycle", action, "--in", sig, "--group", z9, "-o", out]) == 2
    assert "differs from the supplied group" in capsys.readouterr().err
    if action == "validate":
        assert json.loads(out.read_text())["ok"] is False
    # a trivial table is a cocycle on Z9 too, so only the comparison refuses it
    trivial = workdir / "trivial.json"
    tw.save_cocycle(tw.trivial_cocycle(tw.load_group(z3z3), 3), trivial)
    assert run(["cocycle", action, "--in", trivial, "--group", z9, "-o", out]) == 2


def test_a_cocycle_file_must_live_on_the_function_group(workdir, capsys,
                                                        z3z3_sigma_and_z9):
    _, sig, z9 = z3z3_sigma_and_z9
    phi = workdir / "phi.json"
    tw.save_function(tw.delta(tw.load_group(z9), 0), phi)
    assert run(["norm", "fourier", "--phi", phi, "--sigma", sig,
                "-o", workdir / "f.json"]) == 2
    assert "differs from the supplied group" in capsys.readouterr().err


def test_a_named_group_file_is_compared_too(workdir, capsys, z3z3_sigma_and_z9):
    z3z3, sig, z9 = z3z3_sigma_and_z9
    doc = json.loads(sig.read_text())
    doc["group"] = z3z3.name                    # a path, relative to the file
    named = workdir / "named.json"
    named.write_text(json.dumps(doc))
    assert run(["cocycle", "validate", "--in", named, "--group", z3z3]) == 0
    assert run(["cocycle", "validate", "--in", named, "--group", z9]) == 2
    assert "differs from the supplied group" in capsys.readouterr().err


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
    # the partial is written through the common lines: the certificate, then
    # the wall time, then the status
    assert list(doc)[-2:] == ["wall_time_ms", "status"]


def test_non_finite_newton_direction_exits_as_solver_failure(workdir, monkeypatch):
    # OpenBLAS potrf returns info 0 on a NaN: the factor the solver sees
    # is non-finite, and the command must fail as a solver failure
    factor = sdp.cholesky

    def spoiled(a, **kwargs):
        L = factor(a, **kwargs)
        L[-1, -1] = np.nan
        return L

    g = tw.cyclic(4)
    fpath = workdir / "f.json"
    rng = np.random.default_rng(1)
    tw.save_function(tw.GroupFunction(g, rng.standard_normal(4) + 0j), fpath)
    gpath = workdir / "z4.json"
    tw.save_group(g, gpath)
    monkeypatch.setattr(sdp, "cholesky", spoiled)
    out = workdir / "partial.json"
    code = run(["norm", "multiplier", "--phi", fpath, "--sigma1", "trivial",
                "--sigma2", "trivial", "--group", gpath, "-o", out])
    assert code == 5
    doc = json.loads(out.read_text())
    assert doc["status"] == "solver_failure"
    assert np.isfinite([doc["value"], doc["gap"]]).all()


def test_a_failed_step_search_exits_as_solver_failure(workdir, refuse_sdp_call):
    # a LAPACK refusal inside a step (the fifth step search, in the second
    # iteration) writes the partial document and exits 5, like any failed solve
    g = tw.cyclic_product([3, 3])
    gpath, fpath = workdir / "g.json", workdir / "f.json"
    tw.save_group(g, gpath)
    rng = np.random.default_rng(1)
    tw.save_function(tw.GroupFunction(g, rng.standard_normal(9) + 0j), fpath)
    refuse_sdp_call("_psd_max_step", 5)
    out = workdir / "partial.json"
    code = run(["norm", "multiplier", "--phi", fpath, "--sigma1", "trivial",
                "--sigma2", "trivial", "--group", gpath, "-o", out])
    assert code == 5
    doc = json.loads(out.read_text())
    assert doc["status"] == "solver_failure"
    assert np.isfinite([doc["value"], doc["gap"]]).all()


def test_a_weak_duality_failure_writes_the_partial_document(workdir, inflate_dual_bound):
    g = tw.cyclic_product([3, 3])
    gpath, fpath = workdir / "g.json", workdir / "f.json"
    tw.save_group(g, gpath)
    tw.save_function(tw.GroupFunction(g, np.random.default_rng(1).standard_normal(9) + 0j),
                     fpath)
    inflate_dual_bound(2)
    out = workdir / "partial.json"
    assert run(["norm", "multiplier", "--phi", fpath, "--sigma1", "trivial",
                "--sigma2", "trivial", "--group", gpath, "-o", out]) == 5
    doc = json.loads(out.read_text())
    assert doc["status"] == "solver_failure" and doc["iterations"] == 2
    assert doc["dual_bound"] <= doc["value"]


@pytest.mark.parametrize("name", ["zpotrf", "_svd"])
def test_a_refused_start_point_exits_as_solver_failure(workdir, refuse_sdp_call, name):
    # with no iterate there is no partial document to write
    g = tw.cyclic_product([3, 3])
    gpath, fpath = workdir / "g.json", workdir / "f.json"
    tw.save_group(g, gpath)
    tw.save_function(tw.GroupFunction(g, np.random.default_rng(1).standard_normal(9) + 0j),
                     fpath)
    refuse_sdp_call(name, 1)
    out = workdir / "partial.json"
    assert run(["norm", "multiplier", "--phi", fpath, "--sigma1", "trivial",
                "--sigma2", "trivial", "--group", gpath, "-o", out]) == 5
    assert not out.exists()


def test_a_partial_certificate_can_be_rechecked(workdir, refuse_sdp_call):
    # the partial document is the certificate of the last iterate: its
    # witnesses factor the symbol and its dual bound stays below its value
    g = tw.cyclic_product([3, 3])
    gpath, fpath = workdir / "g.json", workdir / "f.json"
    tw.save_group(g, gpath)
    rng = np.random.default_rng(1)
    phi = tw.GroupFunction(g, rng.standard_normal(9) + 0j)
    tw.save_function(phi, fpath)
    refuse_sdp_call("_psd_max_step", 5)
    out = workdir / "partial.json"
    assert run(["norm", "multiplier", "--phi", fpath, "--sigma1", "trivial",
                "--sigma2", "trivial", "--group", gpath, "-o", out]) == 5
    doc = json.loads(out.read_text())
    assert doc["status"] == "solver_failure" and doc["ill_conditioned"] is True
    assert doc["dual_bound"] <= doc["value"]

    F = tw.schur_symbol(phi, tw.trivial_cocycle(g), tw.trivial_cocycle(g))
    rec = _complex_array(doc["xi"]) @ _complex_array(doc["eta"]).conj().T
    assert np.abs(rec - F).max() <= 1e-12


def test_running_out_of_memory_exits_as_unsupported_size(workdir, monkeypatch, capsys):
    g = tw.cyclic(4)
    gpath, fpath = workdir / "g.json", workdir / "f.json"
    tw.save_group(g, gpath)
    tw.save_function(tw.GroupFunction(g, np.ones(4, dtype=complex)), fpath)

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(tw.norms, "cb_multiplier_norm", exhausted)
    assert run(["norm", "multiplier", "--phi", fpath, "--sigma1", "trivial",
                "--sigma2", "trivial", "--group", gpath]) == 4
    assert capsys.readouterr().err == "unsupported size: out of memory\n"


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_the_cached_parser_answers_as_a_fresh_one(workdir, monkeypatch):
    # a fixed clock makes the certificate files byte-comparable: their only
    # varying field is wall_time_ms
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    g = tw.cyclic_product([3, 3])
    gpath, sig, fpath = workdir / "g.json", workdir / "sig.json", workdir / "f.json"
    tw.save_group(g, gpath)
    tw.save_cocycle(tw.bilinear_cocycle(g, [[0, 1], [0, 0]]), sig)
    rng = np.random.default_rng(0)
    tw.save_function(tw.GroupFunction(g, rng.standard_normal(9) + 1j * rng.standard_normal(9)),
                     fpath)

    def session(tag):
        with pytest.raises(SystemExit) as usage:
            run(["norm", "fourier", "--phi", fpath])
        outs = [workdir / f"{tag}-fourier.json", workdir / f"{tag}-multiplier.json"]
        codes = [usage.value.code,
                 run(["norm", "fourier", "--phi", fpath, "--sigma", sig,
                      "--group", gpath, "-o", outs[0]]),
                 run(["norm", "multiplier", "--phi", fpath, "--sigma1", "trivial",
                      "--sigma2", sig, "--group", gpath, "-o", outs[1]])]
        return codes, [out.read_bytes() for out in outs]

    cached = session("cached")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = session("fresh")
    assert cached[0] == [2, 0, 0]
    assert cached == fresh


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
