"""Command-line contract tests.

main(argv) is called in-process so stdout/stderr can be captured and
parsed; one classify query goes through a real subprocess, which covers
the ``python -m ckn_lab.cli`` entry point and the ``discrepancies.json``
written to the current directory.  The selftest command runs on stub
criteria here, because tests/test_acceptance.py runs each real criterion
once.  Every stdout artifact is either one JSON object or a CSV table;
every failure is exit code 2 with a single JSON error line on stderr.
"""

import json
import math
import os
import subprocess
import sys
import xml.dom.minidom

import numpy as np
import pytest

import ckn_lab
from ckn_lab import acceptance
from ckn_lab import b_fs, extremal_form, make_params, read_profile_csv
from ckn_lab.cli import main


def _run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def _run_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1
    return json.loads(err_lines[0])


def test_classify_symmetry_breaking_point(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = _run_json(capsys, ["classify", "--N", "3", "--a", "-1",
                             "--b", "-0.8"])
    assert out["region"] == "SymmetryBreaking"
    assert np.isclose(out["b_fs"], b_fs(3, -1.0), rtol=1e-15)
    assert np.isclose(out["p"], 30.0 / 7.0, rtol=1e-15)
    assert np.isclose(out["lam"], 1.5)
    # touching the threshold curve records both conventions
    doc = json.loads((tmp_path / "discrepancies.json").read_text())
    assert set(doc) == {"threshold_curve_sign", "extremal_inner_exponent"}
    ex = doc["threshold_curve_sign"]["example"]
    assert ex["printed_value"] < -1.0 < ex["adopted_value"]


def test_classify_dual_regime_carries_mapped_params(capsys):
    out = _run_json(capsys, ["classify", "--N", "3", "--a", "1", "--b", "1"])
    assert out["region"] == "DualRegime"
    assert out["dual"]["a"] == 0.0 and out["dual"]["b"] == 0.0
    assert out["dual"]["lam"] == -out["lam"]


def test_classify_inadmissible_point_labels_invalid(capsys):
    out = _run_json(capsys, ["classify", "--N", "3", "--a", "0", "--b", "2"])
    assert out["region"] == "Invalid"
    assert "p" not in out


def test_extremal_json_residuals_and_profile_csv(capsys, tmp_path):
    prof_path = tmp_path / "prof.csv"
    out = _run_json(capsys, ["extremal", "--N", "3", "--a", "-1",
                             "--b", "-0.2", "--out", str(prof_path)])
    assert out["residual_adopted"] < 1e-10
    assert out["residual_printed_variant"] > 1e-2
    params = make_params(3, -1.0, -0.2)
    form = extremal_form(params)
    assert np.isclose(out["amplitude"], form.amplitude, rtol=1e-15)
    profile = read_profile_csv(prof_path, params)
    assert profile.n == 8001
    assert np.isclose(profile.values.max(), form.amplitude, rtol=1e-12)
    doc = json.loads((tmp_path / "discrepancies.json").read_text())
    ex = doc["extremal_inner_exponent"]["example"]
    assert ex["adopted_residual"] < 1e-10 < ex["printed_residual"]


def test_shoot_json_reports_amplitude_agreement(capsys, tmp_path):
    prof_path = tmp_path / "shot.csv"
    out = _run_json(capsys, ["shoot", "--N", "3", "--a", "0", "--b", "0",
                             "--T", "30", "--out", str(prof_path)])
    assert out["rel_err"] <= 1e-6
    profile = read_profile_csv(prof_path, make_params(3, 0.0, 0.0))
    assert np.isclose(profile.values.max(), out["amplitude"], rtol=1e-15)


def test_dualize_profile_csv_has_identical_samples(capsys, tmp_path):
    prof_path = tmp_path / "prof.csv"
    dual_path = tmp_path / "dual.csv"
    _run_json(capsys, ["extremal", "--N", "3", "--a", "0", "--b", "0",
                       "--out", str(prof_path)])
    out = _run_json(capsys, ["dualize", "--N", "3", "--a", "0", "--b", "0",
                             "--in", str(prof_path),
                             "--out", str(dual_path)])
    assert out["dual"]["a"] == 1.0 and out["dual"]["b"] == 1.0
    # dual w-samples are identical; t re-derives from the parsed step, so
    # compare the w column bytewise and the t column numerically
    prof_rows = prof_path.read_text().strip().splitlines()[1:]
    dual_rows = dual_path.read_text().strip().splitlines()[1:]
    assert [r.split(",")[1] for r in prof_rows] == \
        [r.split(",")[1] for r in dual_rows]
    t_prof = np.array([float(r.split(",")[0]) for r in prof_rows])
    t_dual = np.array([float(r.split(",")[0]) for r in dual_rows])
    assert np.allclose(t_prof, t_dual, rtol=0, atol=1e-10)


def test_energy_csv_row_matches_frozen_oracles(capsys):
    code = main(["energy", "--N", "3", "--a", "0", "--b", "0"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "N,a,b,grad_sq,lp,hardy_lhs,quotient"
    fields = lines[1].split(",")
    assert fields[0] == "3"
    grad_sq, lp, hardy = (float(x) for x in fields[3:6])
    assert np.isclose(lp, 3.0 * math.sqrt(3.0) * math.pi ** 2 / 4.0,
                      rtol=1e-10)
    assert np.isclose(grad_sq, lp, rtol=1e-10)
    assert np.isclose(hardy, 2.0 * math.sqrt(3.0) * math.pi ** 2, rtol=1e-10)


def test_energy_json_includes_hardy_and_dual_pairs(capsys):
    out = _run_json(capsys, ["energy", "--N", "3", "--a", "-1", "--b", "-0.2",
                             "--format", "json"])
    assert np.isclose(out["grad_sq"], out["lp"], rtol=1e-8)
    lp1, lp2 = out["dual_lp_pair"]
    assert np.isclose(lp1, lp2, rtol=1e-6)
    lam = out["lam"]
    assert out["hardy_ratio"] <= 1.0 / lam ** 2 + 1e-12


def test_energy_explicit_truncation_reaches_the_tail_gate(capsys):
    err = _run_error(capsys, ["energy", "--N", "3", "--a", "0", "--b", "0",
                              "--T", "30"])
    assert err["code"] == "tail_not_decayed"


def test_spectrum_table_shift_identity_and_zero_mode(capsys):
    code = main(["spectrum", "--N", "3", "--a", "-1", "--b", "-0.5",
                 "--kmax", "2"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "k,lambda_k,mu1,mu2"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    lam_k = [float(r[1]) for r in rows]
    mu1 = [float(r[2]) for r in rows]
    mu2 = [float(r[3]) for r in rows]
    assert lam_k == [0.0, 2.0, 6.0]
    assert mu1[0] < 0.0
    assert abs(mu2[0]) < 1e-4  # translation zero mode
    for k in (1, 2):
        assert np.isclose(mu1[k] - mu1[0], lam_k[k], atol=1e-10)


def test_fs_curve_rows_and_determinism(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["fs-curve", "--N", "3", "--a-min", "-1", "--a-max", "-0.5",
            "--steps", "2", "--out", str(tmp_path / "curve.csv")]
    monkeypatch.setenv("CKN_LAB_THREADS", "1")
    assert main(argv) == 0
    first = (tmp_path / "curve.csv").read_bytes()
    monkeypatch.setenv("CKN_LAB_THREADS", "2")
    assert main(argv) == 0
    assert (tmp_path / "curve.csv").read_bytes() == first
    lines = first.decode().strip().splitlines()
    assert lines[0] == "a,b_fs_closed,b_fs_numeric,abs_err"
    a_col = [float(line.split(",")[0]) for line in lines[1:]]
    assert a_col == [-1.0, -0.5]
    for line in lines[1:]:
        assert float(line.split(",")[3]) <= 1e-3
    assert (tmp_path / "discrepancies.json").exists()
    capsys.readouterr()


def test_regionmap_csv_deterministic_across_thread_counts(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    argv = ["regionmap", "--N", "3", "--a-min", "-2", "--a-max", "1",
            "--b-min", "-2", "--b-max", "2", "--na", "25", "--nb", "25",
            "--out", str(tmp_path / "map.csv")]
    monkeypatch.setenv("CKN_LAB_THREADS", "1")
    assert main(argv) == 0
    first = (tmp_path / "map.csv").read_bytes()
    monkeypatch.setenv("CKN_LAB_THREADS", "3")
    assert main(argv) == 0
    assert (tmp_path / "map.csv").read_bytes() == first
    lines = first.decode().strip().splitlines()
    assert lines[0] == "a,b,label"
    assert len(lines) == 1 + 25 * 25
    labels = {line.split(",")[2] for line in lines[1:]}
    assert {"Invalid", "SymmetryRadial", "SymmetryBreaking",
            "DualRegime"} <= labels
    capsys.readouterr()


def test_regionmap_svg_is_valid_xml_with_legend(tmp_path, capsys):
    path = tmp_path / "map.svg"
    assert main(["regionmap", "--na", "40", "--nb", "40",
                 "--format", "svg", "--out", str(path)]) == 0
    capsys.readouterr()
    doc = xml.dom.minidom.parse(str(path))
    texts = {t.firstChild.data for t in doc.getElementsByTagName("text")
             if t.firstChild is not None}
    for label in ("Invalid", "CriticalA", "HardyEndpoint", "SymmetryRadial",
                  "SymmetryBreaking", "BoundaryBA", "DualRegime",
                  "threshold curve"):
        assert label in texts
    assert len(doc.getElementsByTagName("polyline")) >= 3


def test_regionmap_resolution_guard(capsys):
    err = _run_error(capsys, ["regionmap", "--na", "2001"])
    assert err["code"] == "resolution_too_large"


_USAGE_LINES = [
    ([], "a command is required: classify, dualize, energy, extremal, "
         "fs-curve, regionmap, selftest, shoot, spectrum"),
    (["classify"], "classify requires --N, --a and --b"),
    (["classify", "--N", "3"], "classify requires --a and --b with --N"),
    (["energy"], "energy requires --N, --a and --b"),
    (["shoot"], "shoot requires --N, --a and --b"),
    (["shoot", "--N", "3", "--a", "0"],
     "shoot requires --a and --b with --N"),
    (["fs-curve"], "fs-curve requires --N"),
    (["fs-curve", "--N", "3", "--a-min", "-1"],
     "fs-curve requires --a-min and --a-max"),
    (["fs-curve", "--N", "3", "--a-min", "-1", "--a-max", "-2"],
     "--a-max must be >= --a-min"),
    (["fs-curve", "--N", "3", "--a-min", "-1", "--a-max", "-0.5",
      "--steps", "0"], "--steps must be >= 1, got 0"),
    (["classify", "--N", "3", "--a", "0", "--b", "0", "--T", "0"],
     "--T must be positive, got 0.0"),
    (["classify", "--N", "3", "--a", "0", "--b", "0", "--dt", "0"],
     "--dt must be positive, got 0.0"),
    (["classify", "--N", "3", "--a", "0", "--b", "0", "--tol", "-1"],
     "--tol must be positive, got -1.0"),
    (["spectrum", "--N", "3", "--a", "-1", "--b", "-0.5", "--kmax", "-1"],
     "--kmax must be >= 0, got -1"),
    (["dualize", "--N", "3", "--a", "0", "--b", "0", "--in", "p.csv"],
     "dualize with --in requires --out"),
    (["energy", "--N", "3", "--a", "0", "--b", "0", "--format", "svg"],
     "energy supports csv or json, not svg"),
    (["regionmap", "--format", "json"],
     "regionmap supports csv or svg, not json"),
    (["regionmap", "--na", "0"], "--na and --nb must be >= 1"),
    (["regionmap", "--a-min=-1e308", "--a-max=1e308", "--na", "3",
      "--nb", "2"], "window [-1e+308, 1e+308] is wider than the float range"),
    (["dualize", "--N", "3", "--a", "0", "--b", "0",
      "--in", "no-such-dir/p.csv", "--out", "d.csv"],
     "cannot read --in no-such-dir/p.csv: No such file or directory"),
    # a negative float after a space, exponent included, reads as with "="
    (["classify", "--N", "3", "--a", "-1e-3"],
     "classify requires --a and --b with --N"),
    (["classify", "--N", "3", "--b", "-1E-3"],
     "classify requires --a and --b with --N"),
    (["fs-curve", "--N", "3", "--a-min", "-1e0", "--a-max", "-2e0"],
     "--a-max must be >= --a-min"),
    (["regionmap", "--b-min", "-1e-1", "--b-max", "-2e-1"],
     "window must satisfy a_min <= a_max, b_min <= b_max"),
    (["shoot", "--N", "3", "--a", "0", "--b", "0", "--T", "-1e-3"],
     "--T must be positive, got -0.001"),
    (["shoot", "--N", "3", "--a", "0", "--b", "0", "--dt", "-.5e-2"],
     "--dt must be positive, got -0.005"),
    (["shoot", "--N", "3", "--a", "0", "--b", "0", "--tol", "-1e+1"],
     "--tol must be positive, got -10.0"),
]


@pytest.mark.parametrize("argv, message", _USAGE_LINES,
                         ids=[" ".join(argv) or "no command"
                              for argv, _ in _USAGE_LINES])
def test_usage_errors_print_one_pinned_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps(
        {"code": "usage_error", "message": message}, sort_keys=True) + "\n"


@pytest.mark.parametrize("content, message", [
    (b"t,w\n0,1\n1,x\n", "profile CSV rows must hold two numbers 't,w'"),
    (b"t,w\n0,1\n1\n", "profile CSV rows must hold two numbers 't,w'"),
    (b"t,w\n0,1\n1,2,junk\n", "profile CSV rows must hold two numbers 't,w'"),
    (b"\xfe\xff\x00t", "profile CSV is not text"),
], ids=["non-numeric", "one-column", "three-cells", "not-text"])
def test_dualize_malformed_profile_is_invalid_step(capsys, tmp_path,
                                                   content, message):
    src, out = tmp_path / "bad.csv", tmp_path / "dual.csv"
    src.write_bytes(content)
    err = _run_error(capsys, ["dualize", "--N", "3", "--a", "0", "--b", "0",
                              "--in", str(src), "--out", str(out)])
    assert (err["code"], err["message"]) == ("invalid_step", message)
    assert not out.exists()


def test_library_errors_surface_as_json_exit_2(capsys):
    err = _run_error(capsys, ["energy", "--N", "3", "--a", "0.5",
                              "--b", "0.75"])
    assert err["code"] == "degenerate_params"
    err = _run_error(capsys, ["classify", "--N", "3", "--a", "nope",
                              "--b", "0"])
    assert err["code"] == "usage_error"


@pytest.mark.parametrize("argv", [
    ["classify", "--N", "3", "--a", "nan", "--b", "0"],
    ["classify", "--N", "3", "--a", "0", "--b", "inf"],
    ["regionmap", "--a-min", "nan", "--na", "3", "--nb", "3"],
    ["regionmap", "--a-max", "inf", "--na", "3", "--nb", "3"],
    ["regionmap", "--b-min=-inf", "--na", "3", "--nb", "3"],
    ["regionmap", "--b-max", "nan", "--na", "3", "--nb", "3"],
    ["fs-curve", "--N", "3", "--a-min", "-1", "--a-max", "inf"],
    ["shoot", "--N", "3", "--a", "0", "--b", "0", "--T", "inf"],
    ["energy", "--N", "3", "--a", "0", "--b", "0", "--T", "inf"],
    ["extremal", "--N", "3", "--a", "-1", "--b", "-0.2", "--dt", "inf"],
    ["shoot", "--N", "3", "--a", "0", "--b", "0", "--tol", "inf"],
], ids=lambda argv: " ".join(argv))
def test_non_finite_float_flags_are_usage_errors(capsys, argv):
    err = _run_error(capsys, argv)
    assert err["code"] == "usage_error"
    assert "must be finite" in err["message"]


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


_HUGE_PARAMETERS = [
    # a - a_c squared overflows in the direct bound
    (["classify", "--N", "3", "--a=-5e307", "--b=-5e307"], 0, "Invalid"),
    # a + 1 == a: the direct bound was NaN and the point read HardyEndpoint
    (["classify", "--N", "3", "--a=-1e154", "--b=-1e154"], 0, "Invalid"),
    (["classify", "--N", "3", "--a=1e308", "--b=1e308"], 0, "Invalid"),
    (["dualize", "--N", "3", "--a=-1e308", "--b=-1e308"], 2,
     "inadmissible_b"),
    # N = 2 with b - a so small that p = 2/(b - a) overflows
    (["classify", "--N", "2", "--a", "0", "--b", "5e-324"], 0, "Invalid"),
    (["dualize", "--N", "2", "--a", "0", "--b", "5e-324"], 2,
     "inadmissible_b"),
    # grids past the node budget fail before they allocate
    (["shoot", "--N", "3", "--a", "0", "--b", "0", "--T", "1",
      "--dt", "1e-9"], 2, "resolution_too_large"),
    (["extremal", "--N", "3", "--a", "0", "--b", "0", "--T", "1e9"], 2,
     "resolution_too_large"),
    (["energy", "--N", "3", "--a", "0", "--b", "0", "--T", "1e8"], 2,
     "resolution_too_large"),
    (["spectrum", "--N", "3", "--a", "-1", "--b", "-0.5", "--T", "1e9"], 2,
     "resolution_too_large"),
    (["fs-curve", "--N", "3", "--a-min=-1", "--a-max=-1", "--steps", "1",
      "--T", "1e9"], 2, "resolution_too_large"),
    # near p = 2 the amplitude is finite but w^2 and w^p overflow
    (["energy", "--N", "3", "--a=-2", "--b=-1.003"], 2, "not_converged"),
    # at large p, |w|^(p-2) overflows in the RK4 step from the 2 w_eq end
    (["shoot", "--N", "2", "--a=-5", "--b=-4.99", "--T", "5"], 2,
     "no_convergence"),
    (["shoot", "--N", "2", "--a=-5", "--b=-4.9999", "--T", "1"], 2,
     "no_convergence"),
    # an orbit rate of 1.1e6 needs more substeps than the node budget
    (["shoot", "--N", "3", "--a=-1e6", "--b=-999999.8"], 2,
     "resolution_too_large"),
    # T / dt past the float range is counted before it becomes an int
    (["shoot", "--N", "3", "--a", "0", "--b", "0", "--T", "1e308",
      "--dt", "1e-300"], 2, "resolution_too_large"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code, label", _HUGE_PARAMETERS,
                         ids=[" ".join(case[0]) for case in _HUGE_PARAMETERS])
def test_huge_parameters_give_standard_json_or_typed_error(capsys, tmp_path,
                                                          monkeypatch, argv,
                                                          code, label):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == ""
        assert _strict_json(captured.out)["region"] == label
    else:
        assert captured.out == ""
        assert _strict_json(captured.err)["code"] == label


@pytest.mark.parametrize("argv, context", [
    (["shoot", "--N", "3", "--a", "0", "--b", "0", "--T", "0.004"],
     {"dt": 0.01, "t_max": 0.004}),
    (["shoot", "--N", "3", "--a=-4e15", "--b=-4e15", "--dt", "1e300"],
     {"dt": 1e300, "t_max": 40.0}),
], ids=["T-below-half-dt", "huge-dt"])
def test_shoot_without_an_output_step_prints_one_pinned_line(capsys, argv,
                                                             context):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps(
        {"code": "invalid_step", "context": context,
         "message": "t_max shorter than one output step"},
        sort_keys=True) + "\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    # e^{-lam t} overflows on the left tail of the r-space quadrature
    ["energy", "--N", "3", "--a=-40", "--b=-39.5", "--format", "json"],
    # r^{N-1-bp} overflows on the right tail
    ["energy", "--N", "2", "--a=-2.55", "--b=-2.35", "--format", "json"],
], ids=lambda argv: " ".join(argv))
def test_energy_defect_points_print_one_json_line_and_no_warning(capsys,
                                                                 argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert _strict_json(lines[0])["code"] == "not_converged"


def test_energy_overflow_is_a_typed_error(capsys):
    # r^{N-1-bp} leaves the float range inside the r-space quadrature
    err = _run_error(capsys, ["energy", "--N", "2", "--a=-2.55",
                              "--b=-2.35", "--format", "json"])
    assert err["code"] == "not_converged"
    assert (err["context"]["N"], err["context"]["a"],
            err["context"]["b"]) == (2, -2.55, -2.35)


def test_bad_thread_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CKN_LAB_THREADS", "0")
    err = _run_error(capsys, ["regionmap", "--na", "16", "--nb", "16"])
    assert err["code"] == "usage_error"


def _child_env():
    # a child run in tmp_path no longer resolves a relative PYTHONPATH
    # entry: put the directory holding this ckn_lab in front
    src = os.path.dirname(os.path.dirname(os.path.abspath(ckn_lab.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + inherited if inherited else ""))


def test_module_entry_point_writes_discrepancies_to_cwd(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "ckn_lab.cli", "classify",
                           "--N", "3", "--a", "-1", "--b", "-0.8"],
                          capture_output=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode()[-500:]
    assert json.loads(proc.stdout)["region"] == "SymmetryBreaking"
    assert (tmp_path / "discrepancies.json").exists()


@pytest.mark.parametrize("results, budget, code", [
    ((True, True, True), 60.0, 0),
    ((True, False, True), 60.0, 2),
    ((True,), 0.0, 2),
], ids=["all-pass", "one-fails", "zero-budget"])
def test_selftest_prints_one_verdict_per_criterion(capsys, tmp_path,
                                                   monkeypatch, results,
                                                   budget, code):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(acceptance, "CRITERIA", [
        (k, f"stub {k}", lambda ok=ok: (ok, "measured"), budget)
        for k, ok in enumerate(results, 1)])
    assert main(["selftest"]) == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(results)
    for k, (line, ok) in enumerate(zip(lines, results), 1):
        verdict = "PASS" if ok and budget > 0 else "FAIL"
        assert line.startswith(f"{verdict} criterion {k}: stub {k}: measured")
        assert ("OVER BUDGET" in line) == (budget == 0.0)
    assert (tmp_path / "discrepancies.json").exists()


def test_light_commands_run_without_scipy(tmp_path):
    # only the eigensolve and the r-space quadrature need scipy; the
    # package must not import it for commands that call neither
    child = "\n".join([
        "import contextlib, io, sys",
        "import ckn_lab, ckn_lab.cli as cli",
        "for argv in (",
        "    ['classify', '--N', '3', '--a', '-1', '--b', '-0.8'],",
        "    ['regionmap', '--na', '8', '--nb', '8', '--format', 'svg'],",
        "    ['extremal', '--N', '3', '--a', '-1', '--b', '-0.2'],",
        "    ['shoot', '--N', '3', '--a', '-4.3', '--b', '-4', '--T', '10'],",
        "):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert cli.main(argv) == 0, argv",
        "assert 'scipy' not in sys.modules, 'scipy imported'",
        "names = ckn_lab.__all__",
        "assert len(names) == len(set(names)), 'duplicate names'",
        "missing = [n for n in names if not hasattr(ckn_lab, n)]",
        "assert not missing, missing",
    ])
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode()[-800:]
