"""Command-line contract tests.

main(argv) is called in-process so stdout/stderr can be captured and
parsed; one classify query goes through a real subprocess, which covers
the ``python -m ckn_lab.cli`` entry point and the ``discrepancies.json``
written to the current directory.  The selftest command runs on stub
criteria here, because tests/test_acceptance.py runs each real criterion
once.  Every stdout artifact is either one JSON object or a CSV table;
every failure is exit code 2 with a single JSON error line on stderr.
"""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import xml.dom.minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ckn_lab
from ckn_lab import acceptance
from ckn_lab import cli, spectrum
from ckn_lab import (asymptote_window, b_fs, build_mode_operator,
                     extremal_form, make_params, mode_eigenvalues,
                     read_profile_csv, region_label, sample_extremal,
                     tail_window)
from ckn_lab.cli import main
from ckn_lab.profiles import window_nodes


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


@pytest.mark.parametrize("N, a, b", [
    (2, -1.0, -0.5), (3, -1.0, -0.5), (4, -0.5, 0.0), (5, 0.0, 0.6),
    (6, -1.0, -0.3),
    (3, 1.0, 1.5),  # a > a_c
], ids=["N2", "N3", "N4", "N5", "N6", "N3-a-above-a_c"])
def test_spectrum_table_shift_identity_and_zero_mode(capsys, monkeypatch,
                                                     N, a, b):
    calls, profiles = [], []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            if fn is build_mode_operator:
                profiles.append(args[0])
            return fn(*args, **kwargs)
        return wrapper

    for name in ("build_mode_operator", "mode_eigenvalues"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
    code = main(["spectrum", "--N", str(N), f"--a={a}", f"--b={b}",
                 "--kmax", "3"])
    captured = capsys.readouterr()
    assert code == 0
    # one operator and one eigensolve, whatever --kmax
    assert sorted(calls) == ["build_mode_operator", "mode_eigenvalues"]
    lines = captured.out.strip().splitlines()
    assert lines[0] == "k,lambda_k,mu1,mu2"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    lam_k = [float(r[1]) for r in rows]
    mu1 = [float(r[2]) for r in rows]
    mu2 = [float(r[3]) for r in rows]
    assert lam_k == [float(k * (k + N - 2)) for k in range(4)]
    assert mu1[0] < 0.0
    assert abs(mu2[0]) < 1e-4  # translation zero mode
    for k in (1, 2, 3):
        assert np.isclose(mu1[k] - mu1[0], lam_k[k], atol=1e-10)
    # each shifted row against a direct solve of mode k on the table's own
    # grid: the profile it sampled, centred at t = 0, on the window
    # asymptote_window and the step 0.2/(|lam| p)
    params = make_params(N, a, b)
    (profile,) = profiles
    h = 0.2 / (abs(params.lam) * params.p)
    n = window_nodes(asymptote_window(params), h)
    assert (profile.t0, profile.dt, profile.n) == (-(n - 1) * h / 2.0, h, n)
    for k in (1, 2, 3):
        direct = mode_eigenvalues(build_mode_operator(profile, k), 2)
        assert abs(mu1[k] - direct[0].mu) <= 1e-10
        assert abs(mu2[k] - direct[1].mu) <= 1e-10


def test_fs_curve_rows_and_determinism(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["fs-curve", "--N", "3", "--a-min", "-1", "--a-max", "-0.5",
            "--steps", "2", "--out", str(tmp_path / "curve.csv")]
    assert main(argv) == 0
    first = (tmp_path / "curve.csv").read_bytes()
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


# fs-curve CSVs pinned byte for byte: the ITP probes and both bracket ends
# read the centre pivot of the Numerov matrix of the amplitude-free k=1
# potential, and the lower end eigensolves that of the sampled operator,
# at the step 0.05 that min(0.05, 2/kappa) gives here; the answer is the
# last bracket's secant root, kept within tol/2 of both ends.  Moving the lower
# end onto the amplitude-free potential too (ROADMAP item 2) changes these
# bytes on purpose.  Every N in 2..6 is pinned at the default window
_PINNED_FS_CURVES = {
    2: """a,b_fs_closed,b_fs_numeric,abs_err
-4,-3.0298574998546681,-3.0298574996750443,1.7962387133252378e-10
-3.1666666666666665,-2.2130840015325246,-2.2130841359140123,1.3438148771527381e-07
-2.333333333333333,-1.4141883033152753,-1.4141883028403188,4.7495651855911092e-10
-1.5,-0.66794970566215628,-0.66794970471388215,9.4827412588927018e-10
""",
    3: """a,b_fs_closed,b_fs_numeric,abs_err
-4,-3.069002861991414,-3.069003110332917,2.4834150291752621e-07
-3.1666666666666665,-2.2671549326947145,-2.2671549303179974,2.3767170453936615e-09
-2.333333333333333,-1.4912280701754383,-1.4912280665058166,3.6696217176057644e-09
-1.5,-0.77525512860841084,-0.77525512243473094,6.1736799006339993e-09
""",
    4: """a,b_fs_closed,b_fs_numeric,abs_err
-4,-3.1101776349538639,-3.1101776548290032,1.9875139312119927e-08
-3.1666666666666665,-2.3198745287838722,-2.3198745206652633,8.1186088962681424e-09
-2.333333333333333,-1.5586203145011055,-1.5586203027574626,1.1743642946981936e-08
-1.5,-0.85601012694642709,-0.85601010893111718,1.8015309910524024e-08
""",
    5: """a,b_fs_closed,b_fs_numeric,abs_err
-4,-3.1505164412789073,-3.150516426988859,1.4290048255816146e-08
-3.1666666666666665,-2.3688040916215223,-2.368804072612527,1.9008995266744932e-08
-2.333333333333333,-1.6168712179196967,-1.6168711916479879,2.6271708808423e-08
-1.5,-0.91987426415539053,-0.91987414355545782,1.2059993270696623e-07
""",
    6: """a,b_fs_closed,b_fs_numeric,abs_err
-4,-3.1888722860050907,-3.1888722580176188,2.7987471895585259e-08
-3.1666666666666665,-2.4134516708260496,-2.4134516345806047,3.6245444867688548e-08
-2.333333333333333,-1.6673482179371462,-1.6673481695247909,4.8412355235782911e-08
-1.5,-0.97189708519884688,-0.97189701820954877,6.6989298108666162e-08
""",
}


@pytest.mark.parametrize("N", sorted(_PINNED_FS_CURVES))
def test_fs_curve_bytes_are_pinned(capsys, tmp_path, monkeypatch, N):
    monkeypatch.chdir(tmp_path)
    argv = ["fs-curve", "--N", str(N), "--a-min=-4", "--a-max=-1.5",
            "--steps", "4"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (_PINNED_FS_CURVES[N], "")


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_fs_curve_matches_the_closed_form_out_to_a_minus_50(capsys, tmp_path,
                                                           monkeypatch, N):
    # the upper bracket end is an inertia test at p - 2 = 1e-9, which
    # needs no amplitude: a cap on the sampled amplitude there lost the
    # bracket for a <= -10.75 (N = 2) to -19.25 (N = 6)
    monkeypatch.chdir(tmp_path)
    assert main(["fs-curve", "--N", str(N), "--a-min=-50", "--a-max=-0.05",
                 "--steps", "21"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 21
    for row in rows:
        a, numeric = float(row[0]), float(row[2])
        assert abs(numeric - b_fs(N, a)) <= 1e-3


def test_fs_curve_refusal_reports_both_ends(capsys, tmp_path, monkeypatch):
    # at a = -1e-9 the threshold lies below the lower guard: the search
    # refuses, with the upper end's eigenvalue from its even half block,
    # whose sign is that of the centre pivot at hi
    monkeypatch.chdir(tmp_path)
    err = _run_error(capsys, ["fs-curve", "--N", "2", "--a-min=-1e-9",
                              "--a-max=-1e-9", "--steps", "1"])
    assert err["code"] == "no_sign_change"
    context = err["context"]
    assert sorted(context) == ["hi", "lo", "mu_hi", "mu_lo"]
    grid = spectrum._k1_half_grid(spectrum._fs_window(2, -1e-9, 1e-16), 0.05)
    pivot = spectrum._k1_centre_pivot(make_params(2, -1e-9, context["hi"]),
                                      grid)
    assert (pivot > 0.0) == (context["mu_hi"] > 0.0)


# --T 10.025 has an even count (400) of interior nodes at the step 0.05,
# so the probes factor the even block whose centre coupling sits on the
# diagonal
_PINNED_FS_CURVE_EVEN_COUNT = """a,b_fs_closed,b_fs_numeric,abs_err
-3,-2.1092410250817037,-2.1092410225049232,2.5767805666987442e-09
-2.5,-1.6431989494000636,-1.6431989460571248,3.342938814654417e-09
-2,-1.1944175803322663,-1.1944175758633926,4.4688737155240688e-09
-1.5,-0.77525512860841084,-0.77525512243473016,6.1736806777901165e-09
-1,-0.40858968733650158,-0.40858967855454376,8.7819578276082666e-09
"""


def test_fs_curve_bytes_are_pinned_at_an_even_interior_count(
        capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fs-curve", "--N", "3", "--a-min=-3", "--a-max=-1",
                 "--steps", "5", "--T", "10.025"]) == 0
    assert capsys.readouterr() == (_PINNED_FS_CURVE_EVEN_COUNT, "")


# the spectrum table pinned byte for byte: mu1 and mu2 are the principal
# eigenvalues of the even and the odd half block of the k = 0 Numerov
# matrix, each certified by dpttrf shifts, on the step 0.2/(lam p) = 0.044
# and the window T = 19.  Sturm bisection on the whole Numerov matrix gives
# mu1 = -2.812500130054631 and mu2 = -4.2112378739744827e-07, 2.4e-14 and
# 1.1e-14 away; the closed forms are -2.8125 and 0
_PINNED_SPECTRUM = """k,lambda_k,mu1,mu2
0,0,-2.8125001300546546,-4.2112377618448265e-07
1,2,-0.8125001300546546,1.9999995788762237
2,6,3.1874998699453454,5.9999995788762241
3,12,9.187499869945345,11.999999578876224
"""


def test_spectrum_bytes_are_pinned(capsys):
    assert main(["spectrum", "--N", "3", "--a=-1", "--b=-0.5",
                 "--kmax", "3"]) == 0
    assert capsys.readouterr() == (_PINNED_SPECTRUM, "")


# grids whose 2T/dt is not an integer, and one with an even count of
# interior nodes.  The table samples the centred grid t0 = -(n-1) dt / 2,
# which for --dt 0.3 and 0.007 is not [-T, -T + (n-1) dt]; the last tuple
# holds (mu1, mu2) from Sturm bisection on the whole Numerov matrix of the
# same grid
_ODD_GRID_SPECTRA = [
    (["--N", "3", "--a=-1", "--b=-0.5", "--dt", "0.3"],
     "0,0,-2.8127768625259262,-0.00089881059032613216\n"
     "1,2,-0.81277686252592618,1.999101189409674\n",
     (-2.8127768625259195, -0.000898810590311605)),
    (["--N", "3", "--a=-1", "--b=-0.5", "--dt", "0.007"],
     "0,0,-2.8125000000799858,-2.5898574388760226e-10\n"
     "1,2,-0.8125000000799858,1.9999999997410143\n",
     (-2.812500000084997, -2.567066559322484e-10)),
    (["--N", "3", "--a=-3", "--b=-2.5", "--T", "10.005", "--dt", "0.01"],
     "0,0,-15.312500053770352,-1.7410649616683233e-07\n"
     "1,2,-13.312500053770352,1.9999998258935039\n",
     (-15.31250005377202, -1.7410650166027608e-07)),
]


def _sech2_closed_forms(N, a, b):
    # mu_n = lam^2 - gamma^2 (nu - n)^2 of the k = 0 sech^2 well, n = 0, 1
    params = make_params(N, a, b)
    gamma = params.lam * (params.p - 2.0) / 2.0
    nu = params.p / (params.p - 2.0)
    return [params.lam ** 2 - gamma ** 2 * (nu - n) ** 2 for n in (0, 1)]


def _table_errors(capsys, N, a, b):
    # |mu1 - closed| and |mu2 - closed| of the k = 0 row of the table
    assert main(["spectrum", "--N", str(N), f"--a={a}", f"--b={b}",
                 "--kmax", "0"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    row = out.splitlines()[1].split(",")
    return [abs(float(got) - want) for got, want in
            zip(row[2:], _sech2_closed_forms(N, a, b))]


# points of large gamma = lam (p-2)/2, where a second-difference matrix at
# dt = 0.01 is off by (4.2e-3, 4.2e-3), (3.6e-2, 4.4e-3) and (9.6e-2, 0.35)
# in (mu1, mu2)
@pytest.mark.parametrize("N, a, b", [(2, -2.0, -1.7), (2, -0.5, -0.45),
                                     (3, -20.0, -19.3)])
def test_spectrum_rows_match_the_closed_forms_at_large_gamma(capsys, N, a, b):
    assert max(_table_errors(capsys, N, a, b)) <= 1e-4


@pytest.mark.parametrize("a", [-1e-10, -1e-80, -1e-150])
def test_spectrum_rows_at_a_tiny_lam(capsys, a):
    # window and step scale like 1/|lam|, so the table keeps its 741 nodes
    # and its relative accuracy as lam = -a shrinks, where dt = 0.01 would
    # need 46,523,601 nodes at lam = 1e-5.  mu1 = -3 lam^2 and mu2 = 0
    errors = _table_errors(capsys, 2, a, 0.5)
    assert max(errors) <= 1e-6 * a * a


def test_spectrum_rows_match_the_closed_forms_on_the_point_mix_band(capsys):
    # a seeded sample of the benchmark's point-mix band: N = 2..6,
    # lam = a_c - a in [0.3, 2] and b - a in [0.3, 0.85], at the table's
    # own window and step; its oracle allows 2e-4
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(60):
        N = int(rng.integers(2, 7))
        a = (N - 2) / 2.0 - float(rng.uniform(0.3, 2.0))
        b = a + float(rng.uniform(0.3, 0.85))
        worst = max(worst, *_table_errors(capsys, N, a, b))
    assert worst <= 2e-5


@pytest.mark.parametrize(
    "argv, rows, before", _ODD_GRID_SPECTRA,
    ids=[" ".join(argv) for argv, _, _ in _ODD_GRID_SPECTRA])
def test_spectrum_on_odd_grids_is_pinned(capsys, argv, rows, before):
    assert main(["spectrum"] + argv + ["--kmax", "1"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("k,lambda_k,mu1,mu2\n" + rows, "")
    mu1, mu2 = (float(v) for v in rows.split("\n")[0].split(",")[2:])
    assert abs(mu1 - before[0]) <= 1e-10
    assert abs(mu2 - before[1]) <= 2e-10


def test_regionmap_csv_deterministic(tmp_path, capsys):
    argv = ["regionmap", "--N", "3", "--a-min", "-2", "--a-max", "1",
            "--b-min", "-2", "--b-max", "2", "--na", "25", "--nb", "25",
            "--out", str(tmp_path / "map.csv")]
    assert main(argv) == 0
    first = (tmp_path / "map.csv").read_bytes()
    assert main(argv) == 0
    assert (tmp_path / "map.csv").read_bytes() == first
    lines = first.decode().strip().splitlines()
    assert lines[0] == "a,b,label"
    assert len(lines) == 1 + 25 * 25
    labels = {line.split(",")[2] for line in lines[1:]}
    assert {"Invalid", "SymmetryRadial", "SymmetryBreaking",
            "DualRegime"} <= labels
    capsys.readouterr()


@settings(max_examples=60)
@given(N=st.integers(2, 6), k=st.integers(1, 4),
       a_eighths=st.integers(-32, 24), b_eighths=st.integers(-32, 32),
       na=st.integers(1, 33), nb=st.integers(1, 33))
def test_regionmap_matches_the_scalar_classifier(N, k, a_eighths, b_eighths,
                                                 na, nb):
    # dyadic windows on the lattice of their step 2^-k: a = a_c, a = 0,
    # b = a and b = a + 1 fall exactly on nodes
    step = 2.0 ** -k
    a_min = math.floor(a_eighths / 8 / step) * step
    b_min = math.floor(b_eighths / 8 / step) * step
    argv = ["regionmap", "--N", str(N),
            f"--a-min={a_min}", f"--a-max={a_min + (na - 1) * step}",
            f"--b-min={b_min}", f"--b-max={b_min + (nb - 1) * step}",
            "--na", str(na), "--nb", str(nb)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
    assert [(float(a), float(b)) for a, b, _ in rows] == [
        (a_min + i * step, b_min + j * step)
        for i in range(na) for j in range(nb)]
    for a, b, label in rows:
        assert label == region_label(N, float(a), float(b)).variant.value


_CELL = re.compile(r'<rect x="([0-9.]+)" y="([0-9.]+)" width="[0-9.]+" '
                   r'height="([0-9.]+)" fill="(#[0-9a-f]{6})"/>')
_LEGEND = re.compile(r'<rect x="[0-9]+" y="[0-9]+" width="13" height="13" '
                     r'fill="(#[0-9a-f]{6})" .*\n<text [^>]*>(\w+)</text>')


def _svg_label_grid(text, na, nb):
    """Decode the run-length merged cell rects into an na x nb label grid;
    every node must be covered by exactly one rect."""
    label_of = dict(_LEGEND.findall(text))
    cw, ch = 640.0 / na, 640.0 / nb
    grid = [[None] * nb for _ in range(na)]
    for line in text.splitlines()[2:]:
        cell = _CELL.fullmatch(line)
        if cell is None:
            break
        x, y, h = (float(v) for v in cell.groups()[:3])
        i = round(x / cw)
        j2 = round((640.0 - y) / ch) - 1
        j = j2 - round((h - 0.35) / ch) + 1
        assert 0 <= i < na and 0 <= j <= j2 < nb, line
        for jj in range(j, j2 + 1):
            assert grid[i][jj] is None, f"overlapping cell {line}"
            grid[i][jj] = label_of[cell.group(4)]
    assert all(None not in column for column in grid), "uncovered cells"
    return grid


_EDGE_WINDOWS = {
    # the 2^52 edge of make_params, on both signs
    "above-2^52": (3, 2.0 ** 52 - 64, 2.0 ** 52 + 64,
                   2.0 ** 52 - 64, 2.0 ** 52 + 64, 33, 33),
    "below-minus-2^52": (3, -2.0 ** 52 - 64, -2.0 ** 52 + 64,
                         -2.0 ** 52 - 64, -2.0 ** 52 + 64, 33, 33),
    # b - a of a few 1e-309: p = 2/(b-a) overflows at N = 2
    "N2-p-overflow": (2, -1e-307, 1e-307, -1e-307, 1e-307, 41, 41),
    "N1": (1, -3.0, 2.0, -3.0, 3.0, 12, 12),
    "N0": (0, -3.0, 2.0, -3.0, 3.0, 12, 12),
    "N-3": (-3, -3.0, 2.0, -3.0, 3.0, 12, 12),
    "N100": (100, 40.0, 60.0, 40.0, 61.0, 41, 43),
    "a-near-minus-1e15": (3, -1e15 - 4, -1e15 + 4, -1e15 - 4, -1e15 + 4,
                          33, 33),
    "a-near-1e15": (4, 1e15 - 4, 1e15 + 4, 1e15 - 4, 1e15 + 4, 33, 33),
    "criterion-10": (3, -3.0, 3.21875, -3.0, 3.21875, 200, 200),
}


@pytest.mark.parametrize("window", _EDGE_WINDOWS.values(),
                         ids=_EDGE_WINDOWS.keys())
def test_regionmap_edge_windows_match_the_scalar_classifier(window):
    N, a_min, a_max, b_min, b_max, na, nb = window
    argv = ["regionmap", "--N", str(N),
            f"--a-min={a_min!r}", f"--a-max={a_max!r}",
            f"--b-min={b_min!r}", f"--b-max={b_max!r}",
            "--na", str(na), "--nb", str(nb)]
    texts = []
    for fmt in ("csv", "svg"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--format", fmt]) == 0
        texts.append(out.getvalue())
    rows = [line.split(",") for line in texts[0].splitlines()[1:]]
    assert len(rows) == na * nb
    for a, b, label in rows:
        assert label == region_label(N, float(a), float(b)).variant.value
    grid = _svg_label_grid(texts[1], na, nb)
    assert [label for column in grid for label in column] == [
        label for _, _, label in rows]


def test_regionmap_streams_in_bounded_memory(tmp_path, capsys):
    # a 400 x 400 map held 30 MiB or more as label and row lists; streamed
    # per a-column it needs about a column of text and one key block
    argv = ["regionmap", "--na", "400", "--nb", "400",
            "--out", str(tmp_path / "map.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert (tmp_path / "map.csv").read_text().count("\n") == 1 + 400 * 400


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
    # near p = 2, w_eq = lam^{2/(p-2)} leaves the float range
    (["shoot", "--N", "3", "--a=-1", "--b=-0.0001"], 2, "degenerate_params"),
    (["shoot", "--N", "2", "--a=-3", "--b=-2.0001", "--T", "2"], 2,
     "degenerate_params"),
    # near p = 2 with p lam^2/2 < 1 the amplitude underflows to 0
    (["extremal", "--N", "2", "--a=-0.3", "--b=0.699"], 2,
     "degenerate_params"),
    (["energy", "--N", "2", "--a=-0.3", "--b=0.699", "--format", "json"], 2,
     "degenerate_params"),
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


_INF_GRID = {"code": "resolution_too_large",
             "context": {"limit": 4194304, "n": "inf"},
             "message": "grid limited to 4194304 nodes, got inf"}

_UNDERFLOW = {"code": "degenerate_params",
              "context": {"a": -1e-300, "b": 0.5, "lam": 1e-300, "p": 4.0},
              "message": "p lam^2 / 2 underflows double precision as lam -> 0"}

_IDENTITY_MESSAGE = ("grad_sq and lp miss the identity grad_sq = lp by "
                     "more than 1e-08 relative")

_IDENTITY_100 = {"code": "not_converged",
                 "context": {"N": 3, "a": -100.0, "b": -99.5,
                             "gap": 0.00015136169735172913, "gate": 1e-08},
                 "message": _IDENTITY_MESSAGE}

_PINNED_ERRORS = [
    # 2T/dt past the float range counts as infinitely many nodes
    (["extremal", "--N", "3", "--a", "0", "--b", "0", "--T", "1e300",
      "--dt", "1e-10"], _INF_GRID),
    (["spectrum", "--N", "3", "--a", "0", "--b", "0", "--T", "1e300",
      "--dt", "1e-10"], _INF_GRID),
    (["energy", "--N", "3", "--a", "0", "--b", "0", "--T", "1e300",
      "--dt", "1e-10"], _INF_GRID),
    (["spectrum", "--N", "3", "--a", "0", "--b", "0", "--dt", "1e-320"],
     _INF_GRID),
    (["fs-curve", "--N", "3", "--a-min=-1", "--a-max=-1", "--steps", "1",
      "--T", "1e300", "--dt", "1e-10"], _INF_GRID),
    # at N = 2, p lam^2 / 2 underflows to 0 for 0 < |a| below about 1e-162
    (["extremal", "--N", "2", "--a=-1e-300", "--b=0.5"], _UNDERFLOW),
    (["shoot", "--N", "2", "--a=-1e-300", "--b=0.5"], _UNDERFLOW),
    # the a-list of fs-curve gets the region map's per-axis limit
    (["fs-curve", "--N", "3", "--a-min=-1", "--a-max=-0.5", "--steps",
      "2001"],
     {"code": "resolution_too_large",
      "context": {"limit": 2000, "steps": 2001},
      "message": "threshold curve limited to 2000 nodes"}),
    (["fs-curve", "--N", "3", "--a-min=-1", "--a-max=-0.5", "--steps",
      "1000000000000"],
     {"code": "resolution_too_large",
      "context": {"limit": 2000, "steps": 1000000000000},
      "message": "threshold curve limited to 2000 nodes"}),
    # an explicit --T shorter than the k=1 well's window at tol: Dirichlet
    # walls that close printed b_fs_numeric -0.790 (T = 0.5) and an error
    # of 3.0e-4 (T = 3) against the closed form's -0.409
    (["fs-curve", "--N", "3", "--a-min=-1", "--a-max=-1", "--steps", "1",
      "--T", "0.5"],
     {"code": "invalid_step",
      "context": {"N": 3, "T": 0.5, "a": -1.0, "window": 7.0},
      "message": "window T = 0.5 is shorter than the 7 that the k=1 well "
                 "needs at tol 1e-06"}),
    (["fs-curve", "--N", "3", "--a-min=-1", "--a-max=-1", "--steps", "1",
      "--T", "3"],
     {"code": "invalid_step",
      "context": {"N": 3, "T": 3.0, "a": -1.0, "window": 7.0},
      "message": "window T = 3.0 is shorter than the 7 that the k=1 well "
                 "needs at tol 1e-06"}),
    # energy refuses where grad_sq = lp fails by more than its 1e-8: the
    # t-space step is too coarse for gamma dt = 0.5 (lp off by 1.0e-4) and
    # for beta = 29 at gamma dt = 0.2 (lp off by 6.7e-4); both formats
    (["energy", "--N", "3", "--a=-100", "--b=-99.5"], _IDENTITY_100),
    (["energy", "--N", "3", "--a=-100", "--b=-99.5", "--format", "json"],
     _IDENTITY_100),
    (["energy", "--N", "6", "--a=-578", "--b=-577.1"],
     {"code": "not_converged",
      "context": {"N": 6, "a": -578.0, "b": -577.1,
                  "gap": 0.00029695449291393226, "gate": 1e-08},
      "message": _IDENTITY_MESSAGE}),
    # a window too short for the well at --T 10.005, refused before the
    # solve, at the table's own step (451 nodes, ends at +-10) and at
    # --dt 0.01 (an even count of interior nodes, ends at +-10.005)
    (["spectrum", "--N", "3", "--a=-1", "--b=-0.5", "--T", "10.005"],
     {"code": "tail_not_decayed",
      "context": {"deviation": 8.259357600515216e-06,
                  "end_values": [2.2499917406423995, 2.2499917406423995],
                  "tol": 1e-10},
      "message": "potential is 8.259e-06 away from its asymptote at the "
                 "grid ends"}),
    (["spectrum", "--N", "3", "--a=-1", "--b=-0.5", "--T", "10.005",
      "--dt", "0.01"],
     {"code": "tail_not_decayed",
      "context": {"deviation": 8.197644170593321e-06,
                  "end_values": [2.2499918023558294, 2.2499918023558294],
                  "tol": 1e-10},
      "message": "potential is 8.198e-06 away from its asymptote at the "
                 "grid ends"}),
    # a step too coarse for the Numerov transform: h^2 (max V - min V) =
    # 16.1 >= 12.  A second-difference matrix gives mu2 = 1.476 here,
    # against the closed form's 0.  The threshold search refuses
    # h^2 kappa^2 = 17 >= 12 before any solve; on a second-difference
    # matrix it reported no_sign_change from ends that miss the well
    (["spectrum", "--N", "3", "--a=-1", "--b=-0.5", "--dt", "2"],
     {"code": "invalid_step",
      "context": {"h": 2.0, "limit": 1.7262443796178737},
      "message": "step 2 is too coarse for the Numerov matrix: h^2 "
                 "(max V - min V) must stay below 12, so h below 1.72624"}),
    (["fs-curve", "--N", "3", "--a-min=-1", "--a-max=-1", "--steps", "1",
      "--dt", "2"],
     {"code": "invalid_step",
      "context": {"h": 2.0, "limit": 1.6803361008336117},
      "message": "step 2 is too coarse for the Numerov matrix: h^2 "
                 "(lam^2 + N - 1) must stay below 12, so h below 1.68034"}),
    # the spectrum table gets the same limit on its rows, checked before
    # the profile is sampled
    (["spectrum", "--N", "3", "--a=-1", "--b=-0.5", "--kmax", "2001"],
     {"code": "resolution_too_large",
      "context": {"kmax": 2001, "limit": 2000},
      "message": "spectrum table limited to 2000 modes"}),
    (["spectrum", "--N", "3", "--a=-1", "--b=-0.5", "--kmax", "1000000000"],
     {"code": "resolution_too_large",
      "context": {"kmax": 1000000000, "limit": 2000},
      "message": "spectrum table limited to 2000 modes"}),
    # near p = 2 with p lam^2/2 < 1 the amplitude underflows to 0, and the
    # empty well's table read mu1 = 0.0100000002 and mu2 = 0.0100000009
    # with exit 0, against the closed forms -2.0e-5 and 0; refused as
    # extremal and energy refuse it
    (["spectrum", "--N", "2", "--a=-0.1", "--b=0.899"],
     {"code": "degenerate_params",
      "context": {"a": -0.1, "b": 0.899, "lam": 0.1, "p": 2.002002002002002},
      "message": "extremal amplitude underflows double precision as p -> 2"}),
]


@pytest.mark.parametrize("argv, payload", _PINNED_ERRORS,
                         ids=[" ".join(argv) for argv, _ in _PINNED_ERRORS])
def test_typed_errors_print_one_pinned_line(capsys, tmp_path, monkeypatch,
                                            argv, payload):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps(payload, sort_keys=True) + "\n"


_UNWRITABLE_OUT = [
    # classify writes only discrepancies.json, beside --out
    (["classify", "--N", "3", "--a=-1", "--b=-0.8"], "discrepancies.json"),
    (["extremal", "--N", "3", "--a=-1", "--b=-0.2"], "x"),
    (["spectrum", "--N", "3", "--a=-1", "--b=-0.5", "--kmax", "1"], "x"),
    (["regionmap", "--na", "8", "--nb", "8"], "x"),
    (["shoot", "--N", "3", "--a=-4.3", "--b=-4", "--T", "10"], "x"),
    (["fs-curve", "--N", "3", "--a-min=-1", "--a-max=-1", "--steps", "1"],
     "x"),
    (["energy", "--N", "3", "--a", "0", "--b", "0"], "x"),
    (["dualize", "--N", "3", "--a", "0", "--b", "0", "--in", "p.csv"], "x"),
]


@pytest.mark.parametrize("argv, target", _UNWRITABLE_OUT,
                         ids=[argv[0] for argv, _ in _UNWRITABLE_OUT])
def test_unwritable_out_prints_one_usage_error(capsys, tmp_path, monkeypatch,
                                               argv, target):
    monkeypatch.chdir(tmp_path)
    if "--in" in argv:
        assert main(["extremal", "--N", "3", "--a", "0", "--b", "0",
                     "--out", "p.csv"]) == 0
        capsys.readouterr()
    missing = tmp_path / "missing"
    assert main(argv + ["--out", str(missing / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps(
        {"code": "usage_error",
         "message": f"cannot write {missing / target}: "
                    "No such file or directory"}, sort_keys=True) + "\n"
    assert not missing.exists()


_PARSE_SEQUENCE = [
    [],
    ["classify", "--N", "3", "--a", "nope"],
    ["regionmap", "--na", "8", "--nb", "8"],
    ["regionmap"],
    ["spectrum", "--kmax", "2", "--bogus"],
    ["energy", "--N", "3", "--a", "0", "--b", "0", "--format", "xml"],
    ["fs-curve", "--N", "3", "--a-min=-1", "--a-max=-0.5", "--steps", "2"],
    ["fs-curve", "--N", "3", "--a-min=-1", "--a-max=-0.5"],
    ["regionmap"],
]


def test_shared_parser_carries_no_state_between_calls(capsys, monkeypatch):
    def parse(parser, argv):
        try:
            return vars(parser.parse_args(argv))
        except cli._UsageError as exc:
            return str(exc)

    shared = [parse(cli._PARSER, argv) for argv in _PARSE_SEQUENCE]
    assert shared == [parse(cli._build_parser(), argv)
                      for argv in _PARSE_SEQUENCE]
    # main parses with the parser built at import, never a new one
    monkeypatch.setattr(cli, "_build_parser", None)
    assert main(["regionmap", "--na", "8", "--nb", "8"]) == 0
    assert capsys.readouterr().out.count("\n") == 1 + 8 * 8
    assert main(["regionmap"]) == 0
    assert capsys.readouterr().out.count("\n") == 1 + 200 * 200


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
    # e^{-lam t} alone overflows on the left tail of the r-space quadrature,
    # and t-space Simpson missed grad_sq = lp by 1.3e-6 here
    ["energy", "--N", "3", "--a=-40", "--b=-39.5", "--format", "json"],
    # r^{N-1-bp} alone overflows on the right tail
    ["energy", "--N", "2", "--a=-2.55", "--b=-2.35", "--format", "json"],
    # the first point of N = 3, b - a = 1/2 where r^{N-1-bp} overflowed
    ["energy", "--N", "3", "--a=-6", "--b=-5.5", "--format", "json"],
    # the dual probe's e^{-a_c t} overflowed at t = -0.6 T on the window
    # T of about 1,400 that tail_window gives near p = 2
    ["energy", "--N", "4", "--a=0", "--b=0.999", "--format", "json"],
], ids=lambda argv: " ".join(argv))
def test_energy_defect_points_print_one_json_line_and_no_warning(capsys,
                                                                 argv):
    # the r-space integrand is evaluated in the log domain, so these
    # points answer instead of failing with not_converged
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1
    out = _strict_json(lines[0])
    lp1, lp2 = out["dual_lp_pair"]
    assert abs(lp1 - lp2) <= 1e-6 * lp1
    assert abs(out["grad_sq"] - out["lp"]) <= 1e-8 * out["lp"]


@pytest.mark.parametrize("N, a, b", [
    # the corner of the benchmark's point band (lam = 0.3, b - a = 0.85):
    # the amplitude is 1.9e-10, so the absolute 1e-12 tail gate leaves a
    # gap of 6.2e-9, inside the identity's 1e-8
    (6, 1.7, 2.55),
    # N = 3, b - a = 1/2: the last point of a 0.5 grid that answers
    # (a = -62 is refused with a gap of 1.04e-8)
    (3, -61.5, -61.0),
])
def test_energy_identity_gate_passes_inside_its_tolerance(capsys, N, a, b):
    for fmt in ("csv", "json"):
        assert main(["energy", "--N", str(N), f"--a={a}", f"--b={b}",
                     "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""


def test_energy_overflow_is_a_typed_error(capsys):
    # near p = 2 the t-space integrals leave the float range: still a
    # typed error, with the point in its context
    err = _run_error(capsys, ["energy", "--N", "3", "--a=-2",
                              "--b=-1.003", "--format", "json"])
    assert err["code"] == "not_converged"
    assert err["message"] == "weighted integrals overflowed the float range"
    assert (err["context"]["N"], err["context"]["a"],
            err["context"]["b"]) == (3, -2.0, -1.003)
    # where only the r-space weight r^{N-1-bp} overflows on its own, the
    # log-domain integrand answers
    params = make_params(2, -2.55, -2.35)
    t_end = tail_window(extremal_form(params))
    with pytest.raises(OverflowError):
        math.exp((params.N - 1.0 - params.b * params.p) * t_end)
    out = _run_json(capsys, ["energy", "--N", "2", "--a=-2.55",
                             "--b=-2.35", "--format", "json"])
    assert all(math.isfinite(v) for v in out["dual_lp_pair"])


def test_regionmap_ignores_ckn_lab_threads(capsys, monkeypatch):
    # argv is the only input: not even a value below 1 changes a byte
    argv = ["regionmap", "--na", "16", "--nb", "16"]
    monkeypatch.delenv("CKN_LAB_THREADS", raising=False)
    assert main(argv) == 0
    unset = capsys.readouterr()
    monkeypatch.setenv("CKN_LAB_THREADS", "0")
    assert main(argv) == 0
    assert capsys.readouterr() == unset


def _child_env():
    # a child run in tmp_path no longer resolves a relative PYTHONPATH
    # entry: put the directory holding this ckn_lab in front
    src = os.path.dirname(os.path.dirname(os.path.abspath(ckn_lab.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + inherited if inherited else ""))


def test_discrepancies_are_built_once_with_the_same_bytes(capsys, tmp_path,
                                                         monkeypatch):
    assert cli._discrepancies_text() == cli._discrepancies_text.__wrapped__()
    written = []
    for name, argv in (
            ("first", ["classify", "--N", "3", "--a=-1", "--b=-0.8"]),
            ("second", ["extremal", "--N", "3", "--a=-1", "--b=-0.2"])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(argv) == 0
        written.append((tmp_path / name / "discrepancies.json").read_bytes())
    capsys.readouterr()
    assert written[0] == written[1]
    assert written[0].decode() == cli._discrepancies_text()


def test_discrepancies_are_restored_but_not_rewritten(capsys, tmp_path,
                                                      monkeypatch):
    # every call brings the file to the document's bytes, and an
    # identical file is left as it is
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "discrepancies.json"
    argv = ["classify", "--N", "3", "--a=-1", "--b=-0.8"]
    want = cli._discrepancies_text().encode()
    assert main(argv) == 0
    assert target.read_bytes() == want
    for damage in (target.unlink,
                   lambda: target.write_bytes(want[:-2] + b"]\n"),
                   lambda: target.write_bytes(want + b" "),
                   lambda: target.write_bytes(b"\xff" * 10)):
        damage()
        assert main(argv) == 0
        assert target.read_bytes() == want
    os.utime(target, ns=(1, 1))
    assert main(argv) == 0
    assert main(["fs-curve", "--N", "3", "--a-min=-1", "--a-max=-1",
                 "--steps", "1"]) == 0
    assert target.stat().st_mtime_ns == 1
    assert target.read_bytes() == want
    capsys.readouterr()


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
    # only the eigensolve needs scipy; the package must not import it
    # for commands that never solve, energy's r-space check included.
    # The check's Gauss-Legendre nodes are built on first use, so the
    # import does not load numpy.polynomial either
    child = "\n".join([
        "import contextlib, io, sys",
        "import ckn_lab, ckn_lab.cli as cli",
        "loaded = [m for m in ('scipy', 'numpy.polynomial') if m in sys.modules]",
        "assert not loaded, loaded",
        "for argv in (",
        "    ['classify', '--N', '3', '--a', '-1', '--b', '-0.8'],",
        "    ['regionmap', '--na', '8', '--nb', '8', '--format', 'svg'],",
        "    ['extremal', '--N', '3', '--a', '-1', '--b', '-0.2'],",
        "    ['shoot', '--N', '3', '--a', '-4.3', '--b', '-4', '--T', '10'],",
        "    ['energy', '--N', '3', '--a=-1', '--b=-0.5'],",
        "    ['energy', '--N', '3', '--a=-1', '--b=-0.5', '--format', 'json'],",
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
