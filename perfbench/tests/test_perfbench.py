"""Tests of the benchmark itself: seeded inputs, oracles, tracing.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from ckn_lab.cli import main as cli_main  # noqa: E402
from ckn_lab.params import region_label  # noqa: E402
from perfbench import oracles, run  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS, Request, cycles, finale)


def _argv_digest(workload, seed, n_cycles=3):
    argvs = [r.argv for c in itertools.islice(cycles(workload, seed), n_cycles)
             for r in c]
    return hashlib.sha256(json.dumps(argvs).encode()).hexdigest()


def _cli(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # discrepancies.json lands here
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main(list(argv))
    return rc, out.getvalue()


def _first(workload, kind, seed=3):
    for cycle in cycles(workload, seed):
        for req in cycle:
            if req.kind == kind:
                return req


# ---------------------------------------------------------------------------
# seeded inputs

# sha256 of the JSON list of argv lists of the first three cycles, seed 1
PINNED = {
    "shoot":
        "0f7b2de0ae2192d6f971be53227f1fb1b441657bc0953642a4fa7465d9ef3d8b",
    "fs-curve":
        "9960df06a954518c3aef3034ca210c54c3e1b20e6190f6e935e56db8c27bb8c0",
    "regionmap":
        "0c06c24563ad7d159eefc826a8301fe99850a13ce6a6aeb000531a9efed4f87a",
    "point-mix":
        "0679e26ac3cc478a2160e0eb3a2916461df343b27b058e7ba53ff279af9e951e",
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fixed_seed_gives_byte_identical_argv(workload):
    assert _argv_digest(workload, 1) == _argv_digest(workload, 1)
    assert _argv_digest(workload, 1) == PINNED[workload]
    assert _argv_digest(workload, 1) != _argv_digest(workload, 2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cycles_keep_the_class_mix(workload):
    kinds = [sorted((r.kind, r.work) for r in c)
             for c in itertools.islice(cycles(workload, 5), 4)]
    assert all(k == kinds[0] for k in kinds)


def test_only_the_region_map_has_a_seeded_finale():
    assert [finale(w, 1) for w in WORKLOADS if w != "regionmap"] == [[]] * 3
    (peak,) = finale("regionmap", 1)
    assert peak == finale("regionmap", 1)[0] != finale("regionmap", 2)[0]
    assert peak.work == 1000 * 1000 and peak.kind == "regionmap-csv"


def test_argv_numbers_are_never_scientific():
    for workload in WORKLOADS:
        for cycle in itertools.islice(cycles(workload, 9), 5):
            for req in cycle:
                assert not any("e-" in arg for arg in req.argv), req.argv


# ---------------------------------------------------------------------------
# oracles accept the program's outputs and reject perturbed ones

def _perturb_json(text, key, factor):
    out = json.loads(text)
    out[key] = out[key] * factor
    return json.dumps(out)


def test_shoot_oracle_rejects_amplitude_off_by_1e5():
    req = Request("shoot", ("shoot",), 1, {"N": 3, "a": -0.7, "b": -0.3})
    A = oracles.amplitude(3, -0.7, -0.3)
    good = json.dumps({"amplitude": A * (1 + 1e-9), "closed_form_amplitude": A})
    assert oracles.check(req, 0, good).ok
    bad = json.dumps({"amplitude": A * (1 + 1e-5), "closed_form_amplitude": A})
    verdict = oracles.check(req, 0, bad)
    assert not verdict.ok and "amplitude" in verdict.reason


def test_fs_curve_oracle(tmp_path, monkeypatch):
    argv = ("fs-curve", "--N", "3", "--a-min=-1", "--a-max=-0.5", "--steps", "2")
    req = Request("fs-curve", argv, 2,
                  {"N": 3, "a_min": -1.0, "a_max": -0.5, "steps": 2})
    rc, text = _cli(argv, tmp_path, monkeypatch)
    verdict = oracles.check(req, rc, text)
    assert verdict.ok, verdict.reason
    assert 0 < verdict.margins["threshold_abs_err"] < 1e-3
    lines = text.splitlines()
    a, closed, numeric, err = lines[1].split(",")
    moved = float(numeric) + 2e-3
    lines[1] = ",".join([a, closed, repr(moved), repr(abs(moved - float(closed)))])
    assert not oracles.check(req, rc, "\n".join(lines) + "\n").ok


def test_fs_curve_oracle_counts_a_failed_exit():
    req = Request("fs-curve", ("fs-curve",), 1, {})
    verdict = oracles.check(req, 2, "")
    assert not verdict.ok and verdict.reason == "exit 2"


@pytest.mark.parametrize("kind", ["classify", "classify-dual", "dualize",
                                  "extremal", "energy-csv", "energy-json",
                                  "spectrum"])
def test_point_queries_pass_their_oracle(kind, tmp_path, monkeypatch):
    req = _first("point-mix", kind)
    rc, text = _cli(req.argv, tmp_path, monkeypatch)
    verdict = oracles.check(req, rc, text)
    assert verdict.ok, verdict.reason


@pytest.mark.parametrize("kind,key,factor", [
    ("classify", "p", 1 + 1e-9),
    ("extremal", "amplitude", 1 + 1e-9),
    ("energy-json", "lp", 1 + 1e-7),
    ("energy-json", "dual_lp_pair", None),
])
def test_point_oracles_reject_perturbed_fields(kind, key, factor,
                                               tmp_path, monkeypatch):
    req = _first("point-mix", kind)
    rc, text = _cli(req.argv, tmp_path, monkeypatch)
    if factor is None:
        out = json.loads(text)
        out[key] = [out[key][0], out[key][0] * (1 + 1e-5)]
        bad = json.dumps(out)
    else:
        bad = _perturb_json(text, key, factor)
    assert not oracles.check(req, rc, bad).ok


def test_classify_oracle_rejects_a_flipped_region(tmp_path, monkeypatch):
    req = _first("point-mix", "classify")
    rc, text = _cli(req.argv, tmp_path, monkeypatch)
    out = json.loads(text)
    out["region"] = "SymmetryBreaking" if out["region"] != "SymmetryBreaking" \
        else "SymmetryRadial"
    assert not oracles.check(req, rc, json.dumps(out)).ok


def test_spectrum_oracle_rejects_a_broken_shift_identity(tmp_path, monkeypatch):
    req = _first("point-mix", "spectrum")
    rc, text = _cli(req.argv, tmp_path, monkeypatch)
    lines = text.splitlines()
    k, lam_k, mu1, mu2 = lines[2].split(",")
    lines[2] = ",".join([k, lam_k, repr(float(mu1) + 1e-9), mu2])
    verdict = oracles.check(req, rc, "\n".join(lines) + "\n")
    assert not verdict.ok and "shift identity" in verdict.reason


def test_energy_csv_oracle_rejects_a_broken_identity(tmp_path, monkeypatch):
    req = _first("point-mix", "energy-csv")
    rc, text = _cli(req.argv, tmp_path, monkeypatch)
    header, row = text.splitlines()
    cells = row.split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-7))
    assert not oracles.check(req, rc, header + "\n" + ",".join(cells) + "\n").ok


def _small_map(fmt, window=("-3", "3.21875", "-3", "3.21875"), n=40):
    argv = ("regionmap", "--N", "3", f"--a-min={window[0]}",
            f"--a-max={window[1]}", f"--b-min={window[2]}",
            f"--b-max={window[3]}", "--na", str(n), "--nb", str(n))
    if fmt == "svg":
        argv += ("--format", "svg")
    return Request(f"regionmap-{fmt}", argv, n * n,
                   {"N": 3, "a_min": float(window[0]),
                    "a_max": float(window[1]), "b_min": float(window[2]),
                    "b_max": float(window[3]), "na": n, "nb": n})


def test_map_csv_oracle_rejects_one_flipped_label(tmp_path, monkeypatch):
    req = _small_map("csv")
    rc, text = _cli(req.argv, tmp_path, monkeypatch)
    assert oracles.check(req, rc, text, region_label).ok
    lines = text.splitlines()
    a, b, label = lines[777].split(",")
    lines[777] = f"{a},{b},{'Invalid' if label != 'Invalid' else 'DualRegime'}"
    verdict = oracles.check(req, rc, "\n".join(lines) + "\n", region_label)
    assert not verdict.ok and "row 777" in verdict.reason


def test_map_svg_oracle_rejects_one_flipped_cell(tmp_path, monkeypatch):
    req = _small_map("svg")
    rc, text = _cli(req.argv, tmp_path, monkeypatch)
    assert oracles.check(req, rc, text, region_label).ok
    lines = text.splitlines()
    cell = lines[40]
    assert cell.startswith("<rect ")
    swap = "#2ca02c" if 'fill="#2ca02c"' not in cell else "#1f77b4"
    lines[40] = cell[:cell.index('fill="')] + f'fill="{swap}"/>'
    assert not oracles.check(req, rc, "\n".join(lines) + "\n", region_label).ok


def test_hand_table_points_are_nodes_of_the_criterion_window():
    req = next(r for r in next(cycles("regionmap", 1))
               if r.params["a_max"] == 3.21875)
    a_nodes = oracles.nodes(req.params["a_min"], req.params["a_max"], 200)
    b_nodes = oracles.nodes(req.params["b_min"], req.params["b_max"], 200)
    for a, b, _ in oracles.HAND_TABLE:
        assert a in a_nodes and b in b_nodes


def test_vectorized_labels_match_the_scalar_classifier():
    for N in (2, 3, 5):
        a_nodes = oracles.nodes(-3.0, 3.21875, 97)
        b_nodes = oracles.nodes(-3.0, 3.21875, 101)
        labels = oracles.map_labels(N, a_nodes, b_nodes)
        for i, a in enumerate(a_nodes):
            for j, b in enumerate(b_nodes):
                want = region_label(N, a, b).variant.value
                assert oracles.LABELS[labels[i, j]] == want, (N, a, b)


# ---------------------------------------------------------------------------
# tracing and reporting

def test_tracer_wraps_public_functions_where_callers_look_them_up(tmp_path):
    code = """
import contextlib, io, json
import ckn_lab, ckn_lab.cli as cli, ckn_lab.spectrum as spectrum
from perfbench.worker import Tracer
t = Tracer(); t.install(ckn_lab)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["fs-curve", "--N", "3", "--a-min=-1", "--a-max=-1", "--steps", "1"])
print(json.dumps({"report": t.report(), "lib": t.library_seconds(),
                  "private": spectrum._solve.__module__,
                  "main": cli.main.__name__}))
"""
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}",
               CKN_LAB_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    calls = out["report"]["calls"]
    assert calls["spectrum.find_fs_threshold"] == 1
    assert calls["spectrum.fs_mode_eigenvalue"] >= 20
    assert calls["profiles.sample_extremal"] >= calls["spectrum.fs_mode_eigenvalue"]
    assert calls["spectrum.principal_eigenvalue"] == calls["spectrum.fs_mode_eigenvalue"]
    assert not any(k.split(".")[1].startswith("_") for k in calls)
    assert 0 < out["lib"]


def test_tail_needs_ten_samples_beyond_it():
    assert run._tail([1.0] * 10) is None
    walls = [float(i) for i in range(40)]
    value, pct = run._tail(walls)
    assert sum(w > value for w in walls) == 10
    assert pct == pytest.approx(75.0)


def test_refuses_to_run_without_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "shoot", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
