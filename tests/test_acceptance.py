"""Acceptance gate: one test per release criterion.

Each test prints the same one-line PASS/FAIL verdict that
``ckn-lab selftest`` emits, then asserts it.  The line is written
outside pytest's capture so it lands in the live terminal (and in any
teed log) even when the criterion passes.  Wall-clock budgets are
enforced inside run_criterion, so a pass here covers them too.
"""

import os

import pytest

from ckn_lab.acceptance import CRITERIA, run_criterion

_NAMES = {k: name for (k, name, _fn, _budget) in CRITERIA}


def _check(number, capsys):
    ok, detail, elapsed, _budget = run_criterion(number)
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: "
              f"{_NAMES[number]}: {detail} [{elapsed:.2f}s]")
    assert ok, detail


def test_criterion_01_extremal_matches_explicit_bubble(capsys):
    _check(1, capsys)


def test_criterion_02_residual_adjudicates_inner_exponent(capsys):
    _check(2, capsys)


def test_criterion_03_shooting_recovers_amplitude(capsys):
    _check(3, capsys)


def test_criterion_04_threshold_matches_closed_form(capsys):
    _check(4, capsys)


def test_criterion_05_translation_zero_mode_second_order(capsys):
    _check(5, capsys)


def test_criterion_06_dual_transform_preserves_samples_and_energy(capsys):
    _check(6, capsys)


def test_criterion_07_decay_rates_and_averaged_bound(capsys):
    _check(7, capsys)


def test_criterion_08_liouville_certificates(capsys):
    _check(8, capsys)


def test_criterion_09_energy_identity_quadrature_scaling(capsys):
    _check(9, capsys)


def test_criterion_10_region_map_hand_table_deterministic(capsys):
    _check(10, capsys)


# The package reads no CKN_LAB_THREADS; set or unset, criterion 10 must pass
# and leave the variable exactly as it found it.
@pytest.mark.parametrize("threads", ["sentinel", None], ids=["set", "unset"])
def test_criterion_10_runs_from_any_cwd_and_restores_thread_env(
        threads, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if threads is None:
        monkeypatch.delenv("CKN_LAB_THREADS", raising=False)
    else:
        monkeypatch.setenv("CKN_LAB_THREADS", threads)
    ok, detail, _elapsed, _budget = run_criterion(10)
    assert ok, detail
    assert os.environ.get("CKN_LAB_THREADS") == threads
    assert list(tmp_path.iterdir()) == []
