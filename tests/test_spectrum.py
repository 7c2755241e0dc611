"""Mode operators, eigenvalue oracles, and the symmetry threshold.

The sampled extremal makes the linearized potential an exact sech-squared
well, so every eigenvalue has a closed form to test against:

    mu_n(k) = lam^2 + k(k+N-2) - gamma^2 (nu - n)^2,   nu = p/(p-2),

for integer 0 <= n < nu.  These values were frozen from the closed form
and double as the oracle for the random-parameter property test.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ckn_lab import (
    InvalidStep,
    LogGridProfile,
    ModeOperator,
    NotConverged,
    OutOfDomain,
    TailNotDecayed,
    UnverifiedProfile,
    WrongRegime,
    b_fs,
    build_mode_operator,
    extremal_form,
    find_fs_threshold,
    fs_mode_eigenvalue,
    make_params,
    mode_eigenvalues,
    principal_eigenvalue,
    sample_extremal,
    sample_radial_form,
    spectrum,
)
from ckn_lab.profiles import _log_sech


def _extremal_operator(N, a, b, k, T=40.0, dx=0.01):
    params = make_params(N, a, b)
    n = int(round(2 * T / dx)) + 1
    prof = sample_extremal(extremal_form(params), -T, dx, n)
    return build_mode_operator(prof, k)


def pt_eigenvalue(params, k, n):
    lam, p = params.lam, params.p
    gamma = lam * (p - 2.0) / 2.0
    nu = p / (p - 2.0)
    return lam ** 2 + k * (k + params.N - 2) - gamma ** 2 * (nu - n) ** 2


def test_potential_well_shape_and_asymptote():
    op = _extremal_operator(3, 0.0, 0.0, 0)
    # V(center) = lam^2 - (p-1) A^{p-2} = 1/4 - 5 * 3/4
    assert np.isclose(op.potential.min(), 0.25 - 5.0 * 0.75, rtol=1e-12)
    assert np.isclose(op.potential[0], op.asymptote, atol=1e-12)
    assert np.isclose(op.potential[-1], op.asymptote, atol=1e-12)
    op1 = _extremal_operator(3, 0.0, 0.0, 1)
    assert op1.lambda_k == 2.0


def test_sobolev_point_eigenvalues_match_closed_form():
    params = make_params(3, 0.0, 0.0)
    op0 = _extremal_operator(3, 0.0, 0.0, 0)
    reps = mode_eigenvalues(op0, count=2)
    assert np.isclose(reps[0].mu, pt_eigenvalue(params, 0, 0), atol=5e-5)
    assert np.isclose(reps[1].mu, pt_eigenvalue(params, 0, 1), atol=5e-5)
    assert pt_eigenvalue(params, 0, 0) == -2.0
    assert pt_eigenvalue(params, 0, 1) == 0.0
    op1 = _extremal_operator(3, 0.0, 0.0, 1)
    mu = principal_eigenvalue(op1).mu
    assert np.isclose(mu, 0.0, atol=5e-5)  # threshold-neutral mode at a=b=0


def test_weighted_point_eigenvalues_match_closed_form():
    params = make_params(3, -1.0, -0.2)
    T = 60.0
    op0 = _extremal_operator(3, -1.0, -0.2, 0, T=T)
    op1 = _extremal_operator(3, -1.0, -0.2, 1, T=T)
    assert np.isclose(pt_eigenvalue(params, 0, 0), -0.7455621301775142,
                      rtol=1e-13)
    assert np.isclose(principal_eigenvalue(op0).mu,
                      pt_eigenvalue(params, 0, 0), atol=1e-4)
    assert np.isclose(principal_eigenvalue(op1).mu,
                      pt_eigenvalue(params, 1, 0), atol=1e-4)
    assert principal_eigenvalue(op1).mu > 0  # above the threshold curve


def test_two_dimensional_point_eigenvalues():
    params = make_params(2, -0.5, 0.0)
    op0 = _extremal_operator(2, -0.5, 0.0, 0)
    reps = mode_eigenvalues(op0, count=2)
    assert np.isclose(reps[0].mu, -0.75, atol=5e-5)
    assert np.isclose(reps[1].mu, 0.0, atol=5e-5)


def test_random_points_principal_eigenvalue_oracle():
    rng = np.random.default_rng(7151)
    for _ in range(8):
        N = int(rng.integers(2, 6))
        a_c = (N - 2) / 2.0
        a = a_c - float(rng.uniform(0.4, 2.0))
        b = a + float(rng.uniform(0.3, 0.7))
        params = make_params(N, a, b)
        gamma = params.lam * (params.p - 2.0) / 2.0
        T = max(40.0, 14.0 / gamma)
        op = build_mode_operator(
            sample_extremal(extremal_form(params), -T,
                            0.01, int(round(2 * T / 0.01)) + 1), 0)
        mu = principal_eigenvalue(op).mu
        oracle = pt_eigenvalue(params, 0, 0)
        assert mu < 0.0
        assert np.isclose(mu, oracle, rtol=2e-4, atol=2e-4)


def test_shift_identity_across_harmonic_levels():
    mus = {}
    for k in range(4):
        op = _extremal_operator(3, -1.0, -0.5, k)
        mus[k] = principal_eigenvalue(op).mu
    for k in range(1, 4):
        assert np.isclose(mus[k] - mus[0], k * (k + 1), atol=1e-10)


def test_sturm_node_counts():
    op = _extremal_operator(3, 0.0, 0.0, 0)
    reps = mode_eigenvalues(op, count=2)
    for rep, expected_nodes in zip(reps, (0, 1)):
        v = rep.eigenvector
        live = v[np.abs(v) > 1e-8 * np.max(np.abs(v))]
        changes = int(np.sum(np.sign(live[1:]) != np.sign(live[:-1])))
        assert changes == expected_nodes
    assert np.isclose(np.linalg.norm(reps[0].eigenvector), 1.0, rtol=1e-12)
    assert reps[0].eigenvector[np.argmax(np.abs(reps[0].eigenvector))] > 0


def test_box_oracle_for_constant_potential():
    params = make_params(3, 0.0, 0.0)
    T = 20.0
    zero = LogGridProfile(t0=-T, dt=0.005, values=np.zeros(8001),
                          params=params)
    op = build_mode_operator(zero, 0)
    mu = principal_eigenvalue(op).mu
    box = (math.pi / (2 * T)) ** 2
    assert np.isclose(mu - params.lam ** 2, box, rtol=1e-3)


def test_asymptote_gate_and_override():
    params = make_params(3, 0.0, 0.0)
    prof = sample_extremal(extremal_form(params), -10.0, 0.01, 2001)
    op = build_mode_operator(prof, 0)
    with pytest.raises(TailNotDecayed):
        principal_eigenvalue(op)
    mu = principal_eigenvalue(op, asymptote_tol=1e-6).mu
    assert mu < -1.9  # still a usable estimate on the short window


def test_operator_rejects_non_solution_profile():
    params = make_params(3, -1.0, -0.2)
    printed = sample_radial_form(params, (params.p - 1.0) * params.lam,
                                 -40.0, 0.01, 8001)
    with pytest.raises(UnverifiedProfile):
        build_mode_operator(printed, 0)


def test_fs_mode_eigenvalue_signs():
    assert fs_mode_eigenvalue(make_params(3, -1.0, -0.8)) < 0
    assert fs_mode_eigenvalue(make_params(3, -1.0, -0.2)) > 0
    assert fs_mode_eigenvalue(make_params(3, 0.2, 0.5)) > 0
    with pytest.raises(WrongRegime):
        fs_mode_eigenvalue(make_params(4, 1.5, 2.0))


def test_fs_mode_eigenvalue_monotone_in_b():
    vals = [fs_mode_eigenvalue(make_params(3, -1.0, b))
            for b in np.linspace(-0.9, -0.05, 9)]
    assert np.all(np.diff(vals) > 0)


def test_threshold_matches_closed_form():
    found = find_fs_threshold(3, -0.5, 1e-6)
    assert abs(found - b_fs(3, -0.5)) <= 1e-3
    assert abs(found - (-0.1339745962155613)) <= 1e-3


def test_threshold_input_validation():
    with pytest.raises(InvalidStep):
        find_fs_threshold(3, -1.0, 1e-7)
    with pytest.raises(OutOfDomain):
        find_fs_threshold(3, 0.2, 1e-5)


@pytest.mark.parametrize("N, a", [(2, -1.0), (3, -0.5), (4, -2.0)] + [
    (N, a) for N in (2, 3, 4, 5, 6) for a in (-0.3, -3.0, -8.0)])
def test_inertia_bisection_matches_eigensolve_bisection(monkeypatch, N, a):
    # the search eigensolves only its two bracket ends; recording them
    # gives the reference bisection the same bracket.  The reference
    # decides each step on the eigenvalue of the sampled operator, the
    # search on the inertia of the amplitude-free one
    ends = []

    def recording(params, **kwargs):
        ends.append(params.b)
        return fs_mode_eigenvalue(params, **kwargs)

    monkeypatch.setattr(spectrum, "fs_mode_eigenvalue", recording)
    found = find_fs_threshold(N, a, 1e-6)
    assert len(ends) == 2
    lo, hi = ends
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if fs_mode_eigenvalue(make_params(N, a, mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    assert found == 0.5 * (lo + hi)


@settings(max_examples=40)
@given(N=st.integers(2, 6), lam=st.floats(0.2, 4.0), s=st.floats(0.25, 0.95),
       offset=st.floats(-1.0, 1.0), decades=st.integers(0, 8))
def test_inertia_sign_matches_principal_eigenvalue(N, lam, s, offset,
                                                   decades):
    a = (N - 2) / 2.0 - lam
    op = spectrum._fs_mode_operator(make_params(N, a, a + s), 40.0, 0.01)
    _check_inertia_sign(op, offset * 10.0 ** -decades)


def _check_inertia_sign(op, target):
    # shifting the potential by a constant shifts every eigenvalue by it:
    # move the principal eigenvalue to target, so that the draws reach
    # down to the sign change
    shift = target - principal_eigenvalue(
        op, asymptote_tol=math.inf).mu
    shifted = ModeOperator(k=op.k, lambda_k=op.lambda_k,
                           potential=op.potential + shift, grid=op.grid,
                           params=op.params)
    mu = principal_eigenvalue(shifted, asymptote_tol=math.inf).mu
    assume(abs(mu) > 1e-9)
    assert spectrum._positive_definite(shifted) == (mu > 0.0)


@settings(max_examples=40)
@given(N=st.integers(2, 6), lam=st.floats(0.2, 4.0), s=st.floats(0.25, 0.95),
       offset=st.floats(-1.0, 1.0), decades=st.integers(0, 8))
def test_inertia_sign_of_the_step_operator(N, lam, s, offset, decades):
    # the same property on the operator that the bisection steps factor
    a = (N - 2) / 2.0 - lam
    op = spectrum._k1_step_operator(make_params(N, a, a + s), 40.0, 0.01)
    _check_inertia_sign(op, offset * 10.0 ** -decades)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_inertia_test_rejects_a_non_finite_potential(bad):
    # LAPACK's pivot test d <= 0 is false for NaN: a NaN potential would
    # read as positive definite if it reached the factorization
    op = spectrum._fs_mode_operator(make_params(3, -1.0, -0.5), 40.0, 0.01)
    V = op.potential.copy()
    V[4000] = bad
    broken = ModeOperator(k=op.k, lambda_k=op.lambda_k, potential=V,
                          grid=op.grid, params=op.params)
    with pytest.raises(NotConverged):
        spectrum._positive_definite(broken)


def _guarded_ends(monkeypatch, N, a):
    # the two bracket ends of find_fs_threshold, read without eigensolves:
    # a stand-in eigenvalue of -1 and +1 lets the search run its steps
    ends = []

    def recording(params, **kwargs):
        ends.append(params.b)
        return -1.0 if len(ends) == 1 else 1.0

    with monkeypatch.context() as m:
        m.setattr(spectrum, "fs_mode_eigenvalue", recording)
        find_fs_threshold(N, a, 1e-3)
    return ends


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_step_potential_matches_sampled_operator(monkeypatch, N):
    # the step potential is (p-1)(p lam^2/2) sech^2 with no amplitude; on
    # the grid of the sampled k=1 operator it agrees with (p-1) w*^{p-2}
    # to rounding, at points across the guarded bracket
    checked = 0
    for a in (-0.3, -3.0, -8.0):
        lo, hi = _guarded_ends(monkeypatch, N, a)
        for b in np.linspace(lo, hi, 9):
            params = make_params(N, a, float(b))
            step = spectrum._k1_step_operator(params, 40.0, 0.01)
            depth = (params.p - 1.0) * params.p * params.lam ** 2 / 2.0
            assert step.k == 1 and step.lambda_k == N - 1
            assert np.isclose(step.potential.min(), step.asymptote - depth,
                              rtol=1e-12)
            if extremal_form(params).amplitude == 0.0:
                # A = (p lam^2/2)^{1/(p-2)} underflows near p = 2 when
                # p lam^2/2 < 1: the sampled profile is zero there, and
                # only the step potential keeps its well
                continue
            sampled = spectrum._fs_mode_operator(params, 40.0, 0.01)
            assert step.grid == sampled.grid
            assert np.max(np.abs(step.potential - sampled.potential)) \
                <= 1e-13 * depth
            checked += 1
    assert checked >= 20


def _scaled_log_sech(x):
    # sech^2 off by a relative 2e-6
    return _log_sech(x) + 1e-6


def _nan_log_sech(x):
    out = _log_sech(x)
    out[out.size // 2] = math.nan
    return out


@pytest.mark.parametrize("corrupt", [_scaled_log_sech, _nan_log_sech])
def test_step_gate_rejects_a_corrupted_sech2(monkeypatch, corrupt):
    params = make_params(3, -1.0, -0.5)
    spectrum._k1_step_operator(params, 40.0, 0.01)
    monkeypatch.setattr(spectrum, "_log_sech", corrupt)
    with pytest.raises(UnverifiedProfile):
        spectrum._k1_step_operator(params, 40.0, 0.01)
    # the ends sample the extremal through profiles and pass; the first
    # bisection step is refused
    with pytest.raises(UnverifiedProfile):
        find_fs_threshold(3, -1.0, 1e-3)


def test_threshold_samples_the_extremal_only_at_its_two_ends(monkeypatch):
    calls = {}

    def counting(name):
        original = getattr(spectrum, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(spectrum, name, wrapper)

    for name in ("sample_extremal", "build_mode_operator",
                 "residual_autonomous", "fs_mode_eigenvalue",
                 "principal_eigenvalue", "_k1_step_operator",
                 "_positive_definite"):
        counting(name)
    find_fs_threshold(4, -2.0, 1e-6)
    steps = calls.pop("_k1_step_operator")
    assert steps >= 19  # the bracket is wider than 2^19 tol
    assert calls.pop("_positive_definite") == steps
    assert calls == {"sample_extremal": 2, "build_mode_operator": 2,
                     "residual_autonomous": 2, "fs_mode_eigenvalue": 2,
                     "principal_eigenvalue": 2}
