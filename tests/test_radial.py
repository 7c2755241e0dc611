"""Reduced ODE integration, shooting, derivatives, Liouville certificates."""

import math

import numpy as np
import pytest

from ckn_lab import (
    BlowUp,
    Conclusion,
    DegenerateParams,
    InvalidStep,
    LogGridProfile,
    ResolutionTooLarge,
    TooShort,
    WrongRegime,
    extremal_form,
    extremal_value,
    first_derivative_4,
    integrate,
    liouville_critical_a,
    liouville_hardy_endpoint,
    make_params,
    residual_autonomous,
    sample_extremal,
    second_derivative_4,
    shoot_homoclinic,
    spherical_average_monotone,
)
from ckn_lab.radial import _rk4_classify, _rk4_store


def test_first_integral_drift_small_step():
    params = make_params(3, 0.0, 0.0)
    w_eq = params.lam ** (2.0 / (params.p - 2.0))
    run = integrate(params, 0.9 * w_eq, 0.0, (0.0, 30.0), 1e-3)
    E = run.energy_first_integral
    assert np.max(np.abs(E - E[0])) < 1e-9


def test_integrate_fixed_point_stays_put():
    params = make_params(3, -1.0, -0.2)
    w_eq = params.lam ** (2.0 / (params.p - 2.0))
    run = integrate(params, w_eq, 0.0, (0.0, 5.0), 1e-3)
    assert np.allclose(run.profile.values, w_eq, rtol=1e-12)
    assert np.max(np.abs(run.derivative)) < 1e-10


def test_integrate_reversibility():
    params = make_params(3, 0.0, 0.0)
    run = integrate(params, 0.5, 0.1, (0.0, 10.0), 1e-3)
    w_end = float(run.profile.values[-1])
    v_end = float(run.derivative[-1])
    back = integrate(params, w_end, v_end, (10.0, 0.0), 1e-3)
    # backward runs are stored on an ascending grid: node 0 is t = 0
    assert back.profile.t0 == pytest.approx(0.0, abs=1e-12)
    assert np.isclose(back.profile.values[0], 0.5, atol=1e-9)
    assert np.isclose(back.derivative[0], 0.1, atol=1e-9)


def test_integrate_matches_closed_form_homoclinic():
    params = make_params(2, -0.5, 0.0)
    form = extremal_form(params)
    w0 = float(extremal_value(form, 0.0))
    run = integrate(params, w0, 0.0, (0.0, 8.0), 1e-3)
    expect = extremal_value(form, run.profile.t())
    assert np.max(np.abs(run.profile.values - expect)) < 1e-9


@pytest.mark.parametrize("scale, event", [
    (2.0, 1),    # above the homoclinic peak: crosses w = 0
    (1.05, 2),   # between w_eq and the peak: turns with w > 0
])
def test_classify_and_store_kernels_take_the_same_steps(scale, event):
    params = make_params(3, 0.0, 0.0)
    lam2, pm1 = params.lam ** 2, params.p - 1.0
    w0 = scale * params.lam ** (2.0 / (params.p - 2.0))
    h, n = 1e-3, 40000
    ev, t_event = _rk4_classify(w0, 0.0, h, n, lam2, pm1)
    assert ev == event
    out_w, out_v = np.empty(n + 1), np.empty(n + 1)
    assert _rk4_store(w0, 0.0, h, n, lam2, pm1, out_w, out_v) == n
    # first stored step that meets the classify event's condition
    hit = (out_w[1:] <= 0.0) if event == 1 else (out_v[1:] >= 0.0)
    first = int(np.argmax(hit)) + 1
    assert hit.any() and t_event == first * h
    # and no step before it meets either event's condition
    assert np.all(out_w[1:first] > 0.0) and np.all(out_v[1:first] < 0.0)


def test_integrate_rejects_bad_step_and_degenerate_params():
    params = make_params(3, 0.0, 0.0)
    with pytest.raises(InvalidStep):
        integrate(params, 0.5, 0.0, (0.0, 1.0), 0.0)
    with pytest.raises(InvalidStep):
        integrate(params, 0.5, 0.0, (1.0, 1.0), 0.01)
    with pytest.raises(DegenerateParams):
        integrate(make_params(3, 0.0, 1.0), 0.5, 0.0, (0.0, 1.0), 0.01)
    with pytest.raises(ResolutionTooLarge):
        integrate(params, 0.5, 0.0, (0.0, 1.0), 1e-9)


def test_integrate_blowup_guard():
    params = make_params(3, 0.0, 0.0)
    with pytest.raises(BlowUp):
        integrate(params, 5e7, 0.0, (0.0, 10.0), 0.01)


def test_shoot_recovers_amplitude():
    for (N, a, b) in [(3, 0.0, 0.0), (3, -1.0, -0.2), (2, -0.5, 0.0)]:
        params = make_params(N, a, b)
        prof = shoot_homoclinic(params, t_max=40.0, tol=1e-6)
        A = extremal_form(params).amplitude
        assert abs(prof.values.max() - A) <= 1e-6 * A
        assert prof.is_solution
        assert prof.values.min() >= 0.0


def test_shoot_profile_matches_closed_form_pointwise():
    params = make_params(3, 0.0, 0.0)
    prof = shoot_homoclinic(params, t_max=40.0, tol=1e-6)
    exact = extremal_value(extremal_form(params), prof.t())
    assert np.max(np.abs(prof.values - exact)) < 1e-8


def test_shoot_profile_is_even():
    params = make_params(2, -0.5, 0.0)
    prof = shoot_homoclinic(params, t_max=30.0, tol=1e-6)
    assert np.array_equal(prof.values, prof.values[::-1])
    assert prof.t0 == pytest.approx(-prof.t_end)


def test_derivative_kernels_fourth_order():
    t = np.arange(-3.0, 3.0, 0.01)
    f = np.sin(t)
    d1 = first_derivative_4(f, 0.01)
    d2 = second_derivative_4(f, 0.01)
    assert np.max(np.abs(d1 - np.cos(t))) < 1e-7
    assert np.max(np.abs(d2 + np.sin(t))) < 1e-6
    assert np.max(np.abs(d1[3:-3] - np.cos(t)[3:-3])) < 1e-9
    assert np.max(np.abs(d2[3:-3] + np.sin(t)[3:-3])) < 1e-8


def test_derivative_kernels_reject_short_input():
    with pytest.raises(TooShort):
        second_derivative_4(np.ones(6), 0.1)
    with pytest.raises(TooShort):
        first_derivative_4(np.ones(4), 0.1)


def test_residual_analytic_route_is_rounding_level():
    params = make_params(3, -1.0, -0.2)
    prof = sample_extremal(extremal_form(params), -30.0, 0.01, 6001)
    assert residual_autonomous(prof) < 1e-11


def test_residual_finite_difference_route_on_shot_profile():
    params = make_params(3, 0.0, 0.0)
    prof = shoot_homoclinic(params, t_max=40.0, tol=1e-6)
    assert residual_autonomous(prof) < 1e-6


def test_residual_detects_single_node_perturbation():
    params = make_params(3, 0.0, 0.0)
    prof = sample_extremal(extremal_form(params), -10.0, 0.01, 2001)
    bumped = prof.values.copy()
    bumped[1000] += 0.01
    poked = LogGridProfile(t0=prof.t0, dt=prof.dt, values=bumped,
                           params=params)
    # the 5-point kernel sees the bump with weight 30/(12 dt^2)
    assert residual_autonomous(poked) > 1.0


def test_monotone_certificate_on_solution_families():
    params = make_params(3, 0.0, 0.0)
    ext = sample_extremal(extremal_form(params), -40.0, 0.01, 8001)
    assert spherical_average_monotone(ext)
    shot = shoot_homoclinic(params, t_max=40.0, tol=1e-6)
    assert spherical_average_monotone(shot)
    zero = LogGridProfile(t0=-5.0, dt=0.1, values=np.zeros(101), params=params)
    assert spherical_average_monotone(zero)


def test_monotone_certificate_rejects_two_bump_profile():
    params = make_params(3, 0.0, 0.0)
    t = -20.0 + 0.01 * np.arange(4001)
    w = 1.0 / np.cosh(t) + 0.5 / np.cosh(2.0 * (t - 10.0))
    prof = LogGridProfile(t0=-20.0, dt=0.01, values=w, params=params)
    assert not spherical_average_monotone(prof)


def test_hardy_endpoint_roots_certificate():
    v = liouville_hardy_endpoint(make_params(3, 0.0, 1.0))
    assert v.conclusion is Conclusion.ONLY_ZERO
    r1, r2 = v.roots
    assert np.isclose(abs(r1 * r2 - 1.0), 0.0, atol=1e-12)
    assert np.isclose(r1 + r2, 2.0 - 3.0, atol=1e-12)  # 2 - n_prime, n' = 3
    assert np.isclose(r1.imag, math.sqrt(3.0) / 2.0, atol=1e-12) or \
        np.isclose(r1.imag, -math.sqrt(3.0) / 2.0, atol=1e-12)


def test_hardy_endpoint_real_roots_for_strong_weight():
    # lam >= 1 makes the indicial roots real and negative
    v = liouville_hardy_endpoint(make_params(3, -1.0, 0.0))
    r1, r2 = v.roots
    assert abs(r1.imag) < 1e-15 and abs(r2.imag) < 1e-15
    assert r1.real < 0 and r2.real < 0
    assert np.isclose(r1.real * r2.real, 1.0, atol=1e-12)


def test_hardy_endpoint_wrong_regime():
    with pytest.raises(WrongRegime):
        liouville_hardy_endpoint(make_params(3, 0.0, 0.5))
    with pytest.raises(WrongRegime):
        liouville_hardy_endpoint(make_params(4, 1.5, 2.5))  # a > a_c


def test_critical_a_zero_probe_only_zero():
    params = make_params(4, 1.0, 1.2)
    zero = LogGridProfile(t0=-5.0, dt=0.1, values=np.zeros(101), params=params)
    v = liouville_critical_a(params, zero)
    assert v.conclusion is Conclusion.ONLY_ZERO
    assert v.witness is None


def test_critical_a_sech_probe_rejected_with_located_witness():
    # y = sech(t) at p = 4 misses the required inequality by
    # sech - sech^3, whose maximum 2/(3 sqrt 3) sits at t = arccosh(sqrt 3)
    params = make_params(3, 0.5, 0.75)
    t = -8.0 + 0.01 * np.arange(1601)
    probe = LogGridProfile(t0=-8.0, dt=0.01, values=1.0 / np.cosh(t),
                           params=params)
    v = liouville_critical_a(params, probe)
    assert v.conclusion is Conclusion.INCONCLUSIVE
    assert v.witness is not None
    i = int(np.argmax(v.witness.values))
    t_star = v.witness.t0 + i * v.witness.dt
    assert np.isclose(v.witness.values[i], 2.0 / (3.0 * math.sqrt(3.0)),
                      atol=1e-4)
    assert np.isclose(abs(t_star), math.acosh(math.sqrt(3.0)), atol=0.02)


def test_critical_a_concave_probe_rejected_by_secant_extension():
    # y = 1/2 - t^2/10 on [-2, 2] satisfies y_tt = -0.2 <= -y^3 and stays
    # positive, so the checker must extend the decreasing arc and exhibit
    # a forced zero crossing (witness ends below zero)
    params = make_params(3, 0.5, 0.75)
    t = -2.0 + 0.01 * np.arange(401)
    y = 0.5 - 0.1 * t ** 2
    v = liouville_critical_a(params, probe=LogGridProfile(
        t0=-2.0, dt=0.01, values=y, params=params))
    assert v.conclusion is Conclusion.INCONCLUSIVE
    assert v.witness is not None
    assert v.witness.values[-1] < 0.0


def test_critical_a_wrong_regime():
    params = make_params(3, 0.0, 0.5)
    zero = LogGridProfile(t0=-5.0, dt=0.1, values=np.zeros(101), params=params)
    with pytest.raises(WrongRegime):
        liouville_critical_a(params, zero)
