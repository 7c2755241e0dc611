"""Weighted energy integrals, dual identity, Hardy comparison, decay fits.

Frozen closed-form oracles at (3,0,0), with A = (3/4)^{1/4}:

    lp = grad_sq = omega_3 A^6 integral sech^3 = 3 sqrt(3) pi^2 / 4
    hardy_lhs    = omega_3 A^2 integral sech   = 2 sqrt(3) pi^2
    quotient     = lp^{1 - 2/p}                = 5.477904089531332
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ckn_lab import (
    CriticalA,
    InvalidStep,
    LogGridProfile,
    NonpositiveValues,
    TailNotDecayed,
    WindowOutOfGrid,
    composite_simpson,
    decay_fit,
    dualize_profile,
    energy_report,
    extremal_dt_value,
    extremal_form,
    extremal_radial_value,
    hardy_check,
    make_params,
    sample_extremal,
    scale_profile,
    shoot_homoclinic,
    surface_measure,
    tail_window,
    verify_dual_energy,
)


def decayed_extremal(N, a, b, min_T=40.0):
    """Sampled extremal on a window whose tails are below the 1e-12 gate."""
    form = extremal_form(make_params(N, a, b))
    T = tail_window(form, min_T)
    n = int(round(2 * T / 0.01)) + 1
    return sample_extremal(form, -T, 0.01, n)


def test_surface_measure_values():
    assert np.isclose(surface_measure(2), 2 * math.pi, rtol=1e-15)
    assert np.isclose(surface_measure(3), 4 * math.pi, rtol=1e-15)
    assert np.isclose(surface_measure(4), 2 * math.pi ** 2, rtol=1e-15)


def test_sobolev_point_frozen_values():
    prof = decayed_extremal(3, 0.0, 0.0, min_T=60.0)
    rep = energy_report(prof)
    assert np.isclose(rep.lp, 3 * math.sqrt(3) * math.pi ** 2 / 4, rtol=1e-12)
    assert np.isclose(rep.grad_sq, 12.820992204969127, rtol=1e-12)
    assert np.isclose(rep.hardy_lhs, 2 * math.sqrt(3) * math.pi ** 2, rtol=1e-12)
    assert np.isclose(rep.quotient, 5.477904089531332, rtol=1e-12)
    assert np.isclose(rep.omega_n, 4 * math.pi, rtol=1e-15)


def test_euler_lagrange_identity_on_extremals():
    for (N, a, b) in [(3, 0.0, 0.0), (3, -1.0, -0.2), (2, -0.5, 0.0)]:
        rep = energy_report(decayed_extremal(N, a, b, min_T=60.0))
        assert abs(rep.grad_sq - rep.lp) <= 1e-8 * rep.lp


def test_euler_lagrange_identity_on_shot_profile():
    params = make_params(3, 0.0, 0.0)
    prof = shoot_homoclinic(params, t_max=70.0, tol=1e-6)
    rep = energy_report(prof)
    assert abs(rep.grad_sq - rep.lp) <= 1e-6 * rep.lp


def test_zero_profile_report_and_hardy():
    params = make_params(3, 0.0, 0.0)
    zero = LogGridProfile(t0=-10.0, dt=0.1, values=np.zeros(201), params=params)
    rep = energy_report(zero)
    assert rep.grad_sq == rep.lp == rep.hardy_lhs == rep.quotient == 0.0
    lhs, rhs = hardy_check(zero)
    assert lhs == 0.0 and rhs == 1.0


def test_tail_gate_rejects_short_window():
    prof = decayed_extremal(3, 0.0, 0.0, min_T=40.0)
    # T=40 leaves w ~ 2.7e-9 at the ends for lam = 1/2
    if prof.t_end <= 40.0:
        with pytest.raises(TailNotDecayed):
            energy_report(prof)
    short = sample_extremal(extremal_form(make_params(3, 0.0, 0.0)),
                            -40.0, 0.01, 8001)
    with pytest.raises(TailNotDecayed):
        energy_report(short)


def test_scaling_invariance_of_reports():
    prof = decayed_extremal(3, 0.0, 0.0, min_T=64.0)
    rep = energy_report(prof)
    for R in (math.e ** -3, math.e ** -1, math.e, math.e ** 3):
        rep_r = energy_report(scale_profile(prof, R))
        assert np.isclose(rep_r.grad_sq, rep.grad_sq, rtol=1e-10)
        assert np.isclose(rep_r.lp, rep.lp, rtol=1e-10)
        assert np.isclose(rep_r.hardy_lhs, rep.hardy_lhs, rtol=1e-10)
        assert np.isclose(rep_r.quotient, rep.quotient, rtol=1e-10)


def test_composite_simpson_exact_on_cubics():
    for n in (101, 100):  # odd: pure Simpson; even: 3/8 tail closes it
        t = np.linspace(0.0, 1.0, n)
        vals = t ** 3
        assert np.isclose(composite_simpson(vals, t[1] - t[0]), 0.25,
                          rtol=1e-13)
    with pytest.raises(InvalidStep):
        composite_simpson(np.ones(4), 0.1)
    with pytest.raises(InvalidStep):
        composite_simpson(np.ones(10), 0.0)


def test_quadrature_richardson_ratio():
    form = extremal_form(make_params(3, 0.0, 0.0))

    def integral(h):
        n = int(round(20.0 / h)) + 1
        t = 1.0 + h * np.arange(n)
        w = np.asarray(form.amplitude ** 2 *
                       (1.0 / np.cosh(t)) ** (2 * form.sech_power))
        return composite_simpson(w, h)

    i1, i2, i3 = integral(0.05), integral(0.025), integral(0.0125)
    ratio = (i1 - i2) / (i2 - i3)
    assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2


def test_dual_energy_pair_agrees():
    for (N, a, b) in [(3, 0.0, 0.0), (3, -1.0, -0.2)]:
        prof = decayed_extremal(N, a, b, min_T=60.0)
        lp1, lp2 = verify_dual_energy(prof)
        assert abs(lp1 - lp2) <= 1e-6 * abs(lp1)
        assert np.isclose(lp1, energy_report(prof).lp, rtol=1e-8)


def test_dual_energy_zero_profile():
    params = make_params(3, 0.0, 0.0)
    zero = LogGridProfile(t0=-10.0, dt=0.1, values=np.zeros(201), params=params)
    assert verify_dual_energy(zero) == (0.0, 0.0)


def test_dual_gradient_side_in_r_space():
    # integral |x|^{-2 a2} |grad u2|^2 dx computed by adaptive quadrature
    # must equal the w-space formula with lam -> -lam
    prof = decayed_extremal(3, 0.0, 0.0, min_T=60.0)
    dual = dualize_profile(prof)
    q = dual.params
    form = dual.form

    def integrand(r):
        t = math.log(r)
        w = float(np.exp(q.lam * t)) * float(extremal_radial_value(form, r))
        w_t = float(extremal_dt_value(form, t))
        du = r ** (-q.lam - 1.0) * (w_t - q.lam * w)
        return r ** (q.N - 1.0 - 2.0 * q.a) * du * du

    total = 0.0
    edges = np.arange(dual.t0, dual.t_end, 2.0)
    edges = np.append(edges, dual.t_end)
    for ta, tb in zip(edges[:-1], edges[1:]):
        val, _ = quad(integrand, math.exp(ta), math.exp(tb),
                      epsabs=1e-16 * (1.0 + abs(total)), epsrel=1e-10,
                      limit=200)
        total += val
    grad_r = surface_measure(q.N) * total
    assert np.isclose(grad_r, energy_report(dual).grad_sq, rtol=1e-6)


def test_hardy_sharp_comparison_and_ratio():
    prof = decayed_extremal(3, 0.0, 0.0, min_T=60.0)
    rep = energy_report(prof)
    lhs, rhs = hardy_check(prof)
    assert np.isclose(lhs, rep.hardy_lhs, rtol=1e-14)
    assert rhs == pytest.approx(rep.grad_sq + 1.0, rel=1e-14)
    lam = prof.params.lam
    assert lhs <= rep.grad_sq / lam ** 2 + 1e-10
    # the dual side satisfies the same bound with |lam|
    dual = dualize_profile(prof)
    lhs_d, _ = hardy_check(dual)
    rep_d = energy_report(dual)
    assert lhs_d <= rep_d.grad_sq / lam ** 2 + 1e-10


def test_hardy_check_rejects_critical_a():
    params = make_params(4, 1.0, 1.2)
    zero = LogGridProfile(t0=-5.0, dt=0.1, values=np.zeros(101), params=params)
    with pytest.raises(CriticalA):
        hardy_check(zero)


def test_decay_fit_extremal_slope():
    prof = decayed_extremal(3, 0.0, 0.0, min_T=40.0)
    slope = decay_fit(prof, (15.0, 25.0))
    assert abs(slope - (-1.0)) <= 0.01


def test_decay_fit_synthetic_power_profile():
    params = make_params(3, 0.0, 0.0)
    q = 1.7
    t = 1.0 + 0.01 * np.arange(201)
    w = np.exp((params.lam - q) * t)  # u = r^{-q}
    prof = LogGridProfile(t0=1.0, dt=0.01, values=w, params=params)
    assert np.isclose(decay_fit(prof, (1.0, 3.0)), -q, atol=1e-12)


def test_decay_fit_window_and_value_guards():
    params = make_params(3, 0.0, 0.0)
    prof = decayed_extremal(3, 0.0, 0.0, min_T=40.0)
    with pytest.raises(WindowOutOfGrid):
        decay_fit(prof, (prof.t_end - 1.0, prof.t_end + 5.0))
    with pytest.raises(WindowOutOfGrid):
        decay_fit(prof, (3.0, 3.0))
    zero = LogGridProfile(t0=-10.0, dt=0.1, values=np.zeros(201), params=params)
    with pytest.raises(NonpositiveValues):
        decay_fit(zero, (-5.0, 5.0))


def test_average_decay_bound_product_is_bounded():
    # u_bar(r) r^{(N-2a-2)/2} = w(ln r): bounded by the peak amplitude
    prof = decayed_extremal(3, -1.0, -0.2, min_T=40.0)
    product = prof.values  # the product reduces to w itself
    assert product.max() == pytest.approx(prof.form.amplitude, rel=1e-12)
    assert np.all(product <= prof.form.amplitude * (1 + 1e-12))
