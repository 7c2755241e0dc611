"""Weighted energy integrals, dual identity, Hardy comparison, decay fits.

Frozen closed-form oracles at (3,0,0), with A = (3/4)^{1/4}:

    lp = grad_sq = omega_3 A^6 integral sech^3 = 3 sqrt(3) pi^2 / 4
    hardy_lhs    = omega_3 A^2 integral sech   = 2 sqrt(3) pi^2
    quotient     = lp^{1 - 2/p}                = 5.477904089531332

At every other point the Beta-function closed forms of ``beta_oracle``
check each integral on its own, so that an error shared by both sides of
``grad_sq = lp`` or of the dual pair cannot pass unseen.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from ckn_lab import (
    CriticalA,
    EnergyReport,
    InvalidStep,
    LogGridProfile,
    NonpositiveValues,
    NotConverged,
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
    sample_radial_form,
    scale_profile,
    shoot_homoclinic,
    surface_measure,
    tail_window,
    to_radial_u,
    verify_dual_energy,
)
from ckn_lab import energy


def decayed_extremal(N, a, b, min_T=40.0):
    """Sampled extremal on a window whose tails are below the 1e-12 gate."""
    form = extremal_form(make_params(N, a, b))
    T = tail_window(form, min_T)
    n = int(round(2 * T / 0.01)) + 1
    return sample_extremal(form, -T, 0.01, n)


def beta_oracle(N, a, b):
    """(lp, hardy_lhs) of the extremal at (N, a, b) in closed form.

    Written from the parameter formulas alone, without the package
    (Catrina & Wang, CPAM 54 (2001)): w* = A sech^beta(gamma t) with
    A^{p-2} = p lam^2/2, beta = 2/(p-2), gamma = lam (p-2)/2, and
    integral sech^m(x) dx = B(m/2, 1/2) over the line give

        lp    = omega_N A^p B(p/(p-2), 1/2) / |gamma|,
        hardy = omega_N A^2 B(beta, 1/2)    / |gamma|.
    """
    lam = (N - 2.0) / 2.0 - a
    p = 2.0 * N / (N - 2.0 + 2.0 * (b - a))
    gamma = abs(lam) * (p - 2.0) / 2.0
    log_amp = math.log(p * lam * lam / 2.0) / (p - 2.0)
    log_omega = (math.log(2.0) + N / 2.0 * math.log(math.pi)
                 - math.lgamma(N / 2.0))

    def log_beta_half(x):  # ln B(x, 1/2)
        return math.lgamma(x) + math.lgamma(0.5) - math.lgamma(x + 0.5)

    lp = math.exp(log_omega + p * log_amp + log_beta_half(p / (p - 2.0)))
    hardy = math.exp(log_omega + 2.0 * log_amp
                     + log_beta_half(2.0 / (p - 2.0)))
    return lp / gamma, hardy / gamma


BETA_ORACLE_POINTS = [
    (2, -0.5, 0.0), (3, 0.0, 0.0), (3, -1.0, -0.2), (4, -0.5, 0.0),
    (5, 0.0, 0.6), (6, -1.0, -0.3),
    # points whose r-space weight or e^{-lam t} leaves the float range
    (3, -40.0, -39.5), (2, -2.55, -2.35), (3, -6.0, -5.5),
    # a > a_c: lam < 0
    (2, 0.5, 0.8), (3, 1.0, 1.5), (4, 2.0, 2.25), (5, 3.0, 3.1),
    (6, 2.5, 2.5),
]


def _assert_matches_beta_oracle(N, a, b):
    lp, hardy = beta_oracle(N, a, b)
    prof = decayed_extremal(N, a, b)
    rep = energy_report(prof)
    lp1, lp2 = verify_dual_energy(prof)
    for got in (rep.lp, rep.grad_sq, lp1, lp2):
        assert abs(got - lp) <= 1e-12 * lp, (N, a, b, got, lp)
    assert abs(rep.hardy_lhs - hardy) <= 1e-12 * hardy, (N, a, b)


@pytest.mark.parametrize("N,a,b", BETA_ORACLE_POINTS)
def test_integrals_match_beta_oracle(N, a, b):
    _assert_matches_beta_oracle(N, a, b)


def test_beta_oracle_scan_along_a_with_fixed_b_minus_a():
    # N = 3, b - a = 1/2 (p = 3): the r-space check used to overflow from
    # a = -6 down, and t-space Simpson missed grad_sq = lp by 1.3e-6 at
    # a = -40
    for a in np.arange(-40.0, 0.25, 0.5):
        _assert_matches_beta_oracle(3, float(a), float(a) + 0.5)


def test_identity_gate_refuses_a_gap_and_an_underflowed_lp():
    params = make_params(3, 0.0, 0.0)

    def report(grad_sq, lp):
        return EnergyReport(grad_sq=grad_sq, lp=lp, hardy_lhs=0.0,
                            quotient=0.0, omega_n=1.0)

    energy._check_identity(report(1.0 + 1e-8, 1.0), params)
    energy._check_identity(report(0.0, 0.0), params)
    with pytest.raises(NotConverged) as info:
        energy._check_identity(report(1.0 + 3e-8, 1.0), params)
    assert info.value.context["gap"] == pytest.approx(3e-8)
    with pytest.raises(NotConverged) as info:
        energy._check_identity(report(1e-300, 0.0), params)
    assert info.value.context["gap"] is None
    with pytest.raises(NotConverged):
        energy._check_identity(report(math.nan, 1.0), params)


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


def quad_lp_r_space(profile):
    """Test-only oracle of the r-space check: scipy's adaptive quad of
    r^{N-1-bp} |u(r)|^p dr, piece by piece in order.  A closed form is
    integrated in the log domain on 2-unit segments of t = ln r; a profile
    without a form through to_radial_u on each grid cell, where its
    interpolant is smooth."""
    p = profile.params
    expo = p.N - 1.0 - p.b * p.p
    form = profile.form
    if form is not None:
        log_amp = math.log(form.amplitude)

        def integrand(r):
            t = math.log(r)
            ax = abs(form.rate * (t - form.center))
            ln_u = -p.lam * t + log_amp + form.sech_power * (
                math.log(2.0) - ax - math.log1p(math.exp(-2.0 * ax)))
            return math.exp(expo * t + p.p * ln_u)
        edges = np.append(np.arange(profile.t0, profile.t_end, 2.0),
                          profile.t_end)
    else:
        def integrand(r):
            return r ** expo * abs(to_radial_u(profile, r)) ** p.p
        edges = profile.t()
    total = 0.0
    for ta, tb in zip(edges[:-1], edges[1:]):
        val, _ = quad(integrand, math.exp(ta), math.exp(tb),
                      epsabs=1e-16 * (1.0 + abs(total)), epsrel=1e-12,
                      limit=200)
        total += val
    return surface_measure(p.N) * total


def _radial_form_profile(N, a, b):
    params = make_params(N, a, b)
    return sample_radial_form(params, (params.p - 2.0) * params.lam,
                              -20.0, 0.05, 801)


@pytest.mark.parametrize("N,a,b,sample", [
    # N = 2..6
    (2, -0.5, 0.0, decayed_extremal), (3, -1.0, -0.2, decayed_extremal),
    (4, -0.5, 0.0, decayed_extremal), (5, 0.0, 0.6, decayed_extremal),
    (6, -1.0, -0.3, decayed_extremal),
    # a weight past the float range on its own; a > a_c; a steep peak
    # (gamma = 50); an amplitude near underflow
    (2, -2.55, -2.35, decayed_extremal), (3, 1.0, 1.5, decayed_extremal),
    (3, -100.0, -99.5, decayed_extremal), (2, -0.3, 0.5, decayed_extremal),
    # profiles without a form
    (3, -1.0, -0.2, _radial_form_profile), (5, 0.0, 0.6, _radial_form_profile),
])
def test_r_space_check_matches_quad(N, a, b, sample):
    prof = sample(N, a, b)
    for side in (prof, dualize_profile(prof)):
        got, want = energy._lp_r_space(side), quad_lp_r_space(side)
        assert abs(got - want) <= 1e-12 * want, (side.params, got, want)


def test_r_space_check_refuses_a_non_finite_integrand():
    params = make_params(3, 0.0, 0.0)
    huge = LogGridProfile(t0=-10.0, dt=0.1, values=np.full(201, 1e60),
                          params=params)  # |w|^6 overflows
    form = extremal_form(params)
    huge_form = sample_extremal(replace(form, amplitude=1e200), -40.0, 0.01,
                                8001)
    for prof, segment in ((huge, (-10.0, -9.9)), (huge_form, (-40.0, -38.0))):
        with pytest.raises(NotConverged) as info:
            energy._lp_r_space(prof)
        assert info.value.context["segment"] == pytest.approx(segment)


def test_r_space_check_refuses_a_segment_at_the_split_cap(monkeypatch):
    prof = decayed_extremal(3, -100.0, -99.5)
    assert energy._lp_r_space(prof) > 0.0
    monkeypatch.setattr(energy, "MAX_SPLITS", 0)
    with pytest.raises(NotConverged) as info:
        energy._lp_r_space(prof)
    ta, tb = info.value.context["segment"]
    assert tb - ta == pytest.approx(2.0)


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
