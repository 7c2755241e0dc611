"""Reduced ODE integration, shooting, derivatives, Liouville certificates."""

import math

import numpy as np
import pytest

from ckn_lab import (
    BlowUp,
    Conclusion,
    DegenerateParams,
    InadmissibleB,
    InvalidStep,
    LogGridProfile,
    NoConvergence,
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
from ckn_lab.radial import (
    BLOWUP_LIMIT,
    _itp_probe,
    _rk4_classify,
    _rk4_store,
    _shoot_substeps,
)


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
    ev, t_event, w, v = _rk4_classify(w0, 0.0, h, n, lam2, pm1)
    assert ev == event
    out_w, out_v = np.empty(n + 1), np.empty(n + 1)
    assert _rk4_store(w0, 0.0, h, n, lam2, pm1, out_w, out_v) == n
    # first stored step that meets the classify event's condition
    hit = (out_w[1:] <= 0.0) if event == 1 else (out_v[1:] >= 0.0)
    first = int(np.argmax(hit)) + 1
    assert hit.any() and t_event == first * h
    # the returned state is that step's state, bit for bit
    assert (w, v) == (out_w[first], out_v[first])
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


@pytest.mark.parametrize("N, a, b", [
    (3, -40.0, -39.8),          # lam = 40.5, p = 4.29: rate gamma = 46
    (2, -5.0, -5.0 + 2 / 2.7),  # lam = 5, p = 2.7: rate lam = 5
    (2, -5.0, -5.0 + 2 / 12),   # p = 12: rate gamma = 25
    (2, -5.0, -4.9),            # p = 20: rate gamma = 45
])
def test_shoot_step_follows_the_orbit_rate(N, a, b):
    # a constant step fine enough at lam = 0.5 is too coarse here
    params = make_params(N, a, b)
    prof = shoot_homoclinic(params, t_max=40.0, tol=1e-6)
    A = extremal_form(params).amplitude
    assert abs(prof.values.max() - A) <= 1e-7 * A


def _tail_cut(w_half, peak):
    # the first node where the samples drop below 1e-5 of the peak or
    # stop decreasing: the tail patch starts there
    below = np.nonzero(w_half <= 1e-5 * peak)[0]
    rising = np.nonzero(np.diff(w_half) >= 0.0)[0] + 1
    return int(min(list(below[:1]) + list(rising[:1]) + [w_half.size]))


@pytest.mark.parametrize("T, dt", [(40.0, 0.01), (15.0, 0.02)])
@pytest.mark.parametrize("N, a, b", [
    (3, -1.0, -0.2), (4, -3.5, -3.0), (2, -5.0, -4.9)])
def test_shoot_stores_the_run_only_as_far_as_the_tail_patch(N, a, b, T, dt):
    params = make_params(N, a, b)
    prof = shoot_homoclinic(params, t_max=T, tol=1e-6, dt=dt)
    n_profile = int(round(T / dt))
    half = prof.values[n_profile:]
    sub = _shoot_substeps(params, dt, n_profile)
    h = dt / sub
    # the same run stored over the whole window at the same step
    full = integrate(params, half[0], 0.0, (0.0, n_profile * sub * h),
                     h).profile.values[::sub]
    cut = _tail_cut(full, half[0])
    assert 1 <= cut < half.size
    assert np.array_equal(half[:cut + 1], full[:cut + 1])


def _bisection_peak(params, dt):
    """Reference search: plain bisection on the peak value over the same
    bracket, steps (T = 40) and stop as shoot_homoclinic, moved by the
    event alone.
    Returns (peak, probes), with peak None where the bracket endpoints do
    not classify."""
    n_profile = int(round(40.0 / dt))
    sub = _shoot_substeps(params, dt, n_profile)
    args = (dt / sub, n_profile * sub, params.lam ** 2, params.p - 1.0)
    lo = params.lam ** (2.0 / (params.p - 2.0))
    hi = 2.0 * lo
    probes = 2
    if not (_rk4_classify(lo, 0.0, *args)[0] in (0, 2)
            and _rk4_classify(hi, 0.0, *args)[0] == 1):
        return None, probes
    while hi - lo > 4e-16 * lo:
        mid = 0.5 * (lo + hi)
        ev = _rk4_classify(mid, 0.0, *args)[0]
        probes += 1
        assert ev in (0, 1, 2)
        if ev == 1:
            hi = mid
        else:
            lo = mid
    return lo, probes


def _count_probes(monkeypatch):
    # one (args, result) pair per classify run
    calls = []

    def counting(*args):
        result = _rk4_classify(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr("ckn_lab.radial._rk4_classify", counting)
    return calls


def _shot_peak(params, dt=0.01):
    prof = shoot_homoclinic(params, t_max=40.0, tol=1e-6, dt=dt)
    return float(prof.values[prof.n // 2])


def _admissible_grid():
    # N = 2..6, lam in {0.3, 1, 5, 20}, p - 2 in {0.1, 0.7, 2}: b - a
    # gives the exponent p, and the 8 points with p = 4 above 2N/(N-2)
    # (b < a) drop out
    out = []
    for N in range(2, 7):
        for lam in (0.3, 1.0, 5.0, 20.0):
            for p in (2.1, 2.7, 4.0):
                a = (N - 2) / 2.0 - lam
                s = N / p - N / 2.0 + 1.0
                try:
                    out.append(make_params(N, a, a + s))
                except InadmissibleB:
                    pass
    return out


def test_shoot_search_matches_bisection_within_its_probe_bound(monkeypatch):
    # dt = 0.04 only coarsens the step of the slow orbits (lam <= 1, where
    # sub = 2 binds), which run the longest; the search is the same.  The
    # grid reaches both bounds: 55 probes against 53 at lam = 1, p = 2.1,
    # and 2 ulps at lam = 0.3, p = 4
    grid = _admissible_grid()
    assert len(grid) == 52
    calls = _count_probes(monkeypatch)
    shot = 0
    for params in grid:
        ref, ref_probes = _bisection_peak(params, dt=0.04)
        calls.clear()
        if ref is None:  # p = 2.1, lam >= 5: w_eq past the blow-up limit
            with pytest.raises(NoConvergence):
                shoot_homoclinic(params, t_max=40.0, tol=1e-6, dt=0.04)
            continue
        peak = _shot_peak(params, dt=0.04)
        shot += 1
        assert abs(peak - ref) <= 2.0 * math.ulp(ref), (params, peak, ref)
        assert len(calls) <= ref_probes + 2, (params, len(calls), ref_probes)
    assert shot == 42


def test_shoot_search_takes_few_probes_in_the_benchmark_band(monkeypatch):
    # the band perfbench's shoot workload draws from: lam in [4.7, 5],
    # p in [2.6, 2.85]; bisection takes 53 or 54 probes there
    calls = _count_probes(monkeypatch)
    counts, steps = [], []
    for i, N in enumerate((2, 3, 4, 5, 6, 2, 3, 4, 5, 6)):
        lam = 4.7 + 0.3 * i / 9.0
        p = 2.85 - 0.25 * ((3 * i) % 10) / 9.0
        a = (N - 2) / 2.0 - lam
        s = N / p - N / 2.0 + 1.0
        calls.clear()
        _shot_peak(make_params(N, a, a + s))
        counts.append(len(calls))
        # RK4 steps: each run's event time over its step
        steps.append(sum(res[1] / args[2] for args, res in calls))
    assert np.mean(counts) <= 15.0 and max(counts) <= 17, counts
    assert np.mean(steps) <= 7000.0, steps


def test_shoot_never_runs_the_centre_end(monkeypatch):
    # w_eq is the centre equilibrium: its class is known without a run,
    # so every classify run starts strictly inside (w_eq, 2 w_eq]
    calls = _count_probes(monkeypatch)
    for (N, a, b) in [(3, 0.0, 0.0), (2, -5.0, -5.0 + 2 / 2.7),
                      (4, -3.5, -3.0), (2, -5.0, -4.9)]:
        params = make_params(N, a, b)
        w_eq = math.exp(2.0 * math.log(params.lam) / (params.p - 2.0))
        calls.clear()
        _shot_peak(params)
        starts = [args[0] for args, _ in calls]
        assert starts[0] == 2.0 * w_eq
        assert min(starts) > w_eq, (N, a, b)


def test_shoot_refuses_a_blown_up_upper_end_without_a_lower_event():
    # the grid's p = 2.1, lam >= 5 points put w_eq past the blow-up
    # limit: the upper end blows up, and the unrun lower end reports
    # no event
    refused = 0
    for params in _admissible_grid():
        w_eq = params.lam ** (2.0 / (params.p - 2.0))
        if w_eq <= BLOWUP_LIMIT:
            continue
        with pytest.raises(NoConvergence) as info:
            shoot_homoclinic(params, t_max=40.0, tol=1e-6, dt=0.04)
        assert info.value.code == "no_convergence"
        assert sorted(info.value.context) == ["event_hi", "hi", "lo"]
        assert info.value.context["event_hi"] == 3
        refused += 1
    assert refused == 10


def test_itp_probe_takes_the_float_next_to_an_end():
    # a secant root within half an ulp of an end rounds onto it; the
    # probe is then the adjacent float inside the bracket
    lo, hi = 1.0, 2.0
    assert _itp_probe(lo, hi, 1e-20, -1.0, 0.0, 1.0, 0) == math.nextafter(lo, hi)
    assert _itp_probe(lo, hi, 1.0, -1e-20, 0.0, 1.0, 0) == math.nextafter(hi, lo)
    # r = 0 projects every probe onto the midpoint
    assert _itp_probe(lo, hi, 1e-20, -1.0, 0.0, 0.0, 0) == 1.5
    assert _itp_probe(lo, hi, 1.0, -1e-20, 0.0, 0.0, 0) == 1.5
    # no float between adjacent ends: the midpoint, as before
    up = math.nextafter(lo, hi)
    assert _itp_probe(lo, up, 1e-20, -1.0, 0.0, 1.0, 0) == 0.5 * (lo + up)


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
