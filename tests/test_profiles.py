"""Closed-form extremals, log-grid profiles, scaling, duality, CSV I/O."""

import math

import numpy as np
import pytest

from ckn_lab import (
    DegenerateParams,
    InadmissibleB,
    InvalidStep,
    NonpositiveScale,
    OutOfGrid,
    ResolutionTooLarge,
    dualize_profile,
    extremal_dt_value,
    extremal_form,
    extremal_radial_value,
    extremal_value,
    extremal_wtt_value,
    make_params,
    read_profile_csv,
    sample_extremal,
    sample_radial_form,
    scale_profile,
    to_radial_u,
    write_profile_csv,
)
from ckn_lab.errors import CknLabError
from ckn_lab.profiles import (MAX_GRID_NODES, MIN_PROFILE_LEN, LogGridProfile,
                              window_nodes)


def test_form_constants_sobolev_point():
    form = extremal_form(make_params(3, 0.0, 0.0))
    assert np.isclose(form.amplitude, 0.9306048591020996, rtol=1e-15)
    assert form.amplitude == pytest.approx((3.0 / 4.0) ** 0.25, rel=1e-15)
    assert form.sech_power == 0.5
    assert form.rate == 1.0
    assert form.center == 0.0


def test_form_constants_weighted_point():
    form = extremal_form(make_params(3, -1.0, -0.2))
    assert np.isclose(form.amplitude, 22.21129502798236, rtol=1e-14)
    assert np.isclose(form.sech_power, 6.5, rtol=1e-15)
    assert np.isclose(form.rate, 3.0 / 13.0, rtol=1e-14)


def test_form_constants_two_dimensional_point():
    form = extremal_form(make_params(2, -0.5, 0.0))
    assert form.amplitude == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert form.sech_power == pytest.approx(1.0)
    assert form.rate == pytest.approx(0.5)


def test_form_degenerates_at_hardy_endpoint():
    # b = a + 1 forces p = 2: no sech profile exists there
    with pytest.raises(DegenerateParams):
        extremal_form(make_params(3, 0.0, 1.0))


def test_form_degenerates_at_critical_a():
    with pytest.raises(DegenerateParams):
        extremal_form(make_params(4, 1.0, 1.3))


@pytest.mark.parametrize("a, b", [(-1e-300, 0.5), (1e-300, 0.6)])
def test_form_degenerates_when_p_lam_squared_underflows(a, b):
    # at N = 2, lam = -a: p lam^2 / 2 underflows to 0 below |a| ~ 1e-162
    with pytest.raises(DegenerateParams) as info:
        extremal_form(make_params(2, a, b))
    assert info.value.context["lam"] == -a
    above = make_params(2, math.copysign(1e-150, a), b)
    assert extremal_form(above).amplitude > 0


def test_radial_value_matches_aubin_talenti():
    form = extremal_form(make_params(3, 0.0, 0.0))
    for r in (0.1, 1.0, 10.0, 123.0):
        target = 3.0 ** 0.25 / math.sqrt(1.0 + r * r)
        assert np.isclose(extremal_radial_value(form, r), target, rtol=1e-12)


def test_radial_value_agrees_with_log_value():
    rng = np.random.default_rng(20260815)
    for _ in range(20):
        a = rng.uniform(-2.0, 0.3)
        b = rng.uniform(a + 0.1, a + 0.9)
        params = make_params(3, a, b)
        form = extremal_form(params)
        r = float(rng.uniform(0.05, 20.0))
        t = math.log(r)
        expect = math.exp(-params.lam * t) * float(extremal_value(form, t))
        assert np.isclose(extremal_radial_value(form, r), expect, rtol=1e-12)


def test_analytic_derivatives_match_finite_differences():
    form = extremal_form(make_params(3, -1.0, -0.2))
    t = np.linspace(-4.0, 4.0, 41)
    h = 1e-4
    wt_fd = (extremal_value(form, t + h) - extremal_value(form, t - h)) / (2 * h)
    wtt_fd = (extremal_value(form, t + h) - 2 * extremal_value(form, t)
              + extremal_value(form, t - h)) / h ** 2
    assert np.allclose(extremal_dt_value(form, t), wt_fd, rtol=1e-7, atol=1e-7)
    assert np.allclose(extremal_wtt_value(form, t), wtt_fd, rtol=1e-6, atol=1e-5)


def test_log_sech_evaluation_is_overflow_safe():
    form = extremal_form(make_params(3, -2.0, -1.3))
    vals = extremal_value(form, np.array([-500.0, 0.0, 500.0]))
    assert np.all(np.isfinite(vals))
    assert vals[1] == form.amplitude
    assert vals[0] == vals[2]  # even profile
    assert vals[0] < 1e-100


def test_sample_extremal_attaches_form_and_solution_flag():
    params = make_params(3, 0.0, 0.0)
    form = extremal_form(params)
    prof = sample_extremal(form, -20.0, 0.01, 4001)
    assert prof.is_solution
    assert prof.form is form
    assert prof.n == 4001
    assert prof.t_end == pytest.approx(20.0)
    assert prof.values.max() == pytest.approx(form.amplitude, rel=1e-15)


def test_profile_validation_rejects_short_and_negative():
    params = make_params(3, 0.0, 0.0)
    with pytest.raises(CknLabError):
        LogGridProfile(t0=0.0, dt=0.1, values=np.ones(MIN_PROFILE_LEN - 1),
                       params=params)
    with pytest.raises(CknLabError):
        LogGridProfile(t0=0.0, dt=0.1, values=-np.ones(32), params=params,
                       is_solution=True)


def test_samplers_check_the_grid_before_they_allocate():
    params = make_params(3, 0.0, 0.0)
    form = extremal_form(params)
    for sample in (lambda *grid: sample_extremal(form, *grid),
                   lambda *grid: sample_radial_form(params, 1.0, *grid)):
        with pytest.raises(InvalidStep):
            sample(0.0, 0.1, MIN_PROFILE_LEN - 1)
        with pytest.raises(InvalidStep):  # the step, then the budget
            sample(0.0, 0.0, MAX_GRID_NODES + 1)
        with pytest.raises(ResolutionTooLarge):
            sample(0.0, 0.1, MAX_GRID_NODES + 1)
    # the control variant validates the regime before the grid
    with pytest.raises(DegenerateParams):
        sample_radial_form(make_params(3, 0.0, 1.0), 1.0, 0.0, 0.0, 1)


def test_window_nodes_counts_exactly_and_past_the_float_range():
    assert window_nodes(40.0, 0.01) == 8001
    with pytest.raises(ResolutionTooLarge) as info:
        window_nodes(2.0 ** 52, 1.0)  # 2^53 + 1 has no float
    assert info.value.context["n"] == 2 ** 53 + 1
    with pytest.raises(ResolutionTooLarge) as info:
        window_nodes(1e300, 1e-10)
    assert info.value.context["n"] == "inf"


def test_profile_values_are_read_only():
    params = make_params(3, 0.0, 0.0)
    prof = sample_extremal(extremal_form(params), -5.0, 0.1, 101)
    with pytest.raises(ValueError):
        prof.values[0] = 1.0


def test_radial_form_with_solution_exponent_reproduces_extremal():
    params = make_params(3, -1.0, -0.2)
    e_solution = (params.p - 2.0) * params.lam
    prof = sample_radial_form(params, e_solution, -10.0, 0.01, 2001)
    form = extremal_form(params)
    expect = extremal_value(form, prof.t())
    assert np.allclose(prof.values, expect, rtol=1e-12)


def test_radial_form_with_printed_exponent_differs():
    # the (p-1) lam inner exponent produces a genuinely different profile
    params = make_params(3, -1.0, -0.2)
    e_printed = (params.p - 1.0) * params.lam
    prof = sample_radial_form(params, e_printed, -10.0, 0.01, 2001)
    form = extremal_form(params)
    expect = extremal_value(form, prof.t())
    assert np.max(np.abs(prof.values - expect)) > 1e-2 * form.amplitude


def test_scale_profile_is_translation():
    params = make_params(3, 0.0, 0.0)
    prof = sample_extremal(extremal_form(params), -10.0, 0.01, 2001)
    scaled = scale_profile(prof, math.e ** 2)
    assert scaled.t0 == pytest.approx(prof.t0 - 2.0, rel=1e-15)
    assert scaled.dt == prof.dt
    assert np.array_equal(scaled.values, prof.values)
    # u_R(r) = R^lam u(R r) pointwise
    r = 0.7
    lhs = to_radial_u(scaled, r)
    rhs = math.e ** (2 * params.lam) * to_radial_u(prof, math.e ** 2 * r)
    assert np.isclose(lhs, rhs, rtol=1e-9)


def test_scale_profile_rejects_nonpositive():
    params = make_params(3, 0.0, 0.0)
    prof = sample_extremal(extremal_form(params), -5.0, 0.1, 101)
    with pytest.raises(NonpositiveScale):
        scale_profile(prof, 0.0)
    with pytest.raises(NonpositiveScale):
        scale_profile(prof, -1.5)


def test_to_radial_u_at_nodes_and_between():
    params = make_params(3, 0.0, 0.0)
    form = extremal_form(params)
    prof = sample_extremal(form, -10.0, 0.01, 2001)
    # exact grid node
    r_node = math.exp(prof.t0 + 700 * prof.dt)
    assert np.isclose(to_radial_u(prof, r_node),
                      float(extremal_radial_value(form, r_node)), rtol=1e-12)
    # generic radius: cubic interpolation, O(dt^4)
    for r in (0.31, 1.07, 3.9):
        assert np.isclose(to_radial_u(prof, r),
                          float(extremal_radial_value(form, r)), rtol=1e-9)
    with pytest.raises(OutOfGrid):
        to_radial_u(prof, math.exp(11.0))


def test_dualize_profile_keeps_samples_and_swaps_rate():
    params = make_params(3, 0.0, 0.0)
    prof = sample_extremal(extremal_form(params), -10.0, 0.01, 2001)
    dual = dualize_profile(prof)
    assert dual.values is prof.values or np.array_equal(dual.values, prof.values)
    assert dual.params.a == pytest.approx(1.0)
    assert dual.params.b == pytest.approx(1.0)
    assert dual.params.lam == -params.lam
    assert dual.form.rate == -prof.form.rate
    # r-space identity u2 = r^{a2 - a1} u1 at one radius
    r = 2.0
    assert np.isclose(to_radial_u(dual, r),
                      r ** (dual.params.a - params.a) * to_radial_u(prof, r),
                      rtol=1e-9)


def test_dualize_profile_near_endpoint_raises():
    # dual of b = a fails N = 2 admissibility (open at the bottom)
    params = make_params(2, 0.3, 0.8)
    prof = sample_extremal(extremal_form(params), -8.0, 0.01, 1601)
    dual = dualize_profile(prof)
    assert dual.params.b - dual.params.a == pytest.approx(0.5)


def test_profile_csv_round_trip_is_exact():
    params = make_params(3, -1.0, -0.2)
    prof = sample_extremal(extremal_form(params), -7.0, 0.01, 1401)
    path = "/tmp/ckn_lab_test_profile.csv"
    write_profile_csv(prof, path)
    back = read_profile_csv(path, params, is_solution=True)
    assert back.n == prof.n
    assert back.dt == pytest.approx(prof.dt, rel=1e-15)
    assert np.array_equal(back.values, prof.values)  # 17 digits round-trip
    with open(path) as fh:
        assert fh.readline().strip() == "t,w"


def test_read_profile_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("r,u\n1.0,2.0\n")
    with pytest.raises(CknLabError):
        read_profile_csv(path, make_params(3, 0.0, 0.0))
