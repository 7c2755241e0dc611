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
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from ckn_lab import (
    CknLabError,
    InvalidStep,
    LogGridProfile,
    ModeOperator,
    NoSignChange,
    NotConverged,
    OutOfDomain,
    TailNotDecayed,
    UnverifiedProfile,
    WrongRegime,
    asymptote_window,
    b_fs,
    build_mode_operator,
    extremal_form,
    find_fs_threshold,
    fs_mode_eigenvalue,
    make_params,
    mode_eigenvalues,
    principal_eigenvalue,
    read_profile_csv,
    sample_extremal,
    sample_radial_form,
    spectrum,
    write_profile_csv,
)
from ckn_lab import params as params_module
from ckn_lab.profiles import _log_sech, window_nodes

_sech2_tanh = spectrum._sech2_tanh  # the probe's sech^2 source, unpatched


def _extremal_operator(N, a, b, k, T=40.0, dx=0.01):
    params = make_params(N, a, b)
    n = int(round(2 * T / dx)) + 1
    prof = sample_extremal(extremal_form(params), -T, dx, n)
    return build_mode_operator(prof, k)


def _numerov_diagonal(V, h, s):
    # the diagonal of the Numerov matrix M(s) on the nodes of V, written
    # out here rather than read from the solver
    u = V - s
    return 2.0 / h ** 2 + u / (1.0 - h * h * u / 12.0)


def _sturm_bisection(op, count):
    # the reference that shares no code with the certified solver:
    # eigenvalue i = 0, 1, ... of the Numerov family is the s at which the
    # Sturm count of the whole matrix M(s), its number of eigenvalues at or
    # below 0, first exceeds i.  Every eigenvalue of M(s) falls as s
    # rises, so bisect s on the sign of M(s)'s eigenvalue i, which
    # LAPACK's stebz gives by Sturm counts
    V, h = op.potential[1:-1], op.grid[1]
    e = np.full(V.size - 1, -1.0 / h ** 2)

    def counted(s, i):
        theta = scipy.linalg.eigvalsh_tridiagonal(
            _numerov_diagonal(V, h, s), e, select="i", select_range=(i, i),
            lapack_driver="stebz")[0]
        return theta <= 0.0

    out = []
    for i in range(count):
        lo = hi = float(np.min(V))
        while not counted(hi, i):
            lo, hi = hi, hi + 2.0 * (hi - lo + 1.0)
        while hi - lo > 1e-13 * max(1.0, abs(hi)):
            mid = 0.5 * (lo + hi)
            if counted(mid, i):
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return out


def _numerov_residual(op, rep):
    # ||M(mu) z|| of a reported eigenpair, z = (1 - h^2 (V - mu)/12) y on
    # the interior nodes, relative to the Gershgorin norm bound of M(mu)
    V, h = op.potential[1:-1], op.grid[1]
    d = _numerov_diagonal(V, h, rep.mu)
    z = rep.eigenvector[1:-1] * (1.0 - h * h * (V - rep.mu) / 12.0)
    z /= np.linalg.norm(z)
    mz = d * z
    mz[:-1] -= z[1:] / h ** 2
    mz[1:] -= z[:-1] / h ** 2
    norm = np.max(np.abs(d)) + 2.0 / h ** 2
    return np.linalg.norm(mz) / norm


def _stebz_principal(op):
    return _sturm_bisection(op, 1)[0]


def _search_step(N, a):
    # the threshold search's step without dx, h = min(0.05, 2/kappa),
    # kappa = sqrt(lam^2 + N - 1), written out here
    return min(0.05, 2.0 / math.hypot((N - 2) / 2.0 - a, math.sqrt(N - 1.0)))


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
    # a flat potential has no profile's closed form, so it is built
    # directly; its start vector is the solver's ones
    params = make_params(3, 0.0, 0.0)
    T = 20.0
    op = ModeOperator(k=0, lambda_k=0.0,
                      potential=np.full(8001, params.lam ** 2),
                      grid=(-T, 0.005, 8001), params=params)
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


def test_operator_rejects_non_solution_profile(tmp_path):
    params = make_params(3, -1.0, -0.2)
    printed = sample_radial_form(params, (params.p - 1.0) * params.lam,
                                 -40.0, 0.01, 8001)
    with pytest.raises(UnverifiedProfile):
        build_mode_operator(printed, 0)
    # profiles with no closed form to build the potential from, whose
    # residual passes: the zero profile, and the extremal's own samples
    # read back from a profile CSV
    zero = LogGridProfile(t0=-20.0, dt=0.005, values=np.zeros(8001),
                          params=params)
    path = tmp_path / "profile.csv"
    write_profile_csv(sample_extremal(extremal_form(params), -40.0, 0.01,
                                      8001), path)
    for formless in (zero, read_profile_csv(path, params)):
        with pytest.raises(UnverifiedProfile, match="no closed form"):
            build_mode_operator(formless, 0)


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


@pytest.mark.parametrize("N, a", [(2, -1.0), (4, -3.0), (6, -10.0)])
def test_fs_mode_eigenvalue_converges_at_fourth_order(N, a):
    # on the closed-form curve the k = 1 principal eigenvalue is 0, so
    # |fs_mode_eigenvalue| is the Numerov matrix's error; halving the step
    # cuts it about 16-fold (4-fold for a second difference)
    params = make_params(N, a, b_fs(N, a))
    T = spectrum._fs_window(N, a, 1e-16)
    coarse, fine = (abs(fs_mode_eigenvalue(params, T=T, dx=h))
                    for h in (0.2, 0.1))
    assert 12.0 <= coarse / fine <= 20.0


@pytest.mark.parametrize("N, a, h", [(4, -2.0, 0.05), (3, -100.0, None),
                                     (2, -2500.0, None)])
def test_threshold_step_is_sized_from_the_parameters(monkeypatch, N, a, h):
    # without dx the search builds its one grid at h = min(0.05, 2/kappa),
    # the step at which M(0) has h^2 kappa^2 = 4 once 2/kappa binds
    grids = []
    half_grid = spectrum._k1_half_grid

    def recording(T, step):
        grids.append((T, step))
        return half_grid(T, step)

    monkeypatch.setattr(spectrum, "_k1_half_grid", recording)
    find_fs_threshold(N, a, 1e-3)
    step = _search_step(N, a)
    kappa = math.sqrt(((N - 2) / 2.0 - a) ** 2 + N - 1.0)
    assert step == (h or pytest.approx(2.0 / kappa, rel=1e-15))
    assert grids == [(spectrum._fs_window(N, a, 1e-16), step)]


def test_threshold_matches_closed_form():
    found = find_fs_threshold(3, -0.5, 1e-6)
    assert abs(found - b_fs(3, -0.5)) <= 1e-3
    assert abs(found - (-0.1339745962155613)) <= 1e-3


def test_threshold_input_validation():
    with pytest.raises(InvalidStep):
        find_fs_threshold(3, -1.0, 1e-7)
    with pytest.raises(OutOfDomain):
        find_fs_threshold(3, 0.2, 1e-5)


@pytest.mark.parametrize("N, a, T", [(2, -1.0, 27.0), (6, -10.0, 6.0),
                                     (2, -0.01, 37.0), (2, -1e-9, 37.0)])
def test_threshold_window_values(N, a, T):
    assert spectrum._fs_window(N, a, 1e-16) == T


def _record_probes(m, lower=None):
    # the b of the search's one eigensolve (fs_mode_eigenvalue, its lower
    # bracket end) and (b, pivot) of each of its centre pivots
    # (_k1_centre_pivot): the upper end's first, then the lower end's,
    # then one per interior probe; a given ``lower`` stands in for the
    # lower end's eigenvalue
    solved, probes = [], []
    centre_pivot = spectrum._k1_centre_pivot

    def eigensolve(params, **kwargs):
        solved.append(params.b)
        if lower is not None:
            return lower
        return fs_mode_eigenvalue(params, **kwargs)

    def pivoting(params, grid):
        pivot = centre_pivot(params, grid)
        probes.append((params.b, pivot))
        return pivot

    m.setattr(spectrum, "fs_mode_eigenvalue", eigensolve)
    m.setattr(spectrum, "_k1_centre_pivot", pivoting)
    return solved, probes


def _final_bracket(found, solved, probes, tol):
    # the search's last bracket, read back from its probes: the highest b
    # that is negative (the eigensolved lower end, or an interior pivot
    # that is not positive) and the lowest with a positive pivot (the
    # upper end or an interior one).  It is at most tol wide.  The answer
    # is within tol/2 of both ends, so of every point between them, up to
    # rounding: the secant root of the two ends' pivots, moved toward the
    # midpoint as far as that needs, or the midpoint where the lower end
    # has no value
    (top, top_pivot), (bottom, bottom_pivot) = probes[:2]
    assert bottom == solved[0] < top and top_pivot > 0.0
    lo, p_lo = max([(bottom, bottom_pivot)]
                   + [(b, pivot) for b, pivot in probes[2:]
                      if not pivot > 0.0])
    hi, p_hi = min([(top, top_pivot)]
                   + [(b, pivot) for b, pivot in probes[2:] if pivot > 0.0])
    assert 0.0 < hi - lo <= tol
    slack = 4.0 * math.ulp(found)
    assert hi - 0.5 * tol - slack <= found <= lo + 0.5 * tol + slack
    if math.isnan(p_lo):
        assert found == 0.5 * (lo + hi)
    else:
        secant = lo + (hi - lo) * p_lo / (p_lo - p_hi)
        expected = min(max(secant, hi - 0.5 * tol), lo + 0.5 * tol)
        assert abs(found - expected) <= slack
    return lo, hi


def _searched(monkeypatch, N, a, tol, T=None):
    # the threshold, its eigensolved lower end and its probes
    with monkeypatch.context() as m:
        solved, probes = _record_probes(m)
        found = find_fs_threshold(N, a, tol, T=T)
    return found, solved, probes


def _same_signs_on(N, a, probes, T):
    # whether every probe's centre pivot has the same sign on the grid of
    # window T at the search's step
    grid = spectrum._k1_half_grid(T, _search_step(N, a))
    return all((spectrum._k1_centre_pivot(make_params(N, a, b), grid) > 0.0)
               == (pivot > 0.0) for b, pivot in probes)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_automatic_window_matches_the_fixed_one_bit_for_bit(monkeypatch, N):
    # the automatic window decides every probe as T = 40 does, and the
    # other way round, so the two final brackets both straddle the same
    # sign change, and on these points the answers are bit-identical.  ITP
    # reads the pivot's value, whose last bits differ between the grids,
    # so that is not so everywhere: see find_fs_threshold's docstring
    for a in (-0.01, -0.3, -2.0, -5.0, -9.9):
        window = spectrum._fs_window(N, a, 1e-16)
        assert window < 40.0
        auto = _searched(monkeypatch, N, a, 1e-6)
        fixed = _searched(monkeypatch, N, a, 1e-6, T=40.0)
        assert _same_signs_on(N, a, auto[2], 40.0)
        assert _same_signs_on(N, a, fixed[2], window)
        assert auto[0] == fixed[0]


def test_threshold_window_never_reads_the_closed_form(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the threshold search read b_fs")

    expected = find_fs_threshold(3, -1.0, 1e-6)
    monkeypatch.setattr(spectrum, "b_fs", refused, raising=False)
    monkeypatch.setattr(params_module, "b_fs", refused)
    assert spectrum._fs_window(3, -1.0, 1e-16) == 18.0
    assert find_fs_threshold(3, -1.0, 1e-6) == expected
    found, solved, probes = _searched(monkeypatch, 3, -1.0, 1e-6, T=7.0)
    _final_bracket(found, solved, probes, 1e-6)
    assert _same_signs_on(3, -1.0, probes, 18.0)


def test_threshold_refuses_a_window_shorter_than_the_well(monkeypatch):
    # the window at eps = tol is 7 at (3, -1); it decides every probe as
    # T = 40 does, and every shorter T is refused
    assert spectrum._fs_window(3, -1.0, 1e-6) == 7.0
    with pytest.raises(InvalidStep) as info:
        find_fs_threshold(3, -1.0, 1e-6, T=6.99)
    assert info.value.context == {"T": 6.99, "window": 7.0, "N": 3, "a": -1.0}
    short = _searched(monkeypatch, 3, -1.0, 1e-6, T=7.0)
    fixed = _searched(monkeypatch, 3, -1.0, 1e-6, T=40.0)
    _final_bracket(*short, 1e-6)
    assert _same_signs_on(3, -1.0, short[2], 40.0)
    assert _same_signs_on(3, -1.0, fixed[2], 7.0)
    # the walls at T = 7 move the sign change by 3e-11
    assert abs(short[0] - fixed[0]) <= 1e-9
    # a looser tol needs a shorter window.  Its walls move the sign change
    # by less than tol, not by nothing: by 6.2e-6 at T = 4, so the last
    # probes, which ITP puts next to the sign change, need not have the
    # same sign at T = 40.  The answer is within tol/2 of the T = 4 sign
    # change, and in fact within 1e-9 of it, so the T = 40 pivot changes
    # sign within 1e-5 of the answer
    assert spectrum._fs_window(3, -1.0, 1e-3) == 4.0
    found, solved, probes = _searched(monkeypatch, 3, -1.0, 1e-3, T=4.0)
    _final_bracket(found, solved, probes, 1e-3)
    assert abs(found - find_fs_threshold(3, -1.0, 1e-3, T=40.0)) <= 1e-5
    grid = spectrum._k1_half_grid(40.0, _search_step(3, -1.0))
    assert not spectrum._k1_centre_pivot(make_params(3, -1.0, found - 1e-5),
                                         grid) > 0.0
    assert spectrum._k1_centre_pivot(make_params(3, -1.0, found + 1e-5),
                                     grid) > 0.0
    # a tol past 1 needs no window at all
    assert spectrum._fs_window(3, -1.0, 2.0) == 0.0
    find_fs_threshold(3, -1.0, 2.0, T=0.5)


def _amplitude_free_operator(params, T, dx):
    # the k=1 operator of the probes and the upper end on the whole centred
    # grid of n nodes: V_1 from (p-1)(p lam^2/2) sech^2(gamma t), which
    # needs no amplitude
    n = window_nodes(T, dx)
    t = dx * (np.arange(n) - (n - 1) / 2.0)
    gamma = params.lam * (params.p - 2.0) / 2.0
    depth = params.p * params.lam ** 2 / 2.0
    V = (params.lam ** 2 + params.N - 1.0
         - (params.p - 1.0) * depth * _sech2_tanh(gamma * np.abs(t))[0])
    return ModeOperator(k=1, lambda_k=params.N - 1.0, potential=V,
                        grid=(-(n - 1) * dx / 2.0, dx, n), params=params)


@pytest.mark.parametrize("N, a", [(2, -1.0), (3, -0.5), (4, -2.0)] + [
    (N, a) for N in (2, 3, 4, 5, 6) for a in (-0.3, -3.0, -8.0)])
def test_inertia_bisection_matches_eigensolve_bisection(monkeypatch, N, a):
    # the search eigensolves only its lower bracket end and decides every
    # probe on the centre pivot of the amplitude-free half block.  Each
    # interior probe's sign is checked against three oracles on the
    # search's own grid: the certified eigenvalue of the sampled operator
    # (fs_mode_eigenvalue), Sturm counting on the whole sampled Numerov
    # matrix (stebz), which shares no code with the dpttrf certificates,
    # and the inertia of the whole matrix.  All three straddle the final
    # bracket
    found, solved, probes = _searched(monkeypatch, N, a, 1e-6)
    assert len(solved) == 1
    T, h = spectrum._fs_window(N, a, 1e-16), _search_step(N, a)
    lo, hi = _final_bracket(found, solved, probes, 1e-6)

    def signs(b):
        params = make_params(N, a, b)
        mu = fs_mode_eigenvalue(params, T=T, dx=h)
        ref = _stebz_principal(spectrum._fs_mode_operator(params, T, h))
        return mu > 0.0, ref > 0.0, _whole_matrix_step(params, T, h)

    for b, pivot in probes[2:]:
        assert signs(b) == (pivot > 0.0,) * 3, (b, pivot)
    assert signs(lo) == (False,) * 3
    assert signs(hi) == (True,) * 3


def _near_threshold(a, offset, decades):
    # for N = 2..6 and both interior node parities, a k = 1 point whose b
    # is offset * 10^-decades from the threshold, its window and the
    # search's step h = 0.05 there: the search's own window, an integer T
    # with an odd interior count, or T = 10.025, whose interior count 400
    # is even
    for N in range(2, 7):
        params = make_params(N, a, find_fs_threshold(N, a, 1e-6)
                             + offset * 10.0 ** -decades)
        assert _search_step(N, a) == 0.05
        yield params, spectrum._fs_window(N, a, 1e-16), 0.05
        yield params, 10.025, 0.05


_NEAR_THRESHOLD = dict(a=st.floats(-4.0, -0.2),
                       offset=st.floats(-0.02, 0.02),
                       decades=st.integers(0, 8))


@settings(max_examples=12)
@given(**_NEAR_THRESHOLD)
def test_inertia_sign_matches_principal_eigenvalue(a, offset, decades):
    # a probe and the lower bracket end read the same sign: the even half
    # block's centre pivot against the certified principal eigenvalue of
    # the whole sampled operator that the lower end solves
    for params, T, h in _near_threshold(a, offset, decades):
        mu = fs_mode_eigenvalue(params, T=T, dx=h)
        if abs(mu) > 1e-9:
            grid = spectrum._k1_half_grid(T, h)
            pivot = spectrum._k1_centre_pivot(params, grid)
            assert (pivot > 0.0) == (mu > 0.0)


@settings(max_examples=12)
@given(**_NEAR_THRESHOLD)
def test_inertia_sign_of_the_step_operator(a, offset, decades):
    # the centre pivot's sign against the Sturm count (stebz) of the whole
    # sampled k = 1 Numerov matrix on the same centred grid, which shares
    # no code with the dpttrf certificates
    for params, T, h in _near_threshold(a, offset, decades):
        ref = _stebz_principal(spectrum._fs_mode_operator(params, T, h))
        if abs(ref) > 1e-9:
            grid = spectrum._k1_half_grid(T, h)
            pivot = spectrum._k1_centre_pivot(params, grid)
            assert (pivot > 0.0) == (ref > 0.0)


def _broken_operator(bad):
    op = spectrum._fs_mode_operator(make_params(3, -1.0, -0.5), 40.0, 0.01)
    V = op.potential.copy()
    V[4000] = bad
    return ModeOperator(k=op.k, lambda_k=op.lambda_k, potential=V,
                        grid=op.grid, params=op.params)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_inertia_test_rejects_a_non_finite_potential(bad):
    # LAPACK's pivot test d <= 0 is false for NaN: a NaN entry of the
    # probe's diagonal (kinetic term plus potential) would read as positive
    # definite if it reached the factorization, and -inf as a failed pivot
    t, diag, off, c = spectrum._k1_half_grid(40.0, 0.01)
    diag = diag.copy()
    diag[2000] = bad
    with pytest.raises(NotConverged, match="non-finite potential"):
        spectrum._k1_centre_pivot(make_params(3, -1.0, -0.5),
                                  (t, diag, off, c))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_principal_solve_rejects_a_non_finite_potential(bad):
    # the solver's shifts are certified by the same pivot test, so the
    # potential is refused before the first shift, not at the cap
    with pytest.raises(NotConverged, match="non-finite potential"):
        principal_eigenvalue(_broken_operator(bad), asymptote_tol=math.inf)


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_numerov_solve_rejects_a_non_finite_potential(bad, count):
    with pytest.raises(NotConverged, match="non-finite potential"):
        mode_eigenvalues(_broken_operator(bad), count, asymptote_tol=math.inf)


def test_principal_solve_stops_at_its_iteration_cap(monkeypatch):
    op = spectrum._fs_mode_operator(make_params(3, -1.0, -0.5), 40.0, 0.01)
    principal_eigenvalue(op, asymptote_tol=math.inf)
    monkeypatch.setattr(spectrum, "_PRINCIPAL_MAX_ITER", 2)
    with pytest.raises(NotConverged):
        principal_eigenvalue(op, asymptote_tol=math.inf)


def _guarded_ends(monkeypatch, N, a):
    # the two bracket ends of find_fs_threshold, read without eigensolves:
    # a stand-in eigenvalue of -1 at the lower end lets the search run, and
    # its first centre pivot is the upper end's
    with monkeypatch.context() as m:
        solved, probes = _record_probes(m, lower=-1.0)
        find_fs_threshold(N, a, 1e-3)
    return solved[0], probes[0][0]


def _bracket_operators(monkeypatch, N, a_values):
    # the k=1 operators at the two ends and the midpoint of the threshold
    # search's guarded bracket, on its own grid: the sampled extremal's at
    # the lower end and the midpoint, the amplitude-free one at the upper
    # end, where p - 2 = 1e-9 and no amplitude is representable
    for a in map(float, a_values):
        lo, hi = _guarded_ends(monkeypatch, N, a)
        T, h = spectrum._fs_window(N, a, 1e-16), _search_step(N, a)
        for b in (lo, 0.5 * (lo + hi)):
            yield spectrum._fs_mode_operator(make_params(N, a, b), T, h)
        yield _amplitude_free_operator(make_params(N, a, hi), T, h)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_principal_solve_matches_sturm_bisection(monkeypatch, N):
    for op in _bracket_operators(monkeypatch, N, np.linspace(-10.0, -0.05, 6)):
        rep = principal_eigenvalue(op, asymptote_tol=math.inf)
        assert abs(rep.mu - _stebz_principal(op)) <= 1e-11 * max(1.0,
                                                                 abs(rep.mu))
        v = rep.eigenvector
        assert v[0] == v[-1] == 0.0
        assert np.all(v[1:-1] > 0.0)
        assert np.isclose(np.linalg.norm(v), 1.0, rtol=1e-12)
        assert _numerov_residual(op, rep) <= 1e-8


def test_principal_solve_factors_without_an_eigensolve(monkeypatch):
    # one principal solve on the benchmark's band: no stebz call and at
    # most 7 LDL^T factorizations (these 45 operators take at most 6 by
    # Newton-weighted inverse iteration, and 8 unweighted)
    def refused(*args, **kwargs):
        raise AssertionError("principal solve called eigh_tridiagonal")

    factored = []
    dpttrf = scipy.linalg.lapack.dpttrf

    def counting(*args, **kwargs):
        factored.append(1)
        return dpttrf(*args, **kwargs)

    for N in (2, 3, 4, 5, 6):
        for op in _bracket_operators(monkeypatch, N,
                                     np.linspace(-4.0, -1.5, 3)):
            with monkeypatch.context() as m:
                m.setattr(scipy.linalg, "eigh_tridiagonal", refused)
                m.setattr(scipy.linalg.lapack, "dpttrf", counting)
                factored.clear()
                principal_eigenvalue(op, asymptote_tol=math.inf)
                assert 1 <= len(factored) <= 7


def test_lower_end_solve_converges_quadratically(monkeypatch):
    # the threshold search's one eigensolve, at its guarded lower end, on
    # the benchmark's band: Newton-weighted inverse iteration takes 5.54
    # dpttrf calls per solve on average, where the linearly convergent
    # unweighted iteration took 7.80
    counts, inside = [], []
    dpttrf = scipy.linalg.lapack.dpttrf
    solve = spectrum.fs_mode_eigenvalue

    def counting(*args, **kwargs):
        if inside:
            counts[-1] += 1
        return dpttrf(*args, **kwargs)

    def lower_end(*args, **kwargs):
        counts.append(0)
        inside.append(1)
        try:
            return solve(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", counting)
    monkeypatch.setattr(spectrum, "fs_mode_eigenvalue", lower_end)
    for N in (2, 3, 4, 5, 6):
        for a in np.linspace(-4.0, -1.5, 10):
            find_fs_threshold(N, float(a), 1e-3)
    assert len(counts) == 50
    assert min(counts) >= 1
    assert sum(counts) / len(counts) <= 6.0


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_step_potential_matches_sampled_operator(monkeypatch, N):
    # the probe potential is (p-1)(p lam^2/2) sech^2 with no amplitude, from
    # the probe's own sech^2 on its half grid; it is bit for bit the t >= 0
    # interior of the sampled k=1 operator, at points across the guarded
    # bracket short of its upper end, where p - 2 = 1e-9 leaves no sampled
    # extremal
    grid = spectrum._k1_half_grid(40.0, 0.01)
    t = grid[0]
    for a in (-0.3, -3.0, -8.0):
        lo, hi = _guarded_ends(monkeypatch, N, a)
        for b in np.linspace(lo, hi, 9)[:-1]:
            params = make_params(N, a, float(b))
            V = spectrum._k1_half_block(params, grid)[2]
            depth = (params.p - 1.0) * params.p * params.lam ** 2 / 2.0
            asymptote = params.lam ** 2 + N - 1.0
            assert np.isclose(V.min(), asymptote - depth, rtol=1e-12)
            sampled = spectrum._fs_mode_operator(params, 40.0, 0.01)
            t0, dt, n = sampled.grid
            nodes = (t0 + dt * np.arange(n))[-1 - t.size:-1]
            assert np.max(np.abs(nodes - t)) <= 1e-12
            half = sampled.potential[-1 - t.size:-1]
            assert half.tobytes() == V.tobytes()


def _scaled_sech2(x):
    # sech^2 off by a relative 2e-6
    sech2, th = _sech2_tanh(x)
    return sech2 * (1.0 + 2e-6), th


def _nan_sech2(x):
    sech2, th = _sech2_tanh(x)
    sech2[sech2.size // 2] = math.nan
    return sech2, th


@pytest.mark.parametrize("corrupt, refusal", [
    (_scaled_sech2, UnverifiedProfile), (_nan_sech2, NotConverged)],
    ids=["_scaled_sech2", "_nan_sech2"])
def test_step_gate_rejects_a_corrupted_sech2(monkeypatch, corrupt, refusal):
    params = make_params(3, -1.0, -0.5)
    grid = spectrum._k1_half_grid(40.0, 0.01)
    spectrum._k1_centre_pivot(params, grid)
    monkeypatch.setattr(spectrum, "_sech2_tanh", corrupt)
    with pytest.raises(UnverifiedProfile):
        spectrum._k1_centre_pivot(params, grid)
    # the lower end's potential reads the same sech^2.  Scaled, it passes
    # there, whose residual gate reads the sampled profile, and the upper
    # end's pivot is refused; a NaN is refused at the lower end as a
    # non-finite potential, before the upper end's gate runs
    with pytest.raises(refusal) as info:
        find_fs_threshold(3, -1.0, 1e-3)
    if refusal is NotConverged:
        assert "non-finite potential" in info.value.message


def test_threshold_samples_the_extremal_only_at_its_lower_end(monkeypatch):
    calls, sampled, stepped = {}, [], []

    def counting(name):
        original = getattr(spectrum, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if name == "sample_extremal":
                sampled.append(args[0].params.b)
            if name == "_k1_centre_pivot":
                stepped.append(args[0].b)
            return original(*args, **kwargs)
        monkeypatch.setattr(spectrum, name, wrapper)

    for name in ("extremal_form", "sample_extremal", "build_mode_operator",
                 "residual_autonomous", "fs_mode_eigenvalue",
                 "principal_eigenvalue", "_k1_half_grid",
                 "_k1_centre_pivot"):
        counting(name)
    find_fs_threshold(4, -2.0, 1e-6)
    # the probe count is test_threshold_search_stays_within_its_probe_bound's
    assert calls.pop("_k1_centre_pivot") == len(stepped) >= 3
    assert calls.pop("_k1_half_grid") == 1
    assert calls == {"extremal_form": 1, "sample_extremal": 1,
                     "build_mode_operator": 1, "residual_autonomous": 1,
                     "fs_mode_eigenvalue": 1, "principal_eigenvalue": 1}
    # the one sample is the lower end, whose pivot is the second: every
    # other pivot, the upper end's first, lies above it
    assert stepped[1] == sampled[0] < min(stepped[:1] + stepped[2:])


# N = 2..6 over the benchmark's fs-curve band of a, and (2, -0.88), where
# the search takes its most probes
_PROBE_BAND = [(N, float(a)) for N in range(2, 7)
               for a in np.linspace(-4.0, -0.1, 14)] + [(2, -0.88)]


def test_threshold_search_stays_within_its_probe_bound(monkeypatch):
    # the mirror of the shoot search's bound: ITP with n0 = 1 takes at most
    # one interior probe more than bisection from the same two ends to the
    # same width, and on the band far fewer on average (bisection takes 20)
    counts = []
    for N, a in _PROBE_BAND:
        found, solved, probes = _searched(monkeypatch, N, a, 1e-6)
        lo, hi = solved[0], probes[0][0]
        steps = 0
        while hi - lo > 1e-6:
            lo, steps = 0.5 * (lo + hi), steps + 1
        interior = len(probes) - 2
        assert interior <= steps + 1, (N, a, interior, steps)
        counts.append(interior)
    assert np.mean(counts) <= 9.0, counts


def test_no_probe_on_the_band_stops_before_the_centre(monkeypatch):
    # dpttrf stops before the centre row only where the well holds a second
    # k = 1 state below 0, at deep lower ends; on the band every probe, the
    # ends included, has a value
    for N, a in _PROBE_BAND:
        probes = _searched(monkeypatch, N, a, 1e-6)[2]
        assert not any(math.isnan(pivot) for _, pivot in probes), (N, a)


def test_an_early_stop_counts_as_negative_without_a_value(monkeypatch):
    # at the lower end of (2, -50), p - 2 = 0.2, dpttrf stops one row short
    # of the centre (info = n - 1).  The pivot is NaN: negative, like the
    # eigensolve there, with no value for ITP, so the first interior probe
    # is the midpoint; the search still lands on the closed form
    N, a = 2, -50.0
    found, solved, probes = _searched(monkeypatch, N, a, 1e-6)
    (top, _), (bottom, pivot) = probes[:2]
    grid = spectrum._k1_half_grid(spectrum._fs_window(N, a, 1e-16),
                                  _search_step(N, a))
    d, off, _ = spectrum._k1_half_block(make_params(N, a, bottom), grid)
    assert scipy.linalg.lapack.dpttrf(d[::-1], off[::-1])[2] == d.size - 1
    assert math.isnan(pivot)
    assert probes[2][0] == 0.5 * (bottom + top)
    _final_bracket(found, solved, probes, 1e-6)
    assert abs(found - b_fs(N, a)) <= 1e-6


def test_refusal_eigensolves_the_upper_end_on_its_half_block():
    # a refusal carries mu_hi, the principal eigenvalue of the probe's even
    # half block at hi; it agrees with Sturm bisection on the whole
    # amplitude-free Numerov matrix there, where the sampled amplitude
    # underflows
    with pytest.raises(NoSignChange) as info:
        find_fs_threshold(2, -1e-9, 1e-6)
    context = info.value.context
    op = _amplitude_free_operator(make_params(2, -1e-9, context["hi"]),
                                  spectrum._fs_window(2, -1e-9, 1e-16),
                                  _search_step(2, -1e-9))
    ref = _stebz_principal(op)
    assert abs(context["mu_hi"] - ref) <= 1e-11 * max(1.0, abs(ref))
    assert context["mu_lo"] > 0.0


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("a", [-2500.0, -1e4])
def test_threshold_far_out_matches_the_closed_form(N, a):
    # at the step 2/kappa the lower end has p - 2 >= 0.2, where the sampled
    # amplitude stays in range (at dx = 0.01 it overflowed at about
    # a <= -2,000); the grid has up to 130,000 nodes here
    assert abs(find_fs_threshold(N, a, 1e-6) - b_fs(N, a)) <= 1e-6


@pytest.mark.parametrize("N", [2, 3, 6])
@pytest.mark.parametrize("a", [-1e5, -1e7, -4e15])
def test_threshold_far_out_is_a_typed_error(N, a):
    # at a = -1e5 the threshold's p - 2 ~ (N - 1)/lam^2 lies below the
    # upper end's 1e-9, where the k = 1 eigenvalue is still negative;
    # further out the grid passes the node budget, and then b - a rounds
    # to 1 and the bracket empties, which must stay typed (p - 2 = 0 would
    # divide by zero in the step)
    with pytest.raises(CknLabError) as info:
        find_fs_threshold(N, a, 1e-6)
    if a == -1e5:
        assert isinstance(info.value, NoSignChange)
        assert info.value.context["mu_lo"] < info.value.context["mu_hi"] < 0.0


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_every_admissible_a_gets_a_threshold_or_a_typed_error(N):
    for j in range(0, 53, 4):
        for a in (-(2.0 ** j), -(2.0 ** j) * 1.5):
            if abs(a) >= 2.0 ** 52:
                continue
            try:
                b = find_fs_threshold(N, a, 1e-3)
            except CknLabError:
                continue
            assert a < b < a + 1.0


def _whole_matrix_step(params, T, dx):
    # the sign test before the half block: V_1 from exp(2 ln sech) on all
    # n nodes of the centred grid, and dpttrf on the whole (n-2)-row
    # Numerov matrix M(0), positive definite exactly when mu_1 > 0
    form = extremal_form(params)
    n = window_nodes(T, dx)
    t = dx * (np.arange(n) - (n - 1) / 2.0)
    sech2 = np.exp(2.0 * _log_sech(form.rate * t))
    depth = params.p * params.lam * params.lam / 2.0
    V = params.lam ** 2 + (params.N - 1.0) - (params.p - 1.0) * (depth * sech2)
    d = _numerov_diagonal(V[1:-1], dx, 0.0)
    assert np.isfinite(d).all()
    e = np.full(n - 3, -1.0 / dx ** 2)
    return scipy.linalg.lapack.dpttrf(d, e)[2] == 0


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_half_block_thresholds_match_the_whole_matrix(monkeypatch, N):
    # every probe of the search decided by the inertia of the whole
    # matrix: at the search's own window (an odd interior count) and,
    # where tol 1e-3 allows it, at T = 10.025 (an even one at the search's
    # step 0.05); the whole matrix straddles the final bracket too
    cases = [(a, 1e-6, None) for a in (-0.3, -1.0, -2.5, -4.0, -8.0)]
    cases += [(a, 1e-3, 10.025) for a in (-1.0, -2.5, -4.0, -8.0)
              if spectrum._fs_window(N, a, 1e-3) <= 10.025]
    for a, tol, T in cases:
        found, solved, probes = _searched(monkeypatch, N, a, tol, T=T)
        window = spectrum._fs_window(N, a, 1e-16) if T is None else T
        lo, hi = _final_bracket(found, solved, probes, tol)

        def whole(b):
            return _whole_matrix_step(make_params(N, a, b), window,
                                      _search_step(N, a))

        for b, pivot in probes[2:]:
            assert whole(b) == (pivot > 0.0), (a, b, pivot)
        assert not whole(lo) and whole(hi)
    assert len(cases) >= 7


@pytest.mark.parametrize("N, a, tol, T", [(4, -2.0, 1e-6, None),
                                          (3, -1.0, 1e-3, 10.005),
                                          (3, -1.0, 1e-3, 12.3456)])
def test_each_step_factors_the_half_block(monkeypatch, N, a, tol, T):
    # with the lower end's eigenvalue stood in by -1, every dpttrf call is
    # a centre pivot's, the upper end's first and the lower end's second:
    # each factors the ceil((n-2)/2) rows of the even half block on the
    # t >= 0 interior nodes of the lower end's centred grid, in reverse
    # order from the wall to the centre, and no probe builds a
    # ModeOperator.  The search's own
    # step is h = 0.05 at (4, -2); an explicit T comes here with an
    # explicit step 0.01, which gives even interior counts (2000 and
    # 2468).  2T/h is not an integer at T = 12.3456, where the centred
    # grid starts at -(n-1) h / 2 = -12.345, not at -T.  Each factored
    # block is the even parity block of the Numerov matrix M(0) of the
    # sampled operator that the lower end eigensolves, at the probe's b,
    # and at the upper end, which has no sampled extremal, of the
    # amplitude-free operator on the same grid
    window = spectrum._fs_window(N, a, 1e-16) if T is None else T
    h = _search_step(N, a) if T is None else 0.01
    n = window_nodes(window, h)
    t = spectrum._k1_half_grid(window, h)[0]
    t0, dt, _ = spectrum._fs_mode_operator(make_params(N, a, a + 0.5),
                                           window, h).grid
    nodes = t0 + dt * np.arange(n)
    assert np.max(np.abs(nodes[-1 - t.size:-1] - t)) <= 1e-12
    blocks, steps, built = [], [], []
    dpttrf = scipy.linalg.lapack.dpttrf
    centre_pivot = spectrum._k1_centre_pivot

    def counting(d, e, **kwargs):
        blocks.append((d.copy(), e.copy()))  # dpttrf overwrites d
        return dpttrf(d, e, **kwargs)

    def pivoting(params, grid):
        steps.append(params.b)
        return centre_pivot(params, grid)

    def operator(*args, **kwargs):
        built.append(1)
        return ModeOperator(*args, **kwargs)

    monkeypatch.setattr(spectrum, "fs_mode_eigenvalue",
                        lambda params, **kwargs: -1.0)
    monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", counting)
    monkeypatch.setattr(spectrum, "_k1_centre_pivot", pivoting)
    monkeypatch.setattr(spectrum, "ModeOperator", operator)
    find_fs_threshold(N, a, tol, T=T, dx=None if T is None else h)
    monkeypatch.undo()
    assert (n - 2) % 2 == (0 if T else 1)
    assert len(blocks) >= 9
    assert len(steps) == len(blocks)
    assert [d.size for d, _ in blocks] == [math.ceil((n - 2) / 2)] * len(blocks)
    assert built == []
    for b, (d, e) in zip(steps, blocks):
        build = (_amplitude_free_operator if b == steps[0]
                 else spectrum._fs_mode_operator)
        op = build(make_params(N, a, b), window, h)
        d_end, e_end = spectrum._parity_blocks(
            _numerov_diagonal(op.potential[1:-1], h, 0.0),
            np.full(n - 3, -1.0 / h ** 2))[0]
        d_end, e_end = d_end[::-1], e_end[::-1]
        assert e.tobytes() == e_end.tobytes()
        assert np.max(np.abs(d - d_end) / np.abs(d_end)) <= 1e-12


# points on both sides of a_c, a steep N = 2 well whose rounded nodes made
# the sampled potential uneven by 2.8e-12, and one whose amplitude
# A = (p lam^2/2)^{1/(p-2)} underflows to 0
_EVEN_POINTS = [(3, -1.0, -0.5), (3, 1.0, 1.5), (2, -1.0, -0.999),
                (2, -0.1, 0.899), (6, -3.0, -2.2)]


@pytest.mark.parametrize("N, a, b", _EVEN_POINTS)
def test_mode_potential_is_exactly_even_on_centred_grids(N, a, b):
    # build_mode_operator's potential on the centred grid of an odd and of
    # an even node count is its own mirror image bit for bit, at every
    # level k, and below a_c its k = 1 interior right half is the threshold
    # probes' half block on the same grid; on an off-centre grid it is not
    # even
    params = make_params(N, a, b)
    form = extremal_form(params)
    h = _table_step(params)
    n = window_nodes(asymptote_window(params), h)
    for nodes in (n, n + 1):
        prof = sample_extremal(form, -(nodes - 1) * h / 2.0, h, nodes)
        for k in (0, 1, 3):
            V = build_mode_operator(prof, k).potential
            assert V.tobytes() == V[::-1].tobytes()
            assert V.min() < V[0] == V[-1]
        if params.lam > 0.0:
            grid = spectrum._k1_half_grid((nodes - 1) * h / 2.0, h)
            half = spectrum._k1_half_block(params, grid)[2]
            whole = build_mode_operator(prof, 1).potential
            assert whole[-1 - half.size:-1].tobytes() == half.tobytes()
    shifted = sample_extremal(form, -(n - 1) * h / 2.0 + 0.3 * h, h, n)
    V = build_mode_operator(shifted, 0).potential
    assert not np.array_equal(V, V[::-1])


def _centred_operator(N, a, b, n, dx=0.01):
    # the k = 0 operator on the spectrum command's centred grid of n nodes,
    # t0 = -(n-1) dx / 2
    params = make_params(N, a, b)
    prof = sample_extremal(extremal_form(params), -(n - 1) * dx / 2.0, dx, n)
    return build_mode_operator(prof, 0)


def _table_step(params):
    # the spectrum command's step without --dt: a tenth of the ground
    # state's decay length 2/(|lam| p)
    return 0.2 / (abs(params.lam) * params.p)


def _check_split(op, tol):
    # both eigenvalues against Sturm bisection on the whole Numerov
    # matrix; the vectors are symmetric and skew, unit, and their z solve
    # the whole matrix
    reps = mode_eigenvalues(op, 2, asymptote_tol=math.inf)
    ref = _sturm_bisection(op, 2)
    for rep, want, sign in zip(reps, ref, (1.0, -1.0)):
        assert abs(rep.mu - want) <= tol * max(1.0, abs(want))
        v = rep.eigenvector
        assert v[0] == v[-1] == 0.0
        assert np.array_equal(v, sign * v[::-1])
        assert np.isclose(np.linalg.norm(v), 1.0, rtol=1e-12)
        assert _numerov_residual(op, rep) <= 1e-8
    # equal only where the two are degenerate to rounding, as in a double
    # well whose tunnelling splitting is below an ulp
    assert reps[0].mu <= reps[1].mu


# the spectrum band of the benchmark's point-mix queries: lam = a_c - a in
# [0.3, 2] and b - a in [0.3, 0.85]
_POINT_MIX_BAND = [(lam, s) for lam in (0.3, 0.9, 2.0) for s in (0.3, 0.85)]


@pytest.mark.parametrize("N, a, b", [(2, -2.0, -1.7), (3, -1.0, -0.5),
                                     (3, -20.0, -19.3)])
def test_numerov_eigenvalues_converge_at_fourth_order(N, a, b):
    # halving the step cuts both errors about 16-fold on one window, from
    # the spectrum command's own step down; the second difference cuts
    # them 4-fold
    params = make_params(N, a, b)
    T = asymptote_window(params)
    errors = []
    for h in (_table_step(params), _table_step(params) / 2.0):
        n = window_nodes(T, h)
        reps = mode_eigenvalues(_centred_operator(N, a, b, n, h), 2)
        errors.append([abs(rep.mu - pt_eigenvalue(params, 0, i))
                       for i, rep in enumerate(reps)])
    for coarse, fine in zip(*errors):
        assert 12.0 <= coarse / fine <= 20.0


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_parity_split_matches_sturm_bisection(monkeypatch, N):
    def refused(*args, **kwargs):
        raise AssertionError("two eigenvalues called eigh_tridiagonal")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refused)
    for lam, s in _POINT_MIX_BAND:
        a = (N - 2) / 2.0 - lam
        params = make_params(N, a, a + s)
        h = _table_step(params)
        n = window_nodes(asymptote_window(params), h)
        # an odd and an even count of interior nodes
        for nodes in (n, n + 1):
            _check_split(_centred_operator(N, a, a + s, nodes, h), 1e-10)


@settings(max_examples=60, deadline=None)
@given(half=st.lists(st.floats(-50.0, 50.0), min_size=6, max_size=60),
       odd=st.booleans(), dt=st.sampled_from([0.05, 0.3, 1.0]),
       end=st.floats(-50.0, 50.0))
def test_parity_split_on_random_even_potentials(half, odd, dt, end):
    # any even potential, not only the sech^2 wells of the paper's family:
    # a random right half, mirrored about a centre node (odd) or between
    # two nodes (even)
    right = np.array(half)
    left = right[:0:-1] if odd else right[::-1]
    V = np.concatenate(([end], left, right, [end]))
    n = V.size
    op = ModeOperator(k=0, lambda_k=0.0, potential=V,
                      grid=(-(n - 1) * dt / 2.0, dt, n),
                      params=make_params(3, -1.0, -0.5))
    inner = V[1:-1]
    spread = float(np.max(inner) - np.min(inner))
    if spread * dt * dt < 12.0:
        _check_split(op, 1e-10)
        return
    # past h^2 (max V - min V) = 12 the Numerov transform is refused
    with pytest.raises(InvalidStep) as info:
        mode_eigenvalues(op, 2, asymptote_tol=math.inf)
    assert info.value.context == {"h": dt,
                                  "limit": math.sqrt(12.0 / spread)}


def test_two_eigenvalues_refuse_other_counts():
    op = _extremal_operator(3, -1.0, -0.5, 0)
    for count in (0, 3):
        with pytest.raises(InvalidStep) as info:
            mode_eigenvalues(op, count)
        assert info.value.context == {"count": count}


def test_two_eigenvalues_refuse_an_off_centre_grid():
    params = make_params(3, -1.0, -0.5)
    T, dx = 40.0, 0.01
    n = window_nodes(T, dx)
    op = build_mode_operator(
        sample_extremal(extremal_form(params), -T + 0.3, dx, n), 0)
    with pytest.raises(InvalidStep) as info:
        mode_eigenvalues(op, 2)
    ctx = info.value.context
    assert ctx["asymmetry"] > 0.1
    assert ctx == {"asymmetry": ctx["asymmetry"], "gate": 1e-12, "k": 0,
                   "grid": (-T + 0.3, dx, n)}
    # one eigenvalue needs no symmetry, and the shift moves it by 2.5e-13
    assert abs(mode_eigenvalues(op, 1)[0].mu - mode_eigenvalues(
        _centred_operator(3, -1.0, -0.5, n), 2)[0].mu) < 1e-11


def test_two_eigenvalues_refuse_an_asymmetric_potential():
    op = _centred_operator(3, -1.0, -0.5, 8001)
    t = op.grid[0] + op.grid[1] * np.arange(op.grid[2])

    def tilted(size):
        # an odd bump t e^{-t^2}, of height 0.43 at |t| = 0.71, that leaves
        # the ends at the asymptote
        return ModeOperator(k=op.k, lambda_k=op.lambda_k,
                            potential=op.potential + size * t * np.exp(-t * t),
                            grid=op.grid, params=op.params)

    scale = float(np.max(np.abs(op.potential)))
    with pytest.raises(InvalidStep) as info:
        mode_eigenvalues(tilted(1e-3), 2)
    assert info.value.context["asymmetry"] == pytest.approx(
        2e-3 * math.exp(-0.5) / math.sqrt(2.0) / scale, rel=1e-3)
    # an odd part under the gate moves each eigenvalue by at most the
    # asymmetry (Weyl), well inside the oracle's 1e-10
    _check_split(tilted(1e-12), 1e-10)
    with pytest.raises(InvalidStep):
        mode_eigenvalues(tilted(1e-11), 2)
