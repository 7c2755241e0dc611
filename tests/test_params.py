import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ckn_lab import params as P
from ckn_lab.errors import InadmissibleB, InvalidDimension, OutOfDomain


def test_make_params_sobolev_point():
    q = P.make_params(3, 0, 0)
    assert q.p == 6.0
    assert q.a_c == 0.5
    assert q.lam == 0.5
    assert q.n_prime == 3.0
    assert q.tau == 0.0


def test_make_params_hardy_endpoint():
    q = P.make_params(3, 0, 1)
    assert q.p == 2.0
    assert q.tau == -2.0


def test_make_params_n2_open_at_b_equals_a():
    with pytest.raises(InadmissibleB):
        P.make_params(2, 0.3, 0.3)
    # closed at b = a + 1
    q = P.make_params(2, 0.3, 1.3)
    assert q.p == 2.0


def test_make_params_rejections():
    with pytest.raises(InvalidDimension):
        P.make_params(1, 0, 0.5)
    with pytest.raises(InvalidDimension):
        P.make_params(2.5, 0, 0.5)
    with pytest.raises(InadmissibleB):
        P.make_params(3, 0, 1.5)
    with pytest.raises(InadmissibleB):
        P.make_params(3, 0, -0.1)
    with pytest.raises(InadmissibleB):
        P.make_params(3, 0, float("nan"))
    # past 2^52 the band [a, a+1] holds no interior double
    with pytest.raises(InadmissibleB):
        P.make_params(3, -2.0 ** 52, -2.0 ** 52)
    with pytest.raises(InadmissibleB):
        P.make_params(3, 2.0 ** 52 - 0.5, 2.0 ** 52)
    # p = 2/(b - a) overflows for N = 2
    with pytest.raises(InadmissibleB):
        P.make_params(2, 0.0, 5e-324)


def test_p_endpoint_identities():
    # p = 2 exactly at b = a+1; p = 2N/(N-2) exactly at b = a (N >= 3)
    assert P.make_params(5, -0.7, 0.3).p == 2.0
    assert P.make_params(5, -0.7, -0.7).p == 2.0 * 5 / 3
    rng = np.random.default_rng(7)
    for _ in range(200):
        N = int(rng.integers(3, 8))
        a = float(rng.uniform(-4, (N - 2) / 2 + 2))
        s = float(rng.uniform(0, 1))
        q = P.make_params(N, a, a + s)
        assert (q.p > 2) == (q.b < q.a + 1)


def test_autonomy_identity_random_points():
    # tau = lam (p-2) - 2 to 1e-12 relative over 10^4 admissible points
    rng = np.random.default_rng(12345)
    for _ in range(10_000):
        N = int(rng.integers(2, 11))
        a = float(rng.uniform(-6, 6))
        lo = 1e-9 if N == 2 else 0.0
        s = float(rng.uniform(lo, 1))
        q = P.make_params(N, a, a + s)
        lhs = q.tau
        rhs = q.lam * (q.p - 2) - 2.0
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_derived_identities():
    rng = np.random.default_rng(5)
    for _ in range(100):
        N = int(rng.integers(2, 9))
        a = float(rng.uniform(-3, 3))
        s = float(rng.uniform(0.01, 1))
        q = P.make_params(N, a, a + s)
        assert q.lam == q.a_c - q.a
        assert abs((q.n_prime - 2) - 2 * q.lam) <= 1e-15 * max(1.0, abs(q.n_prime))


def test_b_fs_frozen_values():
    # independent arithmetic: N d / (2 sqrt(d^2 + N - 1)) + a - a_c, d = a_c - a
    assert P.b_fs(3, -1) == pytest.approx(-0.4085896873365016, abs=1e-15)
    assert P.b_fs(3, -0.5) == pytest.approx(-0.1339745962155613, abs=1e-15)
    assert P.b_fs(3, -2) == pytest.approx(-1.1944175803322663, abs=1e-15)
    assert P.b_fs(2, -0.5) == pytest.approx(-0.05278640450004207, abs=1e-15)
    assert P.b_fs(2, -1) == pytest.approx(-0.29289321881345254, abs=1e-15)
    # closed form at N=2: b_fs(2,-1) = -1 + 1/sqrt(2) ... check against 1 - sqrt(1/2)
    assert P.b_fs(2, -1) == pytest.approx(-(1 - math.sqrt(0.5)), rel=1e-15)


def test_b_fs_domain_and_containment():
    with pytest.raises(OutOfDomain):
        P.b_fs(3, 0)
    with pytest.raises(OutOfDomain):
        P.b_fs(3, 0.2)
    with pytest.raises(OutOfDomain):
        P.b_fs(3, -2.0 ** 52)
    for N in range(2, 11):
        for a in np.linspace(-10, -1e-3, 97):
            v = P.b_fs(N, float(a))
            assert a < v < a + 1
    # threshold collapses onto b = a as a -> 0-
    gaps = [P.b_fs(3, a) - a for a in (-1e-2, -1e-4, -1e-6)]
    assert all(g > 0 for g in gaps)
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 1e-5


def test_b_fs_printed_contradicts_containment():
    # the other sign convention lands below a, outside the admissible strip
    assert P.b_fs_printed(3, -1) == pytest.approx(-2.5914103126634984, abs=1e-14)
    for N in (2, 3, 5):
        for a in (-0.25, -1.0, -3.0):
            assert P.b_fs_printed(N, a) < a


def test_del_direct_bound():
    # (6 + 27)/(12 + 18) - 1.5 = 33/30 - 1.5 = -0.4
    assert P.del_direct_bound(3, -1) == pytest.approx(-0.4, abs=1e-15)
    with pytest.raises(OutOfDomain):
        P.del_direct_bound(3, 0)
    with pytest.raises(OutOfDomain):
        P.del_direct_bound(3, -5e307)
    # weaker sufficient condition: lies above the threshold curve
    for N in (2, 3, 4, 7):
        for a in np.linspace(-8, -1e-2, 41):
            assert P.del_direct_bound(N, float(a)) >= P.b_fs(N, float(a))


def test_classify_region_examples():
    assert P.classify_region(P.make_params(3, 0.5, 0.7)).variant is P.Region.CRITICAL_A
    assert P.classify_region(P.make_params(3, -1, -0.2)).variant is P.Region.SYMMETRY_RADIAL
    assert P.classify_region(P.make_params(3, -1, -0.8)).variant is P.Region.SYMMETRY_BREAKING
    assert P.classify_region(P.make_params(3, 0, 1)).variant is P.Region.HARDY_ENDPOINT
    assert P.classify_region(P.make_params(3, -1, -1)).variant is P.Region.BOUNDARY_BA
    assert P.classify_region(P.make_params(3, 0, 0)).variant is P.Region.SYMMETRY_RADIAL
    assert P.classify_region(P.make_params(3, 0.5, 1.5)).variant is P.Region.CRITICAL_A
    lab = P.classify_region(P.make_params(3, 1, 1.5))
    assert lab.variant is P.Region.DUAL_REGIME
    assert lab.dual is not None and lab.dual.a == 0.0 and lab.dual.b == 0.5
    # threshold boundary is closed on the radial side
    bstar = P.b_fs(3, -1)
    assert P.classify_region(P.make_params(3, -1, bstar)).variant is P.Region.SYMMETRY_RADIAL


def test_region_label_total():
    assert P.region_label(3, -1, -1.5).variant is P.Region.INVALID
    assert P.region_label(2, 3.5, 3.5).variant is P.Region.INVALID
    assert P.region_label(1, 0, 0.5).variant is P.Region.INVALID
    assert P.region_label(3, -1e154, -1e154).variant is P.Region.INVALID
    edge = 1.0 - 2.0 ** 52
    assert P.region_label(3, edge, edge).variant is P.Region.BOUNDARY_BA
    assert P.region_label(3, -1, -0.8).variant is P.Region.SYMMETRY_BREAKING


def test_classify_stable_away_from_boundaries():
    rng = np.random.default_rng(99)
    pts = []
    while len(pts) < 200:
        a = float(rng.uniform(-3, 2))
        s = float(rng.uniform(0.02, 0.98))
        q = P.region_label(3, a, a + s)
        # keep points at distance > 1e-6 from every region boundary
        d = min(
            abs(a - 0.5),
            abs(a),
            s,
            1 - s,
            abs((a + s) - P.b_fs(3, a)) if a < 0 else math.inf,
        )
        if d > 1e-6:
            pts.append((a, s, q.variant))
    for a, s, v in pts:
        for da in (-1e-13, 1e-13):
            for ds in (-1e-13, 1e-13):
                assert P.region_label(3, a + da, a + s + ds).variant is v


def test_dualize_params_examples():
    q = P.make_params(3, 0, 0)
    d = P.dualize_params(q)
    assert (d.N, d.a, d.b) == (3, 1.0, 1.0)
    q2 = P.make_params(3, -1, -0.5)
    d2 = P.dualize_params(q2)
    assert (d2.a, d2.b) == (2.0, 2.5)


def test_dualize_params_exact_involution_and_preservation():
    rng = np.random.default_rng(31)
    for _ in range(300):
        N = int(rng.integers(2, 9))
        a = float(rng.uniform(-3, 3))
        s = float(rng.uniform(0.01, 1))
        q = P.make_params(N, a, a + s)
        d = P.dualize_params(q)
        assert d.p == q.p                      # exact
        assert d.lam == -q.lam                 # exact sign flip
        # b-a survives the round trip through a2 to within one rounding
        assert abs((d.b - d.a) - (q.b - q.a)) <= 2e-16 * max(1.0, abs(d.a))
        back = P.dualize_params(d)
        assert back is q                       # exact involution
    q = P.make_params(3, 0.2, 0.6)
    assert P.dualize_params(P.dualize_params(q)) is q


# property tests: hypothesis draws the points (derandomized in conftest)

_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _admissible(draw):
    N = draw(st.integers(2, 12))
    a = draw(st.floats(-1e6, 1e6))
    s = draw(st.floats(0.0, 1.0))
    try:
        return P.make_params(N, a, a + s)
    except InadmissibleB:  # b = a for N = 2, or a + s rounded out of the band
        assume(False)


@given(_admissible())
def test_dualize_params_is_an_exact_involution(q):
    d = P.dualize_params(q)
    back = P.dualize_params(d)
    assert back is q
    assert d.p == q.p and d.lam == -q.lam


@given(st.integers(-3, 20), _FINITE,
       st.one_of(_FINITE, st.floats(-0.5, 1.5)), st.booleans())
def test_region_label_never_raises_on_finite_input(N, a, b_or_s, offset):
    # b drawn on its own, or as a + s around the admissible band
    b = a + b_or_s if offset else b_or_s
    assume(math.isfinite(b))
    assert isinstance(P.region_label(N, a, b).variant, P.Region)


@given(_admissible())
def test_autonomy_identity_holds_to_rounding(q):
    # tau = -bp + 2a and lam (p-2) - 2 agree up to the rounding of their
    # largest terms
    lhs = q.tau
    rhs = q.lam * (q.p - 2) - 2.0
    scale = q.p * (abs(q.a) + abs(q.b) + q.a_c) + 2.0 * abs(q.a) + q.N + 2.0
    assert abs(lhs - rhs) <= 8.0 * np.finfo(float).eps * scale
