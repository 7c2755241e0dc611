"""Autonomous radial ODE: integration, shooting, and Liouville checks.

The Emden-Fowler reduction of the radial equation is

    w_tt = lam^2 w - w^{p-1},        t = ln r,  w = r^lam u,

a conservative system with first integral

    E = w_t^2 / 2 - lam^2 w^2 / 2 + w^p / p.

Phase portrait for lam != 0, p > 2: the origin is a saddle, the nonzero
equilibrium w_eq = lam^{2/(p-2)} is a center, and the homoclinic loop
E = 0 through the origin peaks at A = (p lam^2 / 2)^{1/(p-2)}.  Peak
values m in (w_eq, A) start orbits that oscillate (w_t turns positive
before w reaches 0); peak values m > A cross w = 0 in finite time.  That
dichotomy moves the bracket of the root search in :func:`shoot_homoclinic`,
which never consults the closed form, so shooting and sampling remain two
independent routes to the extremal.

For w < 0 the nonlinearity is extended oddly, w^{p-1} := |w|^{p-2} w,
which keeps the ODE defined for overshooting trajectories.

Liouville regimes: at the Hardy endpoint b = a+1 the substitution
z(t) = e^{(n' - 2) t} y(t) reduces the radial problem to

    z_tt + (n' - 2) z_t + z = 0,

whose characteristic roots mu satisfy mu+ mu- = 1 and mu+ + mu- = 2 - n';
either complex (oscillation) or both real negative (growth at -infinity),
so no positive bounded-near--infinity solution exists.  On the critical
line a = a_c the radial average y(t) = u_bar(e^t) of any nonnegative
bounded solution satisfies y_tt <= -y^{p-1} <= 0, hence is concave, and a
concave nonnegative bounded function on R with a strictly negative second
derivative somewhere must eventually cross zero (secant extension); the
checker certifies candidate counterexamples against exactly that
dichotomy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import (
    BlowUp,
    DegenerateParams,
    InvalidStep,
    NoConvergence,
    TooShort,
    WrongRegime,
)
from .params import CknParams
from .profiles import (
    LogGridProfile,
    check_grid_nodes,
    extremal_value,
    extremal_wtt_value,
)

__all__ = [
    "OdeRun",
    "LiouvilleCase",
    "Conclusion",
    "LiouvilleVerdict",
    "integrate",
    "shoot_homoclinic",
    "residual_autonomous",
    "second_derivative_4",
    "first_derivative_4",
    "spherical_average_monotone",
    "liouville_hardy_endpoint",
    "liouville_critical_a",
]

BLOWUP_LIMIT = 1e8


# ---------------------------------------------------------------------------
# fixed-step RK4 kernels

def _rk4_step(w, v, h, lam2, q):
    """One classical RK4 step of w_t = v, v_t = lam2 w - |w|^q w; returns
    the new (w, v).  The first stage's w-slope is v itself.
    :func:`_rk4_classify` repeats these operations inline; the two must
    stay the same, bit for bit."""
    k1v = lam2 * w - abs(w) ** q * w
    k2w = v + 0.5 * h * k1v
    w2 = w + 0.5 * h * v
    k2v = lam2 * w2 - abs(w2) ** q * w2
    k3w = v + 0.5 * h * k2v
    w3 = w + 0.5 * h * k2w
    k3v = lam2 * w3 - abs(w3) ** q * w3
    k4w = v + h * k3v
    w4 = w + h * k3w
    k4v = lam2 * w4 - abs(w4) ** q * w4
    return (w + h * (v + 2.0 * k2w + 2.0 * k3w + k4w) / 6.0,
            v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0)


def _rk4_classify(w0, v0, h, n_max, lam2, pm1):
    """Integrate until an event fires.

    Returns (event, t, w, v), with (w, v) the state at time t:
    event 1 = crossed w <= 0 (overshoot),
    event 2 = turned (w_t >= 0 while w > 0, after the first step),
    event 3 = blow-up (w past the limit, or |w|^q past the float range;
    the state is then the last one reached),
    event 0 = no event within n_max steps.

    This is the shooting search's hot loop, so it spells out
    :func:`_rk4_step`'s float operations in the same order, bit for bit
    (``0.5 * h`` is hoisted, which rounds the same).  The blow-up test
    reads w, not |w|: it runs only after w <= 0 has returned.
    """
    q = pm1 - 1.0
    hh = 0.5 * h
    w, v = w0, v0
    try:
        for i in range(n_max):
            k1v = lam2 * w - abs(w) ** q * w
            k2w = v + hh * k1v
            w2 = w + hh * v
            k2v = lam2 * w2 - abs(w2) ** q * w2
            k3w = v + hh * k2v
            w3 = w + hh * k2w
            k3v = lam2 * w3 - abs(w3) ** q * w3
            k4w = v + h * k3v
            w4 = w + h * k3w
            k4v = lam2 * w4 - abs(w4) ** q * w4
            w = w + h * (v + 2.0 * k2w + 2.0 * k3w + k4w) / 6.0
            v = v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
            if w <= 0.0:
                return 1, (i + 1) * h, w, v
            if v >= 0.0:
                return 2, (i + 1) * h, w, v
            if w > BLOWUP_LIMIT:
                return 3, (i + 1) * h, w, v
    except OverflowError:  # |w|^q left the float range inside step i
        return 3, (i + 1) * h, w, v
    return 0, n_max * h, w, v


def _rk4_store(w0, v0, h, n_steps, lam2, pm1, out_w, out_v):
    """Integrate n_steps and store every state; returns steps completed
    before |w| exceeded the blow-up limit or |w|^q the float range
    (n_steps if neither)."""
    q = pm1 - 1.0
    w, v = w0, v0
    out_w[0] = w
    out_v[0] = v
    try:
        for i in range(n_steps):
            w, v = _rk4_step(w, v, h, lam2, q)
            out_w[i + 1] = w
            out_v[i + 1] = v
            if abs(w) > BLOWUP_LIMIT:
                return i + 1
    except OverflowError:  # |w|^q left the float range inside step i
        return i
    return n_steps


# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OdeRun:
    """One integration: the sampled trajectory, its derivative, and the
    first integral E_i (constant along exact solutions)."""

    profile: LogGridProfile
    derivative: np.ndarray
    energy_first_integral: np.ndarray


def _first_integral(w, v, lam2, p):
    return 0.5 * v * v - 0.5 * lam2 * w * w + np.abs(w) ** p / p


def integrate(params: CknParams, w0: float, w0_t: float,
              t_span: Tuple[float, float], dt: float) -> OdeRun:
    """Classical fixed-step RK4 for w_tt = lam^2 w - w^{p-1}.

    Works forward (t1 > t0) or backward (t1 < t0); the stored grid is
    always ascending in t.  Raises BlowUp with the exit time when |w|
    passes 1e8 (the superlinear nonlinearity overflows quickly past that).
    """
    if params.p <= 2.0 or params.lam == 0.0:
        raise DegenerateParams("integration regime needs p > 2 and lam != 0",
                               p=params.p, lam=params.lam)
    ta, tb = float(t_span[0]), float(t_span[1])
    if not (dt > 0 and math.isfinite(dt)):
        raise InvalidStep(f"dt must be positive, got {dt}", dt=dt)
    if not math.isfinite(ta) or not math.isfinite(tb) or ta == tb:
        raise InvalidStep(f"degenerate t_span {t_span}", t_span=(ta, tb))
    n_steps = int(round(abs(tb - ta) / dt))
    if n_steps < 1:
        raise InvalidStep("t_span shorter than one step", t_span=(ta, tb), dt=dt)
    check_grid_nodes(n_steps + 1)
    h = (tb - ta) / n_steps
    if n_steps * dt == abs(tb - ta):  # a whole number of steps: keep dt
        h = math.copysign(dt, h)
    out_w = np.empty(n_steps + 1)
    out_v = np.empty(n_steps + 1)
    lam2 = params.lam * params.lam
    done = _rk4_store(float(w0), float(w0_t), h, n_steps, lam2, params.p - 1.0,
                      out_w, out_v)
    if done < n_steps:
        raise BlowUp("trajectory exceeded the blow-up limit",
                     exit_time=ta + (done) * h, limit=BLOWUP_LIMIT)
    if h < 0:  # flip so the stored grid ascends
        out_w = out_w[::-1].copy()
        out_v = out_v[::-1].copy()
        t0 = tb
    else:
        t0 = ta
    profile = LogGridProfile(t0=t0, dt=abs(h), values=out_w, params=params)
    energy = _first_integral(out_w, out_v, lam2, params.p)
    return OdeRun(profile=profile, derivative=out_v,
                  energy_first_integral=energy)


# h * rate of the shooting substep.  The README's error/time table has the
# amplitude error within 3.4e-9 at this value; it goes as its 4th power
_SHOOT_STEP_RATE = 0.025
_TAIL_PATCH_FRACTION = 1e-5


def _shoot_substeps(params: CknParams, dt: float, n_profile: float) -> int:
    """RK4 substeps per output step dt: the least whole number >= 2 that
    keeps h * rate <= _SHOOT_STEP_RATE, where rate = max(lam, gamma) and
    gamma = lam (p-2)/2 is the sech rate of the orbit.

    The fine grid n_profile * sub + 1 is counted in floats, so that an
    orbit too steep for the node budget raises ResolutionTooLarge here.
    """
    rate = max(params.lam, 0.5 * params.lam * (params.p - 2.0))
    sub = max(2.0, float(np.ceil(dt * rate / _SHOOT_STEP_RATE)))
    check_grid_nodes(n_profile * sub + 1.0)
    return int(sub)


def _itp_probe(lo: float, hi: float, g_lo: float, g_hi: float,
               delta: float, eps: float, left: int) -> float:
    """The next probe in (lo, hi) of an ITP root search (Oliveira &
    Takahashi, ACM TOMS 47 (2020)) on g with g_lo > 0 > g_hi: the secant
    root of g, moved toward the midpoint by ``delta``, then projected
    into the radius r = eps 2^left - (hi - lo)/2 of the midpoint, where
    ``left`` is the caller's n_max - j.  The projection keeps the count
    within n0 probes of bisection's to width 2 eps, for n_max the
    bisection count plus n0.  A probe that rounds onto an end takes the
    adjacent float inside the bracket instead, while that float is within
    r of the midpoint: a root within half an ulp of an end then closes
    the bracket in one probe.  Any other pair of values (a NaN included)
    gives the midpoint, as does an end whose adjacent float lies past r."""
    mid = 0.5 * (lo + hi)
    if not g_lo > 0.0 > g_hi:
        return mid
    width = hi - lo
    m_f = lo + width * (g_lo / (g_lo - g_hi))
    gap = mid - m_f
    m_t = m_f + math.copysign(delta, gap) if delta <= abs(gap) else mid
    r = max(0.0, eps * 2.0 ** left - 0.5 * width)
    m = m_t if abs(m_t - mid) <= r else mid - math.copysign(r, gap)
    if lo < m < hi:
        return m
    if m <= lo:
        m = math.nextafter(lo, hi)
    elif m >= hi:
        m = math.nextafter(hi, lo)
    return m if lo < m < hi and abs(m - mid) <= r else mid


def shoot_homoclinic(params: CknParams, t_max: float, tol: float,
                     dt: float = 0.01) -> LogGridProfile:
    """Recover the homoclinic orbit by a root search on the peak value.

    Starts from w(0) = m, w_t(0) = 0 and classifies trajectories by the
    phase-portrait events only: a zero crossing means m is above the
    homoclinic peak, a turning point (w_t >= 0 with w > 0) means below.
    The bracket [w_eq, 2 w_eq] always straddles the peak because
    A/w_eq = (p/2)^{1/(p-2)} lies in (1, e^{1/2}) and E(2 w_eq) > 0.
    Only the events move the bracket.  The lower end w_eq is the centre
    equilibrium, whose orbit never reaches w = 0, so it is not run: it
    counts as a turn at t = 0 with g = w_eq^2.  Each probe is an ITP step:
    the secant root of g = w^2 - w_t^2/lam^2 at the two ends' event steps,
    which is linear in m near the peak, kept close enough to the midpoint
    that the search takes at most one probe more than bisection; a secant
    root that rounds onto an end probes the adjacent float.  A point
    so near p = 2 that w_eq = lam^{2/(p-2)} leaves the float range raises
    DegenerateParams before any step.

    RK4 steps with h = dt/sub, sub = max(2, ceil(dt * rate / 0.025)) and
    rate = max(lam, lam (p-2)/2), the orbit's fastest rate: RK4's error
    goes as (h * rate)^4, so every orbit gets the same accuracy.  A window
    without one output step (t_max/dt rounds to 0) raises InvalidStep, and
    a fine grid past the node budget ResolutionTooLarge, before any step.

    The converged undershoot trajectory is sampled on [0, t_max] at ``dt``
    and its far tail (below 1e-5 of the peak, where the search's rounding
    error inevitably takes over) is continued with the exact asymptotic rate
    e^{-lam t}; the even extension to [-t_max, 0] is returned.  The seam
    is invisible at max-norm scale 1e-6*A but derivative-level diagnostics
    across it are approximate.
    """
    if params.p <= 2.0:
        raise DegenerateParams("shooting needs p > 2 (b < a+1)", p=params.p)
    if params.lam <= 0.0:
        raise DegenerateParams("shooting needs lam > 0 (a < a_c)", lam=params.lam)
    if not params.p * params.lam * params.lam / 2.0 > 0.0:
        # the same point extremal_form calls degenerate; the bracket
        # [w_eq, 2 w_eq] would not classify
        raise DegenerateParams(
            "p lam^2 / 2 underflows double precision as lam -> 0",
            a=params.a, b=params.b, p=params.p, lam=params.lam)
    if not (t_max > 0 and dt > 0 and 0 < tol < 1):
        raise InvalidStep("need t_max > 0, dt > 0, 0 < tol < 1",
                          t_max=t_max, dt=dt, tol=tol)
    # counted in floats, so that a count past the float range reaches the
    # node budget in _shoot_substeps instead of failing int()
    steps = float(np.rint(t_max / dt))
    if steps < 1:
        raise InvalidStep("t_max shorter than one output step",
                          t_max=t_max, dt=dt)
    sub = _shoot_substeps(params, dt, steps)
    n_profile = int(steps)
    h = dt / sub
    n_fine = n_profile * sub
    lam2 = params.lam * params.lam
    pm1 = params.p - 1.0
    # w_eq = lam^{2/(p-2)} in logs: as p -> 2 the power leaves the float
    # range long before p lam^2 / 2 does
    log_w_eq = 2.0 * math.log(params.lam) / (params.p - 2.0)
    if abs(log_w_eq) > 700.0:
        raise DegenerateParams(
            "shooting bracket [w_eq, 2 w_eq] leaves double precision as p -> 2",
            a=params.a, b=params.b, p=params.p, lam=params.lam,
            log_w_eq=log_w_eq)
    w_eq = math.exp(log_w_eq)

    def probe(m):
        # event class, event time and g = w^2 - w_t^2/lam^2 at the event
        # step.  Near the saddle w = a e^{-lam t} + b e^{lam t} gives
        # g = 4ab: linear in m across the peak, positive on a turn and
        # negative on a crossing, where the event time is log-singular
        ev, t_ev, w, v = _rk4_classify(m, 0.0, h, n_fine, lam2, pm1)
        return ev, t_ev, w * w - v * v / lam2

    # the centre w_eq is a turn at t = 0 (w_t = 0, g = w_eq^2) without a
    # run; run from it, the orbit only drifts on rounding noise
    lo, hi = w_eq, 2.0 * w_eq
    t_lo, g_lo = 0.0, w_eq * w_eq
    ev_hi, _, g_hi = probe(hi)
    if ev_hi != 1:
        raise NoConvergence(
            "bracket endpoints do not classify as oscillation/crossing",
            lo=lo, hi=hi, event_hi=int(ev_hi),
        )
    # search all the way to rounding so the undershoot trajectory tracks
    # the homoclinic until deep below the tail-patch trigger; the caller's
    # tol only states the guarantee on the returned amplitude.  The event
    # alone moves the bracket; g only picks the probe, by ITP
    # (:func:`_itp_probe`, n0 = 1).  delta goes as width^1.5: with the
    # usual width^2 it fell below the rounding of g while one end of the
    # bracket stalled, and the mean over the shoot workload's band rose
    # from 17 to 20 probes
    eps = 2e-16 * w_eq
    n_max = 53  # ceil(log2(w_eq / (2 eps))) + n0
    for j in range(200):
        width = hi - lo
        if width <= 4e-16 * lo:
            break
        m = _itp_probe(lo, hi, g_lo, g_hi,
                       0.2 * w_eq * (width / w_eq) ** 1.5, eps, n_max - j)
        ev, t_ev, g = probe(m)
        if ev == 1:
            hi, g_hi = m, g
        elif ev in (0, 2):
            lo, t_lo, g_lo = m, t_ev, g
        else:
            raise NoConvergence("trajectory blew up inside the bracket",
                                lo=lo, hi=hi, m=m)
    else:
        raise NoConvergence("search iteration cap reached", lo=lo, hi=hi)

    # final run on the undershoot side stays positive until the patch
    # region.  It turned at fine step k_turn (or ran to the end); past the
    # turn its samples rise and the patch overwrites them, so it is stored
    # only up to two output samples past the turn
    n_half = n_profile + 1
    k_turn = round(t_lo / h)
    n_kept = min(n_profile, math.ceil(k_turn / sub) + 1)
    run = integrate(params, lo, 0.0, (0.0, n_kept * sub * h), h)
    w_half = np.empty(n_half)
    w_half[:n_kept + 1] = run.profile.values[::sub]
    t_half = dt * np.arange(n_half)

    # patch the far tail with the exact rate from the first node where the
    # samples either drop below the trigger or stop decreasing, and at the
    # latest from the last stored node
    cut = n_kept if n_kept < n_profile else n_half
    kept = w_half[:n_kept + 1]
    below = np.nonzero(kept <= _TAIL_PATCH_FRACTION * lo)[0]
    if below.size:
        cut = min(cut, int(below[0]))
    rising = np.nonzero(np.diff(kept) >= 0.0)[0]
    if rising.size:
        cut = min(cut, int(rising[0]) + 1)
    if 1 <= cut < n_half:
        w_half[cut:] = w_half[cut] * np.exp(-params.lam * (t_half[cut:] - t_half[cut]))
    w_full = np.concatenate([w_half[:0:-1], w_half])
    return LogGridProfile(t0=-dt * (n_half - 1), dt=dt, values=w_full,
                          params=params, is_solution=True)


def second_derivative_4(values: np.ndarray, dt: float) -> np.ndarray:
    """4th-order second differences on the interior (edges one-sided)."""
    w = np.asarray(values, dtype=float)
    n = w.size
    if n < 7:
        raise TooShort(f"need >= 7 samples for the 4th-order stencil, got {n}")
    d2 = np.empty(n)
    c = 1.0 / (12.0 * dt * dt)
    d2[2:-2] = c * (-w[:-4] + 16 * w[1:-3] - 30 * w[2:-2] + 16 * w[3:-1] - w[4:])
    fwd = np.array([45, -154, 214, -156, 61, -10], dtype=float) / 12.0
    for i in (0, 1):
        d2[i] = np.dot(fwd, w[i:i + 6]) / (dt * dt)
        d2[n - 1 - i] = np.dot(fwd, w[n - 1 - i - 5:n - i][::-1]) / (dt * dt)
    return d2


def first_derivative_4(values: np.ndarray, dt: float) -> np.ndarray:
    """4th-order first differences on the interior (edges one-sided)."""
    w = np.asarray(values, dtype=float)
    n = w.size
    if n < 7:
        raise TooShort(f"need >= 7 samples for the 4th-order stencil, got {n}")
    d1 = np.empty(n)
    c = 1.0 / (12.0 * dt)
    d1[2:-2] = c * (w[:-4] - 8 * w[1:-3] + 8 * w[3:-1] - w[4:])
    fwd = np.array([-25, 48, -36, 16, -3], dtype=float) / 12.0
    for i in (0, 1):
        d1[i] = np.dot(fwd, w[i:i + 5]) / dt
        d1[n - 1 - i] = -np.dot(fwd, w[n - 1 - i - 4:n - i][::-1]) / dt
    return d1


def residual_autonomous(profile: LogGridProfile) -> float:
    """Max-norm residual of w_tt = lam^2 w - w^{p-1} over interior nodes.

    Profiles built from a closed form use the analytic second derivative
    (resolution-independent); others use 4th-order central differences.
    """
    if profile.n < 5:
        raise TooShort(f"need >= 5 samples, got {profile.n}", n=profile.n)
    w = profile.values
    lam2 = profile.params.lam ** 2
    p = profile.params.p
    nonlin = np.abs(w) ** (p - 2.0) * w
    if profile.form is not None:
        wtt = extremal_wtt_value(profile.form, profile.t())
        res = wtt - lam2 * w + nonlin
        return float(np.max(np.abs(res)))
    wtt = second_derivative_4(w, profile.dt)
    res = wtt - lam2 * w + nonlin
    return float(np.max(np.abs(res[2:-2])))


def spherical_average_monotone(profile: LogGridProfile) -> bool:
    """Monotonicity certificate for the radial average u_bar.

    Reconstructs u on the grid (u_bar = u for radial profiles) and checks
    (i) u is monotone, decreasing when n' >= 2 and increasing when n' < 2,
    and (ii) the flux g = r^{n'-1} u_bar' = e^{lam t} (w_t - lam w) is
    non-increasing, the intermediate fact behind the monotonicity.  Both
    checks use tolerance 1e-8 times the quantity's scale.  The flux
    comparison runs where w is at least 1e-3 of its peak: further out the
    finite difference, amplified by e^{lam t}, measures how the tail of
    the grid was constructed (shooting floor, asymptotic continuation)
    rather than the solution.
    """
    w = profile.values
    if float(np.max(np.abs(w))) == 0.0:
        return True
    t = profile.t()
    lam = profile.params.lam
    logu_scale = -lam * t
    u = np.exp(logu_scale) * w
    if not np.all(np.isfinite(u)):
        return False
    tol_u = 1e-8 * float(np.max(np.abs(u)))
    du = np.diff(u)
    if profile.params.n_prime >= 2.0:
        mono = bool(np.all(du <= tol_u))
    else:
        mono = bool(np.all(du >= -tol_u))
    w_t = first_derivative_4(w, profile.dt)
    g = np.exp(lam * t) * (w_t - lam * w)
    floor = 1e-3 * float(np.max(np.abs(w)))
    bulk = np.abs(w) >= floor
    pair = bulk[:-1] & bulk[1:]
    tol_g = 1e-8 * float(np.max(np.abs(g[bulk])))
    flux_ok = bool(np.all(np.diff(g)[pair] <= tol_g))
    return mono and flux_ok


class LiouvilleCase(str, Enum):
    CRITICAL_A = "CriticalA"
    HARDY_ENDPOINT = "HardyEndpoint"


class Conclusion(str, Enum):
    ONLY_ZERO = "OnlyZero"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True, eq=False)
class LiouvilleVerdict:
    case: LiouvilleCase
    conclusion: Conclusion
    roots: Optional[Tuple[complex, complex]] = None
    witness: Optional[LogGridProfile] = None


def liouville_hardy_endpoint(params: CknParams) -> LiouvilleVerdict:
    """Nonexistence certificate at the Hardy endpoint b = a+1, a < a_c.

    The roots of mu^2 + (n'-2) mu + 1 = 0 are either complex (every real
    solution oscillates, so none stays positive) or both real negative
    (every nonzero solution is unbounded as t -> -infinity); both branches
    exclude positive solutions bounded near -infinity, so the conclusion
    is OnlyZero with the roots as the certificate.
    """
    if abs(params.b - (params.a + 1.0)) > 1e-12 * max(1.0, abs(params.a)):
        raise WrongRegime("requires the endpoint b = a+1",
                          a=params.a, b=params.b)
    if params.a >= params.a_c:
        raise WrongRegime("requires a < a_c", a=params.a, a_c=params.a_c)
    c1 = params.n_prime - 2.0
    disc = c1 * c1 - 4.0
    sq = cmath.sqrt(complex(disc, 0.0))
    r1 = (-c1 + sq) / 2.0
    r2 = (-c1 - sq) / 2.0
    return LiouvilleVerdict(case=LiouvilleCase.HARDY_ENDPOINT,
                            conclusion=Conclusion.ONLY_ZERO,
                            roots=(r1, r2))


def _witness_profile(t0: float, dt: float, values: np.ndarray,
                     params: CknParams) -> LogGridProfile:
    v = np.asarray(values, dtype=float)
    if v.size < 16:  # profiles need 16 samples; pad with zeros on the right
        v = np.concatenate([v, np.zeros(16 - v.size)])
    return LogGridProfile(t0=t0, dt=dt, values=v, params=params)


def liouville_critical_a(params: CknParams,
                         probe: LogGridProfile) -> LiouvilleVerdict:
    """Certificate checker on the critical line a = a_c.

    The probe is a claimed nonnegative bounded radial average in
    y(t) = u_bar(e^t) coordinates.  The checker is a falsifier, not a
    prover: a probe that is zero (below tol = 1e-12 * scale) confirms
    OnlyZero; any other probe is rejected with a witness showing either
    (i) a node violating the required differential inequality
    y_tt <= -y^{p-1} (witness values are the inequality residual
    y_tt + y^{p-1}; the violation node is its positive maximum), or
    (ii) a secant extension from the concave arc that forces y below zero
    at finite t, contradicting nonnegativity (witness values are the
    extension's upper bound until it crosses zero).
    """
    if params.a != params.a_c:
        raise WrongRegime("requires a = a_c", a=params.a, a_c=params.a_c)
    y = probe.values
    scale = float(np.max(np.abs(y)))
    if scale <= 1e-12:
        return LiouvilleVerdict(case=LiouvilleCase.CRITICAL_A,
                                conclusion=Conclusion.ONLY_ZERO)
    p = params.p
    ytt = second_derivative_4(y, probe.dt)
    resid = ytt + np.abs(y) ** (p - 2.0) * y
    interior = slice(2, probe.n - 2)
    tol = 1e-8 * max(scale, float(np.max(np.abs(ytt))))
    res_int = resid[interior]
    if np.any(res_int > tol):
        # the probe does not satisfy y_tt <= -y^{p-1}: not a valid candidate
        full = np.zeros_like(resid)
        full[interior] = res_int
        witness = _witness_profile(probe.t0, probe.dt, full, params)
        return LiouvilleVerdict(case=LiouvilleCase.CRITICAL_A,
                                conclusion=Conclusion.INCONCLUSIVE,
                                witness=witness)
    # valid concave candidate, positive somewhere: the secant through the
    # decreasing side extends below zero in finite time
    i_pk = int(np.argmax(y))
    i1 = min(i_pk + max(2, probe.n // 16), probe.n - 1)
    y0, y1 = float(y[i_pk]), float(y[i1])
    t_pk = probe.t0 + i_pk * probe.dt
    t1 = probe.t0 + i1 * probe.dt
    slope = (y1 - y0) / (t1 - t_pk) if i1 > i_pk else 0.0
    if slope >= 0.0:
        # flat or rising right arm: concavity with y_tt <= -y^{p-1} < 0 at
        # the peak still forces a crossing; bound by the peak parabola
        ypp = -float(np.abs(y0)) ** (p - 1.0)
        t_cross = t_pk + math.sqrt(-2.0 * y0 / ypp)
        n_w = 64
        tw = np.linspace(t_pk, t_cross + (t_cross - t_pk) / 8, n_w)
        upper = y0 + 0.5 * ypp * (tw - t_pk) ** 2
    else:
        t_cross = t1 - y1 / slope
        n_w = 64
        tw = np.linspace(t1, t_cross + (t_cross - t1) / 8, n_w)
        upper = y1 + slope * (tw - t1)
    witness = _witness_profile(float(tw[0]), float(tw[1] - tw[0]), upper, params)
    return LiouvilleVerdict(case=LiouvilleCase.CRITICAL_A,
                            conclusion=Conclusion.INCONCLUSIVE,
                            witness=witness)
