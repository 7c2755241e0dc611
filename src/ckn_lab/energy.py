"""Weighted energy integrals, Hardy comparison, and decay diagnostics.

All r-space integrals are evaluated in the log-radius variable t = ln r,
where the weights turn into exponentials that cancel exactly against the
Emden-Fowler substitution w = r^lam u (the cancellation is the autonomy
identity tau = lam (p-2) - 2):

    integral |x|^{-2a}   |grad u|^2 dx = omega_N integral (w_t - lam w)^2 dt,
    integral |x|^{-bp}   |u|^p      dx = omega_N integral |w|^p dt,
    integral |x|^{-2a-2} u^2        dx = omega_N integral w^2 dt,

with omega_N = |S^{N-1}| = 2 pi^{N/2} / Gamma(N/2).  On solutions of the
Euler-Lagrange equation the first two coincide (multiply the equation by
u and integrate).  The Hardy comparison in w-coordinates follows from
expanding the square: integral w^2 <= integral (w_t - lam w)^2 / lam^2,
since the cross term integrates to zero for decaying w.

The t-space sums use the plain trapezoid rule: the integrands are
analytic in a strip around the real t-axis and decay on both tails (gated
at 1e-12), where the trapezoid rule converges geometrically in 1/dt and
Simpson's 2h sub-rule only at half that rate (Trefethen & Weideman, SIAM
Rev. 56 (2014)).  :func:`composite_simpson` stays public for
quadratures on windows that cut a profile short.

The dual check of :func:`verify_dual_energy` deliberately abandons the
shared w-representation (where the two sides are the same integral by
construction) and integrates both sides of |x|^{-bp} |u|^p in
r-coordinates, so the identity is re-derived rather than assumed.  The
r-space integrand and its Jacobian r are evaluated over numpy arrays in
the log domain, so neither r^{N-bp} nor e^{-lam t} has to fit in a float
on its own, and integrated by a pair of Gauss-Legendre rules that halve
a piece until they agree to 1e-12.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CriticalA,
    InvalidStep,
    NonpositiveValues,
    NotConverged,
    TailNotDecayed,
    WindowOutOfGrid,
)
from .profiles import (
    ExtremalForm,
    LogGridProfile,
    _lagrange4,
    _log_amplitude,
    _log_sech,
    dualize_profile,
    extremal_dt_value,
)
from .radial import first_derivative_4

__all__ = [
    "EnergyReport",
    "surface_measure",
    "composite_simpson",
    "energy_report",
    "verify_dual_energy",
    "hardy_check",
    "decay_fit",
    "tail_window",
]

TAIL_GATE = 1e-12
# grad_sq = lp holds exactly for the extremal, so their relative gap is a
# free a-posteriori check of both t-space sums; 1e-8 is the identity's
# stated tolerance.  Against the Beta-function closed forms (N = 2..6,
# b - a in [0.02, 0.95], |lam| in [0.05, 600], both signs) no lp that
# misses its closed form by more than 1e-8 passes this gate
IDENTITY_GATE = 1e-8


def surface_measure(N: int) -> float:
    """|S^{N-1}| = 2 pi^{N/2} / Gamma(N/2)."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


def composite_simpson(values: np.ndarray, dt: float) -> float:
    """Composite Simpson quadrature on a uniform grid, O(dt^4).

    Odd sample counts use pure Simpson; even counts close the last three
    intervals with the 3/8 rule (same order).
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 5:
        raise InvalidStep(f"need >= 5 samples, got {n}", n=n)
    if not (dt > 0):
        raise InvalidStep(f"dt must be positive, got {dt}", dt=dt)
    if n % 2 == 1:
        core, tail = v, 0.0
    else:
        core = v[: n - 3]
        tail = 3.0 * dt / 8.0 * (v[-4] + 3.0 * v[-3] + 3.0 * v[-2] + v[-1])
    acc = core[0] + core[-1] + 4.0 * np.sum(core[1:-1:2]) + 2.0 * np.sum(core[2:-2:2])
    return float(dt / 3.0 * acc + tail)


@dataclass(frozen=True, eq=False)
class EnergyReport:
    grad_sq: float
    lp: float
    hardy_lhs: float
    quotient: float
    omega_n: float


def tail_window(form: ExtremalForm, min_T: float = 40.0) -> float:
    """Half-width T of [-T, T] where w*(T) ~ A 2^beta e^{-|lam| T} is below
    TAIL_GATE: 28.5 is -ln(TAIL_GATE) = 27.6 plus a margin."""
    log_tail = _log_amplitude(form) + form.sech_power * math.log(2.0)
    return max(min_T, math.ceil((log_tail + 28.5) / abs(form.params.lam)))


def _check_tails(profile: LogGridProfile) -> None:
    w0, w1 = float(profile.values[0]), float(profile.values[-1])
    if abs(w0) > TAIL_GATE or abs(w1) > TAIL_GATE:
        raise TailNotDecayed(
            f"profile tails ({w0:.3e}, {w1:.3e}) exceed {TAIL_GATE:.0e}; "
            "extend the grid",
            left=w0, right=w1,
        )


def _trapezoid(v: np.ndarray, dt: float) -> float:
    return float(dt * (np.sum(v) - 0.5 * (v[0] + v[-1])))


def _w_integrals(profile: LogGridProfile):
    _check_tails(profile)
    w = profile.values
    lam = profile.params.lam
    p = profile.params.p
    if profile.form is not None:
        w_t = extremal_dt_value(profile.form, profile.t())
    else:
        w_t = first_derivative_4(w, profile.dt)
    # near p = 2 the amplitude is finite but its square or p-th power is not
    with np.errstate(over="ignore", invalid="ignore"):
        grad = _trapezoid((w_t - lam * w) ** 2, profile.dt)
        lp = _trapezoid(np.abs(w) ** p, profile.dt)
        hardy = _trapezoid(w * w, profile.dt)
    if not all(math.isfinite(x) for x in (grad, lp, hardy)):
        params = profile.params
        raise NotConverged("weighted integrals overflowed the float range",
                           N=params.N, a=params.a, b=params.b)
    return grad, lp, hardy


def energy_report(profile: LogGridProfile) -> EnergyReport:
    """All weighted integrals of a profile (tails must be below 1e-12)."""
    omega = surface_measure(profile.params.N)
    grad, lp, hardy = _w_integrals(profile)
    grad_sq = omega * grad
    lp_val = omega * lp
    quotient = grad_sq / lp_val ** (2.0 / profile.params.p) if lp_val > 0 else 0.0
    return EnergyReport(grad_sq=grad_sq, lp=lp_val, hardy_lhs=omega * hardy,
                        quotient=quotient, omega_n=omega)


def _check_identity(rep: EnergyReport, params) -> None:
    """Refuse a report of the extremal whose grad_sq and lp differ by more
    than IDENTITY_GATE relative: its t-space step is too coarse for
    gamma dt and beta = 2/(p-2), or its window too short for a small
    amplitude (TAIL_GATE is absolute)."""
    diff = abs(rep.grad_sq - rep.lp)
    if not diff <= IDENTITY_GATE * rep.lp:
        raise NotConverged(
            "grad_sq and lp miss the identity grad_sq = lp by more than "
            f"{IDENTITY_GATE:.0e} relative",
            N=params.N, a=params.a, b=params.b,
            # lp is 0 only where |w|^p underflowed; the gap is unbounded
            gap=diff / rep.lp if rep.lp > 0 else None, gate=IDENTITY_GATE)


# the r-space check integrates each piece of t = ln r with a 20- and a
# 40-node Gauss-Legendre rule, and halves a piece while the two differ by
# more than R_SPACE_RTOL relative, at most MAX_SPLITS times
R_SPACE_SEGMENT = 2.0
R_SPACE_RTOL = 1e-12
MAX_SPLITS = 24
# pieces per vectorised evaluation: a 4096-piece block holds 2 MiB of
# nodes, whatever the length of the grid
_BLOCK = 4096


@functools.cache
def _gauss_legendre(n: int):
    """Nodes and weights of the n-point rule on [-1, 1], built on first
    use: importing the package does not load numpy.polynomial."""
    return np.polynomial.legendre.leggauss(n)


def _r_space_integrand(profile: LogGridProfile):
    """t -> r^{N-bp} |u(r)|^p at r = e^t over an array, evaluated as
    exp((N-bp) t + p ln u) with ln u = -lam t + ln |w(t)|, so neither the
    weight nor e^{-lam t} has to fit in a float on its own.  A closed
    form supplies ln w*; other profiles are interpolated by the 4-point
    stencil of :func:`to_radial_u`."""
    p = profile.params
    expo = p.N - p.b * p.p
    form = profile.form
    if form is not None:
        log_amp = _log_amplitude(form)

        def log_w(t):
            return log_amp + form.sech_power * _log_sech(
                form.rate * (t - form.center))
    else:
        def log_w(t):
            pos = (t - profile.t0) / profile.dt
            return np.log(np.abs(_lagrange4(profile.values, pos)))

    def integrand(t):
        return np.exp(expo * t + p.p * (-p.lam * t + log_w(t)))
    return integrand


def _rule_pair(integrand, lo: np.ndarray, hi: np.ndarray, params):
    """The 20- and the 40-node value on each piece [lo, hi]; a piece where
    the integrand is not finite raises NotConverged with that ``segment``."""
    x20, w20 = _gauss_legendre(20)
    x40, w40 = _gauss_legendre(40)
    nodes = np.concatenate([x20, x40])
    coarse, fine = np.empty(lo.size), np.empty(lo.size)
    for s in range(0, lo.size, _BLOCK):
        a, b = lo[s:s + _BLOCK], hi[s:s + _BLOCK]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f = integrand(mid[:, None] + half[:, None] * nodes)
        bad = ~np.isfinite(f).all(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            raise NotConverged("r-space integrand left the float range",
                               N=params.N, a=params.a, b=params.b,
                               segment=(float(a[k]), float(b[k])))
        coarse[s:s + _BLOCK] = half * (f[:, :20] * w20).sum(axis=1)
        fine[s:s + _BLOCK] = half * (f[:, 20:] * w40).sum(axis=1)
    return coarse, fine


def _lp_r_space(profile: LogGridProfile) -> float:
    """integral |x|^{-bp} |u|^p dx by Gauss-Legendre quadrature in t = ln r.

    A closed form is integrated on 2-unit segments in t, so no rule faces
    the full exponential range at once.  A profile without a form is
    integrated cell by cell of its grid: its interpolant's slope jumps at
    every node, where the two rules' difference misjudges the error.  One
    vectorised pass applies the 20- and the 40-node rule to every piece;
    the pieces where they differ by more than R_SPACE_RTOL relative, and
    by more than the absolute floor 1e-16 (1 + |first-pass total|) that
    keeps far-tail pieces from chasing pure relative tolerance, are
    halved and integrated again.  The 40-node values are summed in grid
    order (deterministic).  Raises NotConverged, with the offending
    ``segment`` in its context, when the integrand leaves the float range
    or a piece still misses its tolerance after MAX_SPLITS halvings; the
    integrand's float overflow is typed by those checks, not warned
    about.
    """
    p = profile.params
    integrand = _r_space_integrand(profile)
    if profile.form is not None:
        edges = np.append(
            np.arange(profile.t0, profile.t_end, R_SPACE_SEGMENT),
            profile.t_end)
    else:
        edges = profile.t()
    lo, hi = edges[:-1], edges[1:]
    done_lo, done_val = [], []
    floor = None
    for splits in range(MAX_SPLITS + 1):
        coarse, fine = _rule_pair(integrand, lo, hi, p)
        if floor is None:
            floor = 1e-16 * (1.0 + abs(float(fine.sum())))
        ok = np.abs(fine - coarse) <= np.maximum(R_SPACE_RTOL * fine, floor)
        done_lo.append(lo[ok])
        done_val.append(fine[ok])
        if ok.all():
            break
        if splits == MAX_SPLITS:
            k = int(np.argmin(ok))
            raise NotConverged("r-space quadrature missed its tolerance on "
                               "a segment", N=p.N, a=p.a, b=p.b,
                               segment=(float(lo[k]), float(hi[k])))
        lo, hi = lo[~ok], hi[~ok]
        mid = 0.5 * (lo + hi)
        # the halves of each piece stay next to each other, in grid order
        lo = np.column_stack([lo, mid]).ravel()
        hi = np.column_stack([mid, hi]).ravel()
    vals = np.concatenate(done_val)[np.argsort(np.concatenate(done_lo))]
    return surface_measure(p.N) * sum(vals.tolist())


def verify_dual_energy(profile1: LogGridProfile):
    """Both sides of the dual energy identity by independent r-space
    quadrature: lp of the profile and of its dual.  The pair must agree
    (1e-6 relative at the default grids); returning both leaves the
    comparison to the caller."""
    profile2 = dualize_profile(profile1)
    return _lp_r_space(profile1), _lp_r_space(profile2)


def hardy_check(profile: LogGridProfile):
    """Hardy-type comparison data: (lhs, grad_sq + 1).

    lhs = integral |x|^{-2a-2} u^2 dx.  The additive 1 mirrors the
    inequality's right side without its constant.  The sharp w-space
    comparison lhs <= grad_sq / lam^2 holds for decaying profiles and is
    asserted in the test families.  Degenerates at a = a_c (lam = 0).
    """
    if profile.params.lam == 0.0:
        raise CriticalA("Hardy comparison degenerates at a = a_c",
                        a=profile.params.a)
    omega = surface_measure(profile.params.N)
    grad, _, hardy = _w_integrals(profile)
    return omega * hardy, omega * grad + 1.0


def decay_fit(profile: LogGridProfile, window) -> float:
    """Least-squares slope of ln u against ln r over a tail window.

    For the extremal the slope is -(N - 2a - 2) = -2 lam; the radial
    average of any solution obeys the weaker bound slope <= -lam.
    """
    t_lo, t_hi = float(window[0]), float(window[1])
    if not (t_lo < t_hi):
        raise WindowOutOfGrid(f"empty window {window}", window=(t_lo, t_hi))
    if t_lo < profile.t0 - 1e-12 or t_hi > profile.t_end + 1e-12:
        raise WindowOutOfGrid(
            f"window [{t_lo}, {t_hi}] outside grid [{profile.t0}, {profile.t_end}]",
            window=(t_lo, t_hi), grid=(profile.t0, profile.t_end),
        )
    t = profile.t()
    mask = (t >= t_lo) & (t <= t_hi)
    if int(mask.sum()) < 2:
        raise WindowOutOfGrid("window contains fewer than 2 grid nodes",
                              window=(t_lo, t_hi))
    w = profile.values[mask]
    if np.any(w <= 0):
        raise NonpositiveValues("u must be positive on the window",
                                min_w=float(w.min()))
    logu = -profile.params.lam * t[mask] + np.log(w)
    slope = np.polyfit(t[mask], logu, 1)[0]
    return float(slope)
