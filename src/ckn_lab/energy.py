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

The dual check of :func:`verify_dual_energy` deliberately abandons the
shared w-representation (where the two sides are the same integral by
construction) and integrates both sides in r-coordinates with adaptive
Gauss-Kronrod quadrature, so the identity is re-derived rather than
assumed.
"""

from __future__ import annotations

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
    dualize_profile,
    extremal_dt_value,
    extremal_radial_value,
    to_radial_u,
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
    log_tail = math.log(form.amplitude) + form.sech_power * math.log(2.0)
    return max(min_T, math.ceil((log_tail + 28.5) / abs(form.params.lam)))


def _check_tails(profile: LogGridProfile) -> None:
    w0, w1 = float(profile.values[0]), float(profile.values[-1])
    if abs(w0) > TAIL_GATE or abs(w1) > TAIL_GATE:
        raise TailNotDecayed(
            f"profile tails ({w0:.3e}, {w1:.3e}) exceed {TAIL_GATE:.0e}; "
            "extend the grid",
            left=w0, right=w1,
        )


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
        grad = composite_simpson((w_t - lam * w) ** 2, profile.dt)
        lp = composite_simpson(np.abs(w) ** p, profile.dt)
        hardy = composite_simpson(w * w, profile.dt)
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


def _radial_value(profile: LogGridProfile, r: float) -> float:
    if profile.form is not None:
        return float(extremal_radial_value(profile.form, r))
    return to_radial_u(profile, r)


def _lp_r_space(profile: LogGridProfile) -> float:
    """integral |x|^{-bp} |u|^p dx by adaptive quadrature in r.

    The radial line is split into fixed log-width segments so the
    Gauss-Kronrod rule never faces the full exponential range at once;
    the segment sum is accumulated in grid order (deterministic).  Raises
    NotConverged when the weight r^{N-1-bp} overflows a float on the grid
    (large -bp, e.g. N = 2, a = -2.55, b = -2.35), and when a segment
    misses its tolerance or is not finite (large lam, where e^{-lam t}
    overflows on the left tail, e.g. N = 3, a = -40, b = -39.5); the
    integrand's float overflow is typed by those checks, not warned about.
    """
    # imported on first use: commands that never integrate in r start
    # without scipy
    from scipy.integrate import quad

    p = profile.params
    expo = p.N - 1.0 - p.b * p.p

    def integrand(r: float) -> float:
        return r ** expo * abs(_radial_value(profile, r)) ** p.p

    total = 0.0
    t_edges = np.arange(profile.t0, profile.t_end, 2.0)
    t_edges = np.append(t_edges, profile.t_end)
    for ta, tb in zip(t_edges[:-1], t_edges[1:]):
        # the absolute floor keeps far-tail segments (integrals below
        # rounding relative to the running total) from chasing pure
        # relative tolerance; the sweep order is fixed, so deterministic
        floor = 1e-16 * (1.0 + abs(total))
        segment = (float(ta), float(tb))
        try:
            # full_output returns quad's warning message instead of
            # printing it
            with np.errstate(over="ignore", invalid="ignore"):
                val, _, _, *failure = quad(
                    integrand, math.exp(ta), math.exp(tb),
                    epsabs=floor, epsrel=1e-10, limit=200, full_output=1)
        except OverflowError as exc:
            raise NotConverged("r-space integrand overflowed the float range",
                               N=p.N, a=p.a, b=p.b, segment=segment) from exc
        if failure or not math.isfinite(val):
            reason = " ".join(failure[0].split()) if failure else "not finite"
            raise NotConverged("r-space quadrature failed on a segment",
                               N=p.N, a=p.a, b=p.b, segment=segment,
                               reason=reason)
        total += val
    return surface_measure(p.N) * total


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
