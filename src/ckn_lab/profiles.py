"""Radial profiles in Emden-Fowler coordinates and the dual map.

With t = ln r and w(t) = r^lam u(r), the radial equation becomes the
autonomous ODE w_tt = lam^2 w - w^{p-1}.  Its homoclinic orbit is the
closed-form family

    w*(t) = A sech^beta(gamma (t - t_c)),
    A = (p lam^2 / 2)^{1/(p-2)},  beta = 2/(p-2),  gamma = lam (p-2)/2,

with beta*gamma = lam, so the w-tails decay like e^{-lam |t|} and
u*(r) ~ r^{-2 lam} at infinity.  In r-coordinates

    u*(r) = A 2^beta (1 + r^{(p-2) lam})^{-2/(p-2)},

which at (N, a, b) = (3, 0, 0) is the classical 3^{1/4} (1 + r^2)^{-1/2}.

The scaling family u_R(x) = R^{lam} u(Rx) acts on w as the translation
t -> t - ln R.  The dual map a -> 2 a_c - a at fixed b - a leaves the
w-profile invariant (lam flips sign, and u_2 = |x|^{a_2 - a_1} u_1
composes with the transform to the identity on w); dualize_profile
re-derives this identity in r-coordinates at probe radii instead of
assuming it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    DegenerateParams,
    DualCheckFailed,
    InvalidStep,
    NonpositiveScale,
    OutOfGrid,
    ResolutionTooLarge,
)
from .params import CknParams, dualize_params

__all__ = [
    "LogGridProfile",
    "ExtremalForm",
    "extremal_form",
    "extremal_value",
    "extremal_dt_value",
    "extremal_wtt_value",
    "extremal_radial_value",
    "sample_extremal",
    "sample_radial_form",
    "scale_profile",
    "dualize_profile",
    "to_radial_u",
    "write_profile_csv",
    "read_profile_csv",
]

MIN_PROFILE_LEN = 16
# every T/dt grid (sampled profiles, RK4 trajectories) stays below 2^22
# nodes, 32 MiB per float64 array: about 55x the largest grid that the
# tests build (76,001 trajectory nodes)
MAX_GRID_NODES = 2 ** 22


@dataclass(frozen=True, eq=False)
class ExtremalForm:
    """Closed-form constants of the radial extremal in w-coordinates.

    w*(t) = amplitude * sech^sech_power(rate * (t - center)); the center
    encodes the scaling parameter R through center = -ln R.
    """

    amplitude: float
    sech_power: float
    rate: float
    center: float
    params: CknParams


@dataclass(frozen=True, eq=False)
class LogGridProfile:
    """Samples w(t_i) on the uniform log-radius grid t_i = t0 + i*dt.

    ``form`` is set when the samples come from a closed-form extremal,
    enabling analytic-derivative evaluation downstream.  ``is_solution``
    tags profiles claimed to solve the equation (must be nonnegative).
    """

    t0: float
    dt: float
    values: np.ndarray
    params: CknParams
    form: Optional[ExtremalForm] = None
    is_solution: bool = False

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim != 1 or v.size < MIN_PROFILE_LEN:
            raise InvalidStep(
                f"profile needs >= {MIN_PROFILE_LEN} samples, got {v.size}",
                n=int(v.size),
            )
        if not np.all(np.isfinite(v)):
            raise InvalidStep("profile values must be finite")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise InvalidStep(f"dt must be positive, got {self.dt}", dt=self.dt)
        if self.is_solution and v.min() < 0:
            raise InvalidStep(
                "solution-tagged profiles must be nonnegative",
                min_value=float(v.min()),
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def t_end(self) -> float:
        return self.t0 + (self.n - 1) * self.dt

    def t(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)


def extremal_form(params: CknParams) -> ExtremalForm:
    """Closed-form extremal constants at a parameter point.

    Requires lam != 0 and p > 2; at lam = 0 or p = 2 no homoclinic exists
    (those are the Liouville regimes).  Near p = 2 the amplitude
    (p lam^2/2)^{1/(p-2)} can exceed double range when lam > 1; that is a
    genuine divergence of the family and is reported as degenerate.  So is
    a lam so close to 0 (|lam| below about 1e-162) that p lam^2/2
    underflows to 0 and has no logarithm.
    """
    lam, p = params.lam, params.p
    if lam == 0.0:
        raise DegenerateParams("lam = 0: no homoclinic (critical weight line)",
                               a=params.a, b=params.b)
    if p <= 2.0:
        raise DegenerateParams("p <= 2: no homoclinic (Hardy endpoint)",
                               a=params.a, b=params.b, p=p)
    amp_pow = p * lam * lam / 2.0  # A^{p-2}
    if not amp_pow > 0.0:
        raise DegenerateParams(
            "p lam^2 / 2 underflows double precision as lam -> 0",
            a=params.a, b=params.b, p=p, lam=lam)
    log_amp = math.log(amp_pow) / (p - 2.0)
    if log_amp > 700.0:
        raise DegenerateParams(
            "extremal amplitude exceeds double precision as p -> 2",
            p=p, lam=lam, log_amplitude=log_amp,
        )
    amplitude = math.exp(log_amp)
    beta = 2.0 / (p - 2.0)
    gamma = lam * (p - 2.0) / 2.0
    return ExtremalForm(amplitude=amplitude, sech_power=beta, rate=gamma,
                        center=0.0, params=params)


def _log_amplitude(form: ExtremalForm) -> float:
    """ln A of a closed form, refused as degenerate where A underflowed to
    0: near p = 2 with p lam^2/2 < 1, ln A falls below about -745."""
    if not form.amplitude > 0.0:
        p = form.params
        raise DegenerateParams(
            "extremal amplitude underflows double precision as p -> 2",
            a=p.a, b=p.b, p=p.p, lam=p.lam)
    return math.log(form.amplitude)


def _log_sech(x: np.ndarray) -> np.ndarray:
    # ln sech(x) = ln 2 - |x| - ln(1 + e^{-2|x|}), exact 0 at x = 0
    ax = np.abs(x)
    return math.log(2.0) - ax - np.log1p(np.exp(-2.0 * ax))


def extremal_value(form: ExtremalForm, t) -> np.ndarray:
    """Pointwise w*(t); stable for arguments far into the tails."""
    x = form.rate * (np.asarray(t, dtype=float) - form.center)
    return form.amplitude * np.exp(form.sech_power * _log_sech(x))


def extremal_dt_value(form: ExtremalForm, t) -> np.ndarray:
    """Analytic first derivative d w*/dt."""
    x = form.rate * (np.asarray(t, dtype=float) - form.center)
    return -form.sech_power * form.rate * np.tanh(x) * extremal_value(form, t)


def extremal_wtt_value(form: ExtremalForm, t) -> np.ndarray:
    """Analytic second derivative d^2 w*/dt^2.

    w_tt / w = gamma^2 (beta^2 tanh^2 - beta sech^2) evaluated at
    gamma (t - t_c).
    """
    beta, gam = form.sech_power, form.rate
    x = gam * (np.asarray(t, dtype=float) - form.center)
    th = np.tanh(x)
    sech2 = np.exp(2.0 * _log_sech(x))
    return gam * gam * (beta * beta * th * th - beta * sech2) * extremal_value(form, t)


def extremal_radial_value(form: ExtremalForm, r) -> np.ndarray:
    """u*(r) = r^{-lam} w*(ln r), evaluated analytically (no grid)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise OutOfGrid("radial evaluation needs r > 0")
    t = np.log(r)
    return np.exp(-form.params.lam * t) * extremal_value(form, t)


def check_grid_nodes(n) -> None:
    """Raise ResolutionTooLarge when a T/dt grid would hold more than
    MAX_GRID_NODES nodes.

    ``n`` may be a whole-valued float, counted before it becomes an int so
    that no count overflows first; the error reports it as an int, or as
    'inf'/'nan' past the float range.
    """
    if not n <= MAX_GRID_NODES:
        if isinstance(n, float):
            n = int(n) if math.isfinite(n) else str(n)
        raise ResolutionTooLarge(
            f"grid limited to {MAX_GRID_NODES} nodes, got {n}",
            n=n, limit=MAX_GRID_NODES)


def window_nodes(T: float, dt: float) -> int:
    """Node count of the grid on [-T, T] at step dt, checked by
    check_grid_nodes; a quotient 2T/dt past the float range counts as
    infinitely many nodes.

    The 1 is added to the int, so that a count past 2^53 is reported to
    the node.
    """
    q = 2.0 * T / dt
    n = int(round(q)) + 1 if math.isfinite(q) else math.inf
    check_grid_nodes(n)
    return n


def _sample_grid(t0: float, dt: float, n: int) -> np.ndarray:
    if n < MIN_PROFILE_LEN:
        raise InvalidStep(f"need n >= {MIN_PROFILE_LEN}, got {n}", n=n)
    if not (dt > 0):
        raise InvalidStep(f"dt must be positive, got {dt}", dt=dt)
    check_grid_nodes(n)
    return t0 + dt * np.arange(n)


def sample_extremal(form: ExtremalForm, t0: float, dt: float, n: int) -> LogGridProfile:
    """Pointwise evaluation of w* on a uniform grid; exact, no quadrature."""
    t = _sample_grid(t0, dt, n)
    return LogGridProfile(t0=t0, dt=dt, values=extremal_value(form, t),
                          params=form.params, form=form, is_solution=True)


def sample_radial_form(params: CknParams, inner_exponent: float,
                       t0: float, dt: float, n: int) -> LogGridProfile:
    """Profile of u(r) = C (1 + r^e)^{-2/(p-2)} with C = A 2^beta.

    The inner exponent e = (p-2) lam reproduces the extremal exactly;
    other choices (notably e = (p-1) lam) serve as control variants whose
    autonomous-ODE residual does not vanish.  No form is attached, so
    residual evaluation falls back to finite differences.
    """
    q = extremal_form(params)  # validates the regime, supplies A and beta
    t = _sample_grid(t0, dt, n)
    beta = q.sech_power
    log_c = _log_amplitude(q) + beta * math.log(2.0)
    x = inner_exponent * t
    softplus = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    # ln w = lam t + ln C - beta ln(1 + e^{x})
    logw = params.lam * t + log_c - beta * softplus
    return LogGridProfile(t0=t0, dt=dt, values=np.exp(logw), params=params)


def scale_profile(profile: LogGridProfile, R: float) -> LogGridProfile:
    """Apply u_R(x) = R^{lam} u(Rx): a pure translation t -> t - ln R."""
    if not (R > 0 and math.isfinite(R)):
        raise NonpositiveScale(f"scale must be positive, got {R}", R=R)
    shift = math.log(R)
    form = profile.form
    if form is not None:
        form = replace(form, center=form.center - shift)
    return LogGridProfile(t0=profile.t0 - shift, dt=profile.dt,
                          values=profile.values, params=profile.params,
                          form=form, is_solution=profile.is_solution)


_DUAL_PROBE_FRACTIONS = (0.2, 0.35, 0.5, 0.65, 0.8)


def dualize_profile(profile: LogGridProfile) -> LogGridProfile:
    """Dual profile: identical w-samples attached to the dual parameters.

    The invariance is not assumed: the routine reconstructs u_1 and u_2 in
    r-coordinates at probe radii and verifies |x|^{-a_1} u_1 = |x|^{-a_2} u_2
    to 1e-12 relative before returning.
    """
    p1 = profile.params
    p2 = dualize_params(p1)
    form = profile.form
    if form is not None:
        form = ExtremalForm(amplitude=form.amplitude, sech_power=form.sech_power,
                            rate=-form.rate, center=form.center, params=p2)
    dual = LogGridProfile(t0=profile.t0, dt=profile.dt, values=profile.values,
                          params=p2, form=form, is_solution=profile.is_solution)
    n = profile.n
    for f in _DUAL_PROBE_FRACTIONS:
        i = int(round(f * (n - 1)))
        t = profile.t0 + i * profile.dt
        w = float(profile.values[i])
        lhs = math.exp(-(p1.a + p1.lam) * t) * w   # r^{-a1} u1 at r = e^t
        rhs = math.exp(-(p2.a + p2.lam) * t) * w   # r^{-a2} u2 at r = e^t
        if abs(lhs - rhs) > 1e-12 * max(abs(lhs), abs(rhs), 1e-300):
            raise DualCheckFailed(
                "r-space identity |x|^{-a1} u1 = |x|^{-a2} u2 failed",
                t=t, lhs=lhs, rhs=rhs,
            )
    return dual


def to_radial_u(profile: LogGridProfile, r: float) -> float:
    """u(r) = r^{-lam} w(ln r) with cubic interpolation between nodes.

    Uses the 4-point Lagrange stencil around ln r (shifted one-sided at
    the grid edges), so the interpolation error is O(dt^4).  Node hits are
    returned exactly.
    """
    if not (r > 0 and math.isfinite(r)):
        raise OutOfGrid(f"need r > 0 inside the grid, got {r}", r=r)
    t = math.log(r)
    t0, dt, n = profile.t0, profile.dt, profile.n
    pos = (t - t0) / dt
    if pos < -1e-9 or pos > (n - 1) + 1e-9:
        raise OutOfGrid(f"ln r = {t} outside grid [{t0}, {profile.t_end}]",
                        t=t, t0=t0, t_end=profile.t_end)
    i_near = int(round(pos))
    if 0 <= i_near < n and abs(pos - i_near) <= 1e-12 * max(1.0, abs(pos)):
        w = float(profile.values[i_near])
        return math.exp(-profile.params.lam * t) * w
    w = float(_lagrange4(profile.values, pos))
    return math.exp(-profile.params.lam * t) * w


def _lagrange4(values: np.ndarray, pos):
    """Samples interpolated at the fractional node index ``pos`` (a float
    or an array) by the 4-point Lagrange stencil around it, shifted
    one-sided at the grid edges: O(dt^4) between nodes, exact at them."""
    lo = np.minimum(np.maximum(np.floor(pos).astype(int) - 1, 0),
                    values.size - 4)
    s = pos - lo  # in units of dt, relative to the stencil start
    w = 0.0
    for k in range(4):
        lk = 1.0
        for m in range(4):
            if m != k:
                lk *= (s - m) / (k - m)
        w += lk * values[lo + k]
    return w


def write_profile_csv(profile: LogGridProfile, path) -> None:
    """Write the `t,w` profile table, 17 significant digits, increasing t."""
    t = profile.t()
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["t", "w"])
        for ti, wi in zip(t, profile.values):
            out.writerow([format(ti, ".17g"), format(wi, ".17g")])


def read_profile_csv(path, params: CknParams, *, is_solution: bool = False) -> LogGridProfile:
    """Read a `t,w` table back into a profile attached to ``params``.

    A file that cannot be opened raises OSError; a file that is not text,
    has no `t,w` header, holds a row that is not two numbers or has a
    non-uniform grid raises InvalidStep.
    """
    with open(path, newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise InvalidStep("profile CSV is not text") from exc
    if not rows or [c.strip() for c in rows[0]] != ["t", "w"]:
        raise InvalidStep("profile CSV must start with header 't,w'")
    try:  # unpacking a row of one cell or of three raises ValueError too
        t = np.array([float(ts) for ts, _ in rows[1:]])
        w = np.array([float(ws) for _, ws in rows[1:]])
    except ValueError as exc:
        raise InvalidStep("profile CSV rows must hold two numbers 't,w'") from exc
    if t.size < 2 or np.any(np.diff(t) <= 0):
        raise InvalidStep("profile CSV rows must be strictly increasing in t")
    dt = float(t[1] - t[0])
    if not np.allclose(np.diff(t), dt, rtol=0, atol=1e-9 * max(dt, 1.0)):
        raise InvalidStep("profile CSV grid must be uniform")
    return LogGridProfile(t0=float(t[0]), dt=dt, values=w, params=params,
                          is_solution=is_solution)
