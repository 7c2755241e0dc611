"""Sphere-harmonic linearization around the radial extremal.

Linearizing w_tt + Delta_{S^{N-1}} w - lam^2 w + w^{p-1} = 0 at the
radial homoclinic w* and separating variables with spherical harmonics of
level k (Laplace-Beltrami eigenvalue -k(k+N-2)) gives, per mode, the 1D
Schrodinger operator

    L_k = -d^2/dt^2 + V_k(t),
    V_k(t) = lam^2 + k(k+N-2) - (p-1) w*(t)^{p-2}.

Since w*^{p-2} = (p lam^2 / 2) sech^2(gamma t), each L_k is an exactly
solvable sech^2 well, and every potential here is formed from that
closed form (:func:`_mode_potential`), never from sampled values; with
nu = p/(p-2) its bound states are

    mu_n(k) = lam^2 + k(k+N-2) - gamma^2 (nu - n)^2,   n = 0, 1, ...

The k=0 operator always has mu_2 = 0 with eigenfunction d w*/dt (the
t-translation mode), and the principal k=1 eigenvalue

    mu_1(k=1) = (N-1) - lam^2 (p^2 - 4) / 4

changes sign exactly on the symmetry-breaking threshold curve: solving
mu_1(k=1) = 0 for b reproduces b_fs of module ``params`` with numerator
N (a_c - a).  The finite-difference solver here never uses the closed
eigenvalues; they remain an independent oracle in the tests, and the
sign change located by :func:`find_fs_threshold` adjudicates the
threshold curve's sign convention numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    InvalidStep,
    NoSignChange,
    NotConverged,
    OutOfDomain,
    TailNotDecayed,
    UnverifiedProfile,
    WrongRegime,
)
from .params import CknParams, make_params
from .profiles import (LogGridProfile, extremal_form, sample_extremal,
                       window_nodes)
from .radial import _itp_probe, residual_autonomous

__all__ = [
    "ModeOperator",
    "EigenReport",
    "build_mode_operator",
    "principal_eigenvalue",
    "mode_eigenvalues",
    "fs_mode_eigenvalue",
    "find_fs_threshold",
    "asymptote_window",
]

RESIDUAL_GATE = 1e-8


@dataclass(frozen=True, eq=False)
class ModeOperator:
    """Finite-difference potential of one sphere-harmonic mode."""

    k: int
    lambda_k: float
    potential: np.ndarray
    grid: Tuple[float, float, int]  # (t0, dt, n)
    params: CknParams

    @property
    def asymptote(self) -> float:
        return self.params.lam ** 2 + self.lambda_k


@dataclass(frozen=True, eq=False)
class EigenReport:
    """One eigenvalue of a level-k mode operator and its eigenvector.

    The eigenvector is L2-normalized, sign-fixed to be nonnegative at its
    largest component, and includes the Dirichlet boundary zeros.
    """

    k: int
    mu: float
    eigenvector: np.ndarray


def build_mode_operator(extremal: LogGridProfile, k: int) -> ModeOperator:
    """Assemble V_k on the extremal's grid from its closed form.

    The profile must actually be a homoclinic: its autonomous residual is
    re-checked against 1e-8 times the size of the equation's terms, so the
    gate is meaningful at any amplitude (near p = 2 the amplitude grows
    like exp(2 ln lam / (p-2)) while the relative residual of a sampled
    closed form stays at rounding level).  A profile with no closed form
    (``extremal.form``) is refused with UnverifiedProfile.

    The potential never reads the samples: :func:`_mode_potential` forms
    it from (p lam^2/2) sech^2(gamma (t - t_c)), so an amplitude that
    underflowed to 0 keeps its well.  Each t - t_c is dt (j - (n-1)/2),
    exactly odd about the grid's centre node, plus the centre's offset
    t0 + (n-1) dt/2 - t_c, and sech^2 is taken at its absolute value.  On
    a grid centred at t_c the offset is 0 and the potential is exactly
    even; its right half is bit for bit the threshold probes' half block
    (:func:`_k1_half_block`) on the same grid.
    """
    if k < 0 or k != int(k):
        raise InvalidStep(f"harmonic level k must be a nonnegative integer, got {k}")
    res = residual_autonomous(extremal)
    p = extremal.params
    peak = float(np.max(np.abs(extremal.values)))
    peak_pow = math.exp(min((p.p - 1.0) * math.log(peak), 709.0)) if peak > 0 else 0.0
    gate = RESIDUAL_GATE * max(1.0, p.lam ** 2 * peak + peak_pow)
    if res > gate:
        raise UnverifiedProfile(
            f"profile residual {res:.3e} exceeds the gate {gate:.3e}",
            residual=res, gate=gate,
        )
    form = extremal.form
    if form is None:
        raise UnverifiedProfile(
            "profile has no closed form to build the mode potential from")
    lambda_k = float(k * (k + p.N - 2))
    t0, dt, n = extremal.t0, extremal.dt, extremal.n
    offset = t0 + (n - 1) * dt / 2.0 - form.center
    x = np.abs(form.rate * (dt * (np.arange(n) - (n - 1) / 2.0) + offset))
    V = _mode_potential(p, lambda_k, _sech2_tanh(x)[0])
    return ModeOperator(k=int(k), lambda_k=lambda_k, potential=V,
                        grid=(t0, dt, n), params=p)


def _mode_potential(params: CknParams, lambda_k: float,
                    sech2: np.ndarray) -> np.ndarray:
    """V_k = lam^2 + lambda_k - (p-1) w*^{p-2} of harmonic level
    lambda_k = k(k+N-2), with w*^{p-2} = (p lam^2/2) sech^2(gamma t) given
    by its ``sech2``: the one place a mode potential is formed.  It needs
    no amplitude."""
    depth = params.p * params.lam * params.lam / 2.0  # max of w*^{p-2}
    return params.lam ** 2 + lambda_k - (params.p - 1.0) * (depth * sech2)


def asymptote_window(params: CknParams) -> float:
    """Half-width T of [-T, T] where the well (p-1) w*^{p-2} ~ 2p(p-1) lam^2
    e^{-lam (p-2) T} is below 1e-10 min(1, lam^2) (24.5 is
    -ln(1e-10) = 23.0 plus a margin), so within the asymptote gate's
    absolute 1e-10 and, below lam = 1, at the same depth relative to the
    well, and at least 18.5/|lam|, where the Dirichlet walls move the
    translation mode, which decays like e^{-|lam| t}, by e^{-2 |lam| T}
    < 1e-16.  Both scale like 1/|lam|, so a step proportional to
    1/(|lam| p) puts the same node count on every well of a given p."""
    p, lam = params.p, abs(params.lam)
    top = max(lam, 1.0)
    log_dev = math.log(p - 1.0) + math.log(2.0 * p * top * top)
    return max((log_dev + 24.5) / (lam * (p - 2.0)), 18.5 / lam)


def _kinetic(m: int, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the Dirichlet second difference of
    -d^2/dt^2 on m interior nodes of step h, the kinetic part of the
    Numerov matrix (:class:`_Numerov`)."""
    return np.full(m, 2.0 / h ** 2), np.full(m - 1, -1.0 / h ** 2)


def _refuse_non_finite(p: CknParams, k: int, d: np.ndarray) -> None:
    # LAPACK's pivot test d <= 0 is false for NaN, so a non-finite diagonal
    # would pass every inertia test
    if not np.isfinite(d).all():
        raise NotConverged("mode operator has a non-finite potential",
                           N=p.N, a=p.a, b=p.b, k=k)


class _Numerov:
    """The Numerov family M(s) = tridiag(e, kin + u / (1 - h^2 u/12), e),
    u = V - s, of every eigensolve here (Pillai, Goglio and Walker,
    Am. J. Phys. 80 (2012)).

    Numerov's recurrence for y'' = (V - s) y is M(s) z = 0 in
    z = (1 - h^2 u/12) y; ``kin`` and ``e`` are the kinetic matrix
    2/h^2, -1/h^2 of the whole interior or of one of its parity blocks.
    It holds while h^2 u < 12 at every node, which for every shift at or
    above min V is h^2 (max V - min V) < 12.  There each diagonal entry
    falls strictly as s rises, so M(s) is positive definite exactly below
    its principal eigenvalue s = mu_1, and the Rayleigh functional
    f(s) = x^T M(s) x is decreasing and convex.
    """

    def __init__(self, kin: np.ndarray, e: np.ndarray, V: np.ndarray,
                 h: float):
        self.kin, self.e, self.V, self.c = kin, e, V, h * h / 12.0
        # 1 - cV, so that 1 - h^2 u/12 = 1 - cV + cs takes one operation
        self.base = 1.0 - self.c * V
        self._last = (None,)
        self.top = float(np.max(V))
        spread = self.top - float(np.min(V))
        # a bound on the Gershgorin norm at every shift from min V up
        self.norm = (float(np.max(kin)) + spread / (1.0 - self.c * spread)
                     + 2.0 * float(np.max(np.abs(e))))

    def _terms(self, s: float):
        # g = u w and W^2 = w^2 = -M'(s), w = 1/(1 - h^2 u/12), so that the
        # diagonal is kin + g; the last shift's are kept, because the
        # weighted solve and the Newton search of root start at the shift
        # that was factored last
        if self._last[0] != s:
            w = 1.0 / (self.base + self.c * s)
            self._last = (s, (self.V - s) * w, w * w)
        return self._last[1:]

    def at(self, s: float) -> np.ndarray:
        return self.kin + self._terms(s)[0]

    def weight(self, s: float) -> np.ndarray:
        """The diagonal W(s)^2 = -M'(s)."""
        return self._terms(s)[1]

    def root(self, x: np.ndarray, lower: float,
             tol: float) -> Tuple[float, float]:
        """The root mu of the Rayleigh functional f(s) = x^T M(s) x above
        the certified shift ``lower``, and the distance
        ||M(mu) x|| / -f'(mu) of the unit vector x from an eigenvector.

        Newton on f from ``lower``, where f > 0.  With
        f'(s) = -x^T W^2 x and f''(s) = 2c x^T W^3 x, c = h^2/12, f is
        decreasing and convex, so every iterate stays at or below the
        root, and a step of length delta from s leaves at most
        4 c max(w) delta^2 to go, with max(w) at its largest at the
        start.  The search stops once that is below tol.  The distance is
        the residual scaled by the slope of the eigenvalue in s; M(mu) x
        is taken to first order from the last evaluation, within the same
        bound.

        The x here is a step of Newton-weighted inverse iteration,
        M(lower) y = W(lower)^2 x (:func:`_principal_pair`; Ruhe, SIAM J.
        Numer. Anal. 10 (1973); Guttel and Tisseur, Acta Numerica 26
        (2017)), whose roots close on mu_1 quadratically.  So fewer roots
        are computed near convergence, where one evaluation (at the
        factored shift) suffices, and the rest take two or three: 2.1
        evaluations per root on the benchmark's fs-curve band.  The
        caller's early return skips the root of the last factored shift
        altogether once that shift is within tol of the current root.
        """
        kx = self.kin * x
        kx[:-1] += self.e * x[1:]
        kx[1:] += self.e * x[:-1]
        xx = x * x
        kinetic = float(x @ kx)
        bound = 4.0 * self.c / (1.0 - self.c * (self.top - lower))
        s = lower
        for _ in range(_NEWTON_MAX_ITER):
            g, ww = self._terms(s)
            slope = float(xx @ ww)
            step = (kinetic + float(xx @ g)) / slope
            s += step
            if bound * step * step <= tol:
                break
        r = kx + (g - step * ww) * x
        return s, math.sqrt(float(r @ r)) / slope

    def vector(self, z: np.ndarray, mu: float) -> np.ndarray:
        # y = z / (1 - h^2 (V - mu)/12) on the same nodes
        return z / (self.base + self.c * mu)


_PRINCIPAL_MAX_ITER = 60
_SHIFT_TRIES = 4
_NEWTON_MAX_ITER = 8


def _principal_pair(k: int, family, x: np.ndarray,
                    sigma: float) -> Tuple[float, np.ndarray]:
    """Principal eigenvalue mu_1 and its unit vector z of the Numerov
    family M(s) (:class:`_Numerov`), whose eigenvalues all fall as the
    shift s rises, of the level-k operator's whole interior or of one of
    its parity blocks (:func:`_parity_blocks`).  mu_1 is the s at which
    the family's smallest eigenvalue reaches 0.  By nonlinear inverse
    iteration with shifts from below, x <- M(sigma)^-1 W(sigma)^2 x with
    W(sigma)^2 = -M'(sigma) (Ruhe, SIAM J. Numer. Anal. 10 (1973); survey:
    Guttel and Tisseur, Acta Numerica 26 (2017)), from the first shift
    ``sigma`` and the positive start ``x`` (overwritten).  The weight is
    Newton's step for the nonlinear family, so the gap mu - sigma shrinks
    quadratically, where the unweighted iteration x <- M(sigma)^-1 x
    shrinks it by a steady factor (about 146 per step at (N, a) = (3, -2)).

    Every shift sigma is certified to lie below mu_1 by a successful
    LDL^T factorization of the family at sigma (dpttrf; Sylvester's law
    of inertia), and every root mu of the Rayleigh functional
    x^T M(mu) x = 0 lies above it (minimax for a monotone nonlinear
    family: Voss and Werner, Math. Methods Appl. Sci. 4 (1982)), so mu_1
    is in (sigma, mu] at each step.  NotConverged if the first shift does
    not factor; each later one is mu less the family's distance
    ||M(mu) x|| / -f'(mu), with the step halved toward
    sigma while the factorization fails, at most _SHIFT_TRIES times.
    Stops when mu - sigma is 8 ulps of the family's Gershgorin norm
    bound: after a solve and a root, or as soon as a newly factored shift
    lies that close to the current root, whose interval (sigma, mu] is
    then already certified.  The matrix at sigma is positive definite
    with e < 0, so its inverse is entrywise positive, W^2 is a positive
    diagonal, and so every iterate from a positive start is positive.
    The start does not enter the certificate; callers pass the well's
    depth profile (:func:`_well_start`): on the benchmark's fs-curve band
    (N = 2..6, ten values of a in [-4, -1.5], at the threshold search's
    lower end) it takes 5.54 successful dpttrf calls per solve, at most
    6, and no failed one, against 6.3 and 0.8 from x = ones (7.8 and 0
    from the well, 9.1 and 0.8 from ones, unweighted).
    """
    # imported on first use: commands that never solve start without scipy
    from scipy.linalg.lapack import dpttrf, dpttrs

    e = family.e
    tol = 8.0 * np.finfo(float).eps * family.norm

    def factor(shift):
        fd, fe, info = dpttrf(family.at(shift), e, overwrite_d=1)
        return (fd, fe) if info == 0 else None

    lu = factor(sigma)
    if lu is None:
        raise NotConverged("no positive definite shift at the Gershgorin bound",
                           k=k, shift=sigma)
    for _ in range(_PRINCIPAL_MAX_ITER):
        x = dpttrs(lu[0], lu[1], family.weight(sigma) * x, overwrite_b=1)[0]
        x /= math.sqrt(x @ x)
        mu, dist = family.root(x, sigma, tol)
        if mu - sigma <= tol:
            return mu, x
        step = mu - dist - sigma
        for _ in range(_SHIFT_TRIES):
            if not step > 0.0:
                break
            trial = factor(sigma + step)
            if trial is not None:
                sigma, lu = sigma + step, trial
                if mu - sigma <= tol:
                    return mu, x
                break
            step *= 0.5
    raise NotConverged(
        f"principal eigenpair not certified in {_PRINCIPAL_MAX_ITER} iterations",
        k=k, lower=sigma, upper=mu)


def _well_start(op: ModeOperator) -> np.ndarray:
    """A positive start shaped like the well, asymptote - V on the interior
    nodes (a sech^2 for every operator built here), much nearer the ground
    state than a constant.  The 1e-12 floor keeps the start positive where
    the well rounds to 0; a flat potential, which only a directly built
    ModeOperator has, starts from ones."""
    well = np.maximum(op.asymptote - op.potential[1:-1], 0.0)
    top = float(np.max(well))
    return well / top + 1e-12 if top > 0.0 else np.ones(well.size)


SYMMETRY_GATE = 1e-12


def _parity_blocks(d: np.ndarray, e: np.ndarray):
    """The even and the odd block of a persymmetric tridiagonal matrix,
    each as (diagonal, off-diagonal).

    An even potential makes tridiag(e, d, e) persymmetric, and the
    eigenvectors of a persymmetric Jacobi matrix are alternately symmetric
    and skew about the centre, starting with a symmetric one (Cantoni and
    Butler, Linear Algebra Appl. 13 (1976)).  On the right half of the
    interior nodes, from the centre node c of an odd count or the first
    node h right of the centre of an even count, the symmetric vectors
    solve the even block and the skew ones the odd block:

        odd count   even: d[c:], first off-diagonal times sqrt(2)
                    odd:  d[c+1:], a Dirichlet zero at the centre
        even count  even: d[h:] with d[h] + e
                    odd:  d[h:] with d[h] - e

    The blocks are read from the right half alone.  If the matrix is not
    persymmetric, their eigenvalues are those of the matrix whose left
    half mirrors its right one; :func:`mode_eigenvalues` refuses an
    uneven potential before it splits.
    """
    c = d.size // 2
    if d.size % 2:
        e_even = e[c:].copy()
        e_even[0] *= math.sqrt(2.0)
        return (d[c:], e_even), (d[c + 1:], e[c + 1:])
    d_even, d_odd = d[c:].copy(), d[c:].copy()
    d_even[0] += e[c - 1]
    d_odd[0] -= e[c - 1]
    return (d_even, e[c:]), (d_odd, e[c:])


def _mirror(z: np.ndarray, m: int, sign: float) -> np.ndarray:
    """The interior vector of length m whose right half is the block
    vector z, symmetric (sign 1) or skew (sign -1) about the centre.  The
    even block of an odd count solves for x[c] / sqrt(2) at the centre."""
    if m % 2 == 0:
        return np.concatenate((sign * z[::-1], z))
    if sign < 0.0:
        return np.concatenate((-z[::-1], [0.0], z))
    half = z.copy()
    half[0] *= math.sqrt(2.0)
    return np.concatenate((half[:0:-1], half))


def _interior(op: ModeOperator, asymptote_tol: float) -> np.ndarray:
    """The potential on the interior nodes, behind the asymptote gate."""
    V = op.potential
    dev = max(abs(float(V[0]) - op.asymptote), abs(float(V[-1]) - op.asymptote))
    if dev > asymptote_tol:
        raise TailNotDecayed(
            f"potential is {dev:.3e} away from its asymptote at the grid ends",
            deviation=dev, tol=asymptote_tol,
            end_values=(float(V[0]), float(V[-1])),
        )
    return V[1:-1]


def _reports(op: ModeOperator, pairs) -> List[EigenReport]:
    n = op.grid[2]
    out = []
    for mu, x in pairs:
        vec = np.zeros(n)
        vec[1:-1] = x
        nrm = math.sqrt(float(np.sum(vec * vec)))
        vec /= nrm
        if vec[int(np.argmax(np.abs(vec)))] < 0:
            vec = -vec
        vec.setflags(write=False)
        out.append(EigenReport(k=op.k, mu=mu, eigenvector=vec))
    return out


def principal_eigenvalue(op: ModeOperator, *,
                         asymptote_tol: float = 1e-10) -> EigenReport:
    """Smallest eigenvalue of the Numerov matrix on the operator's grid:
    :func:`mode_eigenvalues` with ``count`` 1, the principal eigenvalue
    of the whole matrix, with its O(h^4) error, its step limit
    h^2 (max V - min V) < 12 (InvalidStep) and its refusal of a
    non-finite potential (NotConverged).  The threshold search's lower
    end (:func:`fs_mode_eigenvalue`) solves it, and its probes factor the
    even half block of the same family at s = 0.

    Each shift is certified below the eigenvalue by an LDL^T
    factorization, each root of the Rayleigh functional bounds it from
    above, and the solve stops when the two are 8 ulps of the matrix
    norm apart, or raises NotConverged after 60 iterations
    (:func:`_principal_pair`).  The iteration is Newton-weighted inverse
    iteration x <- M(sigma)^-1 (-M'(sigma)) x (Ruhe, SIAM J. Numer.
    Anal. 10 (1973); Guttel and Tisseur, Acta Numerica 26 (2017)), which
    closes that gap quadratically and returns as soon as a factored shift
    is within it: 5.54 factorizations per solve on the threshold search's
    lower ends of the benchmark's band, at most 6, where the unweighted
    iteration took 7.8.  Truncation error decays like
    e^{-2 sqrt(asymptote - mu) T}.

    The potential must have reached its asymptote at both grid ends to
    within ``asymptote_tol`` (default per contract 1e-10); slow-decay
    potentials (p near 2) on fixed windows can pass a looser tolerance
    explicitly, trading absolute eigenvalue accuracy bounded by the
    deviation.
    """
    return mode_eigenvalues(op, 1, asymptote_tol=asymptote_tol)[0]


def mode_eigenvalues(op: ModeOperator, count: int = 2, *,
                     asymptote_tol: float = 1e-10) -> List[EigenReport]:
    """The ``count`` smallest eigenvalues, ascending (index 1 is the
    translation zero mode when k = 0), of the Numerov matrix
    M(s) = tridiag(-1/h^2, 2/h^2 + u/(1 - h^2 u/12), -1/h^2), u = V - s,
    on the operator's grid of step h: each is an s at which M(s) is
    singular (:class:`_Numerov`).  Its error is O(h^4), against the
    O(h^2) of the second difference tridiag(-1/h^2, 2/h^2 + V, -1/h^2)
    on the same grid.  Each reported eigenvector is
    y = z / (1 - h^2 (V - mu)/12) of the null vector z of M(mu).

    The transform needs h^2 (max V - min V) < 12 on the interior nodes;
    a coarser step is refused with InvalidStep, ``h`` and the largest
    valid step ``limit`` in its context.  ``count`` is 1 or 2; any other
    count is InvalidStep.  One is the principal eigenvalue of the whole
    matrix.  Two are the principal eigenvalues of its even and odd
    half-size blocks (:func:`_parity_blocks`): the ground state is
    symmetric and the second eigenvector skew, so neither needs deflation
    or a Sturm count.  Each is solved by the certified inverse iteration
    of :func:`_principal_pair`, from the first shift min V, where M is
    the kinetic matrix plus a nonnegative diagonal.  The blocks are read
    from the right half, which needs an even potential on a centred grid,
    t0 = -(n-1) h / 2; any potential with max |V(t) - V(-t)| above
    SYMMETRY_GATE (1e-12) times max |V| is refused with InvalidStep, its
    asymmetry in the context: an off-centre grid or an odd part of the
    potential, not rounding (the potentials of :func:`build_mode_operator`
    are exactly even on grids centred at the well).
    """
    if count not in (1, 2):
        raise InvalidStep(f"count must be 1 or 2, got {count}", count=count)
    V = _interior(op, asymptote_tol)
    # solved in units where the step is 2^j h in [0.5, 1): scaling t by a
    # power of two scales V - s and mu by a power of two exactly, which
    # changes no bit of a result that stays in the normal float range, but
    # keeps 1/h^2 and the inverse iterates in range at the step
    # 0.2/(|lam| p) of a tiny lam
    j = -math.frexp(op.grid[1])[1]
    h, V = math.ldexp(op.grid[1], j), np.ldexp(V, -2 * j)
    _refuse_non_finite(op.params, op.k, V)
    kin, e = _kinetic(V.size, h)
    sigma = float(np.min(V))
    spread = float(np.max(V)) - sigma
    if not spread * h * h < 12.0:
        limit = math.ldexp(math.sqrt(12.0 / spread), -j)
        raise InvalidStep(
            f"step {op.grid[1]:g} is too coarse for the Numerov matrix: "
            f"h^2 (max V - min V) must stay below 12, so h below {limit:.6g}",
            h=op.grid[1], limit=limit)
    start = _well_start(op)
    if count == 1:
        family = _Numerov(kin, e, V, h)
        mu, z = _principal_pair(op.k, family, start, sigma)
        return _reports(op, [(math.ldexp(mu, 2 * j), family.vector(z, mu))])
    full = op.potential
    scale = float(np.max(np.abs(full)))
    gap = float(np.max(np.abs(full - full[::-1])))
    asymmetry = gap / scale if scale > 0.0 else gap
    if not asymmetry <= SYMMETRY_GATE:
        raise InvalidStep(
            f"the potential is not even on its grid (asymmetry "
            f"{asymmetry:.3e}); two eigenvalues need a centred grid and "
            f"an even potential",
            asymmetry=asymmetry, gate=SYMMETRY_GATE, k=op.k, grid=op.grid)
    c = V.size // 2
    pairs = []
    for sign, (kb, eb), i in zip((1.0, -1.0), _parity_blocks(kin, e),
                                 (c, c + V.size % 2)):
        family = _Numerov(kb, eb, V[i:], h)
        # a copy: the two starts overlap and each solve overwrites its own
        mu, z = _principal_pair(op.k, family, start[i:].copy(), sigma)
        pairs.append((math.ldexp(mu, 2 * j),
                      _mirror(family.vector(z, mu), V.size, sign)))
    return _reports(op, pairs)


def _fs_mode_operator(params: CknParams, T: float, dx: float) -> ModeOperator:
    # the k=1 operator on the centred grid t0 = -(n-1) dx / 2 of the
    # threshold probes (_k1_half_grid), residual-gated by build_mode_operator
    if params.lam <= 0:
        raise WrongRegime("k=1 criterion applies below the critical weight",
                          a=params.a, a_c=params.a_c)
    n = window_nodes(T, dx)
    # extremal_form raises DegenerateParams at p <= 2
    prof = sample_extremal(extremal_form(params), -(n - 1) * dx / 2.0, dx, n)
    return build_mode_operator(prof, 1)


def fs_mode_eigenvalue(params: CknParams, *, T: float = 40.0,
                       dx: float = 0.01) -> float:
    """Principal eigenvalue of the k=1 mode at a parameter point: that of
    the Numerov matrix (:func:`principal_eigenvalue`) of the sampled
    extremal's operator on the centred grid of step ``dx`` over [-T, T].

    Negative means the radial extremal is unstable against the first
    sphere-harmonic sector (symmetry-breaking side of the threshold);
    positive means the stable sector.

    The potential-asymptote gate is off: near p = 2 the sech well widens
    like 1/(lam (p-2)) and no fixed window reaches the asymptote, yet
    Dirichlet truncation only biases the eigenvalue upward, which
    preserves the sign on the stable side.  Near the threshold itself the
    ground state decays within the window of :func:`_fs_window`, so the
    value is accurate exactly where the sign change is located.
    """
    op = _fs_mode_operator(params, T, dx)
    return principal_eigenvalue(op, asymptote_tol=math.inf).mu


def _sech2_tanh(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # sech^2 x and tanh x for x >= 0 from one exponential u = e^{-2x}
    u = np.exp(-2.0 * x)
    return 4.0 * u / (1.0 + u) ** 2, (1.0 - u) / (1.0 + u)


def _k1_half_grid(T: float, h: float):
    """(t, kinetic diagonal, off-diagonal, c) of the even half block of the
    threshold search, built once per threshold: the interior nodes t >= 0
    of the centred grid of :func:`_fs_mode_operator`, the even block
    (:func:`_parity_blocks`) of the kinetic matrix (:func:`_kinetic`) on
    the whole interior, and c = h^2/12 of the Numerov matrix."""
    m = window_nodes(T, h) - 2
    t = h * (np.arange((m + 1) // 2) + (0.0 if m % 2 else 0.5))
    return ((t,) + _parity_blocks(*_kinetic(m, h))[0]
            + (h * h / 12.0,))


def _k1_half_block(params: CknParams, grid):
    """(diagonal, off-diagonal, potential) of the even half block of the
    k=1 Numerov matrix at s = 0, M(0) = tridiag(e, kin + V_1/(1 - c V_1), e)
    (:class:`_Numerov`), at ``params`` on the grid of :func:`_k1_half_grid`.

    V_1 = lam^2 + (N-1) - (p-1) w*^{p-2} with w*^{p-2} = (p lam^2/2)
    sech^2(gamma t) is :func:`_mode_potential`'s, as for every mode
    operator, and needs no amplitude: beta = 2/(p-2) and
    gamma = lam (p-2)/2 come from (p, lam), which the search keeps at
    lam > 0 and p > 2, and sech^2 and tanh from one u = e^{-2 gamma t}.
    The lower end's whole-matrix potential (:func:`_fs_mode_operator`)
    has this block's V on its right interior half, bit for bit.
    The relative residual w_tt/w - lam^2 + w^{p-2} = gamma^2 (beta^2
    tanh^2 - beta sech^2) - lam^2 + (p lam^2/2) sech^2, even in t, must
    stay below RESIDUAL_GATE times lam^2 + p lam^2/2 (UnverifiedProfile),
    and a non-finite diagonal is NotConverged.
    """
    # the same float operations as extremal_form's
    beta = 2.0 / (params.p - 2.0)
    gam = params.lam * (params.p - 2.0) / 2.0
    lam2 = params.lam ** 2
    depth = params.p * params.lam * params.lam / 2.0  # max of w*^{p-2}
    t, kin, off, c = grid
    sech2, th = _sech2_tanh(gam * t)
    # the residual grouped by array
    res = float(np.max(np.abs((gam * beta) ** 2 * th * th
                              + (depth - gam * gam * beta) * sech2 - lam2)))
    gate = RESIDUAL_GATE * (lam2 + depth)
    if not res <= gate:
        raise UnverifiedProfile(
            f"k=1 potential residual {res:.3e} exceeds the gate {gate:.3e}",
            residual=res, gate=gate,
        )
    V = _mode_potential(params, params.N - 1.0, sech2)
    d = kin + V / (1.0 - c * V)
    _refuse_non_finite(params, 1, d)
    return d, off, V


def _k1_centre_pivot(params: CknParams, grid) -> float:
    """The threshold search's one evaluation at ``params``: the last
    pivot of the even half block (:func:`_k1_half_block`, which refuses
    the NaN that passes the pivot test) of the k=1 Numerov matrix M(0) on
    the grid of :func:`_k1_half_grid`, factored by LAPACK dpttrf in
    reverse order, from the wall row to the centre row.

    V_1 is even and its ground state symmetric, so M(0) is positive
    definite exactly when its even half block is, and by Sylvester's law
    of inertia exactly when every pivot is positive; every eigenvalue of
    M(s) falls as s rises, so that is exactly when the Numerov mu_1 is.
    The leading blocks of the reverse order leave out the centre row: the
    largest is the odd block (:func:`_parity_blocks`) of an odd interior
    count, or that block less its first row for an even count.  By Cauchy
    interlacing each has its lowest eigenvalue at or above the odd
    state's, which in the continuum is the translation mode lifted by the
    k=1 level, N - 1 > 0.  So only the last pivot, 1/(M^-1)_cc at the
    centre row, can fail while the discrete odd state stays positive.
    That pivot has the sign of mu_1 and a simple root at the threshold,
    and dpttrf leaves it in d[-1] both when it factors (info = 0) and
    when it stops at the last row (info = n).  A stop before the last row
    (info in 1..n-1) means the odd state is below 0 too, which happens on
    the coarse wells at the bottom of deep brackets; mu_1 < 0 there, and
    the pivot is NaN: negative, with no value.
    """
    # imported on first use: commands that never solve start without scipy
    from scipy.linalg.lapack import dpttrf

    d, off, _ = _k1_half_block(params, grid)
    fd, _, info = dpttrf(d[::-1], off[::-1], overwrite_d=1)
    return float(fd[-1]) if info in (0, d.size) else math.nan


def _fs_window(N: int, a: float, eps: float) -> float:
    """Half-width T of the k=1 threshold window at (N, a), from the two
    decay scales of the ground state at mu = 0 with L = max(ln(1/eps), 0):

        T = ceil(max(L / kappa, sqrt(2 L / omega))),
        kappa = sqrt(lam^2 + N - 1),  omega = (N - 1)/2,  lam = a_c - a.

    kappa is the exponential tail rate outside a narrow well; omega is the
    frequency of the harmonic sech^2 well at large |a|, where
    p - 2 ~ (N-1)/lam^2 and the ground state is the Gaussian
    e^{-omega t^2/2}.  Both come from (N, a) alone, never from b_fs.
    """
    lam = (N - 2) / 2.0 - a
    L = max(math.log(1.0 / eps), 0.0)
    kappa = math.sqrt(lam * lam + N - 1.0)
    omega = (N - 1.0) / 2.0
    return float(math.ceil(max(L / kappa, math.sqrt(2.0 * L / omega))))


def _pm2_to_gap(N: int, eps: float) -> float:
    # the b - a value at which p - 2 equals eps
    return (4.0 - eps * (N - 2)) / (4.0 + 2.0 * eps)


def find_fs_threshold(N: int, a: float, tol: float, *,
                      T: Optional[float] = None,
                      dx: Optional[float] = None) -> float:
    """Locate the symmetry-breaking threshold by an ITP search in b.

    Finds the sign change of the k=1 principal eigenvalue of the Numerov
    matrix (:class:`_Numerov`) over b in (a, a+1).  The lower end is
    guarded where the well becomes narrower than the grid resolves,
    p - 2 = 0.4/(lam h), a well 1/gamma = 5h wide (binding for N = 2,
    where p -> infinity); the upper end sits at p - 2 = 1e-9.  Raises
    NoSignChange with both end eigenvalues when the ends do not straddle
    a sign change, which is what the rejected sign convention of the
    closed-form curve would produce.

    Every probe and the upper end read the centre pivot
    (:func:`_k1_centre_pivot`) of the even half block, the ceil((n-2)/2)
    nodes t >= 0 of the centred grid, built once per threshold: its sign
    is that of mu_1 by an LDL^T inertia test, and its value is a smooth
    function of b with a simple root at the threshold.  That potential
    never forms the amplitude, which overflows at the upper end.  Only
    the lower end is eigensolved, on the sampled extremal's operator
    (:func:`fs_mode_eigenvalue`), because perfbench's traced fs-curve run
    expects its five calls; one more pivot gives its value.  Only a
    refusal eigensolves the upper end, on its half block, for ``mu_hi``.

    The probes are ITP's (Oliveira & Takahashi, ACM TOMS 47 (2020); the
    rule of :func:`radial._itp_probe`, which shooting uses too) on the
    pivot: the secant root, moved toward the midpoint and projected so
    that the search takes at most one probe more than bisection from the
    same ends to the same width tol.  The sign alone moves the bracket.
    Where dpttrf stops before the centre row, the probe counts as
    negative with no value, and the next probes are midpoints until the
    lower end has a value again.  The answer is the secant root of the
    last bracket's two pivots, moved toward its midpoint until it is
    within tol/2 of both ends (the midpoint where the lower end has no
    value): the same guarantee as bisection's midpoint, within tol/2 of
    the discrete sign change, but much closer where ITP has put a probe
    next to it.

    Without ``dx`` the step is h = min(0.05, 2/kappa),
    kappa = sqrt(lam^2 + N - 1): the probes' matrix M(0) needs
    h^2 V_1 < 12 at every node, and V_1 is below its asymptote kappa^2,
    so h^2 kappa^2 stays at 4 or below.  An explicit ``dx`` with
    h^2 kappa^2 >= 12 is refused with InvalidStep before any solve, ``h``
    and the largest valid step ``limit`` = sqrt(12)/kappa in its context.
    At the default step the lower end has p - 2 >= 0.2, so its amplitude
    (p lam^2/2)^{1/(p-2)} stays in range.  The far limits are the grid,
    about T kappa nodes (ResolutionTooLarge past the node budget, from
    about a <= -3.2e5 at N = 2), and the upper end: the threshold's
    p - 2 ~ (N - 1)/lam^2 falls below 1e-9 once lam exceeds about
    3.2e4 sqrt(N - 1) (NoSignChange).

    Without ``T`` the grid is [-T, T] with T = :func:`_fs_window` at
    eps = 1e-16, sized from (N, a) alone: the exponential tail 1/kappa of a
    narrow well and the Gaussian width of the wide sech^2 well at large
    |a|.  That is T = 37 at N = 2 near a = 0, 27 at (2, -1) and 6 at
    (6, -10).  On 220 points (N = 2..6, 40 values of a in [-10, -0.05],
    and -0.01, -0.2, -9.9 and -15) every probe of both searches has the
    same sign at T = 40 as on this window; the pivot's last bits differ,
    so 11 thresholds differ from T = 40 by 1 to 3 ulps.  A window from
    kappa alone moved the threshold by 5e-6 at N = 2, a = -10.  An
    explicit ``T`` shorter than :func:`_fs_window` at eps = tol is refused
    with InvalidStep: Dirichlet walls that close lift the eigenvalue and
    move the sign change by more than tol.

    Monotonicity of the k=1 eigenvalue in b (which a sign search needs)
    holds on all sampled families; it is asserted by the test suite rather
    than assumed blindly.
    """
    if tol < 1e-6:
        raise InvalidStep(f"tol must be >= 1e-6 (eigensolve resolution), got {tol}",
                          tol=tol)
    probe = make_params(N, a, a + 0.5)  # validates N and the midline point
    if a >= 0:
        raise OutOfDomain("threshold search applies to a < 0", a=a)
    lam = probe.a_c - a
    kappa = math.hypot(lam, math.sqrt(N - 1.0))
    if dx is None:
        dx = min(0.05, 2.0 / kappa)
    elif not (dx * kappa) ** 2 < 12.0:
        limit = math.sqrt(12.0) / kappa
        raise InvalidStep(
            f"step {dx:g} is too coarse for the Numerov matrix: "
            f"h^2 (lam^2 + N - 1) must stay below 12, so h below {limit:.6g}",
            h=dx, limit=limit)
    if T is None:
        T = _fs_window(N, a, 1e-16)
    else:
        need = _fs_window(N, a, tol)
        if T < need:
            raise InvalidStep(
                f"window T = {T} is shorter than the {need:g} that the k=1 "
                f"well needs at tol {tol}", T=T, window=need, N=N, a=a)

    s_lo = max(1e-6, _pm2_to_gap(N, 0.4 / (lam * dx)))
    s_hi = _pm2_to_gap(N, 1e-9)
    if not (s_lo < s_hi):
        raise NoSignChange("guarded bracket is empty",
                           s_lo=s_lo, s_hi=s_hi, N=N, a=a)
    lo, hi = a + s_lo, a + s_hi
    grid = _k1_half_grid(T, dx)
    bottom = make_params(N, a, lo)
    f_lo = fs_mode_eigenvalue(bottom, T=T, dx=dx)
    top = make_params(N, a, hi)
    pivot_hi = _k1_centre_pivot(top, grid) if f_lo < 0.0 else math.nan
    if not pivot_hi > 0.0:
        _, off, V = _k1_half_block(top, grid)  # flat start from min V
        mu_hi = _principal_pair(1, _Numerov(grid[1], off, V, dx),
                                np.ones(V.size), float(np.min(V)))[0]
        raise NoSignChange(
            "k=1 eigenvalue does not change sign across the guarded bracket",
            lo=lo, hi=hi, mu_lo=f_lo, mu_hi=mu_hi)
    # ITP (:func:`radial._itp_probe`, n0 = 1, k1 = 0.2/w0, k2 = 2) on
    # g = -pivot, positive at lo.  It stops where bisection does, at width
    # tol, and eps = w0/2^(n+1) is half of bisection's last width
    # w0/2^n <= tol, so it takes at most n + 1 probes; at eps = tol/2 a
    # projected probe leaves a width of exactly tol, which rounding can
    # put an ulp over, for n + 2.  The sign alone moves the bracket; a NaN
    # pivot counts as negative, and the probes are midpoints until lo has
    # a value again.  The answer is one more such probe with no
    # truncation, projected into the radius (tol - width)/2 of the midpoint
    pivot_lo = _k1_centre_pivot(bottom, grid)
    k1 = 0.2 / (hi - lo)
    n = max(0, math.ceil(math.log2((hi - lo) / tol)))
    eps, left = math.ldexp(hi - lo, -n - 1), n + 1
    while hi - lo > tol:
        m = _itp_probe(lo, hi, -pivot_lo, -pivot_hi, k1 * (hi - lo) ** 2,
                       eps, left)
        pivot = _k1_centre_pivot(make_params(N, a, m), grid)
        if pivot > 0.0:
            hi, pivot_hi = m, pivot
        else:
            lo, pivot_lo = m, pivot
        left -= 1
    return _itp_probe(lo, hi, -pivot_lo, -pivot_hi, 0.0, 0.5 * tol, 0)
