"""Sphere-harmonic linearization around the radial extremal.

Linearizing w_tt + Delta_{S^{N-1}} w - lam^2 w + w^{p-1} = 0 at the
radial homoclinic w* and separating variables with spherical harmonics of
level k (Laplace-Beltrami eigenvalue -k(k+N-2)) gives, per mode, the 1D
Schrodinger operator

    L_k = -d^2/dt^2 + V_k(t),
    V_k(t) = lam^2 + k(k+N-2) - (p-1) w*(t)^{p-2}.

Since w*^{p-2} = (p lam^2 / 2) sech^2(gamma t), each L_k is an exactly
solvable sech^2 well; with nu = p/(p-2) its bound states are

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
from .radial import residual_autonomous

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
    """Eigenvalue of index ``index`` (0 = principal) of one mode operator.

    The eigenvector is L2-normalized, sign-fixed to be nonnegative at its
    largest component, and includes the Dirichlet boundary zeros.
    """

    k: int
    mu: float
    eigenvector: np.ndarray
    truncation: float
    dx: float
    index: int = 0


def build_mode_operator(extremal: LogGridProfile, k: int) -> ModeOperator:
    """Assemble V_k on the extremal's grid.

    The profile must actually be a homoclinic: its autonomous residual is
    re-checked against 1e-8 times the size of the equation's terms, so the
    gate is meaningful at any amplitude (near p = 2 the amplitude grows
    like exp(2 ln lam / (p-2)) while the relative residual of a sampled
    closed form stays at rounding level).
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
    lambda_k = float(k * (k + p.N - 2))
    w = extremal.values
    V = p.lam ** 2 + lambda_k - (p.p - 1.0) * np.abs(w) ** (p.p - 2.0)
    return ModeOperator(k=int(k), lambda_k=lambda_k, potential=V,
                        grid=(extremal.t0, extremal.dt, extremal.n), params=p)


def asymptote_window(params: CknParams) -> float:
    """Half-width T of [-T, T] where the well (p-1) w*^{p-2} ~ 2p(p-1) lam^2
    e^{-lam (p-2) T} is below 1e-10: 24.5 is -ln(1e-10) = 23.0 plus a margin."""
    p, lam = params.p, abs(params.lam)
    log_dev = math.log(p - 1.0) + math.log(2.0 * p * lam * lam)
    return max(40.0, math.ceil((log_dev + 24.5) / (lam * (p - 2.0))))


def _tridiagonal(V: np.ndarray, dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the Dirichlet second-difference matrix
    of -d^2/dt^2 + V, V given on the interior grid nodes."""
    d = 2.0 / dt ** 2 + V
    e = np.full(V.size - 1, -1.0 / dt ** 2)
    return d, e


def _refuse_non_finite(p: CknParams, k: int, d: np.ndarray) -> None:
    # LAPACK's pivot test d <= 0 is false for NaN, so a non-finite diagonal
    # would pass every inertia test
    if not np.isfinite(d).all():
        raise NotConverged("mode operator has a non-finite potential",
                           N=p.N, a=p.a, b=p.b, k=k)


_PRINCIPAL_MAX_ITER = 60
_SHIFT_TRIES = 4


def _principal_pair(k: int, d: np.ndarray, e: np.ndarray,
                    x: np.ndarray, sigma: float) -> Tuple[float, np.ndarray]:
    """Smallest eigenvalue mu_1 and its unit eigenvector of the tridiagonal
    matrix T = tridiag(e, d, e), by inverse iteration with shifts from
    below, from the first shift ``sigma`` and the positive start ``x``
    (overwritten).  T is the whole matrix of the level-k operator or one of
    its parity blocks (:func:`_parity_blocks`).

    Every shift sigma is certified to lie below mu_1 by a successful
    LDL^T factorization of T - sigma I (dpttrf; Sylvester's law of
    inertia), and every Rayleigh quotient mu = x^T T x lies above it, so
    mu_1 is in (sigma, mu] at each step.  The first shift is the
    Gershgorin bound min d - 2 max|e| of the operator's whole matrix, and
    NotConverged if it does not factor; each later one is mu - ||Tx - mu x||,
    with the step halved toward sigma while the factorization fails, at
    most _SHIFT_TRIES times.  Stops when mu - sigma is 8 ulps of the
    Gershgorin norm bound.  T - sigma I is positive definite with e < 0,
    so its inverse is entrywise positive and so is every iterate from a
    positive start.  The start does not enter the certificate; callers
    pass the well's depth profile (:func:`_well_start`): on the
    benchmark's fs-curve band it takes 5.4 successful and 0.01 failed
    dpttrf calls per solve, against 5.9 and 0.4 from x = ones, and on
    point-mix's spectrum band 5.7 on the even block and 6.4 on the odd.
    """
    # imported on first use: commands that never solve start without scipy
    from scipy.linalg.lapack import dpttrf, dpttrs

    e_max = float(np.max(np.abs(e)))
    tol = 8.0 * np.finfo(float).eps * (float(np.max(np.abs(d))) + 2.0 * e_max)

    def factor(shift):
        fd, fe, info = dpttrf(d - shift, e, overwrite_d=1)
        return (fd, fe) if info == 0 else None

    lu = factor(sigma)
    if lu is None:
        raise NotConverged("no positive definite shift at the Gershgorin bound",
                           k=k, shift=sigma)
    for _ in range(_PRINCIPAL_MAX_ITER):
        x = dpttrs(lu[0], lu[1], x, overwrite_b=1)[0]
        x /= np.linalg.norm(x)
        tx = d * x
        tx[:-1] += e * x[1:]
        tx[1:] += e * x[:-1]
        mu = float(x @ tx)
        if mu - sigma <= tol:
            return mu, x
        step = mu - float(np.linalg.norm(tx - mu * x)) - sigma
        for _ in range(_SHIFT_TRIES):
            if not step > 0.0:
                break
            trial = factor(sigma + step)
            if trial is not None:
                sigma, lu = sigma + step, trial
                break
            step *= 0.5
    raise NotConverged(
        f"principal eigenpair not certified in {_PRINCIPAL_MAX_ITER} iterations",
        k=k, lower=sigma, upper=mu)


def _well_start(op: ModeOperator) -> np.ndarray:
    """A positive start shaped like the well, asymptote - V on the interior
    nodes (a sech^2 for every operator built here), much nearer the ground
    state than a constant.  The 1e-12 floor keeps the start positive where
    the well rounds to 0; an empty well (an underflowed amplitude) starts
    from ones."""
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
    half mirrors its right one; :func:`_solve` refuses an uneven potential
    before it splits.
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


def _solve(op: ModeOperator, count: int, asymptote_tol: float) -> List[EigenReport]:
    """The ``count`` lowest eigenpairs, count 1 or 2, of the operator's
    matrix, behind the asymptote gate.

    One eigenpair is the principal pair of the whole matrix
    (:func:`_principal_pair`), certified by LDL^T factorizations alone.
    Two are the principal pairs of its even and odd half-size blocks
    (:func:`_parity_blocks`), each certified the same way: the ground
    state is symmetric and the second eigenvector skew, so neither needs
    deflation or a Sturm count.  The blocks are read from the right half,
    which by Weyl's inequality moves each eigenvalue by at most
    max |V(t) - V(-t)|.  That asymmetry is refused with InvalidStep above
    SYMMETRY_GATE times max |V|: an off-centre grid or an odd part of the
    potential, not rounding (sampled sech^2 wells on centred grids are even
    to about 1e-14).
    """
    if count not in (1, 2):
        raise InvalidStep(f"count must be 1 or 2, got {count}", count=count)
    t0, dt, n = op.grid
    V = op.potential
    dev = max(abs(float(V[0]) - op.asymptote), abs(float(V[-1]) - op.asymptote))
    if dev > asymptote_tol:
        raise TailNotDecayed(
            f"potential is {dev:.3e} away from its asymptote at the grid ends",
            deviation=dev, tol=asymptote_tol,
            end_values=(float(V[0]), float(V[-1])),
        )
    d, e = _tridiagonal(V[1:-1], dt)
    _refuse_non_finite(op.params, op.k, d)
    # the Gershgorin floor of the whole matrix: the blocks' eigenvalues are
    # those of the matrix mirrored from its right half, whose diagonal is
    # drawn from d, so it bounds them too.  A block's own floor would sit
    # (sqrt 2 - 1) / dt^2 lower, past the even block's sqrt(2) entry
    sigma = float(np.min(d)) - 2.0 * float(np.max(np.abs(e)))
    if count == 1:
        pairs = [_principal_pair(op.k, d, e, _well_start(op), sigma)]
    else:
        scale = float(np.max(np.abs(V)))
        gap = float(np.max(np.abs(V - V[::-1])))
        asymmetry = gap / scale if scale > 0.0 else gap
        if not asymmetry <= SYMMETRY_GATE:
            raise InvalidStep(
                f"the potential is not even on its grid (asymmetry "
                f"{asymmetry:.3e}); two eigenvalues need a centred grid and "
                f"an even potential",
                asymmetry=asymmetry, gate=SYMMETRY_GATE, k=op.k, grid=op.grid)
        # the even block's start is a copy: both blocks overwrite theirs
        start, c = _well_start(op), d.size // 2
        starts = (start[c:].copy(), start[c + d.size % 2:])
        pairs = []
        for sign, (db, eb), x in zip((1.0, -1.0), _parity_blocks(d, e),
                                     starts):
            mu, z = _principal_pair(op.k, db, eb, x, sigma)
            pairs.append((mu, _mirror(z, d.size, sign)))
    T = (n - 1) * dt / 2.0
    out = []
    for i, (mu, x) in enumerate(pairs):
        vec = np.zeros(n)
        vec[1:-1] = x
        nrm = math.sqrt(float(np.sum(vec * vec)))
        vec /= nrm
        if vec[int(np.argmax(np.abs(vec)))] < 0:
            vec = -vec
        vec.setflags(write=False)
        out.append(EigenReport(k=op.k, mu=mu, eigenvector=vec,
                               truncation=T, dx=dt, index=i))
    return out


def principal_eigenvalue(op: ModeOperator, *,
                         asymptote_tol: float = 1e-10) -> EigenReport:
    """Smallest Dirichlet eigenvalue of -d^2/dt^2 + V on the grid.

    Solved by inverse iteration with shifts from below on the symmetric
    tridiagonal second-difference matrix (:func:`_principal_pair`): each
    shift is certified below the eigenvalue by an LDL^T factorization, each
    Rayleigh quotient bounds it from above, and the solve stops when the
    two are 8 ulps of the matrix norm apart.  It raises NotConverged on a
    non-finite potential and after 60 iterations.  Truncation error decays
    like e^{-2 sqrt(asymptote - mu) T} and the discretization error is
    O(dx^2).

    The potential must have reached its asymptote at both grid ends to
    within ``asymptote_tol`` (default per contract 1e-10); slow-decay
    potentials (p near 2) on fixed windows can pass a looser tolerance
    explicitly, trading absolute eigenvalue accuracy bounded by the
    deviation.
    """
    return _solve(op, 1, asymptote_tol)[0]


def mode_eigenvalues(op: ModeOperator, count: int = 2, *,
                     asymptote_tol: float = 1e-10) -> List[EigenReport]:
    """The ``count`` smallest eigenvalues, ascending (index 1 is the
    translation zero mode when k = 0).

    ``count`` is 1 or 2; any other count is InvalidStep.  One is
    :func:`principal_eigenvalue`.  Two are the principal eigenvalues of the
    even and the odd half-size block of the matrix, each solved by the
    same certified inverse iteration; that needs an even potential on a
    centred grid, t0 = -(n-1) dt / 2, and any potential with
    max |V(t) - V(-t)| above SYMMETRY_GATE (1e-12) times max |V| is
    refused with InvalidStep, its asymmetry in the context.
    """
    return _solve(op, count, asymptote_tol)


def _fs_mode_operator(params: CknParams, T: float, dx: float) -> ModeOperator:
    # the k=1 operator on the centred grid t0 = -(n-1) dx / 2 of the
    # bisection steps (_k1_half_grid), residual-gated by build_mode_operator
    if params.lam <= 0:
        raise WrongRegime("k=1 criterion applies below the critical weight",
                          a=params.a, a_c=params.a_c)
    n = window_nodes(T, dx)
    # extremal_form raises DegenerateParams at p <= 2
    prof = sample_extremal(extremal_form(params), -(n - 1) * dx / 2.0, dx, n)
    return build_mode_operator(prof, 1)


def fs_mode_eigenvalue(params: CknParams, *, T: float = 40.0,
                       dx: float = 0.01) -> float:
    """Principal eigenvalue of the k=1 mode at a parameter point.

    Negative means the radial extremal is unstable against the first
    sphere-harmonic sector (symmetry-breaking side of the threshold);
    positive means the stable sector.

    The potential-asymptote gate is off: near p = 2 the sech well widens
    like 1/(lam (p-2)) and no fixed window reaches the asymptote, yet
    Dirichlet truncation only biases the eigenvalue upward, which
    preserves the sign on the stable side.  Near the threshold itself the
    well is O(1/lam) wide, so the value is accurate exactly where the sign
    change is located.
    """
    op = _fs_mode_operator(params, T, dx)
    return principal_eigenvalue(op, asymptote_tol=math.inf).mu


def _sech2_tanh(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # sech^2 x and tanh x for x >= 0 from one exponential u = e^{-2x}
    u = np.exp(-2.0 * x)
    return 4.0 * u / (1.0 + u) ** 2, (1.0 - u) / (1.0 + u)


def _k1_half_grid(T: float, dx: float):
    """(t, diagonal, off-diagonal) of the even half block of the threshold
    search, built once per threshold: the interior nodes t >= 0 of the
    centred grid of :func:`_fs_mode_operator`, and the even block
    (:func:`_parity_blocks`) of the kinetic matrix (:func:`_tridiagonal`
    of a zero potential) on the whole interior."""
    m = window_nodes(T, dx) - 2
    t = dx * (np.arange((m + 1) // 2) + (0.0 if m % 2 else 0.5))
    return (t,) + _parity_blocks(*_tridiagonal(np.zeros(m), dx))[0]


def _k1_half_block(params: CknParams, grid):
    """(diagonal, off-diagonal) of the even half block of the k=1 matrix at
    ``params`` on the grid of :func:`_k1_half_grid`.

    V_1 = lam^2 + (N-1) - (p-1) w*^{p-2} with w*^{p-2} = (p lam^2/2)
    sech^2(gamma t) needs no amplitude: beta = 2/(p-2) and
    gamma = lam (p-2)/2 come from (p, lam), which the search keeps at
    lam > 0 and p > 2, and sech^2 and tanh from one u = e^{-2 gamma t}.
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
    t, diag, off = grid
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
    d = diag + (lam2 + (params.N - 1.0) - (params.p - 1.0) * (depth * sech2))
    _refuse_non_finite(params, 1, d)
    return d, off


def _k1_step_positive(params: CknParams, grid) -> bool:
    """One bisection step: whether the k=1 principal eigenvalue at
    ``params`` is positive on the grid of :func:`_k1_half_grid`.

    V_1 is even and its ground state symmetric, so the whole matrix is
    positive definite exactly when its even half block
    (:func:`_k1_half_block`, which refuses the NaN that passes the pivot
    test) is, and by Sylvester's law of inertia exactly when LAPACK dpttrf
    factors that block (it stops at the first pivot d <= 0).
    """
    # imported on first use: commands that never solve start without scipy
    from scipy.linalg.lapack import dpttrf

    return dpttrf(*_k1_half_block(params, grid), overwrite_d=1)[2] == 0


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
                      T: Optional[float] = None, dx: float = 0.01) -> float:
    """Locate the symmetry-breaking threshold by sign bisection in b.

    Bisects the sign of the k=1 principal eigenvalue over b in (a, a+1).
    The lower end is guarded where the well becomes narrower than the grid
    resolves (binding for N = 2, where p -> infinity); the upper end sits
    at p - 2 = 1e-9.  Raises NoSignChange with both end eigenvalues when
    the ends do not straddle a sign change, which is what the rejected
    sign convention of the closed-form curve would produce.

    Every step and the upper end read the sign alone
    (:func:`_k1_step_positive`) from an LDL^T inertia test of the even
    half block, the ceil((n-2)/2) nodes t >= 0 of the centred grid, built
    once per threshold; that potential never forms the amplitude, which
    overflows at the upper end.  Only the lower end is eigensolved, on the
    sampled extremal's operator (:func:`fs_mode_eigenvalue`), because
    perfbench's traced fs-curve run expects its five calls until ROADMAP
    item 1 drops them.  That amplitude is the one limit left: it
    overflows at about a <= -2,000 (DegenerateParams).  Only a refusal
    eigensolves the upper end, on its half block, for ``mu_hi``.

    Without ``T`` the grid is [-T, T] with T = :func:`_fs_window` at
    eps = 1e-16, sized from (N, a) alone: the exponential tail 1/kappa of a
    narrow well and the Gaussian width of the wide sech^2 well at large
    |a|.  That is T = 37 at N = 2 near a = 0, 27 at (2, -1) and 6 at
    (6, -10).  Thresholds are bit-identical to T = 40 on 220 points
    (N = 2..6, 40 values of a in [-10, -0.05], and -0.01, -0.2, -9.9 and
    -15).  A window from kappa alone moved the threshold by 5e-6 at
    N = 2, a = -10.  An explicit ``T`` shorter than :func:`_fs_window` at
    eps = tol is refused with InvalidStep: Dirichlet walls that close
    lift the eigenvalue and move the sign change by more than tol.

    Monotonicity of the k=1 eigenvalue in b (required for bisection) holds
    on all sampled families; it is asserted by the test suite rather than
    assumed blindly.
    """
    if tol < 1e-6:
        raise InvalidStep(f"tol must be >= 1e-6 (eigensolve resolution), got {tol}",
                          tol=tol)
    probe = make_params(N, a, a + 0.5)  # validates N and the midline point
    if a >= 0:
        raise OutOfDomain("threshold search applies to a < 0", a=a)
    lam = probe.a_c - a
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
    f_lo = fs_mode_eigenvalue(make_params(N, a, lo), T=T, dx=dx)
    top = make_params(N, a, hi)
    if not (f_lo < 0.0 and _k1_step_positive(top, grid)):
        d, off = _k1_half_block(top, grid)  # Gershgorin floor, flat start
        mu_hi = _principal_pair(1, d, off, np.ones(d.size), float(np.min(d))
                                - 2.0 * float(np.max(np.abs(off))))[0]
        raise NoSignChange(
            "k=1 eigenvalue does not change sign across the guarded bracket",
            lo=lo, hi=hi, mu_lo=f_lo, mu_hi=mu_hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _k1_step_positive(make_params(N, a, mid), grid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
