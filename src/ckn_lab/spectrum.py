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
from typing import List, Tuple

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


def _tridiagonal(op: ModeOperator) -> Tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the Dirichlet second-difference matrix
    of -d^2/dt^2 + V on the interior grid nodes."""
    _, dt, n = op.grid
    d = 2.0 / dt ** 2 + op.potential[1:-1]
    e = np.full(n - 3, -1.0 / dt ** 2)
    return d, e


def _solve(op: ModeOperator, count: int, asymptote_tol: float) -> List[EigenReport]:
    # imported on first use: commands that never solve start without scipy
    from scipy.linalg import eigh_tridiagonal

    t0, dt, n = op.grid
    V = op.potential
    dev = max(abs(float(V[0]) - op.asymptote), abs(float(V[-1]) - op.asymptote))
    if dev > asymptote_tol:
        raise TailNotDecayed(
            f"potential is {dev:.3e} away from its asymptote at the grid ends",
            deviation=dev, tol=asymptote_tol,
            end_values=(float(V[0]), float(V[-1])),
        )
    d, e = _tridiagonal(op)
    try:
        vals, vecs = eigh_tridiagonal(
            d, e, select="i", select_range=(0, count - 1), lapack_driver="stebz",
        )
    except Exception as exc:  # pragma: no cover - LAPACK failure surface
        raise NotConverged(f"tridiagonal eigensolve failed: {exc}") from exc
    T = (n - 1) * dt / 2.0
    out = []
    for i in range(count):
        vec = np.zeros(n)
        vec[1:-1] = vecs[:, i]
        nrm = math.sqrt(float(np.sum(vec * vec)))
        vec /= nrm
        if vec[int(np.argmax(np.abs(vec)))] < 0:
            vec = -vec
        vec.setflags(write=False)
        out.append(EigenReport(k=op.k, mu=float(vals[i]), eigenvector=vec,
                               truncation=T, dx=dt, index=i))
    return out


def principal_eigenvalue(op: ModeOperator, *,
                         asymptote_tol: float = 1e-10) -> EigenReport:
    """Smallest Dirichlet eigenvalue of -d^2/dt^2 + V on the grid.

    Solved with LAPACK's Sturm-sequence bisection (eigenvalue counting)
    plus inverse iteration on the symmetric tridiagonal second-difference
    matrix.  Truncation error decays like e^{-2 sqrt(asymptote - mu) T}
    and the discretization error is O(dx^2).

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
    translation zero mode when k = 0)."""
    if count < 1:
        raise InvalidStep(f"count must be >= 1, got {count}")
    return _solve(op, count, asymptote_tol)


def _fs_mode_operator(params: CknParams, T: float, dx: float) -> ModeOperator:
    # the k=1 operator on [-T, T], residual-gated by build_mode_operator
    if params.lam <= 0:
        raise WrongRegime("k=1 criterion applies below the critical weight",
                          a=params.a, a_c=params.a_c)
    form = extremal_form(params)  # raises DegenerateParams at p <= 2
    n = window_nodes(T, dx)
    prof = sample_extremal(form, -T, dx, n)
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


def _positive_definite(op: ModeOperator) -> bool:
    """Whether the operator's matrix is positive definite, that is, whether
    its principal eigenvalue is positive.

    By Sylvester's law of inertia the symmetric tridiagonal matrix has as
    many negative eigenvalues as its LDL^T factorization has negative
    pivots, so one O(n) factorization (LAPACK dpttrf, which stops at the
    first pivot d <= 0) reads the sign without an eigensolve.  NaN passes
    that pivot test, so a non-finite diagonal is refused first.
    """
    # imported on first use: commands that never solve start without scipy
    from scipy.linalg.lapack import dpttrf

    d, e = _tridiagonal(op)
    if not np.isfinite(d).all():
        p = op.params
        raise NotConverged("mode operator has a non-finite potential",
                           N=p.N, a=p.a, b=p.b, k=op.k)
    info = dpttrf(d, e, overwrite_d=1, overwrite_e=1)[2]
    return info == 0


def _pm2_to_gap(N: int, eps: float) -> float:
    # the b - a value at which p - 2 equals eps
    return (4.0 - eps * (N - 2)) / (4.0 + 2.0 * eps)


def find_fs_threshold(N: int, a: float, tol: float, *,
                      T: float = 40.0, dx: float = 0.01) -> float:
    """Locate the symmetry-breaking threshold by sign bisection in b.

    Bisects the sign of the k=1 principal eigenvalue over b in (a, a+1).
    The bracket endpoints are guarded: near b = a the potential well can
    become narrower than the grid resolves (binding for N = 2, where
    p -> infinity), and near b = a+1 the extremal amplitude overflows
    (p -> 2).  Raises NoSignChange with the endpoint eigenvalues when the
    guarded endpoints do not straddle a sign change, which is what the
    rejected sign convention of the closed-form curve would produce.

    The upper guard does not stay clear of the threshold at large |a|:
    there it falls below the threshold, both endpoint eigenvalues are
    negative, and the search fails with NoSignChange.  On a 0.25 grid in
    a that happens for a <= -10.75 at N = 2, -13.75 at N = 3, -16 at
    N = 4, -17.75 at N = 5 and -19.25 at N = 6 (at N = 2, a = -11 the
    upper endpoint has mu = -0.109).  ROADMAP.md's item on building the
    k=1 potential from the log-domain form removes the amplitude cap.

    Only the two endpoints are eigensolved.  Each bisection step reads the
    sign alone, from an O(n) LDL^T inertia test of the same matrix
    (:func:`_positive_definite`).

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

    s_lo = max(1e-6, _pm2_to_gap(N, 0.4 / (lam * dx)))
    log_amp_cap = math.log(max(2.0 * lam * lam, 1.0 + 1e-9)) / 600.0
    s_hi = min(1.0 - 1e-6, _pm2_to_gap(N, max(log_amp_cap, 1e-12)))
    if not (s_lo < s_hi):
        raise NoSignChange("guarded bracket is empty",
                           s_lo=s_lo, s_hi=s_hi, N=N, a=a)

    lo, hi = a + s_lo, a + s_hi
    f_lo = fs_mode_eigenvalue(make_params(N, a, lo), T=T, dx=dx)
    f_hi = fs_mode_eigenvalue(make_params(N, a, hi), T=T, dx=dx)
    if not (f_lo < 0.0 < f_hi):
        raise NoSignChange(
            "k=1 eigenvalue does not change sign across the guarded bracket",
            lo=lo, hi=hi, mu_lo=f_lo, mu_hi=f_hi,
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _positive_definite(_fs_mode_operator(make_params(N, a, mid), T, dx)):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
