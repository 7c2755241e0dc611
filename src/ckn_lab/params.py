"""Parameter algebra for the weighted elliptic equation

    -div(|x|^{-2a} grad u) = |x|^{-bp} u^{p-1}   in R^N.

A parameter point (N, a, b) is admissible when

    b in [a, a+1]  if N >= 3,      b in (a, a+1]  if N = 2,

and the critical exponent is p = 2N / (N - 2 + 2(b-a)).  Derived
quantities used throughout:

    a_c = (N-2)/2          critical weight,
    lam = a_c - a          linear rate of the Emden-Fowler reduction,
    n_prime = N - 2a       effective dimension (n_prime - 2 = 2 lam),
    tau = -bp + 2a         radial weight exponent; tau = lam (p-2) - 2.

The (a, b) plane splits into solution-behavior regions: the line a = a_c,
the Hardy endpoint b = a+1, the boundary b = a < 0, the radial-symmetry
region, the symmetry-breaking region below the threshold curve

    b_FS(a) = N (a_c - a) / (2 sqrt((a_c - a)^2 + N - 1)) + a - a_c,

and the dual regime a > a_c, equivalent to a < a_c through the map
a -> 2 a_c - a at fixed b - a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import InadmissibleB, InvalidDimension, OutOfDomain

__all__ = [
    "CknParams",
    "Region",
    "RegionLabel",
    "make_params",
    "b_fs",
    "b_fs_printed",
    "del_direct_bound",
    "classify_region",
    "region_label",
    "region_keys",
    "dualize_params",
]

# from 2^52 on, consecutive doubles are at least 1 apart, so the band
# [a, a+1] holds no interior point and a + 1 may round to a
_AB_LIMIT = 2.0 ** 52


@dataclass(frozen=True)
class CknParams:
    """Validated parameter point with derived exponents.

    Construct through :func:`make_params`; the constructor performs no
    validation so that :func:`dualize_params` can carry derived fields
    over exactly instead of recomputing them.
    """

    N: int
    a: float
    b: float
    p: float
    a_c: float
    lam: float
    n_prime: float
    tau: float
    # memo of the pre-image under dualize_params; lets the dual map be an
    # exact involution despite fl(2a_c - fl(2a_c - a)) != a in general
    _dual_source: Optional["CknParams"] = field(
        default=None, repr=False, compare=False
    )


class Region(str, Enum):
    INVALID = "Invalid"
    CRITICAL_A = "CriticalA"
    HARDY_ENDPOINT = "HardyEndpoint"
    SYMMETRY_RADIAL = "SymmetryRadial"
    SYMMETRY_BREAKING = "SymmetryBreaking"
    BOUNDARY_BA = "BoundaryBA"
    DUAL_REGIME = "DualRegime"


@dataclass(frozen=True)
class RegionLabel:
    """Region classification; ``dual`` carries the mapped parameters when
    the point lies in the dual regime a > a_c."""

    variant: Region
    dual: Optional[CknParams] = None


def _check_dimension(N) -> int:
    if isinstance(N, bool) or not isinstance(N, (int, float)):
        raise InvalidDimension(f"N must be an integer >= 2, got {N!r}", N=repr(N))
    if isinstance(N, float):
        if not N.is_integer():
            raise InvalidDimension(
                f"N must be an integer >= 2, got {N!r}", N=N
            )
        N = int(N)
    if N < 2:
        raise InvalidDimension(f"N must be >= 2, got {N}", N=N)
    return N


def make_params(N: int, a: float, b: float) -> CknParams:
    """Validate (N, a, b) and compute all derived exponents.

    Raises InvalidDimension for N < 2 and InadmissibleB when b falls
    outside [a, a+1] (N >= 3) or (a, a+1] (N = 2); the endpoint openness
    at b = a for N = 2 is exact.  InadmissibleB also covers the points the
    floats cannot carry: |a| or |b| >= 2^52, and b - a so small that p
    overflows.
    """
    N = _check_dimension(N)
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InadmissibleB("a and b must be finite", a=a, b=b)
    if abs(a) >= _AB_LIMIT or abs(b) >= _AB_LIMIT:
        raise InadmissibleB("|a| and |b| must be below 2^52",
                            a=a, b=b, limit=_AB_LIMIT)
    s = b - a
    if N >= 3:
        if not (0.0 <= s <= 1.0):
            raise InadmissibleB(
                f"b must lie in [a, a+1]; got b-a = {s}", N=N, a=a, b=b
            )
    else:  # N == 2: open at b = a
        if not (0.0 < s <= 1.0):
            raise InadmissibleB(
                f"b must lie in (a, a+1] for N=2; got b-a = {s}", N=N, a=a, b=b
            )
    a_c = (N - 2) / 2.0
    p = 2.0 * N / (N - 2 + 2.0 * s)
    if math.isinf(p):
        # N = 2 with b - a below about 1e-308
        raise InadmissibleB(f"b - a = {s} is too small: p overflows",
                            N=N, a=a, b=b)
    lam = a_c - a
    n_prime = N - 2.0 * a
    tau = -b * p + 2.0 * a
    return CknParams(N=N, a=a, b=b, p=p, a_c=a_c, lam=lam, n_prime=n_prime, tau=tau)


def _curve_domain(N, a, what: str):
    N = _check_dimension(N)
    a = float(a)
    if a >= 0:
        raise OutOfDomain(f"{what} is defined for a < 0, got a = {a}", a=a)
    if a <= -_AB_LIMIT:
        raise OutOfDomain(f"{what} is defined for |a| < 2^52, got a = {a}",
                          a=a, limit=_AB_LIMIT)
    return N, a


def b_fs(N: int, a: float) -> float:
    """Symmetry-breaking threshold curve for a < 0.

    Uses the sign convention with numerator magnitude N*(a_c - a), the one
    that places the curve inside (a, a+1); the variant with numerator
    N*(a - a_c) (see :func:`b_fs_printed`) lands below a, contradicting
    the threshold's defining strip a < b < b_FS(a).  The spectral
    bifurcation search in module ``spectrum`` is the arbiter and confirms
    this convention.
    """
    N, a = _curve_domain(N, a, "threshold curve")
    a_c = (N - 2) / 2.0
    d = a_c - a
    return N * d / (2.0 * math.sqrt(d * d + N - 1)) + a - a_c


def b_fs_printed(N: int, a: float) -> float:
    """Threshold-curve variant with numerator N*(a - a_c).

    Kept computable so diagnostics can report both conventions; for a < 0
    this value is below a and therefore inadmissible as a threshold.
    """
    N, a = _curve_domain(N, a, "threshold curve")
    a_c = (N - 2) / 2.0
    d = a - a_c
    return N * d / (2.0 * math.sqrt(d * d + N - 1)) + a - a_c


def del_direct_bound(N: int, a: float) -> float:
    """Historical sufficient bound for radial symmetry (a < 0 only).

    Left endpoint [N(N-1) + 4N(a-a_c)^2] / [6(N-1) + 8(a-a_c)^2] + a - a_c;
    a weaker condition than the threshold curve (it lies above b_fs), used
    only to annotate region maps.
    """
    N, a = _curve_domain(N, a, "direct bound")
    a_c = (N - 2) / 2.0
    d2 = (a - a_c) ** 2
    return (N * (N - 1) + 4.0 * N * d2) / (6.0 * (N - 1) + 8.0 * d2) + a - a_c


def classify_region(params: CknParams) -> RegionLabel:
    """Unique region label of a validated parameter point.

    Precedence: a > a_c is the dual regime (label carries the mapped
    parameters); a = a_c is the critical line for every admissible b;
    below a_c the Hardy endpoint b = a+1, then the boundary b = a
    (distinct behavior only for a < 0), then the radial/symmetry-breaking
    split at the threshold curve (closed on the radial side).
    :func:`region_keys` packs the predicates read here and in
    :func:`make_params` for the region map.
    """
    a, b, a_c = params.a, params.b, params.a_c
    if a > a_c:
        return RegionLabel(Region.DUAL_REGIME, dual=dualize_params(params))
    if a == a_c:
        return RegionLabel(Region.CRITICAL_A)
    if b == a + 1:
        return RegionLabel(Region.HARDY_ENDPOINT)
    if b == a:
        if a < 0:
            return RegionLabel(Region.BOUNDARY_BA)
        return RegionLabel(Region.SYMMETRY_RADIAL)
    if a >= 0:
        return RegionLabel(Region.SYMMETRY_RADIAL)
    if b >= b_fs(params.N, a):
        return RegionLabel(Region.SYMMETRY_RADIAL)
    return RegionLabel(Region.SYMMETRY_BREAKING)


def region_label(N: int, a: float, b: float) -> RegionLabel:
    """Total classifier for parameter sweeps: inadmissible points map to
    the Invalid label instead of raising."""
    try:
        params = make_params(N, a, b)
    except (InvalidDimension, InadmissibleB):
        return RegionLabel(Region.INVALID)
    return classify_region(params)


def region_keys(N: int, a, b):
    """Integer key per node of the grid ``a`` x ``b`` (1-D float arrays):
    nodes with equal keys get equal :func:`region_label`.

    Bit k of key[i, j] is the k-th predicate that :func:`make_params` and
    :func:`classify_region` read at (N, a[i], b[j]), computed with the
    same floating-point operations; keep the three in step.  The label
    names and their precedence stay in :func:`classify_region`.
    """
    a = np.asarray(a, dtype=np.float64)[:, None]
    b = np.asarray(b, dtype=np.float64)[None, :]
    a_c = (N - 2) / 2.0
    s = b - a
    d = a_c - a
    # out-of-domain values (N < 2, s = 0 at N = 2) only feed the bits of
    # points that are already Invalid
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = 2.0 * N / (N - 2 + 2.0 * s)
        fs = N * d / (2.0 * np.sqrt(d * d + N - 1)) + a - a_c
    bits = (
        ((0.0 < s) if N == 2 else (0.0 <= s)) & (s <= 1.0),
        (np.abs(a) < _AB_LIMIT) & (np.abs(b) < _AB_LIMIT),
        np.isfinite(p),
        b == a,
        b == a + 1,
        b >= fs,
        a > a_c,
        a == a_c,
        a < 0,
    )
    key = np.zeros(s.shape, dtype=np.int16)
    for k, bit in enumerate(bits):
        key |= bit.astype(np.int16) << k
    return key


def dualize_params(params: CknParams) -> CknParams:
    """Map (N, a, b) to (N, 2a_c - a, b - a + 2a_c - a) at fixed b - a.

    Exact involution: applying the map twice returns the original object.
    p and b - a are preserved exactly and lam flips sign exactly; the
    derived fields of the image are carried over (not recomputed) to make
    those guarantees bitwise.
    """
    if params._dual_source is not None:
        return params._dual_source
    a2 = 2.0 * params.a_c - params.a
    s = params.b - params.a
    b2 = a2 + s
    if params.N >= 3:
        ok = 0.0 <= b2 - a2 <= 1.0
    else:
        ok = 0.0 < b2 - a2 <= 1.0
    if not ok:
        raise InadmissibleB(
            f"dual image (a={a2}, b={b2}) violates admissibility",
            N=params.N, a=a2, b=b2,
        )
    tau2 = -b2 * params.p + 2.0 * a2
    return CknParams(
        N=params.N,
        a=a2,
        b=b2,
        p=params.p,
        a_c=params.a_c,
        lam=-params.lam,
        n_prime=params.N - 2.0 * a2,
        tau=tau2,
        _dual_source=params,
    )
