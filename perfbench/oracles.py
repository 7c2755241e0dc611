"""Independent checks of every CLI output the benchmark receives.

The closed forms here are written out again from the mathematics, not
imported from ``ckn_lab``: the amplitude (p lam^2/2)^(1/(p-2)), the
threshold curve b_fs, the sech^2 spectrum and the region precedence.
The one exception is the region map, whose labels must also agree with
the program's scalar reference ``ckn_lab.params.region_label`` on a
seeded node sample; ``region_label`` is passed in by the caller.

Every check returns a :class:`Verdict`: whether the output passed, why
not, and the margins the traced run reports (amplitude error, threshold
error, energy-identity deviation).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .workloads import Request

AMP_TOL = 1e-6          # shooting amplitude, relative
THRESHOLD_TOL = 1e-3    # threshold search against b_fs, absolute
IDENTITY_TOL = 1e-8     # grad_sq = lp, relative
DUAL_TOL = 1e-6         # the two sides of the dual energy pair, relative
SHIFT_TOL = 1e-10       # mu1[k] - mu1[0] = lambda_k, absolute
SPECTRUM_RTOL = SPECTRUM_ATOL = 2e-4   # as in the spectrum test suite
EXACT_TOL = 1e-12       # closed-form fields the CLI copies, relative
MAP_SAMPLE = 256        # nodes per map checked against the scalar labels

LABELS = ("Invalid", "CriticalA", "HardyEndpoint", "SymmetryRadial",
          "SymmetryBreaking", "BoundaryBA", "DualRegime")
_COLORS = ("#dddddd", "#9467bd", "#8c564b", "#1f77b4", "#d62728",
           "#ff7f0e", "#2ca02c")
_LABEL_OF_COLOR = {c: i for i, c in enumerate(_COLORS)}
(INVALID, CRITICAL_A, HARDY, RADIAL, BREAKING, BOUNDARY_BA, DUAL) = range(7)

# criterion 10's hand-classified points (N = 3)
HAND_TABLE = [
    (-3.0, -3.0, "BoundaryBA"), (3.21875, 3.21875, "DualRegime"),
    (-3.0, 3.21875, "Invalid"), (3.21875, -3.0, "Invalid"),
    (0.5, 1.5, "CriticalA"), (0.5, 0.75, "CriticalA"),
    (0.0, 1.0, "HardyEndpoint"), (0.25, 0.5, "SymmetryRadial"),
    (-1.0, -0.25, "SymmetryRadial"), (-1.0, -0.75, "SymmetryBreaking"),
    (0.0, 0.0, "SymmetryRadial"), (-1.0, -1.03125, "Invalid"),
]


@dataclass
class Verdict:
    ok: bool = True
    reason: str = ""
    margins: Dict[str, float] = field(default_factory=dict)

    def fail(self, reason: str) -> "Verdict":
        if self.ok:
            self.ok, self.reason = False, reason
        return self


class _Mismatch(Exception):
    pass


def _close(got: float, want: float, rel: float, what: str) -> None:
    if not (abs(got - want) <= rel * max(abs(want), 1e-300)):
        raise _Mismatch(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# closed forms

def _exponents(N: int, a: float, b: float):
    a_c = (N - 2) / 2.0
    lam = a_c - a
    p = 2.0 * N / (N - 2 + 2.0 * (b - a))
    return a_c, lam, p


def amplitude(N: int, a: float, b: float) -> float:
    _, lam, p = _exponents(N, a, b)
    return (p * lam * lam / 2.0) ** (1.0 / (p - 2.0))


def threshold_curve(N: int, a: float) -> float:
    a_c = (N - 2) / 2.0
    d = a_c - a
    return N * d / (2.0 * math.sqrt(d * d + N - 1)) + a - a_c


def sech2_eigenvalue(N: int, a: float, b: float, k: int, n: int = 0) -> float:
    _, lam, p = _exponents(N, a, b)
    gamma = lam * (p - 2.0) / 2.0
    nu = p / (p - 2.0)
    return lam * lam + k * (k + N - 2) - gamma * gamma * (nu - n) ** 2


def map_labels(N: int, a_nodes, b_nodes) -> np.ndarray:
    """Region label index of every (a, b) node, in the precedence order of
    the region taxonomy, with the same floating-point operations as the
    scalar definition so boundary nodes agree exactly."""
    A, B = np.meshgrid(np.asarray(a_nodes, float), np.asarray(b_nodes, float),
                       indexing="ij")
    s = B - A
    ok = ((s >= 0.0) if N >= 3 else (s > 0.0)) & (s <= 1.0)
    a_c = (N - 2) / 2.0
    d = a_c - A
    with np.errstate(invalid="ignore", divide="ignore"):
        curve = N * d / (2.0 * np.sqrt(d * d + N - 1)) + A - a_c
    lab = np.where(B >= curve, RADIAL, BREAKING)
    lab = np.where(A >= 0.0, RADIAL, lab)
    lab = np.where(B == A, np.where(A < 0.0, BOUNDARY_BA, RADIAL), lab)
    lab = np.where(B == A + 1, HARDY, lab)
    lab = np.where(A == a_c, CRITICAL_A, lab)
    lab = np.where(A > a_c, DUAL, lab)
    return np.where(ok, lab, INVALID)


def point_label(N: int, a: float, b: float) -> str:
    return LABELS[int(map_labels(N, [a], [b])[0, 0])]


def nodes(lo: float, hi: float, n: int) -> List[float]:
    """The CLI's documented sweep nodes: n equal steps, last node exact."""
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def _g(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# per-command checks; each raises _Mismatch or returns margins

def _csv_rows(text: str, header: str) -> List[List[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise _Mismatch(f"expected header {header!r}")
    return [line.split(",") for line in lines[1:]]


def _check_shoot(req: Request, text: str) -> Dict[str, float]:
    out = json.loads(text)
    P = req.params
    A = amplitude(P["N"], P["a"], P["b"])
    _close(out["closed_form_amplitude"], A, EXACT_TOL, "closed_form_amplitude")
    err = abs(out["amplitude"] - A) / A
    if not err <= AMP_TOL:
        raise _Mismatch(f"shot amplitude rel err {err:.3e} > {AMP_TOL:g}")
    return {"amp_rel_err": err}


def _check_fs_curve(req: Request, text: str) -> Dict[str, float]:
    P = req.params
    rows = _csv_rows(text, "a,b_fs_closed,b_fs_numeric,abs_err")
    want_a = nodes(P["a_min"], P["a_max"], P["steps"])
    if len(rows) != len(want_a):
        raise _Mismatch(f"{len(rows)} rows for {len(want_a)} a-nodes")
    worst = 0.0
    for row, a in zip(rows, want_a):
        if row[0] != _g(a):
            raise _Mismatch(f"a node {row[0]} != {_g(a)}")
        closed, numeric, reported = (float(x) for x in row[1:])
        _close(closed, threshold_curve(P["N"], a), EXACT_TOL, "b_fs_closed")
        err = abs(numeric - threshold_curve(P["N"], a))
        if not err <= THRESHOLD_TOL:
            raise _Mismatch(f"threshold at a={a!r} off by {err:.3e}")
        if abs(reported - abs(numeric - closed)) > 1e-15:
            raise _Mismatch("abs_err column inconsistent")
        worst = max(worst, err)
    return {"threshold_abs_err": worst}


def _check_spectrum(req: Request, text: str) -> Dict[str, float]:
    P = req.params
    N, a, b, kmax = P["N"], P["a"], P["b"], P["kmax"]
    rows = _csv_rows(text, "k,lambda_k,mu1,mu2")
    if [r[0] for r in rows] != [str(k) for k in range(kmax + 1)]:
        raise _Mismatch("mode rows are not k = 0..kmax")
    mu1 = [float(r[2]) for r in rows]
    for k, row in enumerate(rows):
        lambda_k = float(k * (k + N - 2))
        if float(row[1]) != lambda_k:
            raise _Mismatch(f"lambda_{k} = {row[1]}, expected {lambda_k}")
        if abs(mu1[k] - mu1[0] - lambda_k) > SHIFT_TOL:
            raise _Mismatch(f"shift identity off at k={k}: "
                            f"{mu1[k] - mu1[0] - lambda_k:.3e}")
    want = sech2_eigenvalue(N, a, b, 0)
    if not abs(mu1[0] - want) <= SPECTRUM_ATOL + SPECTRUM_RTOL * abs(want):
        raise _Mismatch(f"principal eigenvalue {mu1[0]!r} vs closed form "
                        f"{want!r}")
    return {}


def _identity(grad_sq: float, lp: float) -> float:
    dev = abs(grad_sq - lp) / lp
    if not dev <= IDENTITY_TOL:
        raise _Mismatch(f"grad_sq/lp identity off by {dev:.3e}")
    return dev


def _check_energy_csv(req: Request, text: str) -> Dict[str, float]:
    rows = _csv_rows(text, "N,a,b,grad_sq,lp,hardy_lhs,quotient")
    if len(rows) != 1:
        raise _Mismatch("expected one energy row")
    grad_sq, lp = float(rows[0][3]), float(rows[0][4])
    return {"identity_rel_dev": _identity(grad_sq, lp)}


def _check_energy_json(req: Request, text: str) -> Dict[str, float]:
    out = json.loads(text)
    dev = _identity(out["grad_sq"], out["lp"])
    lp1, lp2 = out["dual_lp_pair"]
    _close(lp2, lp1, DUAL_TOL, "dual lp pair")
    return {"identity_rel_dev": dev}


def _check_classify(req: Request, text: str) -> Dict[str, float]:
    out = json.loads(text)
    P = req.params
    N, a, b = P["N"], P["a"], P["b"]
    want = point_label(N, a, b)
    if out["region"] != want:
        raise _Mismatch(f"region {out['region']} != {want}")
    if want != "Invalid":
        _, lam, p = _exponents(N, a, b)
        _close(out["p"], p, EXACT_TOL, "p")
        _close(out["lam"], lam, EXACT_TOL, "lam")
    if a < 0:
        _close(out["b_fs"], threshold_curve(N, a), EXACT_TOL, "b_fs")
    if ("dual" in out) != (want == "DualRegime"):
        raise _Mismatch("dual parameters present iff in the dual regime")
    if want == "DualRegime":
        _close(out["dual"]["a"], (N - 2) - a, EXACT_TOL, "dual a")
    return {}


def _check_extremal(req: Request, text: str) -> Dict[str, float]:
    out = json.loads(text)
    P = req.params
    _, lam, p = _exponents(P["N"], P["a"], P["b"])
    A = amplitude(P["N"], P["a"], P["b"])
    _close(out["amplitude"], A, EXACT_TOL, "amplitude")
    _close(out["sech_power"], 2.0 / (p - 2.0), EXACT_TOL, "sech_power")
    _close(out["rate"], lam * (p - 2.0) / 2.0, EXACT_TOL, "rate")
    gate = 1e-8 * max(1.0, lam * lam * A + A ** (p - 1.0))
    if not out["residual_adopted"] <= gate:
        raise _Mismatch(f"adopted residual {out['residual_adopted']:.3e} "
                        f"above {gate:.3e}")
    return {}


def _check_dualize(req: Request, text: str) -> Dict[str, float]:
    out = json.loads(text)
    P = req.params
    a_c, lam, p = _exponents(P["N"], P["a"], P["b"])
    dual = out["dual"]
    _close(dual["a"], 2.0 * a_c - P["a"], EXACT_TOL, "dual a")
    _close(dual["b"] - dual["a"], P["b"] - P["a"], 1e-9, "dual b - a")
    if dual["p"] != out["params"]["p"] or dual["lam"] != -out["params"]["lam"]:
        raise _Mismatch("dual map must keep p and flip lam exactly")
    _close(out["params"]["p"], p, EXACT_TOL, "p")
    return {}


def _map_grid(req: Request):
    P = req.params
    a_nodes = nodes(P["a_min"], P["a_max"], P["na"])
    b_nodes = nodes(P["b_min"], P["b_max"], P["nb"])
    return a_nodes, b_nodes, map_labels(P["N"], a_nodes, b_nodes)


def _check_map_against_scalar(req: Request, a_nodes, b_nodes, labels,
                              region_label: Optional[Callable]) -> None:
    """The vectorized labels must equal the program's scalar classifier
    on a node sample seeded by the request, and the hand table wherever
    its points are grid nodes."""
    P = req.params
    if region_label is not None:
        rng = random.Random(" ".join(req.argv))
        for _ in range(MAP_SAMPLE):
            i, j = rng.randrange(len(a_nodes)), rng.randrange(len(b_nodes))
            got = region_label(P["N"], a_nodes[i], b_nodes[j]).variant.value
            if got != LABELS[labels[i, j]]:
                raise _Mismatch(f"scalar label {got} at ({a_nodes[i]!r}, "
                                f"{b_nodes[j]!r}) != {LABELS[labels[i, j]]}")
    if P["N"] == 3:
        where_a = {a: i for i, a in enumerate(a_nodes)}
        where_b = {b: j for j, b in enumerate(b_nodes)}
        for a, b, want in HAND_TABLE:
            if a in where_a and b in where_b:
                got = LABELS[labels[where_a[a], where_b[b]]]
                if got != want:
                    raise _Mismatch(f"hand table ({a}, {b}): {got} != {want}")


def check_map_csv(req: Request, text: str,
                  region_label: Optional[Callable] = None) -> Dict[str, float]:
    a_nodes, b_nodes, labels = _map_grid(req)
    _check_map_against_scalar(req, a_nodes, b_nodes, labels, region_label)
    ga = [_g(a) for a in a_nodes]
    gb = [_g(b) + "," for b in b_nodes]
    names = np.array(LABELS, dtype=object)[labels]
    lines = ["a,b,label"]
    for i, a in enumerate(ga):
        prefix = a + ","
        lines.extend(prefix + gbj + lab for gbj, lab in zip(gb, names[i]))
    want = "\n".join(lines) + "\n"
    if text != want:
        got_lines = text.splitlines()
        for n, (g, w) in enumerate(zip(got_lines, lines)):
            if g != w:
                raise _Mismatch(f"map row {n}: {g!r} != {w!r}")
        raise _Mismatch(f"map has {len(got_lines)} rows, expected {len(lines)}")
    return {}


def check_map_svg(req: Request, text: str,
                  region_label: Optional[Callable] = None) -> Dict[str, float]:
    a_nodes, b_nodes, labels = _map_grid(req)
    _check_map_against_scalar(req, a_nodes, b_nodes, labels, region_label)
    na, nb = len(a_nodes), len(b_nodes)
    W = H = 640.0
    cw, ch = W / na, H / nb
    lines = text.splitlines()
    if not lines or not lines[0].startswith("<svg") or lines[-1] != "</svg>":
        raise _Mismatch("not a complete svg document")
    got = np.full((na, nb), -1)
    for line in lines[2:]:
        if not line.startswith("<rect "):
            break
        attrs = dict(part.split("=", 1) for part in line[6:-2].split(" "))
        x, y = float(attrs["x"].strip('"')), float(attrs["y"].strip('"'))
        h = float(attrs["height"].strip('"')) - 0.35
        color = attrs["fill"].strip('"')
        if color not in _LABEL_OF_COLOR:
            raise _Mismatch(f"unknown cell colour {color}")
        i = int(round(x / cw))
        j2 = int(round((H - y) / ch)) - 1
        j = j2 - int(round(h / ch)) + 1
        if not (0 <= i < na and 0 <= j <= j2 < nb) or (got[i, j:j2 + 1] >= 0).any():
            raise _Mismatch(f"cell rect outside the grid or overlapping: {line}")
        got[i, j:j2 + 1] = _LABEL_OF_COLOR[color]
    if (got < 0).any():
        raise _Mismatch("svg cells do not cover the grid")
    bad = np.argwhere(got != labels)
    if bad.size:
        i, j = bad[0]
        raise _Mismatch(f"svg cell ({a_nodes[i]!r}, {b_nodes[j]!r}) is "
                        f"{LABELS[got[i, j]]}, expected {LABELS[labels[i, j]]}")
    if f"regions (N = {req.params['N']})" not in text:
        raise _Mismatch("legend does not name N")
    return {}


_CHECKS = {
    "shoot": _check_shoot,
    "fs-curve": _check_fs_curve,
    "spectrum": _check_spectrum,
    "energy-csv": _check_energy_csv,
    "energy-json": _check_energy_json,
    "classify": _check_classify,
    "classify-dual": _check_classify,
    "extremal": _check_extremal,
    "dualize": _check_dualize,
}


def check(req: Request, exit_code, text: str,
          region_label: Optional[Callable] = None) -> Verdict:
    """Judge one request's exit code and stdout."""
    verdict = Verdict()
    if exit_code != 0:
        return verdict.fail(f"exit {exit_code}")
    try:
        if req.kind == "regionmap-csv":
            verdict.margins = check_map_csv(req, text, region_label)
        elif req.kind == "regionmap-svg":
            verdict.margins = check_map_svg(req, text, region_label)
        else:
            verdict.margins = _CHECKS[req.kind](req, text)
    except _Mismatch as exc:
        verdict.fail(str(exc))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        verdict.fail(f"unreadable output: {exc!r}")
    return verdict
