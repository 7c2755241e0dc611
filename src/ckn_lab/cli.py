"""Command-line front end.

Single-point queries print one JSON object; sweeps print CSV; the region
map can additionally be rendered as SVG (a presentation layer on top of
the CSV, never a substitute for it).  All outputs are deterministic:
argv is the only input, so identical flags produce byte-identical files,
and sweeps run in input order in one thread.  Library errors surface as
single-line JSON on stderr with exit code 2.

Commands where a quantity with two circulating conventions is computed
(the threshold-curve sign, the closed-form inner exponent) also write a
``discrepancies.json`` artifact recording the printed and the adopted
variant with example values computed once per process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import operator
import os
import re
import sys
from typing import Iterable, Optional

import numpy as np

from .errors import CknLabError, ResolutionTooLarge
from .params import (
    CknParams,
    Region,
    b_fs,
    b_fs_printed,
    del_direct_bound,
    dualize_params,
    make_params,
    region_keys,
    region_label,
)
from .profiles import (
    dualize_profile,
    extremal_form,
    read_profile_csv,
    sample_extremal,
    sample_radial_form,
    window_nodes,
    write_profile_csv,
)
from .radial import residual_autonomous, shoot_homoclinic
from .spectrum import (asymptote_window, build_mode_operator,
                       find_fs_threshold, mode_eigenvalues)
from .energy import (_check_identity, energy_report, hardy_check, tail_window,
                     verify_dual_energy)

__all__ = ["main"]

MAX_MAP_NODES = 2000
# a-columns classified per region_keys call: bounds its arrays at
# _MAP_BLOCK x nb nodes
_MAP_BLOCK = 64

_REGION_COLORS = [
    (Region.INVALID.value, "#dddddd"),
    (Region.CRITICAL_A.value, "#9467bd"),
    (Region.HARDY_ENDPOINT.value, "#8c564b"),
    (Region.SYMMETRY_RADIAL.value, "#1f77b4"),
    (Region.SYMMETRY_BREAKING.value, "#d62728"),
    (Region.BOUNDARY_BA.value, "#ff7f0e"),
    (Region.DUAL_REGIME.value, "#2ca02c"),
]
_REGION_NAMES = [name for name, _ in _REGION_COLORS]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1" and "-0.5" for values but "-1e-3" for a flag;
        # accept the exponent too, so "--a -1e-3" parses like "--a=-1e-3"
        self._negative_number_matcher = re.compile(
            r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$")

    # argparse would print its own message and exit; route through the
    # single-line JSON channel instead
    def error(self, message):
        raise _UsageError(message)


def _g(x) -> str:
    return format(float(x), ".17g")


@contextlib.contextmanager
def _writing(path):
    """Report an OSError raised while ``path`` is opened or written as a
    usage error, the way ``dualize --in`` reports a file it cannot read."""
    try:
        yield
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(chunks: Iterable[str], path: Optional[str]) -> None:
    """Write the text chunks in turn to ``path``, or to stdout."""
    if path:
        with _writing(path), open(path, "w", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _print_json(obj: dict, path: Optional[str] = None) -> None:
    """Write ``obj`` as one line of standard JSON to ``path``, or to
    stdout."""
    _emit([json.dumps(obj, sort_keys=True, default=str, allow_nan=False)
           + "\n"], path)


def _params_dict(p: CknParams) -> dict:
    return {"N": p.N, "a": p.a, "b": p.b, "p": p.p, "a_c": p.a_c,
            "lam": p.lam, "n_prime": p.n_prime, "tau": p.tau}


def _require_point(args) -> CknParams:
    if args.N is None:
        raise _UsageError(f"{args.command} requires --N, --a and --b")
    return make_params(args.N, args.a, args.b)


def _grid_T(args) -> float:
    # shoot and extremal default to 40.  --T has no parser default, so
    # that spectrum, energy and fs-curve can tell an explicit truncation
    # from their automatic one
    return 40.0 if args.T is None else args.T


def _grid_dt(args) -> float:
    # every command but spectrum and fs-curve defaults to 0.01.  --dt has
    # no parser default, so that those two can tell an explicit step from
    # the one they size from the parameters
    return 0.01 if args.dt is None else args.dt


@functools.cache
def _discrepancies_text() -> str:
    """The discrepancies.json document, computed once per process: its
    example values are fixed, so every build gives the same bytes."""
    params = make_params(3, -1.0, -0.2)
    good = sample_extremal(extremal_form(params), -20.0, 0.01, 4001)
    bad = sample_radial_form(params, (params.p - 1.0) * params.lam,
                             -20.0, 0.01, 4001)
    doc = {
        "threshold_curve_sign": {
            "printed": "b(a) = N (a - a_c) / (2 sqrt((a - a_c)^2 + N - 1))"
                       " + a - a_c",
            "adopted": "b(a) = N (a_c - a) / (2 sqrt((a_c - a)^2 + N - 1))"
                       " + a - a_c",
            "reason": "for a < 0 the printed numerator places the curve "
                      "below b = a, outside the admissible band; the sign "
                      "change of the k=1 principal eigenvalue confirms the "
                      "adopted convention",
            "example": {"N": 3, "a": -1.0,
                        "printed_value": b_fs_printed(3, -1.0),
                        "adopted_value": b_fs(3, -1.0)},
        },
        "extremal_inner_exponent": {
            "printed": "u(r) = C (1 + r^((p-1) lam))^(-2/(p-2))",
            "adopted": "u(r) = C (1 + r^((p-2) lam))^(-2/(p-2))",
            "reason": "only the (p-2) lam inner exponent solves the reduced "
                      "autonomous equation; the residual of the (p-1) lam "
                      "variant stays far above the acceptance gate",
            "example": {"N": 3, "a": -1.0, "b": -0.2,
                        "adopted_residual": residual_autonomous(good),
                        "printed_residual": residual_autonomous(bad)},
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_discrepancies(output_path: Optional[str]) -> None:
    """Record both circulating conventions with example values computed
    once per process, in discrepancies.json beside ``output_path`` (or in
    the working directory).  Every call brings the file to these bytes,
    but writes it only when its bytes differ: ext4 flushes a file that is
    truncated and written again when it is closed, which took a median
    42 ms per rewrite of these 2 KB on an ext4 disk, against 0.005 ms to
    read and compare them.  A file that cannot be read is written as if
    it were missing."""
    if output_path:
        directory = os.path.dirname(os.path.abspath(output_path))
    else:
        directory = os.getcwd()
    text = _discrepancies_text()
    target = os.path.join(directory, "discrepancies.json")
    data = text.encode()
    try:
        with open(target, "rb") as fh:
            if fh.read(len(data) + 1) == data:
                return
    except OSError:
        pass
    with _writing(target), open(target, "w", newline="") as fh:
        fh.write(text)


def _cmd_classify(args) -> int:
    if args.N is None:
        raise _UsageError("classify requires --N, --a and --b")
    N, a, b = args.N, args.a, args.b
    label = region_label(N, a, b)
    out = {"N": N, "a": a, "b": b, "region": label.variant.value}
    if label.variant is not Region.INVALID:
        out.update(_params_dict(make_params(N, a, b)))
    if a < 0:
        try:
            out["b_fs"] = b_fs(N, a)
            out["del_direct_bound"] = del_direct_bound(N, a)
            _write_discrepancies(args.out)
        except CknLabError:
            pass  # curves undefined (e.g. invalid N); the label stands
    if label.dual is not None:
        out["dual"] = _params_dict(label.dual)
    _print_json(out)
    return 0


def _cmd_extremal(args) -> int:
    params = _require_point(args)
    form = extremal_form(params)
    T, dt = _grid_T(args), _grid_dt(args)
    n = window_nodes(T, dt)
    profile = sample_extremal(form, -T, dt, n)
    variant = sample_radial_form(params, (params.p - 1.0) * params.lam,
                                 -T, dt, n)
    out = dict(_params_dict(params))
    out.update({
        "amplitude": form.amplitude,
        "sech_power": form.sech_power,
        "rate": form.rate,
        "center": form.center,
        "residual_adopted": residual_autonomous(profile),
        "residual_printed_variant": residual_autonomous(variant),
    })
    if args.out:
        with _writing(args.out):
            write_profile_csv(profile, args.out)
        out["profile_csv"] = args.out
    _write_discrepancies(args.out)
    _print_json(out)
    return 0


def _cmd_shoot(args) -> int:
    params = _require_point(args)
    T = _grid_T(args)
    profile = shoot_homoclinic(params, t_max=T, tol=args.tol,
                               dt=_grid_dt(args))
    A = extremal_form(params).amplitude
    peak = float(profile.values.max())
    out = dict(_params_dict(params))
    out.update({
        "amplitude": peak,
        "closed_form_amplitude": A,
        "rel_err": abs(peak - A) / A,
        "t_max": T,
        "tol": args.tol,
    })
    if args.out:
        with _writing(args.out):
            write_profile_csv(profile, args.out)
        out["profile_csv"] = args.out
    _print_json(out)
    return 0


def _cmd_fs_curve(args) -> int:
    if args.N is None:
        raise _UsageError("fs-curve requires --N")
    N, a_min, a_max, steps = args.N, args.a_min, args.a_max, args.steps
    if a_min is None or a_max is None:
        raise _UsageError("fs-curve requires --a-min and --a-max")
    if steps < 1:
        raise _UsageError(f"--steps must be >= 1, got {steps}")
    if steps > MAX_MAP_NODES:
        raise ResolutionTooLarge(
            f"threshold curve limited to {MAX_MAP_NODES} nodes",
            steps=steps, limit=MAX_MAP_NODES)
    if a_max < a_min:
        raise _UsageError("--a-max must be >= --a-min")
    a_values = _nodes(a_min, a_max, steps)
    lines = ["a,b_fs_closed,b_fs_numeric,abs_err"]
    for a in a_values:
        closed = b_fs(N, a)
        numeric = find_fs_threshold(N, a, args.tol, T=args.T, dx=args.dt)
        row = (a, closed, numeric, abs(numeric - closed))
        lines.append(",".join(_g(x) for x in row))
    _emit(["\n".join(lines) + "\n"], args.out)
    _write_discrepancies(args.out)
    return 0


def _cmd_spectrum(args) -> int:
    params = _require_point(args)
    form = extremal_form(params)
    T = asymptote_window(params) if args.T is None else args.T
    # a tenth of the ground state's decay length 2/(|lam| p).  Step and
    # window both scale like 1/|lam|, so every well of a given p gets the
    # same grid in units of its width
    dx = 0.2 / (abs(params.lam) * params.p) if args.dt is None else args.dt
    kmax = args.kmax
    if kmax < 0:
        raise _UsageError(f"--kmax must be >= 0, got {kmax}")
    if kmax > MAX_MAP_NODES:
        raise ResolutionTooLarge(
            f"spectrum table limited to {MAX_MAP_NODES} modes",
            kmax=kmax, limit=MAX_MAP_NODES)
    n = window_nodes(T, dx)
    # centred on t = 0, where the well is exactly even: the two eigenvalues
    # come from the even and odd half blocks, which need a persymmetric
    # matrix
    profile = sample_extremal(form, -(n - 1) * dx / 2.0, dx, n)
    # V_k = V_0 + lambda_k exactly: every mode has the eigenvectors of
    # mode 0 and its eigenvalues shifted by lambda_k
    mu1, mu2 = (ev.mu for ev in
                mode_eigenvalues(build_mode_operator(profile, 0), count=2))
    lines = ["k,lambda_k,mu1,mu2"]
    for k in range(kmax + 1):
        lambda_k = float(k * (k + params.N - 2))
        lines.append(",".join([str(k), _g(lambda_k), _g(mu1 + lambda_k),
                               _g(mu2 + lambda_k)]))
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0


def _cmd_dualize(args) -> int:
    params = _require_point(args)
    dual = dualize_params(params)
    out = {"params": _params_dict(params), "dual": _params_dict(dual)}
    if args.in_path:
        if not args.out:
            raise _UsageError("dualize with --in requires --out")
        try:
            profile = read_profile_csv(args.in_path, params)
        except OSError as exc:
            raise _UsageError(
                f"cannot read --in {args.in_path}: {exc.strerror}") from exc
        with _writing(args.out):
            write_profile_csv(dualize_profile(profile), args.out)
        out["profile_csv"] = args.out
    _print_json(out)
    return 0


def _cmd_energy(args) -> int:
    params = _require_point(args)
    form = extremal_form(params)
    T = tail_window(form) if args.T is None else args.T
    dt = _grid_dt(args)
    n = window_nodes(T, dt)
    profile = sample_extremal(form, -T, dt, n)
    rep = energy_report(profile)
    _check_identity(rep, params)
    fmt = args.format or "csv"
    if fmt == "csv":
        lines = ["N,a,b,grad_sq,lp,hardy_lhs,quotient",
                 ",".join([str(params.N), _g(params.a), _g(params.b),
                           _g(rep.grad_sq), _g(rep.lp), _g(rep.hardy_lhs),
                           _g(rep.quotient)])]
        _emit(["\n".join(lines) + "\n"], args.out)
    elif fmt == "json":
        lhs, rhs = hardy_check(profile)
        lp1, lp2 = verify_dual_energy(profile)
        out = dict(_params_dict(params))
        out.update({
            "grad_sq": rep.grad_sq, "lp": rep.lp,
            "hardy_lhs": rep.hardy_lhs, "quotient": rep.quotient,
            "omega_n": rep.omega_n,
            "hardy_pair": [lhs, rhs],
            "hardy_ratio": lhs / rep.grad_sq,
            "dual_lp_pair": [lp1, lp2],
        })
        _print_json(out, args.out)
    else:
        raise _UsageError(f"energy supports csv or json, not {fmt}")
    return 0


def _nodes(lo: float, hi: float, n: int):
    if not math.isfinite(hi - lo):
        raise _UsageError(f"window [{lo}, {hi}] is wider than the float range")
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def _curve_runs(fn, a_lo, a_hi, n, b_min, b_max):
    """Sample fn over [a_lo, a_hi], split into runs inside the b-window."""
    runs, cur = [], []
    if a_hi <= a_lo:
        return runs
    for i in range(n + 1):
        a = a_lo + (a_hi - a_lo) * i / n
        try:
            b = fn(a)
        except CknLabError:
            b = None
        if b is None or not (b_min <= b <= b_max):
            if len(cur) >= 2:
                runs.append(cur)
            cur = []
        else:
            cur.append((a, b))
    if len(cur) >= 2:
        runs.append(cur)
    return runs


def _map_columns(N, a_nodes, b_nodes):
    """Yield the labels of each a-column as indices into _REGION_COLORS.

    The grid is classified by ``region_keys`` in blocks of _MAP_BLOCK
    columns.  The first node of a key not seen before is named by one
    ``region_label`` call, and every node with that key gets its label.
    """
    label_of_key = np.full(np.iinfo(np.int16).max + 1, -1, dtype=np.int8)
    nb = len(b_nodes)
    for i0 in range(0, len(a_nodes), _MAP_BLOCK):
        keys = region_keys(N, a_nodes[i0:i0 + _MAP_BLOCK], b_nodes)
        flat = keys.ravel()
        for key in np.flatnonzero(np.bincount(flat)):
            if label_of_key[key] < 0:
                i, j = divmod(int(np.argmax(flat == key)), nb)
                label = region_label(N, a_nodes[i0 + i], b_nodes[j])
                label_of_key[key] = _REGION_NAMES.index(label.variant.value)
        yield from label_of_key[keys]


def _csv_regionmap(a_nodes, b_nodes, columns):
    names = np.array(_REGION_NAMES, dtype=object)
    gb = [_g(b) + "," for b in b_nodes]
    yield "a,b,label\n"
    for a, column in zip(a_nodes, columns):
        prefix = _g(a) + ","
        yield (prefix + ("\n" + prefix).join(map(operator.add, gb,
                                                  names[column])) + "\n")


def _svg_regionmap(N, a_nodes, b_nodes, columns):
    W = H = 640.0
    LEG = 210.0
    na, nb = len(a_nodes), len(b_nodes)
    a0, a1 = a_nodes[0], a_nodes[-1]
    b0, b1 = b_nodes[0], b_nodes[-1]
    cw, ch = W / na, H / nb

    def x_of(a):
        return (a - a0) / (a1 - a0) * W if a1 > a0 else 0.0

    def y_of(b):
        return H - (b - b0) / (b1 - b0) * H if b1 > b0 else H

    yield (f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{W + LEG:.0f}" height="{H:.0f}" '
           f'viewBox="0 0 {W + LEG:.0f} {H:.0f}">\n'
           f'<rect x="0" y="0" width="{W + LEG:.0f}" height="{H:.0f}" '
           f'fill="#ffffff"/>\n')
    # cells, run-length merged along b within each a-column
    for i, column in enumerate(columns):
        x = i * cw
        ends = np.flatnonzero(np.diff(column)).tolist() + [nb - 1]
        j = 0
        rects = []
        for j2 in ends:
            y = H - (j2 + 1) * ch
            rects.append(
                f'<rect x="{x:.3f}" y="{y:.3f}" width="{cw + 0.35:.3f}" '
                f'height="{(j2 - j + 1) * ch + 0.35:.3f}" '
                f'fill="{_REGION_COLORS[column[j]][1]}"/>\n')
            j = j2 + 1
        yield "".join(rects)
    parts = []
    # overlay curves
    curves = [
        ("b = a", "#000000", "", lambda a: a, a0, a1),
        ("b = a + 1", "#000000", "6 3", lambda a: a + 1.0, a0, a1),
        ("direct symmetry bound", "#333333", "2 3",
         lambda a: del_direct_bound(N, a), a0, min(a1, -1e-12)),
        ("threshold curve", "#ffffff", "",
         lambda a: b_fs(N, a), a0, min(a1, -1e-12)),
    ]
    for (_, color, dash, fn, lo, hi) in curves:
        for run in _curve_runs(fn, lo, hi, 512, b0, b1):
            pts = " ".join(f"{x_of(a):.2f},{y_of(b):.2f}" for (a, b) in run)
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"{dash_attr}/>')
    # legend
    parts.append(f'<text x="{W + 14:.0f}" y="20" font-size="13" '
                 f'font-family="monospace">regions (N = {N})</text>')
    y = 36.0
    for (label, color) in _REGION_COLORS:
        parts.append(f'<rect x="{W + 14:.0f}" y="{y - 11:.0f}" width="13" '
                     f'height="13" fill="{color}" stroke="#000000" '
                     f'stroke-width="0.5"/>')
        parts.append(f'<text x="{W + 33:.0f}" y="{y:.0f}" font-size="12" '
                     f'font-family="monospace">{label}</text>')
        y += 20.0
    y += 8.0
    for (name, color, dash, _fn, _lo, _hi) in curves:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        edge = (f'<line x1="{W + 14:.0f}" y1="{y - 5:.0f}" '
                f'x2="{W + 27:.0f}" y2="{y - 5:.0f}" stroke="{color}" '
                f'stroke-width="1.5"{dash_attr}/>')
        if color == "#ffffff":
            parts.append(f'<rect x="{W + 13:.0f}" y="{y - 9:.0f}" width="15" '
                         f'height="8" fill="#888888"/>')
        parts.append(edge)
        parts.append(f'<text x="{W + 33:.0f}" y="{y:.0f}" font-size="12" '
                     f'font-family="monospace">{name}</text>')
        y += 20.0
    # window corners
    parts.append(f'<text x="2" y="{H - 4:.0f}" font-size="11" '
                 f'font-family="monospace">({_g(a0)}, {_g(b0)})</text>')
    parts.append(f'<text x="2" y="12" font-size="11" '
                 f'font-family="monospace">({_g(a0)}, {_g(b1)})</text>')
    parts.append(f'<text x="{W - 120:.0f}" y="{H - 4:.0f}" font-size="11" '
                 f'font-family="monospace">({_g(a1)}, {_g(b0)})</text>')
    parts.append("</svg>")
    yield "\n".join(parts) + "\n"


def _cmd_regionmap(args) -> int:
    N = 3 if args.N is None else args.N
    a_min, a_max, b_min, b_max = args.a_min, args.a_max, args.b_min, args.b_max
    na, nb = args.na, args.nb
    if na > MAX_MAP_NODES or nb > MAX_MAP_NODES:
        raise ResolutionTooLarge(
            f"region map limited to {MAX_MAP_NODES} nodes per axis",
            na=na, nb=nb, limit=MAX_MAP_NODES)
    if na < 1 or nb < 1:
        raise _UsageError("--na and --nb must be >= 1")
    if a_max < a_min or b_max < b_min:
        raise _UsageError("window must satisfy a_min <= a_max, "
                          "b_min <= b_max")
    a_nodes = _nodes(a_min, a_max, na)
    b_nodes = _nodes(b_min, b_max, nb)
    columns = _map_columns(N, a_nodes, b_nodes)
    fmt = args.format or "csv"
    if fmt == "csv":
        chunks = _csv_regionmap(a_nodes, b_nodes, columns)
    elif fmt == "svg":
        chunks = _svg_regionmap(N, a_nodes, b_nodes, columns)
    else:
        raise _UsageError(f"regionmap supports csv or svg, not {fmt}")
    _emit(chunks, args.out)
    return 0


def _cmd_selftest(args) -> int:
    from . import acceptance
    _write_discrepancies(args.out)
    ok = acceptance.run_all()
    return 0 if ok else 2


_COMMANDS = {
    "classify": _cmd_classify,
    "extremal": _cmd_extremal,
    "shoot": _cmd_shoot,
    "fs-curve": _cmd_fs_curve,
    "spectrum": _cmd_spectrum,
    "dualize": _cmd_dualize,
    "energy": _cmd_energy,
    "regionmap": _cmd_regionmap,
    "selftest": _cmd_selftest,
}


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--N", type=int)
    common.add_argument("--a", type=float)
    common.add_argument("--b", type=float)
    common.add_argument("--T", type=float, default=None)
    common.add_argument("--dt", type=float, default=None)
    common.add_argument("--tol", type=float, default=1e-6)
    common.add_argument("--out", default=None)
    common.add_argument("--format", choices=["csv", "svg", "json"],
                        default=None)

    parser = _Parser(prog="ckn-lab",
                     description="weighted elliptic equation workbench")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("classify", parents=[common])
    sub.add_parser("extremal", parents=[common])
    sub.add_parser("shoot", parents=[common])
    fs = sub.add_parser("fs-curve", parents=[common])
    fs.add_argument("--a-min", type=float, dest="a_min")
    fs.add_argument("--a-max", type=float, dest="a_max")
    fs.add_argument("--steps", type=int, default=30)
    sp = sub.add_parser("spectrum", parents=[common])
    sp.add_argument("--kmax", type=int, default=3)
    du = sub.add_parser("dualize", parents=[common])
    du.add_argument("--in", dest="in_path", default=None)
    sub.add_parser("energy", parents=[common])
    rm = sub.add_parser("regionmap", parents=[common])
    rm.add_argument("--a-min", type=float, dest="a_min", default=-3.0)
    rm.add_argument("--a-max", type=float, dest="a_max", default=1.4)
    rm.add_argument("--b-min", type=float, dest="b_min", default=-3.0)
    rm.add_argument("--b-max", type=float, dest="b_max", default=2.5)
    rm.add_argument("--na", type=int, default=200)
    rm.add_argument("--nb", type=int, default=200)
    sub.add_parser("selftest", parents=[common])
    return parser


# built once per process: a parse reads the tree and leaves it unchanged
_PARSER = _build_parser()


def _check_args(args) -> None:
    if args.command is None:
        raise _UsageError("a command is required: " +
                          ", ".join(sorted(_COMMANDS)))
    if (args.N is not None
            and args.command not in ("regionmap", "fs-curve", "selftest")
            and (args.a is None or args.b is None)):
        raise _UsageError(f"{args.command} requires --a and --b with --N")
    if args.T is not None and not (args.T > 0):
        raise _UsageError(f"--T must be positive, got {args.T}")
    if args.dt is not None and not (args.dt > 0):
        raise _UsageError(f"--dt must be positive, got {args.dt}")
    if not (args.tol > 0):
        raise _UsageError(f"--tol must be positive, got {args.tol}")
    for key in ("a", "b", "T", "dt", "tol", "a_min", "a_max", "b_min",
                "b_max"):
        value = getattr(args, key, None)
        if value is not None and not math.isfinite(value):
            flag = "--" + key.replace("_", "-")
            raise _UsageError(f"{flag} must be finite, got {value}")


def main(argv=None) -> int:
    """Run one command; returns the process exit code."""
    try:
        args = _PARSER.parse_args(argv)
        _check_args(args)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(json.dumps(
            {"code": "usage_error", "message": str(exc)},
            sort_keys=True) + "\n")
        return 2
    except CknLabError as exc:
        sys.stderr.write(json.dumps(exc.payload(), sort_keys=True,
                                    default=str) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
