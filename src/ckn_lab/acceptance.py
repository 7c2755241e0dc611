"""Acceptance suite: the ten checks that gate a release.

Each criterion function returns (ok, detail) where detail carries the
measured numbers.  ``run_all`` prints one PASS/FAIL line per criterion
and is what both the test suite and ``ckn-lab selftest`` execute.  Every
check is oracle- or property-based at desk scale; the wall-clock budgets
are part of the criteria and asserted.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
import time

import numpy as np

from . import cli
from .energy import composite_simpson, energy_report, verify_dual_energy
from .params import (b_fs, b_fs_printed, dualize_params, make_params,
                     region_label)
from .profiles import (
    dualize_profile,
    extremal_form,
    extremal_radial_value,
    sample_extremal,
    sample_radial_form,
    scale_profile,
    window_nodes,
)
from .radial import (
    Conclusion,
    liouville_critical_a,
    liouville_hardy_endpoint,
    residual_autonomous,
    shoot_homoclinic,
)
from .profiles import LogGridProfile
from .energy import decay_fit, tail_window
from .spectrum import build_mode_operator, find_fs_threshold, mode_eigenvalues


def _decayed_extremal(params, min_T):
    form = extremal_form(params)
    T = tail_window(form, min_T)
    return sample_extremal(form, -T, 0.01, window_nodes(T, 0.01))


def criterion_1():
    """Sobolev-point profile equals the explicit bubble at three radii."""
    form = extremal_form(make_params(3, 0.0, 0.0))
    worst = 0.0
    for r in (0.1, 1.0, 10.0):
        target = (math.sqrt(3.0) / (1.0 + r * r)) ** 0.5
        got = float(extremal_radial_value(form, r))
        worst = max(worst, abs(got - target) / target)
    ok = worst <= 1e-10
    return ok, f"max rel err {worst:.3e} at r in {{0.1, 1, 10}} (tol 1e-10)"


def criterion_2():
    """Closed form solves the reduced equation; the alternative inner
    exponent (p-1)*lam does not: residuals adjudicate the two variants.

    The sampling window keeps the equation's magnitude lam^2 A + A^{p-1}
    below ~1e3 so that the absolute 1e-10 gate discriminates in double
    precision: the solution exponent lands at rounding level (~1e-13)
    and the alternative exponent stays far above (~1e-7).  Wider windows
    reach p -> 2 where the amplitude grows like exp(2 ln lam / (p-2))
    and no absolute gate can separate the two."""
    rng = np.random.default_rng(424242)
    worst_good = 0.0
    best_bad = math.inf
    for _ in range(50):
        N = int(rng.integers(2, 7))
        a_c = (N - 2) / 2.0
        a = a_c - float(rng.uniform(0.1, 1.2))
        b = a + float(rng.uniform(0.15, 0.85))
        params = make_params(N, a, b)
        good = sample_extremal(extremal_form(params), -30.0, 0.01, 6001)
        worst_good = max(worst_good, residual_autonomous(good))
        bad = sample_radial_form(params, (params.p - 1.0) * params.lam,
                                 -30.0, 0.01, 6001)
        best_bad = min(best_bad, residual_autonomous(bad))
    ok = worst_good <= 1e-10 and best_bad > 1e-10
    return ok, (f"solution-exponent residual max {worst_good:.3e} (tol 1e-10); "
                f"alternative exponent residual min {best_bad:.3e} "
                "(fails the same gate, as required)")


_SHOOT_POINTS = [
    (3, 0.0, 0.0), (3, -1.0, -0.2), (3, -0.5, -0.1), (3, -2.0, -1.5),
    (2, -0.5, 0.0), (2, -1.0, -0.6), (4, 0.0, 0.5), (4, -1.0, -0.4),
    (5, 0.5, 1.0), (6, 1.0, 1.5),
]


def criterion_3():
    """Shooting recovers the closed-form amplitude at ten points."""
    worst = 0.0
    for (N, a, b) in _SHOOT_POINTS:
        params = make_params(N, a, b)
        prof = shoot_homoclinic(params, t_max=40.0, tol=1e-6)
        A = extremal_form(params).amplitude
        worst = max(worst, abs(float(prof.values.max()) - A) / A)
    ok = worst <= 1e-6
    return ok, f"max amplitude rel err {worst:.3e} over 10 points (tol 1e-6)"


_THRESHOLD_POINTS = [(3, -0.5), (3, -1.0), (3, -2.0), (2, -0.5), (2, -1.0)]


def criterion_4():
    """Numerical symmetry-breaking threshold matches the adopted closed
    form; the printed sign variant lands outside the admissible band."""
    worst = 0.0
    sign_ok = True
    for (N, a) in _THRESHOLD_POINTS:
        found = find_fs_threshold(N, a, 1e-6, T=40.0, dx=0.01)
        worst = max(worst, abs(found - b_fs(N, a)))
        if not (b_fs_printed(N, a) < a):  # printed curve below b = a
            sign_ok = False
    adopted = b_fs(3, -1.0)
    printed = b_fs_printed(3, -1.0)
    ok = worst <= 1e-3 and sign_ok
    return ok, (f"max |numeric - closed| {worst:.3e} (tol 1e-3); printed-sign "
                f"curve at (3,-1) gives {printed:.5f} < a = -1 (inadmissible) "
                f"vs adopted {adopted:.5f}")


def criterion_5():
    """Translation zero mode of the k=0 linearization under grid
    refinement.

    The bounds, 1e-4 at dx = 0.01 and 1e-6 at dx = 0.0025, hold for a
    second-difference matrix too, whose zero-mode error is about
    (4/3) gamma^4 dx^2 (1.0e-5 and 6.3e-7 here); the points keep
    gamma = lam (p-2)/2 <= 0.375 for it.  mode_eigenvalues solves the
    Numerov matrix, whose error is O(dx^4): 1.1e-10 and 4.5e-13 at the
    same steps."""
    worst_coarse = 0.0
    worst_fine = 0.0
    for (N, a, b, T) in [(3, 0.0, 0.5, 60.0), (3, -1.0, -0.3, 40.0)]:
        params = make_params(N, a, b)
        form = extremal_form(params)
        for dx, bound in ((0.01, 1e-4), (0.0025, 1e-6)):
            n = window_nodes(T, dx)
            op = build_mode_operator(sample_extremal(form, -T, dx, n), 0)
            mu2 = mode_eigenvalues(op, count=2)[1].mu
            if dx == 0.01:
                worst_coarse = max(worst_coarse, abs(mu2))
            else:
                worst_fine = max(worst_fine, abs(mu2))
    ok = worst_coarse < 1e-4 and worst_fine < 1e-6
    return ok, (f"|mu_2| max {worst_coarse:.3e} at dx=0.01 (tol 1e-4), "
                f"{worst_fine:.3e} at dx=0.0025 (tol 1e-6)")


def criterion_6():
    """Dual transform: identical w-samples, matching r-space energies,
    exact parameter involution."""
    params = make_params(3, 0.0, 0.0)
    prof = _decayed_extremal(params, min_T=60.0)
    dual = dualize_profile(prof)
    samples_equal = np.array_equal(dual.values, prof.values)
    lp1, lp2 = verify_dual_energy(prof)
    energy_dev = abs(lp1 - lp2) / abs(lp1)
    d = dualize_params(params)
    back = dualize_params(d)
    involution = (back.a == params.a and back.b == params.b
                  and back.p == params.p and back.lam == params.lam)
    ok = samples_equal and energy_dev <= 1e-6 and involution
    return ok, (f"w-samples identical: {samples_equal}; lp pair "
                f"({lp1:.10f}, {lp2:.10f}) rel dev {energy_dev:.3e} "
                f"(tol 1e-6); involution exact: {involution}")


def criterion_7():
    """Tail decay rates and the averaged decay bound."""
    details = []
    ok = True
    for (N, a, b) in [(3, 0.0, 0.0), (3, -1.0, -0.2), (2, -0.5, 0.0)]:
        params = make_params(N, a, b)
        prof = sample_extremal(extremal_form(params), -30.0, 0.01, 6001)
        slope = decay_fit(prof, (15.0, 25.0))
        target = -(N - 2 * a - 2.0)
        ok = ok and abs(slope - target) <= 0.01 * abs(target)
        # u_bar(r) r^{(N-2a-2)/2} reduces to w, bounded by the amplitude
        product_max = float(prof.values.max())
        ok = ok and math.isfinite(product_max)
        details.append(f"({N},{a},{b}): slope {slope:.4f} vs {target:.1f}, "
                       f"bound-product max {product_max:.4f}")
    return ok, "; ".join(details)


def criterion_8():
    """Liouville certificates: endpoint root identities and the critical-
    line checker's verdicts."""
    rng = np.random.default_rng(8020)
    worst = 0.0
    verdicts_ok = True
    for _ in range(20):
        N = int(rng.integers(2, 7))
        a_c = (N - 2) / 2.0
        # dyadic a keeps a + 1 exact, so the endpoint b = a+1 is hit
        # without rounding past the admissible band
        a = math.floor((a_c - float(rng.uniform(0.05, 3.0))) * 2 ** 30) / 2 ** 30
        v = liouville_hardy_endpoint(make_params(N, a, a + 1.0))
        r1, r2 = v.roots
        n_prime = N - 2 * a
        worst = max(worst, abs(r1 * r2 - 1.0), abs(r1 + r2 - (2.0 - n_prime)))
        verdicts_ok = verdicts_ok and v.conclusion is Conclusion.ONLY_ZERO
    pc = make_params(4, 1.0, 1.2)
    zero = LogGridProfile(t0=-5.0, dt=0.1, values=np.zeros(101), params=pc)
    zero_ok = liouville_critical_a(pc, zero).conclusion is Conclusion.ONLY_ZERO
    ps = make_params(3, 0.5, 0.75)
    t = -8.0 + 0.01 * np.arange(1601)
    sech = LogGridProfile(t0=-8.0, dt=0.01, values=1.0 / np.cosh(t), params=ps)
    vs = liouville_critical_a(ps, sech)
    located = False
    peak = 0.0
    if vs.conclusion is Conclusion.INCONCLUSIVE and vs.witness is not None:
        i = int(np.argmax(vs.witness.values))
        t_star = vs.witness.t0 + i * vs.witness.dt
        peak = float(vs.witness.values[i])
        located = peak > 0.3 and 0.5 < abs(t_star) < 1.5
    ok = worst <= 1e-12 and verdicts_ok and zero_ok and located
    return ok, (f"root identities max dev {worst:.3e} over 20 points "
                f"(tol 1e-12); zero probe OnlyZero: {zero_ok}; sech probe "
                f"rejected with witness peak {peak:.4f} near |t|=1.15: {located}")


def criterion_9():
    """Energy identity, quadrature order, and scaling invariance."""
    worst_el = 0.0
    for (N, a, b) in [(3, 0.0, 0.0), (3, -1.0, -0.2), (2, -0.5, 0.0)]:
        rep = energy_report(_decayed_extremal(make_params(N, a, b), min_T=60.0))
        worst_el = max(worst_el, abs(rep.grad_sq - rep.lp) / rep.lp)

    form = extremal_form(make_params(3, 0.0, 0.0))

    def half_window_integral(h):
        n = int(round(20.0 / h)) + 1
        t = 1.0 + h * np.arange(n)
        return composite_simpson(
            form.amplitude ** 2 * (1.0 / np.cosh(t)) ** (2 * form.sech_power), h)

    i1, i2, i3 = (half_window_integral(h) for h in (0.05, 0.025, 0.0125))
    ratio = (i1 - i2) / (i2 - i3)

    base = _decayed_extremal(make_params(3, 0.0, 0.0), min_T=64.0)
    rep0 = energy_report(base)
    worst_scale = 0.0
    for k in (-3, -2, -1, 1, 2, 3):
        rep_r = energy_report(scale_profile(base, math.e ** k))
        worst_scale = max(
            worst_scale,
            abs(rep_r.grad_sq - rep0.grad_sq) / rep0.grad_sq,
            abs(rep_r.lp - rep0.lp) / rep0.lp,
            abs(rep_r.hardy_lhs - rep0.hardy_lhs) / rep0.hardy_lhs)
    ok = worst_el <= 1e-8 and 12.8 <= ratio <= 19.2 and worst_scale <= 1e-10
    return ok, (f"energy identity rel dev max {worst_el:.3e} (tol 1e-8); "
                f"refinement ratio {ratio:.2f} (16 +/- 20%); scaling dev max "
                f"{worst_scale:.3e} (tol 1e-10)")


_HAND_TABLE = [
    (-3.0, -3.0, "BoundaryBA"),
    (3.21875, 3.21875, "DualRegime"),
    (-3.0, 3.21875, "Invalid"),
    (3.21875, -3.0, "Invalid"),
    (0.5, 1.5, "CriticalA"),
    (0.5, 0.75, "CriticalA"),
    (0.0, 1.0, "HardyEndpoint"),
    (0.25, 0.5, "SymmetryRadial"),
    (-1.0, -0.25, "SymmetryRadial"),
    (-1.0, -0.75, "SymmetryBreaking"),
    (0.0, 0.0, "SymmetryRadial"),
    (-1.0, -1.03125, "Invalid"),
]


def criterion_10():
    """Region map against a hand-classified table and the scalar
    classifier, byte-identical across two runs.

    The CLI entry point ``cli.main`` runs the same argv twice in this
    process, and the two maps must match byte for byte.  Every node's
    label must equal ``region_label`` at its printed (a, b).  The JSON
    error line of a failing run is reported."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "map.csv")
        argv = ["regionmap", "--N", "3",
                "--a-min", "-3", "--a-max", "3.21875",
                "--b-min", "-3", "--b-max", "3.21875",
                "--na", "200", "--nb", "200", "--out", out]
        outputs = []
        for _ in range(2):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                return False, (f"regionmap exited {code}: "
                               f"{err.getvalue()[:200]}")
            with open(out, "rb") as fh:
                outputs.append(fh.read())
        identical = outputs[0] == outputs[1]
        table = {}
        for line in outputs[0].decode().splitlines()[1:]:
            a_s, b_s, label = line.split(",")
            table[(float(a_s), float(b_s))] = label
        misses = [(a, b, want, table.get((a, b)))
                  for (a, b, want) in _HAND_TABLE
                  if table.get((a, b)) != want]
        scalar_misses = [(a, b, label) for (a, b), label in table.items()
                         if region_label(3, a, b).variant.value != label]
    ok = (identical and not misses and not scalar_misses
          and len(table) == 200 * 200)
    return ok, (f"byte-identical across two runs: {identical}; "
                f"hand-table matches: {len(_HAND_TABLE) - len(misses)}"
                f"/{len(_HAND_TABLE)}; scalar-classifier matches: "
                f"{len(table) - len(scalar_misses)}/{200 * 200}"
                + (f"; mismatches {misses}" if misses else "")
                + (f"; scalar mismatches {scalar_misses[:5]}"
                   if scalar_misses else ""))


CRITERIA = [
    (1, "closed form matches the explicit bubble", criterion_1, 1.0),
    (2, "closed-form residual adjudicates the inner exponent", criterion_2, 5.0),
    (3, "shooting recovers the closed-form amplitude", criterion_3, 30.0),
    (4, "threshold search matches the adopted closed form", criterion_4, 300.0),
    (5, "translation zero mode converges under refinement", criterion_5,
     60.0),
    (6, "dual transform preserves samples and energy", criterion_6, 5.0),
    (7, "tail decay rates and averaged decay bound", criterion_7, 5.0),
    (8, "Liouville certificates", criterion_8, 1.0),
    (9, "energy identity, quadrature order, scaling", criterion_9, 5.0),
    (10, "region map vs hand table, deterministic", criterion_10, 30.0),
]


def run_criterion(number):
    """Run one criterion; returns (ok, detail, elapsed, budget)."""
    for (k, name, fn, budget) in CRITERIA:
        if k == number:
            start = time.perf_counter()
            ok, detail = fn()
            elapsed = time.perf_counter() - start
            if elapsed >= budget:
                ok = False
                detail += f"; OVER BUDGET {elapsed:.1f}s >= {budget:.0f}s"
            return ok, detail, elapsed, budget
    raise KeyError(number)


def run_all():
    """Run all criteria, print one line each; returns True iff all pass."""
    all_ok = True
    for (k, name, _fn, _budget) in CRITERIA:
        ok, detail, elapsed, _ = run_criterion(k)
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} criterion {k}: {name}: "
              f"{detail} [{elapsed:.2f}s]")
    return all_ok
