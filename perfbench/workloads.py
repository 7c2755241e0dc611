"""Seeded request generators for the four benchmark workloads.

Each workload is an endless sequence of *cycles*.  A cycle is one seeded
draw of a fixed multiset of request classes (the strata), in a seeded
order.  The classes fix what drives a request's cost (grid size, output
format, number of thresholds, command); the seed draws the parameter
point or window inside each class.  Runs measure whole cycles, so every
run sees the same mix and its medians stay comparable across seeds.  A
workload may also have a *finale*: requests sent once per run after the
last cycle (the region map's 1000x1000 grid, for peak memory).

This module imports nothing from ``ckn_lab``: the program receives only
the argv lists generated here, and the same seed yields byte-identical
argv lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

WORKLOADS = ("shoot", "fs-curve", "regionmap", "point-mix")

# what one unit of work_per_s counts, per workload
WORK_UNIT = {
    "shoot": "shots",
    "fs-curve": "thresholds",
    "regionmap": "map nodes",
    "point-mix": "queries",
}

# a cheap request of each workload's command, run once while setting up
WARMUP = {
    "shoot": ("shoot", "--N", "3", "--a=-3.5", "--b=-3.1", "--T", "1"),
    "fs-curve": ("fs-curve", "--N", "3", "--a-min=-1", "--a-max=-1",
                 "--steps", "1"),
    "regionmap": ("regionmap", "--na", "8", "--nb", "8"),
    "point-mix": ("classify", "--N", "3", "--a=0", "--b=0"),
}

# the criterion-10 window: the hand table's points are exact grid nodes
HAND_WINDOW = ("-3", "3.21875", "-3", "3.21875")


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what the oracle needs to check it."""

    kind: str
    argv: Tuple[str, ...]
    work: int
    params: Dict[str, float] = field(default_factory=dict)


def _num(x: float) -> str:
    # fixed notation: argparse reads "-1e-05" as a flag, and the oracle
    # must see exactly the value the program parsed
    return f"{x:.6f}"


def _point(N: int, lam: float, s: float) -> Tuple[str, str, Dict[str, float]]:
    a = _num((N - 2) / 2.0 - lam)
    b = _num(float(a) + s)
    return a, b, {"N": N, "a": float(a), "b": float(b)}


def _shoot_cycle(rng: random.Random) -> List[Request]:
    # one shot per N.  Shot cost grows as lam and p - 2 shrink, so both
    # are drawn from narrow bands: every shot costs about the same, and
    # a run's median shot barely depends on the seed.  lam near 5 keeps a
    # shot near half a second, so a run holds enough shots for its median.
    out = []
    for N in (2, 3, 4, 5, 6):
        p = rng.uniform(2.6, 2.85)
        s = N / p - N / 2.0 + 1.0  # the b - a that gives exponent p
        a, b, params = _point(N, rng.uniform(4.7, 5.0), s)
        out.append(Request("shoot", ("shoot", "--N", str(N), f"--a={a}",
                                     f"--b={b}"), 1, params))
    rng.shuffle(out)
    return out


def _fs_curve_cycle(rng: random.Random) -> List[Request]:
    # the median sweep has 4 thresholds in every cycle
    steps = [2, 3, 4, 4, 6]
    dims = [2, 3, 4, 5, 6]
    rng.shuffle(dims)
    out = []
    for n_steps, N in zip(steps, dims):
        a_min = _num(rng.uniform(-4.0, -1.5))
        a_max = _num(float(a_min) + rng.uniform(0.5, 1.4))
        out.append(Request(
            "fs-curve",
            ("fs-curve", "--N", str(N), f"--a-min={a_min}",
             f"--a-max={a_max}", "--steps", str(n_steps)),
            n_steps,
            {"N": N, "a_min": float(a_min), "a_max": float(a_max),
             "steps": n_steps}))
    rng.shuffle(out)
    return out


# (na, nb, format, window); the median request is a 200x200 CSV.  The
# cycles keep to small grids: a larger grid's working set makes its time
# follow the shared host's cache and memory contention (a 500x500 map
# slowed by half where a 200x200 one slowed by a quarter).
_MAP_CLASSES = [
    (150, 150, "svg", None),
    (200, 200, "csv", HAND_WINDOW),
    (200, 200, "csv", None),
    (200, 200, "svg", None),
    (300, 300, "csv", None),
]
# one map this large per run, after the cycles: it sets the peak memory
_PEAK_MAP = (1000, 1000, "csv", None)


def _map_request(rng: random.Random, na: int, nb: int, fmt: str,
                 window) -> Request:
    if window is None:
        N = rng.randint(2, 6)
        a_c = (N - 2) / 2.0
        # windows straddle the admissible band b in [a, a+1] the same
        # way for every N, so the label mix (and cost) stays similar
        a_lo = a_c - rng.uniform(2.5, 3.5)
        a_hi = a_c + rng.uniform(1.0, 2.0)
        window = (_num(a_lo), _num(a_hi),
                  _num(a_lo - rng.uniform(0.3, 0.7)),
                  _num(a_hi + 1.0 + rng.uniform(0.3, 0.7)))
    else:
        N = 3
    argv = ("regionmap", "--N", str(N),
            f"--a-min={window[0]}", f"--a-max={window[1]}",
            f"--b-min={window[2]}", f"--b-max={window[3]}",
            "--na", str(na), "--nb", str(nb))
    if fmt == "svg":
        argv += ("--format", "svg")
    return Request(
        f"regionmap-{fmt}", argv, na * nb,
        {"N": N, "a_min": float(window[0]), "a_max": float(window[1]),
         "b_min": float(window[2]), "b_max": float(window[3]),
         "na": na, "nb": nb})


def _regionmap_cycle(rng: random.Random) -> List[Request]:
    out = [_map_request(rng, *cls) for cls in _MAP_CLASSES]
    rng.shuffle(out)
    return out


# Three queries of a cycle take about 2.6 ms (dualize twice,
# classify-dual), two about 3.3 ms (classify, energy-csv) and three 5 ms
# or more (extremal, spectrum, energy-json), so the median query falls in
# the middle of the 3.3 ms pair.  At the edge of a group it would jump to
# the next group whenever the host slows a few requests.
_POINT_KINDS = ["classify", "classify-dual", "dualize", "dualize",
                "extremal", "energy-csv", "energy-json", "spectrum"]


def _point_mix_cycle(rng: random.Random) -> List[Request]:
    out = []
    for kind in _POINT_KINDS:
        N = rng.randint(2, 6)
        a, b, params = _point(N, rng.uniform(0.3, 2.0), rng.uniform(0.3, 0.85))
        if kind == "classify-dual":
            # mirror the point across a_c at fixed b - a
            a2 = _num((N - 2) - params["a"])
            b2 = _num(float(a2) + (params["b"] - params["a"]))
            a, b = a2, b2
            params = {"N": N, "a": float(a2), "b": float(b2)}
        command = kind.split("-")[0]
        argv = (command, "--N", str(N), f"--a={a}", f"--b={b}")
        if kind == "energy-json":
            argv += ("--format", "json")
        elif kind == "spectrum":
            kmax = rng.randint(1, 3)
            argv += ("--kmax", str(kmax))
            params = dict(params, kmax=kmax)
        out.append(Request(kind, argv, 1, params))
    rng.shuffle(out)
    return out


_CYCLES = {
    "shoot": _shoot_cycle,
    "fs-curve": _fs_curve_cycle,
    "regionmap": _regionmap_cycle,
    "point-mix": _point_mix_cycle,
}


def finale(workload: str, seed: int) -> List[Request]:
    """Requests sent once per run, after the last cycle."""
    if workload != "regionmap":
        return []
    rng = random.Random(f"ckn-lab:{workload}:{seed}:finale")
    return [_map_request(rng, *_PEAK_MAP)]


def cycles(workload: str, seed: int) -> Iterator[List[Request]]:
    """Endless seeded cycles of ``workload``'s requests."""
    make = _CYCLES[workload]
    rng = random.Random(f"ckn-lab:{workload}:{seed}")
    while True:
        yield make(rng)
