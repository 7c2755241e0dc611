"""ckn-lab benchmark: seeded CLI workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shoot --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each was
chosen): ``shoot``, ``fs-curve``, ``regionmap`` and ``point-mix``.  Each
is a closed loop: one client sends a request, waits for the reply, checks
it against an independent oracle (``oracles.py``, outside the timed
region), then sends the next.  The program runs in a fresh interpreter
per worker (``worker.py``) with ``PYTHONPATH`` set to the checkout's
absolute ``src``, ``CKN_LAB_THREADS`` set explicitly (see ``THREADS``),
numpy's BLAS held to one thread and a scratch working directory under
``.perfbench_tmp``; the CLI only sees the generated argv.

``--trace 0`` reports the end-to-end metrics:

    setup_s      median over several fresh interpreters of the wall time
                 from spawning one until ``ckn_lab.cli`` is imported and a
                 warm-up request of the workload's command has returned
    work_per_s   work done per second of request time; the unit of work
                 is a shot, a threshold, a map node or a query.  It is
                 taken over the cycles (not the finale), and each request
                 counts with the median time of its class (same kind and
                 size) in the run, so one request slowed by the host does
                 not move the figure
    req_p50_s    median request latency (time inside ``cli.main``),
                 finale included
    peak_rss_mb  peak resident memory of the serving worker, in MiB

and prints ``req_tail_s`` (the highest latency percentile with at least
ten requests beyond it, when there are enough requests) and
``fail_ratio`` (failed / attempted) in the summary above the result line.

``--trace 1`` replays a fixed number of the seed's cycles (not the
finale) three times: traced, untraced, and untraced with one thread,
and reports the per-layer metrics listed in ``BENCHMARK.json``.  The
last stdout line is always one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import oracles  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WARMUP, WORK_UNIT, WORKLOADS, Request, cycles, finale)

SETUPS = 5                 # fresh interpreters timed per run for setup_s
IMPORT_PROBES = 3          # fresh interpreters per module for *.import_s
NPROC = len(os.sched_getaffinity(0))
# CKN_LAB_THREADS per workload.  The region map's pool tasks are pure
# Python, so a second thread only contends for the interpreter lock and
# adds the host's scheduling noise; fs-curve's tasks spend most of their
# time in numpy and scipy, so it runs the pool at up to two threads.
THREADS = {"shoot": min(2, NPROC), "fs-curve": min(2, NPROC),
           "regionmap": 1, "point-mix": min(2, NPROC)}
# numpy's BLAS runs single-threaded: its own pool of nproc threads, which
# spin while they wait, would share the cores with the program's threads
# (on 2 cores it slowed fs-curve by a quarter and tripled its spread)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
WALL_CAP_S = 140.0         # no new request after this much wall time
TRACE_CYCLES = {"shoot": 1, "fs-curve": 2, "regionmap": 1, "point-mix": 30}
LAYERS = ("params", "profiles", "radial", "spectrum", "energy")

# documented defects, run in every traced pass and counted, never part
# of a workload's timed requests
DEFECT_PROBES = {
    # the threshold search loses its bracket for a <= -15 (N = 2, 3) and
    # a <= -20 (N = 4)
    "spectrum": [Request("fs-curve", ("fs-curve", "--N", str(N),
                                      f"--a-min={a}", f"--a-max={a}",
                                      "--steps", "1"), 1,
                         {"N": N, "a_min": a, "a_max": a, "steps": 1})
                 for N, a in ((2, -16.0), (3, -16.0), (3, -25.0), (4, -22.0))],
    # energy misses grad_sq = lp at large lam; its r-space dual check
    # overflows for N = 2 at large p * lam
    "energy": [Request("energy-csv", ("energy", "--N", "3", "--a=-40",
                                      "--b=-39.5"), 1),
               Request("energy-json", ("energy", "--N", "2", "--a=-2.55",
                                       "--b=-2.35", "--format", "json"), 1)],
}


class BenchError(Exception):
    pass


class Context:
    """Paths, settings and the worker processes of one run."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.threads = THREADS[workload]
        self.tmp = root / ".perfbench_tmp" / str(os.getpid())
        self.workers = []
        self.start = time.monotonic()
        self._dirs = itertools.count()

    def new_dir(self) -> Path:
        path = self.tmp / f"w{next(self._dirs)}"
        path.mkdir(parents=True)
        return path

    def env(self, threads: int = None) -> dict:
        threads = self.threads if threads is None else threads
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("PYTHON", "CKN_LAB_"))}
        env.update(PYTHONPATH=str(self.src), CKN_LAB_THREADS=str(threads),
                   **{var: "1" for var in BLAS_THREAD_VARS})
        return env

    def cleanup(self) -> None:
        for worker in self.workers:
            worker.kill()
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it


class Worker:
    """A fresh interpreter serving CLI requests (see worker.py)."""

    def __init__(self, ctx: Context, *, trace: bool = False,
                 threads: int = None):
        self.dir = ctx.new_dir()
        self.log = open(self.dir / "worker.stderr", "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--trace",
             str(int(trace)), "--warmup", json.dumps(WARMUP[ctx.workload])],
            cwd=self.dir, env=ctx.env(threads), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self.log, text=True)
        ctx.workers.append(self)
        ready = self._read()
        self.setup_s = time.perf_counter() - t0
        if ready.get("warmup_rc") != 0:
            raise BenchError(f"warm-up request failed: {ready}")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.log.flush()
            tail = (self.dir / "worker.stderr").read_text()[-2000:]
            raise BenchError(f"worker exited early:\n{tail}")
        return json.loads(line)

    def _send(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def request(self, argv) -> dict:
        out = self.dir / "out"
        reply = self._send({"argv": list(argv), "out": str(out)})
        with open(out, newline="") as fh:
            reply["text"] = fh.read()
        reply["bytes"] = out.stat().st_size
        out.unlink()
        return reply

    def close(self) -> dict:
        info = self._send({"exit": True})
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.log.close()
        return info

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


class Record:
    """Outcome of one request."""

    def __init__(self, req, reply, verdict):
        self.req = req
        self.rc = reply["rc"]
        self.wall = reply["wall"]
        self.lib = reply.get("lib", 0.0)
        self.bytes = reply["bytes"]
        self.digest = hashlib.sha256(reply["text"].encode()).hexdigest()
        self.verdict = verdict

    @property
    def ok(self) -> bool:
        return self.verdict.ok


def _oracle(ctx: Context):
    """The region map's scalar reference, imported from the checkout."""
    if ctx.workload != "regionmap":
        return None
    sys.path.insert(0, str(ctx.src))
    from ckn_lab.params import region_label
    return region_label


def serve(ctx: Context, worker: Worker, batches, region_label,
          seconds: float = float("inf")):
    """Send the requests of whole cycles one after another, checking each
    reply, until ``seconds`` of request time are spent."""
    records, elapsed = [], 0.0
    for cycle in batches:
        if elapsed >= seconds:
            break
        for req in cycle:
            if time.monotonic() - ctx.start > WALL_CAP_S:
                return records
            reply = worker.request(req.argv)
            records.append(Record(req, reply, _check(req, reply, region_label)))
            elapsed += reply["wall"]
    return records


def _check(req, reply, region_label=None):
    verdict = oracles.check(req, reply["rc"], reply["text"], region_label)
    if not verdict.ok and reply["err"]:
        verdict.reason += f" ({reply['err'].strip()[-300:]})"
    return verdict


def _tail(walls):
    """Highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return None
    k = n - 11
    return sorted(walls)[k], 100.0 * (k + 1) / n


def _class_seconds(records) -> float:
    """Request time of ``records`` with each request counted at the
    median time of its class (same kind and size) in the run."""
    walls = collections.defaultdict(list)
    for r in records:
        walls[(r.req.kind, r.req.work)].append(r.wall)
    return sum(len(w) * statistics.median(w) for w in walls.values())


def _metric(value, unit, reason=None):
    out = {"value": value, "unit": unit}
    if reason:
        out["reason"] = reason
    return out


def _failures(records, label):
    for r in records:
        if not r.ok:
            yield f"  FAILED {label}: {' '.join(r.req.argv)}: {r.verdict.reason}"


# ---------------------------------------------------------------------------
# --trace 0

def end_to_end(ctx: Context, seconds: float):
    region_label = _oracle(ctx)
    setups = []
    for i in range(SETUPS):
        worker = Worker(ctx)
        setups.append(worker.setup_s)
        if i < SETUPS - 1:
            worker.close()

    # work_per_s counts whole cycles only; the finale runs outside the
    # time budget
    measured = serve(ctx, worker, cycles(ctx.workload, ctx.seed),
                     region_label, seconds)
    records = measured + serve(ctx, worker, [finale(ctx.workload, ctx.seed)],
                               region_label)
    info = worker.close()
    walls = [r.wall for r in records]
    elapsed = sum(walls)
    work = sum(r.req.work for r in measured if r.ok)
    failed = sum(not r.ok for r in records)
    tail = _tail(walls)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "work_per_s": _metric(work / _class_seconds(measured), "1/s"),
        "req_p50_s": _metric(statistics.median(walls), "s"),
        "peak_rss_mb": _metric(info["maxrss_kb"] / 1024.0, "MiB"),
    }
    lines = [
        f"workload {ctx.workload} seed {ctx.seed}: {len(records)} requests, "
        f"{elapsed:.3f} s of request time, CKN_LAB_THREADS={ctx.threads}",
        f"  setup_s      {metrics['setup_s']['value']:.4f} s   "
        f"(median of {SETUPS}: {', '.join(f'{s:.3f}' for s in setups)})",
        f"  work_per_s   {metrics['work_per_s']['value']:.6g} "
        f"{WORK_UNIT[ctx.workload]}/s",
        f"  req_p50_s    {metrics['req_p50_s']['value']:.6g} s",
        (f"  req_tail_s   {tail[0]:.6g} s   (p{tail[1]:.2f} of {len(walls)} "
         f"requests, 10 beyond it)" if tail else
         f"  req_tail_s   n/a   ({len(walls)} requests; a tail needs 11)"),
        f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MiB",
        f"  fail_ratio   {failed / max(len(records), 1):.6g}   "
        f"({failed} of {len(records)} requests failed)",
    ]
    lines.extend(_failures(records, "request"))
    return len(records), failed, metrics, lines


# ---------------------------------------------------------------------------
# --trace 1

# function whose calls a metric needs, and the workloads that must call it
_SOURCE = {
    "radial.shoot_homoclinic_calls": "radial.shoot_homoclinic",
    "radial.shoot_homoclinic_s": "radial.shoot_homoclinic",
    "spectrum.find_fs_threshold_calls": "spectrum.find_fs_threshold",
    "spectrum.find_fs_threshold_s": "spectrum.find_fs_threshold",
    "spectrum.eigensolves_per_threshold": "spectrum.fs_mode_eigenvalue",
    "spectrum.principal_eigenvalue_s": "spectrum.principal_eigenvalue",
    "spectrum.build_mode_operator_s": "spectrum.build_mode_operator",
    "radial.residual_autonomous_s": "radial.residual_autonomous",
    "profiles.sample_extremal_calls": "profiles.sample_extremal",
    "profiles.sample_extremal_s": "profiles.sample_extremal",
    "spectrum.mode_eigenvalues_s": "spectrum.mode_eigenvalues",
    "energy.verify_dual_energy_s": "energy.verify_dual_energy",
    "energy.energy_report_s": "energy.energy_report",
    "energy.hardy_check_s": "energy.hardy_check",
    "params.region_label_calls": "params.region_label",
    "params.region_label_s": "params.region_label",
}
_EXPECTED = {
    "radial.shoot_homoclinic": {"shoot"},
    "spectrum.find_fs_threshold": {"fs-curve"},
    "spectrum.fs_mode_eigenvalue": {"fs-curve"},
    "spectrum.principal_eigenvalue": {"fs-curve"},
    "spectrum.build_mode_operator": {"fs-curve", "point-mix"},
    "radial.residual_autonomous": {"fs-curve", "point-mix"},
    "profiles.sample_extremal": {"fs-curve", "point-mix"},
    "spectrum.mode_eigenvalues": {"point-mix"},
    "energy.verify_dual_energy": {"point-mix"},
    "energy.energy_report": {"point-mix"},
    "energy.hardy_check": {"point-mix"},
    "params.region_label": {"regionmap"},
}


def _import_seconds(ctx: Context, module: str) -> float:
    code = ("import time; t = time.perf_counter(); import " + module +
            "; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ctx.new_dir(),
                              env=ctx.env(), capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"import {module} failed: {proc.stderr[-500:]}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def _replay(ctx, records, threads):
    """Rerun the traced requests untraced; bytes must not change."""
    worker = Worker(ctx, threads=threads)
    walls, mismatched = [], []
    for r in records:
        reply = worker.request(r.req.argv)
        walls.append(reply["wall"])
        if (reply["rc"] != r.rc or
                hashlib.sha256(reply["text"].encode()).hexdigest() != r.digest):
            mismatched.append(r)
    return worker, walls, mismatched


def per_layer(ctx: Context):
    region_label = _oracle(ctx)
    import_s = {m: _import_seconds(ctx, m)
                for m in ("ckn_lab.cli", "ckn_lab.params")}
    batches = itertools.islice(cycles(ctx.workload, ctx.seed),
                               TRACE_CYCLES[ctx.workload])
    worker = Worker(ctx, trace=True)
    records = serve(ctx, worker, batches, region_label)
    layers = worker.close()["layers"]
    untraced, walls_u, mism_u = _replay(ctx, records, ctx.threads)
    untraced.close()
    single, walls_1, mism_1 = _replay(ctx, records, 1)
    probes = {layer: [(req, _check(req, single.request(req.argv)))
                      for req in reqs]
              for layer, reqs in DEFECT_PROBES.items()}
    single.close()

    calls, secs, errors = layers["calls"], layers["seconds"], layers["errors"]
    margins = {}
    for r in records:
        for k, v in r.verdict.margins.items():
            margins[k] = max(margins.get(k, 0.0), v)
    fs_calls = calls.get("spectrum.find_fs_threshold", 0)
    work = sum(r.req.work for r in records if r.ok)
    values = {
        "cli.import_s": (import_s["ckn_lab.cli"], "s"),
        "params.import_s": (import_s["ckn_lab.params"], "s"),
        "radial.amp_rel_err_max": (margins.get("amp_rel_err", 0.0), "1"),
        "spectrum.eigensolves_per_threshold": (
            calls.get("spectrum.fs_mode_eigenvalue", 0) / fs_calls
            if fs_calls else 0.0, "count"),
        "spectrum.threshold_abs_err_max": (
            margins.get("threshold_abs_err", 0.0), "1"),
        "energy.identity_rel_dev_max": (
            margins.get("identity_rel_dev", 0.0), "1"),
        "cli.self_s": (sum(r.wall - r.lib for r in records), "s"),
        "cli.out_bytes": (sum(r.bytes for r in records), "bytes"),
        "cli.errors": (sum(r.rc != 0 for r in records), "count"),
        "trace.overhead_s": (sum(r.wall for r in records) - sum(walls_u), "s"),
        "cli.threads1_work_per_s": (work / sum(walls_1), "1/s"),
    }
    for name, fn in _SOURCE.items():
        if name.endswith("_calls"):
            values[name] = (calls.get(fn, 0), "count")
        elif name.endswith("_s"):
            values[name] = (secs.get(fn, 0.0), "s")
    for layer in LAYERS:
        values[f"{layer}.errors"] = (sum(
            n for k, n in errors.items() if k.startswith(layer + "/")), "count")
    for layer, results in probes.items():
        values[f"{layer}.defect_probe_failures"] = (
            sum(not v.ok for _, v in results), "count")

    metrics = {}
    for name, (value, unit) in sorted(values.items()):
        fn = _SOURCE.get(name)
        if fn and ctx.workload in _EXPECTED[fn] and not calls.get(fn):
            metrics[name] = _metric(
                None, unit, f"{fn} recorded no calls on {ctx.workload}, "
                "which should exercise it; the wrapper no longer sits where "
                "the caller looks the function up")
        else:
            metrics[name] = _metric(value, unit)

    failed = [r for r in records if not r.ok] + mism_u + mism_1
    lines = [f"workload {ctx.workload} seed {ctx.seed} (traced): "
             f"{len(records)} requests replayed traced, untraced and with "
             f"CKN_LAB_THREADS=1"]
    for name, m in metrics.items():
        shown = "null" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {name:36s} {shown} {m['unit']}"
                     + (f"   ({m['reason']})" if "reason" in m else ""))
    for key, n in sorted(errors.items()):
        lines.append(f"  error {key}: {n}")
    for layer, results in probes.items():
        for req, v in results:
            lines.append(f"  defect probe {' '.join(req.argv)}: "
                         f"{'passes' if v.ok else 'fails: ' + v.reason[:160]}")
    lines.extend(_failures(records, "traced request"))
    for r in mism_u + mism_1:
        lines.append(f"  FAILED replay differs: {' '.join(r.req.argv)}")
    attempted = 3 * len(records)
    return attempted, len(failed), metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ckn_lab" / "cli.py").is_file():
        print(f"no ckn-lab checkout at {root}: src/ckn_lab/cli.py is missing",
              file=sys.stderr)
        return 2
    ctx = Context(root, args.workload, args.seed)
    try:
        if args.trace:
            attempted, failed, metrics, lines = per_layer(ctx)
        else:
            attempted, failed, metrics, lines = end_to_end(ctx, args.seconds)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        ctx.cleanup()
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
