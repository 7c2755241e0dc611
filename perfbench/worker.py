"""Benchmark worker: one fresh interpreter that serves CLI requests.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and a scratch working directory.  It imports ``ckn_lab.cli``,
runs one warm-up request, reports ready, then reads one JSON request per
line on stdin and answers one JSON line on stdout:

    {"argv": [...], "out": path}  ->  {"rc", "wall", "err", "lib"}
    {"exit": true}                ->  {"maxrss_kb", "layers"}

Each request calls ``ckn_lab.cli.main(argv)`` in process, with the CLI's
stdout sent to ``path`` and its stderr captured; ``wall`` is the time
inside ``main``.  With ``--trace 1`` the public library functions are
wrapped under the names their callers look them up by (for example
``ckn_lab.cli.find_fs_threshold`` and ``ckn_lab.spectrum.sample_extremal``)
and the worker reports calls, busy (CPU) time and errors per function.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import resource
import sys
import threading
import time
import types

# called once per quadrature node inside energy's r-space integrals;
# wrapping them would time the wrapper, not the layer
_HOT = {"extremal_radial_value", "to_radial_u"}
# namespaces whose lookups are wrapped: the CLI and the two layers that
# call other layers' public functions once per solve or integral
_CALLERS = ("cli", "spectrum", "energy")


class _Stats:
    """One thread's counters; only that thread writes them."""

    def __init__(self):
        self.depth = 0
        self.calls = {}
        self.seconds = {}
        self.top = []  # start, end, start, end, ... of outermost calls


class Tracer:
    """Calls, busy seconds and escaping errors per public function.

    Busy seconds are the calling thread's CPU time inside the function,
    callees included, summed over threads: under the interpreter lock a
    pool thread's wall time would also count the time it waits while
    another thread runs.  Spans stay in memory, in per-thread counters
    (no lock on the hot path).  The outermost library calls of a request,
    from any thread, are kept as intervals, so the CLI's own time is the
    request's wall time minus their union.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.threads = []
        self.errors = {}
        tracer = self

        class Local(threading.local):
            def __init__(self):
                self.stats = _Stats()
                with tracer.lock:
                    tracer.threads.append(self.stats)

        self.local = Local()

    def wrap(self, layer: str, fn, error_type):
        key = f"{layer}.{fn.__name__}"
        local, clock, cpu = self.local, time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = local.stats
            depth = st.depth
            st.depth = depth + 1
            t0, c0 = clock(), cpu()
            try:
                return fn(*args, **kwargs)
            except error_type as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    with self.lock:
                        ek = f"{layer}/{exc.code}"
                        self.errors[ek] = self.errors.get(ek, 0) + 1
                raise
            finally:
                c1, t1 = cpu(), clock()
                st.depth = depth
                st.calls[key] = st.calls.get(key, 0) + 1
                st.seconds[key] = st.seconds.get(key, 0.0) + (c1 - c0)
                if depth == 0:
                    st.top.append(t0)
                    st.top.append(t1)

        return traced

    def install(self, package) -> None:
        import importlib

        for caller in _CALLERS:
            ns = importlib.import_module(f"{package.__name__}.{caller}")
            for name, obj in list(vars(ns).items()):
                if (not isinstance(obj, types.FunctionType) or name in _HOT
                        or not obj.__module__.startswith(package.__name__ + ".")):
                    continue
                owner = sys.modules[obj.__module__]
                if name not in getattr(owner, "__all__", ()):
                    continue  # private helper or entry point
                if caller == "cli" and obj.__module__.endswith(".cli"):
                    continue  # main/run are the request itself
                layer = obj.__module__.rsplit(".", 1)[1]
                setattr(ns, name, self.wrap(layer, obj, package.CknLabError))

    def library_seconds(self) -> float:
        """Union length of the outermost library calls since the last
        call, then forget them."""
        spans = []
        with self.lock:
            for st in self.threads:
                spans.extend(zip(st.top[0::2], st.top[1::2]))
                st.top = []
        spans.sort()
        total, end = 0.0, float("-inf")
        for t0, t1 in spans:
            if t1 <= end:
                continue
            total += t1 - max(t0, end)
            end = t1
        return total

    def reset(self) -> None:
        self.library_seconds()
        with self.lock:
            self.errors.clear()
            for st in self.threads:
                st.calls.clear()
                st.seconds.clear()

    def report(self) -> dict:
        calls, seconds = {}, {}
        with self.lock:
            for st in self.threads:
                for key, n in st.calls.items():
                    calls[key] = calls.get(key, 0) + n
                for key, t in st.seconds.items():
                    seconds[key] = seconds.get(key, 0.0) + t
            return {"calls": calls, "seconds": seconds,
                    "errors": dict(self.errors)}


def _serve(proto, tracer) -> None:
    import ckn_lab.cli as cli

    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("exit"):
            usage = resource.getrusage(resource.RUSAGE_SELF)
            proto.write(json.dumps({
                "maxrss_kb": usage.ru_maxrss,
                "layers": tracer.report() if tracer else None}) + "\n")
            proto.flush()
            return
        err = io.StringIO()
        with open(msg["out"], "w", newline="") as out:
            sys.stdout, sys.stderr = out, err
            t0 = time.perf_counter()
            try:
                rc = cli.main(list(msg["argv"]))
            except Exception as exc:  # a crash is a failed request
                rc = f"uncaught {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            sys.stdout, sys.stderr = proto, sys.__stderr__
        reply = {"rc": rc, "wall": wall, "err": err.getvalue()[-2000:]}
        if tracer:
            reply["lib"] = tracer.library_seconds()
        proto.write(json.dumps(reply) + "\n")
        proto.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--warmup", required=True,
                        help="JSON argv of the warm-up request")
    args = parser.parse_args()
    proto = sys.stdout

    import ckn_lab
    import ckn_lab.cli as cli

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(ckn_lab)
    with open("warmup.out", "w") as out:
        sys.stdout = out
        try:
            rc = cli.main(json.loads(args.warmup))
        finally:
            sys.stdout = proto
    if tracer:
        tracer.reset()
    proto.write(json.dumps({"ready": True, "warmup_rc": rc}) + "\n")
    proto.flush()
    _serve(proto, tracer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
