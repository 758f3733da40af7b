"""Outside-in layer tracing for the benchmark.

Nothing in `src/` knows about tracing.  `Tracer.install` replaces each traced
function with one timing wrapper and puts that wrapper at every `sncsim`
module attribute that refers to the original, so a call is recorded once
however the function was imported.  It also replaces
`sncsim.harness.ProcessPoolExecutor` with `TracedPool`, which counts the
tasks submitted and brings back the spans each task recorded in its worker.

A span is `(function id, start, end, parent span index, returned normally)`.
Spans stay in memory until `Tracer.summary` runs at the end of the run; a
span's self time is its duration minus the durations of its direct children.
A traced function that no longer exists is listed in `Tracer.missing`.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import sys
from concurrent.futures import Future, ProcessPoolExecutor
from time import perf_counter

# The installed tracer.  Forked pool workers inherit it with the wrappers.
_active: Tracer | None = None


class Tracer:
    def __init__(self, names):
        self.names = list(names)  # "layer.function", e.g. "gf.gf_rank"
        self.spans: list = []
        self.stack: list[int] = []
        self.remote: list[tuple[int, list]] = []  # (worker pid, spans) per task
        self.pool_tasks = 0
        self.missing: list[str] = []  # traced names this version lacks
        self._undo: list = []

    def install(self):
        global _active
        if _active is not None:
            raise RuntimeError("a tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "sncsim" or n.startswith("sncsim.")]
        for fid, name in enumerate(self.names):
            layer, fn_name = name.split(".")
            orig = getattr(sys.modules.get(f"sncsim.{layer}"), fn_name, None)
            if orig is None:
                self.missing.append(name)
                continue
            if hasattr(orig, "bench_fid"):
                raise RuntimeError(f"{name} is already wrapped")
            wrapper = self._wrap(fid, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        harness = sys.modules["sncsim.harness"]
        if getattr(harness, "ProcessPoolExecutor", None) is ProcessPoolExecutor:
            self._undo.append((harness, "ProcessPoolExecutor", ProcessPoolExecutor))
            harness.ProcessPoolExecutor = TracedPool
        _active = self

    def uninstall(self):
        global _active
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()
        _active = None

    def _wrap(self, fid, fn):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, ok)

        timed.bench_fid = fid
        return timed

    def summary(self) -> dict:
        """Calls, returns that raised, and self seconds per traced function;
        the outermost spans as (pid, start, end) and their summed duration;
        and a list of problems with the spans.

        A problem is an unfinished span, a span that does not lie inside its
        parent, a span whose children last longer than it does, or outermost
        spans of one process that overlap in time.
        """
        n = len(self.names)
        calls, raised, self_s = [0] * n, [0] * n, [0.0] * n
        roots, problems = [], []
        for pid, spans in [(os.getpid(), self.spans)] + self.remote:
            if any(span is None for span in spans):
                problems.append(f"a span never finished in process {pid}")
                continue
            own = [t1 - t0 for _, t0, t1, _, _ in spans]  # self time per span
            for fid, t0, t1, parent, ok in spans:
                calls[fid] += 1
                raised[fid] += not ok
                if parent >= 0:
                    _, p0, p1, _, _ = spans[parent]
                    if not p0 <= t0 <= t1 <= p1:
                        problems.append(f"a {self.names[fid]} span lies outside "
                                        f"its parent {self.names[spans[parent][0]]}")
                    own[parent] -= t1 - t0
                else:
                    roots.append((pid, t0, t1))
            for (fid, t0, t1, _, _), s in zip(spans, own):
                if s < -1e-9 * (t1 - t0):
                    problems.append(f"children of a {self.names[fid]} span last "
                                    "longer than the span")
                self_s[fid] += s
        roots.sort()
        for (pid, _, end), (pid2, start, _) in zip(roots, roots[1:]):
            if pid == pid2 and start < end:
                problems.append(f"outermost spans overlap in process {pid}")
        return {"calls": dict(zip(self.names, calls)),
                "raised": dict(zip(self.names, raised)),
                "self_s": dict(zip(self.names, self_s)),
                "roots": roots,
                "root_s": sum(t1 - t0 for _, t0, t1 in roots),
                "problems": problems}


def _run_task(fn, *args, **kwargs):
    """Pool-worker side of TracedPool: run one task with fresh spans."""
    tracer = _active
    tracer.spans, tracer.stack = [], []
    return fn(*args, **kwargs), (os.getpid(), tracer.spans)


class TracedPool(ProcessPoolExecutor):
    """ProcessPoolExecutor that counts submitted tasks (`map` submits one per
    chunk) and collects the spans each task recorded in its worker."""

    def __init__(self, *args, **kwargs):
        if kwargs.get("mp_context") is None and multiprocessing.get_start_method() != "fork":
            raise RuntimeError("tracing pool workers needs the fork start method")
        super().__init__(*args, **kwargs)

    def submit(self, fn, /, *args, **kwargs):
        tracer = _active
        tracer.pool_tasks += 1
        inner = super().submit(_run_task, fn, *args, **kwargs)
        outer = Future()

        def relay(f):
            if f.cancelled():
                outer.cancel()
                return
            if not outer.set_running_or_notify_cancel():
                return
            exc = f.exception()
            if exc is not None:
                outer.set_exception(exc)
                return
            result, spans = f.result()
            tracer.remote.append(spans)
            outer.set_result(result)

        inner.add_done_callback(relay)
        return outer
