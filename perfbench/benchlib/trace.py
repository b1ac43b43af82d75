"""In-memory span tracing around calls into the program's layers.

A span is ``(id, parent, name, start_ns, end_ns)``.  Spans stay in a
list in memory and are written out once, when the run ends.  The clock
is ``time.perf_counter_ns`` (``CLOCK_MONOTONIC`` on Linux), which every
process of the host shares, so spans recorded in forked executor
workers line up with the parent's.

:func:`instrument` wraps the public functions of the layers the
benchmark crosses — ``RunSpec.key``/``run``, ``ResultCache.get``/``put``
and the service protocol's line decoder — from the benchmark's side;
nothing inside the program is edited.  ``RunSpec.run`` is replaced by
:func:`repro_kernel_run`, which builds the same system as
``repro.sim.runner.run_system`` with the simulator's kernel profile
attached.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: int                        # ns, perf_counter_ns clock
    end: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


def covered(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Span id -> its duration minus the union of its children's
    intervals.  Children of one span may overlap (two executor workers
    under one ``run_many``), which is why this is a union, not a sum."""
    spans = list(spans)
    kids: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        kids.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(kids.get(s.id, ()), s.start, s.end)
            for s in spans}


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self, spill_dir: Optional[str] = None):
        self.spans: list[Span] = []
        #: kernel-profile records, one per simulation run
        self.kernels: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._next = 1
        self._pid = os.getpid()
        self._worker_pid = 0
        self._spilled = (0, 0)
        #: where forked workers leave their spans and kernel records
        self.spill_dir = spill_dir

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, attrs))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # -- forked workers ------------------------------------------------------

    def in_worker(self) -> bool:
        """True in a process forked from the one that made the tracer.
        The first call there restarts span ids in a range of the
        worker's own, so spans of two workers cannot collide."""
        pid = os.getpid()
        if pid == self._pid:
            return False
        if self._worker_pid != pid:
            self._worker_pid = pid
            self._spilled = (len(self.spans), len(self.kernels))
            self._next = pid * 1_000_000
        return True

    def spill(self) -> None:
        """Worker side: write the records made since the last spill
        where the parent's :meth:`collect_spilled` finds them."""
        n_spans, n_kernels = self._spilled
        rec = {"spans": [[s.id, s.parent, s.name, s.start, s.end]
                         for s in self.spans[n_spans:]],
               "kernels": self.kernels[n_kernels:]}
        self._spilled = (len(self.spans), len(self.kernels))
        path = os.path.join(self.spill_dir,
                            f"w{os.getpid()}-{time.perf_counter_ns()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rec, fh)

    def collect_spilled(self) -> None:
        """Parent side: fold every worker's spilled records in."""
        if not self.spill_dir or not os.path.isdir(self.spill_dir):
            return
        for name in sorted(os.listdir(self.spill_dir)):
            path = os.path.join(self.spill_dir, name)
            with open(path, encoding="utf-8") as fh:
                rec = json.load(fh)
            os.remove(path)
            for sid, parent, sname, start, end in rec["spans"]:
                self.spans.append(Span(sid, parent, sname, start, end))
            self.kernels.extend(rec["kernels"])

    # -- output --------------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self, path: str, header: dict) -> None:
        """Write the pass as JSONL: a header line, then one line per
        span in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({"id": s.id, "parent": s.parent,
                                     "name": s.name, "start": s.start,
                                     "end": s.end, **s.attrs}) + "\n")


def kernel_record(system, result) -> dict:
    """The deterministic counters and timings of one profiled run."""
    from repro.prof import component_of
    prof = system.sim.profile
    comps: dict[str, list] = {}
    for owner, (n, secs) in prof.by_owner.items():
        c = comps.setdefault(component_of(owner), [0, 0.0])
        c[0] += n
        c[1] += secs
    ff = system.sim.fast_forward_stats()
    return {
        "events": prof.events,
        "loop_s": prof.kernel_time,
        "cancelled": prof.cancelled_seen,
        "ff_jumps": ff["jumps"],
        "ff_ticks": ff["ticks_skipped"],
        "polls": prof.by_owner.get("MemoryController._try_issue", [0])[0],
        "dram_requests": prof.by_owner.get("DramSystem.send", [0])[0],
        "components": comps,
        "ticks": result.ticks,
        "frames": result.frames_rendered,
    }


def repro_kernel_run(spec, tracer: Tracer):
    """``RunSpec.run`` with the kernel profile attached — the same
    build/run/collect sequence as ``repro.sim.runner.run_system``."""
    from repro.policies import make_policy
    from repro.sim.metrics import collect
    from repro.sim.system import HeterogeneousSystem
    system = HeterogeneousSystem(spec.resolved_cfg(), spec.resolved_mix(),
                                 make_policy(spec.policy))
    system.sim.enable_profiling()
    system.run()
    result = collect(system)
    tracer.kernels.append(kernel_record(system, result))
    return result


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Patch the layer boundaries for one traced pass; restore on exit."""
    from repro.exec.cache import ResultCache
    from repro.exec.specs import RunSpec
    from repro.service import protocol

    originals = [(RunSpec, "key", RunSpec.key),
                 (RunSpec, "run", RunSpec.run),
                 (ResultCache, "get", ResultCache.get),
                 (ResultCache, "put", ResultCache.put),
                 (protocol, "load_line", protocol.load_line)]
    load_line = protocol.load_line

    def run(spec):
        worker = tracer.in_worker()
        with tracer.span("exec.specs.RunSpec.run"):
            result = repro_kernel_run(spec, tracer)
        if worker:
            tracer.spill()
        return result

    def decode(line):
        tracer.count("service.response_bytes", len(line))
        return load_line(line)

    RunSpec.key = tracer.wrap(RunSpec.key, "exec.specs.RunSpec.key")
    RunSpec.run = run
    ResultCache.get = tracer.wrap(ResultCache.get, "exec.cache.get")
    ResultCache.put = tracer.wrap(ResultCache.put, "exec.cache.put")
    protocol.load_line = decode
    try:
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
        tracer.collect_spilled()
