"""Deterministic discrete-event simulation kernel.

The whole reproduction runs on one :class:`Simulator`: components schedule
callbacks at integer tick times and the kernel executes them in
``(time, sequence)`` order, so ties are broken by scheduling order and every
run is bit-reproducible.

This is the hottest loop in the package, and it is hand-tuned:

* **Calendar queue.**  Events live in per-tick *buckets* (a dict keyed by
  tick) and a binary heap orders only the *distinct* tick values.  Almost
  every delay in the simulated machine is a small constant (1-10 tick ring
  hops, the 10-cycle LLC lookup, 4-tick DRAM command cycles), so most
  schedules land on a tick that already has a bucket — an O(1) list append
  with no comparisons at all.  Only the first event of a tick touches the
  heap, and those comparisons are C-level int compares, never a Python
  ``__lt__``.  Within a bucket, append order *is* ``seq`` order, so
  execution order is exactly the old kernel's ``(time, seq)`` order
  (proven by the golden tests in ``tests/sim/test_engine_golden.py``).

* **Closure-free scheduling.**  :meth:`Simulator.at_call` /
  :meth:`Simulator.after_call` store ``(fn, arg)`` directly in the event's
  slots, so the per-memory-access hot paths (core/GPU -> LLC -> DRAM)
  schedule without allocating a lambda or bound-method closure per event.

* **O(1) bookkeeping.**  ``pending()`` reads a live-event counter that
  :meth:`Event.cancel` and the run loop maintain; cancellation stays lazy,
  and when cancelled entries outnumber live ones the queue is compacted in
  place so long runs with heavy cancellation (DRAM ``_kick`` retimers, ATU
  gating) stay bounded in memory.

* **Opt-in profiling.**  ``enable_profiling()`` attaches a
  :class:`repro.prof.KernelProfile`; the default path checks one attribute
  per ``run()`` call — per-event cost is strictly zero when disabled.

* **Parked re-poll chains.**  :meth:`Simulator.park` stands in for a
  callback that re-arms itself with ``at_call(now + 1, ...)`` on every
  tick, doing nothing, until a known *wake* tick (the DRAM controller's
  no-op poll while reads wait on busy banks).  Such a chain matters only
  through its ``(time, seq)`` slot — which same-tick events run before
  or after its eventual real poll — so the kernel keeps one
  :class:`Parked` record holding the chain's virtual tick and a ``seq``
  threshold instead of executing one event per tick.  The slot rule:

  - in bucket ``t`` the record's slot comes just before the first event
    whose ``seq`` exceeds the threshold, or at the end of the bucket;
    there, if ``t < wake``, it moves to ``(t + 1, _seq)`` — exactly
    where the no-op step's ``at_call(t + 1)`` would have landed;
  - a record crossing empty ticks arrives at the next bucket with the
    threshold set to the current ``_seq`` (nothing ran in between);
  - when ``run(until=)`` returns, records at or before ``until`` move
    to ``(until + 1, _seq)``; ``stop()``/``max_events`` leave them
    where they are;
  - at ``t >= wake`` the slot calls ``fn(arg)``, which counts as an
    executed event of that owner.

  Records keep their slots in one list sorted by ``(tick, threshold,
  parking order)``, which is the order the real chain's events would
  have had.  ``parked_ticks`` counts the slots passed without executing
  (see ``tests/sim/test_park_oracle.py`` for the chain-vs-record proof).

:class:`ReferenceSimulator` preserves the previous single-heap kernel
verbatim.  It is not used by the simulator itself; it exists so the
equivalence tests and ``scripts/bench_kernel.py`` can compare order and
speed against the pre-calendar-queue implementation.  Its ``park`` runs
the real per-tick chain, so full-system runs on it are the oracle for
parking too.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

#: sentinel marking "no argument" on plain (closure-carrying) events
_NO_ARG = object()

#: compact when more than this many cancelled entries are enqueued AND
#: they outnumber the live ones (see Simulator._maybe_compact)
_COMPACT_MIN = 64

#: beyond every real ``seq`` and tick: "no parked slot here" / "no tick"
_NEVER = 1 << 62


class Event:
    """A scheduled callback.  ``cancel()`` is O(1) (lazy deletion)."""

    __slots__ = ("time", "seq", "fn", "arg", "sim", "cancelled")

    def __init__(self, time: int, seq: int, fn: Callable, arg: Any,
                 sim: Optional["Simulator"]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.arg = arg
        self.sim = sim
        self.cancelled = False

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            sim = self.sim
            if sim is not None:
                sim._live -= 1
                sim._cancelled += 1

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class Parked:
    """A parked re-poll chain (see :meth:`Simulator.park`).

    ``time`` is the chain's virtual tick and ``seq`` its threshold: the
    slot sits after every event of that tick with ``seq <= threshold``
    and before the rest.  ``wake`` may be lowered (never raised) while
    the record is live; ``cancel()`` is O(records).
    """

    __slots__ = ("time", "seq", "wake", "fn", "arg", "sim", "cancelled")

    def __init__(self, time: int, seq: int, wake: int, fn: Callable,
                 arg: Any, sim: Optional["Simulator"]):
        self.time = time
        self.seq = seq
        self.wake = wake
        self.fn = fn
        self.arg = arg
        self.sim = sim
        self.cancelled = False

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            sim = self.sim
            if sim is not None:
                self.sim = None
                sim._parked.remove(self)
                sim._live -= 1
                sim._size -= 1


class Simulator:
    """Event queue with integer time in ticks (1 tick = 1 CPU cycle).

    Scheduling API:

    * ``at(time, fn)`` / ``after(delay, fn)`` — call ``fn()`` (any
      callable, including closures).
    * ``at_call(time, fn, arg)`` / ``after_call(delay, fn, arg)`` — call
      ``fn(arg)``; the pair is stored in the event's slots, so hot paths
      avoid allocating a closure per scheduled callback.
    * ``park(fn, arg, wake)`` — a no-op ``now + 1`` re-poll chain that
      calls ``fn(arg)`` at its slot in tick ``wake``, without an event
      per tick (see the module docstring).
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._stop = False
        #: tick -> list of events at that tick, in scheduling (seq) order
        self._buckets: dict[int, list[Event]] = {}
        #: heap of the distinct tick values present in ``_buckets``
        self._times: list[int] = []
        self._live = 0                  # scheduled, not cancelled, not run
        self._cancelled = 0             # cancelled but still enqueued
        self._size = 0                  # total enqueued entries
        #: idle-epoch fast-forward accounting: the run loop advances the
        #: clock bucket-to-bucket, so any gap between consecutive event
        #: ticks is skipped in one heap pop.  ``ff_jumps`` counts the
        #: jumps that crossed at least one empty tick and ``ff_ticks``
        #: the total ticks never visited — evidence that idle intervals
        #: cost O(1), not O(interval).
        self.ff_jumps = 0
        self.ff_ticks = 0
        #: parked re-poll chains, sorted by (tick, threshold, parking
        #: order); mutated in place only (the run loop aliases it)
        self._parked: list[Parked] = []
        #: slots a parked chain passed without executing
        self.parked_ticks = 0
        #: attached :class:`repro.prof.KernelProfile`, or None (default)
        self.profile = None

    # -- scheduling (each variant inlines the push: this is the hot path) --

    def at(self, time: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at absolute ``time`` (must be >= now)."""
        if time < self.now:
            raise ValueError(f"schedule in the past: {time} < {self.now}")
        self._seq += 1
        t = int(time)
        ev = Event(t, self._seq, fn, _NO_ARG, self)
        b = self._buckets.get(t)
        if b is None:
            self._buckets[t] = [ev]
            heapq.heappush(self._times, t)
        else:
            b.append(ev)
        self._size += 1
        self._live += 1
        return ev

    def after(self, delay: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` ``delay`` ticks from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        t = self.now + int(delay)
        ev = Event(t, self._seq, fn, _NO_ARG, self)
        b = self._buckets.get(t)
        if b is None:
            self._buckets[t] = [ev]
            heapq.heappush(self._times, t)
        else:
            b.append(ev)
        self._size += 1
        self._live += 1
        return ev

    def at_call(self, time: int, fn: Callable[[Any], None],
                arg: Any) -> Event:
        """Schedule ``fn(arg)`` at absolute ``time`` without a closure."""
        if time < self.now:
            raise ValueError(f"schedule in the past: {time} < {self.now}")
        self._seq += 1
        t = int(time)
        ev = Event(t, self._seq, fn, arg, self)
        b = self._buckets.get(t)
        if b is None:
            self._buckets[t] = [ev]
            heapq.heappush(self._times, t)
        else:
            b.append(ev)
        self._size += 1
        self._live += 1
        return ev

    def after_call(self, delay: int, fn: Callable[[Any], None],
                   arg: Any) -> Event:
        """Schedule ``fn(arg)`` ``delay`` ticks from now, closure-free."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        t = self.now + int(delay)
        ev = Event(t, self._seq, fn, arg, self)
        b = self._buckets.get(t)
        if b is None:
            self._buckets[t] = [ev]
            heapq.heappush(self._times, t)
        else:
            b.append(ev)
        self._size += 1
        self._live += 1
        return ev

    def park(self, fn: Callable[[Any], None], arg: Any,
             wake: int) -> Parked:
        """Behave exactly like ``at_call(now + 1, fn, arg)`` re-armed by
        a no-op ``fn`` on every tick before ``wake``: ``fn(arg)`` runs
        once, at the chain's slot in tick ``max(now + 1, wake)``.

        The caller owns the claim that ``fn`` would be a no-op before
        ``wake``; it may lower ``wake`` (to ``now``, say, when an input
        arrives before the slot has passed) or ``cancel()`` the record.
        """
        rec = Parked(self.now + 1, self._seq, int(wake), fn, arg, self)
        self._parked.append(rec)      # newest slot: sorts last
        self._size += 1
        self._live += 1
        return rec

    # -- parked chains (see the module docstring for the slot rule) -------

    def _pass_slots(self, t: int, limit: Optional[int]) -> Optional[Parked]:
        """Pass the slots of tick ``t``'s records whose threshold is below
        ``limit`` (all of them when ``None``), moving each to
        ``(t + 1, _seq)``; stop at, unlink and return the first one that
        must fire instead.  ``None`` when no such slot is left."""
        parked = self._parked
        while parked:
            rec = parked[0]
            if rec.time != t or (limit is not None and rec.seq >= limit):
                return None
            del parked[0]
            if t >= rec.wake:
                rec.sim = None         # a late cancel() must not recount
                self._live -= 1
                self._size -= 1
                return rec
            self.parked_ticks += 1
            rec.time = t + 1
            rec.seq = self._seq
            parked.append(rec)
        return None

    def _cross(self, target: int) -> None:
        """Move every record before ``target`` across the empty ticks up
        to it.  Nothing runs in between, so each arrives with the current
        ``_seq``; a record further behind passed its last slot *after*
        the ones ahead of it, so it sorts after them."""
        parked = self._parked
        n = 0
        while n < len(parked) and parked[n].time < target:
            n += 1
        if not n:
            return
        crossing = sorted(parked[:n], key=lambda r: -r.time)  # stable
        seq = self._seq
        for rec in crossing:
            self.parked_ticks += target - rec.time
            rec.time = target
            rec.seq = seq
        parked[:] = parked[n:] + crossing

    def _next_parked_tick(self, until: Optional[int]) -> Optional[int]:
        """The next tick to run while chains are parked, crossing the
        records up to it; ``None`` when that is past ``until`` (the
        records then wait at ``until + 1``).  A record due to fire in a
        tick with no events gets an empty bucket there, so the run loop
        treats its slot like any other."""
        parked = self._parked
        fire = _NEVER
        for rec in parked:
            f = rec.time if rec.time > rec.wake else rec.wake
            if f < fire:
                fire = f
        times = self._times
        nxt = times[0] if times else _NEVER
        if fire < nxt:
            nxt = fire
            if until is None or fire <= until:
                self._buckets[fire] = []
                heapq.heappush(times, fire)
        if until is not None and nxt > until:
            self._cross(until + 1)
            return None
        if parked[0].time < nxt:
            self._cross(nxt)
        return nxt

    def _slot_at(self, t: int) -> int:
        """Threshold of the next parked slot in tick ``t``, or
        ``_NEVER``."""
        parked = self._parked
        return parked[0].seq if parked and parked[0].time == t \
            else _NEVER

    def _suspend(self, bucket: list, t: int, i: int, ncancelled: int) -> None:
        """Leave a bucket mid-way (``stop()``/``max_events``): keep the
        unexecuted suffix for a later ``run()``."""
        del bucket[:i]
        self._size -= i
        self._cancelled -= ncancelled
        if bucket:
            heapq.heappush(self._times, t)
        else:
            del self._buckets[t]

    # -- bookkeeping ------------------------------------------------------

    def pending(self) -> int:
        """Live (scheduled, not cancelled) events — O(1)."""
        return self._live

    def head(self) -> Optional[tuple[int, int]]:
        """``(tick, bucket length)`` of the earliest pending bucket.

        Read-only introspection for diagnostics (the invariant monitor's
        dump); ``None`` when the queue is empty.  While the run loop is
        mid-bucket the executing bucket's tick has already been popped
        from the heap, so this reports the *next* tick.
        """
        if not self._times:
            return None
        t = self._times[0]
        b = self._buckets.get(t)
        return (t, len(b) if b else 0)

    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stop = True

    def fast_forward_stats(self) -> dict[str, int]:
        """Idle-epoch fast-forward counters (see ``__init__``).

        A tick a parked chain passes counts as visited, as the real
        chain's event would have.  The one difference from running the
        real chain: a cancelled record leaves no dead step behind, so the
        tick after a cancel can now be skipped.  ``parked_ticks`` counts
        the slots passed without executing."""
        return {"jumps": self.ff_jumps, "ticks_skipped": self.ff_ticks,
                "parked_ticks": self.parked_ticks}

    def parked(self) -> list[tuple[str, int, int]]:
        """``(owner, tick, wake)`` of every parked chain, in slot order —
        read-only introspection for diagnostics."""
        from repro.prof import owner_of
        return [(owner_of(r.fn), r.time, r.wake) for r in self._parked]

    def enable_profiling(self):
        """Attach (and return) a :class:`repro.prof.KernelProfile`.

        Subsequent :meth:`run` calls record per-owner event counts and a
        wall-time breakdown.  Strictly opt-in: when no profile is
        attached the run loop takes the uninstrumented path.
        """
        from repro.prof import KernelProfile
        if self.profile is None:
            self.profile = KernelProfile()
        return self.profile

    def _maybe_compact(self) -> None:
        """Rebuild the queue without cancelled entries.

        Called only from safe points (between buckets in the run loop and
        from schedule calls outside it), never while a bucket is being
        iterated.  Rebuilds in place so the run loop's local aliases of
        ``_buckets``/``_times`` stay valid.
        """
        if self._cancelled < _COMPACT_MIN or \
                self._cancelled * 2 <= self._size:
            return
        buckets = self._buckets
        size = 0
        for t in list(buckets):
            b = buckets[t]
            keep = [ev for ev in b if not ev.cancelled]
            if not keep:
                del buckets[t]
            else:
                if len(keep) != len(b):
                    buckets[t] = keep
                size += len(keep)
        self._times[:] = buckets.keys()
        heapq.heapify(self._times)
        self._size = size + len(self._parked)
        self._cancelled = 0

    # -- the run loop -----------------------------------------------------

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` ticks, or ``max_events``.

        When ``until`` is given the clock always reaches it unless the
        run was cut short by ``stop()`` or ``max_events`` — even if the
        queue drains earlier — so consecutive ``run(until=...)`` calls
        observe a consistent clock.  Returns the number of events
        executed (fired parked chains included).
        """
        if self.profile is not None:
            return self._run_profiled(until, max_events)
        if max_events is not None and max_events < 1:
            max_events = 1            # old kernel ran one event, then cut
        executed = 0
        self._stop = False
        buckets = self._buckets
        times = self._times
        parked = self._parked
        heappop = heapq.heappop
        no_arg = _NO_ARG
        while times or parked:
            if self._cancelled > _COMPACT_MIN:
                self._maybe_compact()
                if not times and not parked:
                    break
            if parked:
                # the chain's ticks count as visited: no fast-forward
                t = self._next_parked_tick(until)
                if t is None:
                    self.now = until
                    return executed
            else:
                t = times[0]
                if until is not None and t > until:
                    if until > self.now + 1:
                        self.ff_jumps += 1
                        self.ff_ticks += until - self.now - 1
                    self.now = until
                    return executed
                if t > self.now + 1:  # idle epoch: skipped in one pop
                    self.ff_jumps += 1
                    self.ff_ticks += t - self.now - 1
            heappop(times)
            # the bucket stays in the dict while it executes, so an event
            # scheduling at the current tick appends to it and runs in
            # this same pass, in seq order
            bucket = buckets[t]
            self.now = t
            # per-bucket bookkeeping: ``_size``/``_cancelled`` are only
            # read between buckets (compaction) and from ``head()``, so
            # they are folded in once per bucket instead of once per
            # event; ``_live`` backs ``pending()``, which callbacks may
            # read, and stays exact per event
            i = 0
            ncancelled = 0
            # records of tick ``t`` sit before the first event above
            # their threshold (none can join mid-bucket: parking always
            # lands on ``t + 1``); ``nxt`` is the next one's threshold
            nxt = self._slot_at(t)
            while True:
                if i < len(bucket):
                    ev = bucket[i]
                    if ev.seq <= nxt:
                        i += 1
                        if ev.cancelled:
                            ncancelled += 1
                            continue
                        self._live -= 1
                        ev.sim = None  # a late cancel() must not recount
                        arg = ev.arg
                        if arg is no_arg:
                            ev.fn()
                        else:
                            ev.fn(arg)
                        executed += 1
                        if self._stop or executed == max_events:
                            # leave the unexecuted suffix for a later run()
                            self._suspend(bucket, t, i, ncancelled)
                            return executed
                        continue
                    rec = self._pass_slots(t, ev.seq)
                elif nxt == _NEVER:
                    break
                else:
                    rec = self._pass_slots(t, None)
                if rec is not None:
                    rec.fn(rec.arg)
                    executed += 1
                    if self._stop or executed == max_events:
                        self._suspend(bucket, t, i, ncancelled)
                        return executed
                elif i >= len(bucket):
                    break
                nxt = self._slot_at(t)
            self._size -= i
            self._cancelled -= ncancelled
            del buckets[t]
        if (until is not None and not self._stop and self.now < until):
            # queue drained before the horizon: advance the clock to it
            if until > self.now + 1:
                self.ff_jumps += 1
                self.ff_ticks += int(until) - self.now - 1
            self.now = int(until)
        return executed

    def _run_profiled(self, until: Optional[int],
                      max_events: Optional[int]) -> int:
        """Instrumented twin of :meth:`run` (identical event order)."""
        from time import perf_counter
        from repro.prof import owner_of
        prof = self.profile
        data = prof.by_owner
        t_loop = perf_counter()
        in_events = 0.0
        if max_events is not None and max_events < 1:
            max_events = 1
        executed = 0
        self._stop = False
        buckets = self._buckets
        times = self._times
        parked = self._parked
        heappop = heapq.heappop
        no_arg = _NO_ARG
        try:
            while times or parked:
                if self._cancelled > _COMPACT_MIN:
                    prof.compactions_before = self._cancelled
                    self._maybe_compact()
                    if not times and not parked:
                        break
                if parked:
                    t = self._next_parked_tick(until)
                    if t is None:
                        self.now = until
                        return executed
                else:
                    t = times[0]
                    if until is not None and t > until:
                        if until > self.now + 1:
                            self.ff_jumps += 1
                            self.ff_ticks += until - self.now - 1
                        self.now = until
                        return executed
                    if t > self.now + 1:
                        self.ff_jumps += 1
                        self.ff_ticks += t - self.now - 1
                heappop(times)
                bucket = buckets[t]
                self.now = t
                i = 0
                ncancelled = 0
                nxt = self._slot_at(t)
                while True:
                    rec = None
                    if i < len(bucket):
                        ev = bucket[i]
                        if ev.seq > nxt:
                            rec = self._pass_slots(t, ev.seq)
                            if rec is None:
                                nxt = self._slot_at(t)
                                continue
                            fn, arg = rec.fn, rec.arg
                        else:
                            i += 1
                            if ev.cancelled:
                                ncancelled += 1
                                prof.cancelled_seen += 1
                                continue
                            self._live -= 1
                            ev.sim = None
                            fn, arg = ev.fn, ev.arg
                    else:
                        rec = self._pass_slots(t, None)
                        if rec is None:
                            break
                        fn, arg = rec.fn, rec.arg
                    key = owner_of(fn)
                    t0 = perf_counter()
                    if arg is no_arg:
                        fn()
                    else:
                        fn(arg)
                    dt = perf_counter() - t0
                    in_events += dt
                    cell = data.get(key)
                    if cell is None:
                        data[key] = [1, dt]
                    else:
                        cell[0] += 1
                        cell[1] += dt
                    executed += 1
                    if self._stop or executed == max_events:
                        self._suspend(bucket, t, i, ncancelled)
                        return executed
                    if rec is not None:
                        nxt = self._slot_at(t)
                self._size -= i
                self._cancelled -= ncancelled
                del buckets[t]
            if (until is not None and not self._stop and self.now < until):
                if until > self.now + 1:
                    self.ff_jumps += 1
                    self.ff_ticks += int(until) - self.now - 1
                self.now = int(until)
            return executed
        finally:
            prof.events += executed
            prof.event_time += in_events
            prof.run_time += perf_counter() - t_loop


class ReferenceSimulator:
    """The pre-calendar-queue kernel: one global binary heap of events.

    Kept verbatim (modulo the ``at_call``/``after_call``/``park``
    extensions, which the rest of the package now schedules through) as
    the golden
    reference: the equivalence tests prove the calendar-queue kernel
    executes events in exactly this kernel's ``(time, seq)`` order, and
    ``scripts/bench_kernel.py`` measures speedup against it.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list[Event] = []
        self._seq: int = 0
        self._stop = False

    def at(self, time: int, fn: Callable[[], None]) -> Event:
        if time < self.now:
            raise ValueError(f"schedule in the past: {time} < {self.now}")
        self._seq += 1
        ev = Event(int(time), self._seq, fn, _NO_ARG, None)
        heapq.heappush(self._queue, ev)
        return ev

    def after(self, delay: int, fn: Callable[[], None]) -> Event:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.at(self.now + int(delay), fn)

    def at_call(self, time: int, fn: Callable[[Any], None],
                arg: Any) -> Event:
        if time < self.now:
            raise ValueError(f"schedule in the past: {time} < {self.now}")
        self._seq += 1
        ev = Event(int(time), self._seq, fn, arg, None)
        heapq.heappush(self._queue, ev)
        return ev

    def after_call(self, delay: int, fn: Callable[[Any], None],
                   arg: Any) -> Event:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.at_call(self.now + int(delay), fn, arg)

    def park(self, fn: Callable[[Any], None], arg: Any,
             wake: int) -> Parked:
        """The real chain :meth:`Simulator.park` stands in for: a no-op
        step re-armed with ``at_call(now + 1, ...)`` until ``wake``."""
        chain = _Chain(self.now + 1, 0, int(wake), fn, arg, self)
        chain.ev = self.at_call(chain.time, _chain_step, chain)
        return chain

    def pending(self) -> int:
        return sum(1 for ev in self._queue if not ev.cancelled)

    def stop(self) -> None:
        self._stop = True

    def enable_profiling(self):
        raise NotImplementedError(
            "profiling is a calendar-queue kernel feature")

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        queue = self._queue
        executed = 0
        self._stop = False
        no_arg = _NO_ARG
        while queue:
            ev = heapq.heappop(queue)
            if ev.cancelled:
                continue
            if until is not None and ev.time > until:
                heapq.heappush(queue, ev)  # put it back for a later run()
                self.now = until
                break
            self.now = ev.time
            if ev.arg is no_arg:
                ev.fn()
            else:
                ev.fn(ev.arg)
            executed += 1
            if self._stop:
                break
            if max_events is not None and executed >= max_events:
                break
        if (until is not None and not queue and not self._stop
                and self.now < until):
            self.now = int(until)
        return executed


class _Chain(Parked):
    """:meth:`ReferenceSimulator.park`'s handle: ``time`` is the tick of
    the chain's pending step event."""

    __slots__ = ("ev",)

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self.ev.cancel()


def _chain_step(chain: _Chain) -> None:
    sim = chain.sim
    if sim.now >= chain.wake:
        chain.fn(chain.arg)
    else:
        chain.time = sim.now + 1
        chain.ev = sim.at_call(chain.time, _chain_step, chain)
