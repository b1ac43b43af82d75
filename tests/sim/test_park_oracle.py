"""Oracle test for :meth:`Simulator.park`.

A parked record must be indistinguishable from the chain it stands in
for: a callback that re-arms itself with ``at_call(now + 1, ...)`` on
every tick, doing nothing, until its wake tick.  A seeded chaos schedule
drives pollers that park (or poll, or go idle) on one
:class:`Simulator`, once through ``park()`` and once through a test-local
chain that really re-arms itself every tick; the two execution logs must
be identical, and so must ``pending()`` as every callback sees it.

The schedule covers ``run(until=)`` splits with work scheduled between
the runs, ``stop()`` and ``max_events`` cuts mid-bucket, enough
cancellations for the queue to compact, ``wake`` lowered before and
after a record's slot in the same tick, two chains parked with the same
threshold, and both run loops (plain and profiled).
"""

from __future__ import annotations

import random

import pytest

from repro.sim.engine import Parked, Simulator


class _RealChain:
    """The per-tick chain ``park`` replaces, built from plain events."""

    def __init__(self, sim: Simulator, fn, arg, wake: int, stats: dict):
        self.sim = sim
        self.fn = fn
        self.arg = arg
        self.wake = wake
        self.cancelled = False
        self.stats = stats
        self.time = sim.now + 1
        self.ev = sim.at_call(self.time, _RealChain.step, self)

    def step(self) -> None:
        sim = self.sim
        if sim.now >= self.wake:
            self.fn(self.arg)
        else:
            self.stats["passes"] += 1
            self.time = sim.now + 1
            self.ev = sim.at_call(self.time, _RealChain.step, self)

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self.ev.cancel()


class _CountingSim(Simulator):
    """Counts compactions that actually ran."""

    compactions = 0

    def _maybe_compact(self) -> None:
        before = self._cancelled
        super()._maybe_compact()
        if before and self._cancelled == 0:
            self.compactions += 1


def _scenario(seed: int, real: bool, *, profiled: bool = False,
              max_events=None, stops: bool = False,
              n_events: int = 3000):
    """Run one seeded schedule; returns (log, sim, stats)."""
    sim = _CountingSim()
    if profiled:
        sim.enable_profiling()
    rng = random.Random(seed)
    log: list[tuple] = []
    stats = {"passes": 0, "lowered_before_slot": 0,
             "lowered_after_slot": 0, "cancelled_chain": 0,
             "same_threshold": 0}
    remembered: list = []
    stopped = [False]

    def park(poller, wake):
        if real:
            return _RealChain(sim, poll, poller, wake, stats)
        return sim.park(poll, poller, wake)

    class Poller:
        def __init__(self, ident):
            self.ident = ident
            self.handle = None

        def kick(self, t):
            """The DRAM controller's ``_kick`` contract."""
            t = max(t, sim.now)
            h = self.handle
            if h is not None and not h.cancelled:
                chain = isinstance(h, (Parked, _RealChain))
                if h.time <= t:
                    if chain and h.wake > t:
                        h.wake = t
                        stats["lowered_before_slot" if h.time == sim.now
                              else "lowered_after_slot"] += 1
                    return
                if chain:
                    stats["cancelled_chain"] += 1
                h.cancel()
            self.handle = sim.at_call(t, poll, self)

    def poll(poller):
        poller.handle = None
        log.append((sim.now, "poll", poller.ident, sim.pending()))
        if len(log) >= n_events:
            return
        r = rng.random()
        if r < 0.5:
            wake = sim.now + rng.choice((1, 2, 3, 5, 9, 30, 200))
            if rng.random() < 0.2:
                # a sibling parks right behind with the same threshold
                other = pollers[rng.randrange(len(pollers))]
                if other is not poller and other.handle is None:
                    other.handle = park(other, wake + rng.randrange(3))
                    stats["same_threshold"] += 1
            poller.handle = park(poller, wake)
        elif r < 0.65:
            poller.handle = sim.at_call(sim.now + 1, poll, poller)
        elif r < 0.8:
            poller.kick(sim.now + rng.randrange(1, 12))
        # else: idle until some event kicks it
        for _ in range(rng.randrange(3)):
            sim.after_call(rng.choice((0, 0, 1, 1, 2)), fire,
                           rng.randrange(1 << 30))

    pollers = [Poller(k) for k in range(3)]

    def fire(ident: int) -> None:
        log.append((sim.now, ident, sim.pending()))
        if len(log) >= n_events:
            return
        if stops and rng.random() < 0.03:
            sim.stop()
            stopped[0] = True
        for _ in range(rng.randrange(3)):
            nxt = rng.randrange(1 << 30)
            delay = rng.choice((0, 0, 1, 1, 2, 3, 7, 40, 300))
            ev = sim.after_call(delay, fire, nxt)
            if rng.random() < 0.5:
                remembered.append(ev)
        while remembered and rng.random() < 0.5:
            remembered.pop(rng.randrange(len(remembered))).cancel()
        if rng.random() < 0.02:
            # a burst of far-future work withdrawn at once: enough dead
            # entries for the queue to compact
            for ev in [sim.after_call(rng.randrange(500, 5000), fire, 0)
                       for _ in range(80)]:
                ev.cancel()
        if rng.random() < 0.4:
            # before the slot (lowers wake), after it (cancel + re-poll
            # now), or ahead (lowers wake of a record already moved on)
            pollers[rng.randrange(len(pollers))].kick(
                sim.now + rng.choice((0, 0, 1, 2, 5)))

    for ident in range(30):
        sim.after_call(rng.randrange(40), fire, ident)
    for p in pollers:
        p.kick(rng.randrange(10))

    split = random.Random(seed + 1000)
    horizon = 0
    while sim.pending() and len(log) < n_events:
        horizon += split.choice((1, 2, 3, 17, 50, 400))
        while True:
            n = sim.run(until=horizon, max_events=max_events)
            if stopped[0] or (max_events is not None and n == max_events):
                stopped[0] = False
                continue
            break
        assert sim.now == horizon
        # work scheduled between runs lands after records moved to
        # ``horizon + 1``
        if split.random() < 0.3:
            sim.after_call(split.choice((0, 1, 2)), fire,
                           split.randrange(1 << 30))
        if split.random() < 0.3:
            pollers[split.randrange(3)].kick(
                horizon + split.choice((0, 1, 3)))
    return log, sim, stats


_CASES = {
    "plain": {},
    "profiled": {"profiled": True},
    "max_events": {"max_events": 5},
    # every run() executes one event: records at two ticks at once
    "single_steps": {"max_events": 1},
    "stops": {"stops": True},
    "stops_profiled": {"stops": True, "profiled": True, "max_events": 9},
}


@pytest.mark.parametrize("case", sorted(_CASES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_park_matches_real_chain(case, seed):
    kw = _CASES[case]
    parked_log, psim, _ = _scenario(seed, real=False, **kw)
    real_log, rsim, stats = _scenario(seed, real=True, **kw)
    assert parked_log == real_log
    assert psim.now == rsim.now
    # every pass the real chain executed is a slot the record passed
    assert psim.parked_ticks == stats["passes"] > 0
    if kw.get("profiled"):
        polls = psim.profile.by_owner.get("_scenario.<locals>.poll")
        assert polls is not None and polls[0] == sum(
            1 for e in parked_log if e[1] == "poll")


def test_scenario_exercises_the_hard_cases():
    log, sim, stats = _scenario(1, real=False)
    assert sim.compactions > 0                   # > 64 cancellations
    assert stats["lowered_before_slot"] > 0
    assert stats["lowered_after_slot"] > 0
    assert stats["cancelled_chain"] > 0
    assert stats["same_threshold"] > 0
    assert sum(1 for e in log if e[1] == "poll") > 200
    assert log != _scenario(2, real=False)[0]    # seed-sensitive


def test_parked_chain_bookkeeping():
    sim = Simulator()
    fired = []
    rec = sim.park(lambda a: fired.append((sim.now, a)), "x", 50)
    assert isinstance(rec, Parked)
    assert sim.pending() == 1 and sim._size >= sim._live
    assert sim.parked() == [("test_parked_chain_bookkeeping.<locals>."
                             "<lambda>", 1, 50)]
    sim.run(until=20)
    assert sim.now == 20 and fired == []
    assert sim.parked()[0][1:] == (21, 50)
    sim.run()
    assert fired == [(50, "x")]
    assert sim.pending() == 0 and sim.parked() == []
    # ticks 1..49 were passed without executing; the fire is one event
    assert sim.fast_forward_stats()["parked_ticks"] == 49


def test_cancelled_parked_chain_never_fires():
    sim = Simulator()
    rec = sim.park(lambda a: pytest.fail("fired"), None, 10)
    sim.at(5, rec.cancel)
    assert sim.run() == 1
    assert sim.pending() == 0 and sim._size == 0
    rec.cancel()                                  # double-cancel: no-op
    assert sim.pending() == 0
