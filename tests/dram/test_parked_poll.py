"""The DRAM controller's parked no-op re-poll chain, at full-system scale.

While reads wait on busy banks and a write-only bank sits ready below
the drain watermark, ``MemoryController._try_issue`` would re-poll at
``now + 1`` every tick.  It parks that chain in the kernel instead
(:meth:`repro.sim.engine.Simulator.park`).  These tests pin the work it
saves with exact counters, and check that the guard, telemetry and span
tracing see a parked chain as a pending, well-accounted event.
"""

from __future__ import annotations

import pytest

from repro.config import DramConfig, DramTiming, default_config
from repro.dram.controller import MemoryController
from repro.guard import InvariantMonitor
from repro.mem.request import MemRequest
from repro.mixes import mix
from repro.policies import make_policy
from repro.sim.engine import Simulator
from repro.sim.runner import run_system
from repro.sim.system import HeterogeneousSystem
from repro.spans import SpanTracer
from repro.telemetry import Telemetry

POLL = "MemoryController._try_issue"


def _profiled(mix_name: str, policy: str):
    m = mix(mix_name)
    cfg = default_config(scale="smoke", n_cpus=m.n_cpus, seed=1)
    system = HeterogeneousSystem(cfg, m, make_policy(policy))
    prof = system.sim.enable_profiling()
    system.run()
    return prof, system.sim


@pytest.mark.parametrize("mix_name,policy,legacy_polls", [
    # ``_try_issue`` executions of the same runs with
    # REPRO_HOTPATH=legacy, where every chain step is a real event
    ("M7", "throttle", 643_440),
    ("M12", "baseline", 299_374),
])
def test_parked_slots_account_for_every_legacy_poll(mix_name, policy,
                                                    legacy_polls):
    prof, sim = _profiled(mix_name, policy)
    polls = prof.by_owner[POLL][0]
    parked = sim.fast_forward_stats()["parked_ticks"]
    assert polls + parked == legacy_polls
    assert parked > polls                  # the chain is most of the polls
    if mix_name == "M7":
        assert polls <= 90_000
        assert prof.events <= 400_000      # 918,643 with every step run


class _ParkProbe(InvariantMonitor):
    """Keeps the first diagnostic dump taken while a chain is parked."""

    parked_dump = None
    parked_checks = 0

    def _check_kernel(self, sim) -> None:
        super()._check_kernel(sim)
        if sim._parked:
            self.parked_checks += 1
            assert sim.pending() > 0
            if self.parked_dump is None:
                self.parked_dump = self.dump()


def test_guarded_traced_run_sees_parked_chains():
    m = mix("M7")
    cfg = default_config(scale="smoke", n_cpus=m.n_cpus, seed=1)
    plain = run_system(cfg, m, make_policy("throttle"))
    monitor = _ParkProbe(interval_ticks=512)
    tracer = SpanTracer(sample_every=16)
    observed = run_system(cfg, m, make_policy("throttle"),
                          telemetry=Telemetry(), tracer=tracer,
                          monitor=monitor)
    tracer.close()
    assert observed == plain               # and no InvariantViolation
    assert monitor.parked_checks > 0
    dump = monitor.parked_dump
    owner, tick, wake = dump.kernel["parked"][0]
    assert owner == POLL
    assert dump.tick <= tick <= wake
    assert f"parked {POLL}: tick {tick:,}" in dump.format()


def _busy_read_ready_write(t_refi: int = 0, at_tick2=None):
    """A controller that parks at tick 0: a read waits on busy bank 0
    while a write sits ready on bank 1, below the drain watermark.
    ``at_tick2`` is scheduled at tick 2 before the chain is parked."""
    sim = Simulator()
    cfg = DramConfig(timing=DramTiming(t_refi=t_refi))
    mc = MemoryController(sim, cfg, 0)
    row_span = cfg.row_bytes // 64 * 128          # next bank, same channel
    mc.enqueue(MemRequest(0, False, "cpu0"))
    sim.run(max_events=1)                         # bank 0 now busy
    if at_tick2 is not None:
        sim.at(2, lambda: at_tick2(mc))
    mc.enqueue(MemRequest(row_span * 8, False, "cpu0"))   # bank 0 again
    mc.enqueue(MemRequest(row_span, True, "cpu0"))        # write, bank 1
    sim.run(until=1)
    return sim, mc


def test_wake_is_the_first_read_bank_ready_tick():
    sim, mc = _busy_read_ready_write()
    assert sim.parked() == [(POLL, 2, mc.banks[0].ready_at)]
    assert mc.banks[0].ready_at > 2
    assert sim.pending() > 0


def test_wake_stops_at_the_refresh_boundary():
    sim, mc = _busy_read_ready_write(t_refi=5)
    boundary = mc.timing.t_refi
    assert 2 < boundary < mc.banks[0].ready_at
    assert mc._try_event.wake == boundary


def _enqueue_read(mc):
    mc.enqueue(MemRequest(128, False, "cpu0"))


def test_enqueue_before_the_slot_lowers_wake():
    # the enqueue was scheduled before the chain parked, so in tick 2
    # it runs ahead of the record's slot: the record polls at its slot
    sim, mc = _busy_read_ready_write(at_tick2=_enqueue_read)
    rec = mc._try_event
    sim.run(until=2)
    assert rec.wake == 2 and not rec.cancelled
    assert rec.sim is None and mc._try_event is not rec    # it fired


def test_enqueue_after_the_slot_cancels_and_repolls():
    # scheduled after the slot: the record has moved to tick 3, so the
    # enqueue cancels it and polls at tick 2, as the real chain would
    sim, mc = _busy_read_ready_write()
    rec = mc._try_event
    sim.at(2, lambda: _enqueue_read(mc))
    sim.run(until=2)
    assert rec.cancelled
