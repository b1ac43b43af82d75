"""The three workloads, driven from one process through the program's
public entry points (``repro.analysis.experiments``, ``repro.exec``,
``repro.service``).

Each workload takes the benchmark seed; the seed sets the request order
(and for serve-warm the simulation seed), and the program sees only the
specs generated from it.  A workload offers:

* ``setup()`` — everything before the first timed operation;
* ``timed(seconds)`` — the untraced measurement, a list of :class:`Rep`;
* ``traced_pass(tracer)`` — one fixed unit of work, traced when
  ``tracer`` is given (``None`` gives the untraced reference that the
  tracing overhead is measured against);
* ``final_checks()`` — checks that run once, after the timed phase;
* ``teardown()``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pickle
import random
import resource
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from benchlib.stats import percentile
from benchlib.trace import Tracer, instrument, self_times

SCALE = "smoke"


@dataclass
class Rep:
    """One repetition: its timings, checked operations and digest."""
    walls: list                       # s, one per unit of work
    rt_ms: list                       # per-result latencies
    ops: int = 0
    #: one message per operation whose output failed its check
    failures: list = field(default_factory=list)
    #: run-level check failures that are not one operation's
    gate: list = field(default_factory=list)
    digest: str = ""
    #: deterministic counters, compared across two traced passes
    counters: dict = field(default_factory=dict)
    #: per-layer metrics measured by a traced pass
    layer: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)


def canonical(result) -> str:
    """A ``RunResult`` as canonical JSON (exact float reprs)."""
    return json.dumps(dataclasses.asdict(result), sort_keys=True,
                      separators=(",", ":"))


def digest_of(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def kernel_metrics(kernels: list) -> dict:
    """Fold per-run kernel records into the engine/component metrics."""
    def total(key):
        return sum(k[key] for k in kernels)

    out = {"engine.events": total("events"),
           "engine.loop_s": total("loop_s"),
           "engine.ff_jumps": total("ff_jumps"),
           "engine.ff_ticks": total("ff_ticks"),
           "engine.cancelled": total("cancelled"),
           "dram.polls": total("polls"),
           "dram.requests": total("dram_requests"),
           "sim.ticks": total("ticks"),
           "sim.frames": total("frames")}
    out["dram.polls_per_request"] = (out["dram.polls"] / out["dram.requests"]
                                     if out["dram.requests"] else 0.0)
    # repro.prof.component_of buckets -> metric prefixes; "other" is
    # the QoS/ATU control loop
    for comp, prefix in (("dram", "dram"), ("core", "core"), ("gpu", "gpu"),
                         ("llc", "llc"), ("mem", "mem"), ("ring", "ring"),
                         ("other", "policy")):
        out[f"{prefix}.events"] = sum(
            k["components"].get(comp, [0, 0.0])[0] for k in kernels)
        out[f"{prefix}.self_s"] = sum(
            k["components"].get(comp, [0, 0.0])[1] for k in kernels)
    return out


#: the kernel metrics that must repeat exactly
KERNEL_COUNTERS = ("engine.events", "engine.ff_jumps", "engine.ff_ticks",
                   "engine.cancelled", "dram.polls", "dram.requests",
                   "sim.ticks", "sim.frames", "dram.events", "core.events",
                   "gpu.events", "llc.events", "mem.events", "ring.events",
                   "policy.events")


def span_metrics(tracer: Tracer) -> dict:
    """Spec-hashing and cache metrics from the spans of one pass."""
    selfs = self_times(tracer.spans)

    def mean_self(name, scale):
        spans = tracer.by_name(name)
        if not spans:
            return 0.0
        return sum(selfs[s.id] for s in spans) / len(spans) * scale

    runs = tracer.by_name("exec.specs.RunSpec.run")
    return {"specs.keys": len(tracer.by_name("exec.specs.RunSpec.key")),
            "specs.key_us": mean_self("exec.specs.RunSpec.key", 1e-3),
            "cache.get_us": mean_self("exec.cache.get", 1e-3),
            "cache.put_ms": mean_self("exec.cache.put", 1e-6),
            "executor.runs_executed": len(runs),
            "executor.sim_s": sum(s.duration for s in runs) * 1e-9}


class Workload:
    name = ""
    #: fresh interpreters that run set-up, for the ``setup_s`` median
    setup_samples = 7
    #: processes that execute simulations in parallel
    workers = 1
    #: run the traced run's untraced reference pass beside the first
    #: traced pass; only for a workload that simulates in one process,
    #: so the pair fits the two cores
    reference_alongside = False

    #: The simulation workloads keep the figures' default simulation
    #: seed and let the benchmark seed set the request order.  Their
    #: work varies with the simulation seed by more than any useful
    #: bound: 34-45 s for fig9-cold and 14.1-17.4 s for sweep-jobs2 over
    #: simulation seeds 11-15, against 13.9-14.6 s for three repeats of
    #: one seed.
    sim_seed = 1

    def __init__(self, seed: int, rundir: str):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.rundir = rundir
        self._stores = 0
        self.code_salt = ""
        self.code_salt_s = 0.0

    def _salt(self) -> None:
        from repro.exec import code_salt
        t0 = time.perf_counter()
        self.code_salt = code_salt()
        self.code_salt_s = time.perf_counter() - t0

    def new_store(self) -> str:
        """A fresh, empty result-store directory."""
        self._stores += 1
        path = os.path.join(self.rundir,
                            f"store-{os.getpid()}-{self._stores}")
        os.makedirs(path)
        return path

    def setup(self) -> None:
        self._salt()
        self.store = self.new_store()

    def timed(self, seconds: float) -> list:
        """Repeat the unit of work until ``seconds`` have elapsed."""
        reps = []
        t0 = time.perf_counter()
        while not reps or time.perf_counter() - t0 < seconds:
            reps.append(self.traced_pass(None))
        return reps

    def traced_pass(self, tracer: Optional[Tracer]) -> Rep:
        raise NotImplementedError

    def final_checks(self) -> tuple:
        return 0, []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def teardown(self) -> None:
        pass


def latency_cache(root: str):
    """A result cache that also stamps each simulation's miss -> store
    time.  Keyed by spec identity, so it adds no key computations."""
    from repro.exec import ResultCache

    class LatencyCache(ResultCache):
        def __init__(self, root):
            super().__init__(root)
            self.pending = {}
            self.latencies = []       # (spec, seconds)

        def get(self, spec):
            hit = super().get(spec)
            if hit[0] is None:
                self.pending[id(spec)] = time.perf_counter()
            return hit

        def put(self, spec, result):
            super().put(spec, result)
            t0 = self.pending.pop(id(spec), None)
            if t0 is not None:
                self.latencies.append((spec, time.perf_counter() - t0))

    return LatencyCache(root)


def _cache_counters(cache) -> dict:
    st = cache.stats
    return {"cache.hits": st.memory_hits + st.disk_hits,
            "cache.misses": st.misses, "cache.stores": st.stores,
            "cache.bytes_written": cache.disk_usage()[1]}


#: the simulation workloads' counters that must repeat exactly
SIM_COUNTERS = KERNEL_COUNTERS + (
    "specs.keys", "cache.hits", "cache.misses", "cache.stores",
    "cache.bytes_written", "executor.runs_executed", "executor.result_bytes")


def sim_layer(tracer: Tracer, cache_counters: dict, results: list,
              wall: float, workers: int) -> tuple:
    """Per-layer metrics and deterministic counters of a traced
    simulation pass."""
    out = kernel_metrics(tracer.kernels)
    out.update(span_metrics(tracer))
    out.update(cache_counters)
    out["executor.result_bytes"] = sum(
        len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL))
        for r in results)
    out["executor.parallel_efficiency"] = \
        out["executor.sim_s"] / (workers * wall)
    return out, {k: out[k] for k in SIM_COUNTERS}


def timed_call(tracer: Optional[Tracer], name: str, fn) -> tuple:
    """``(fn(), wall seconds)``; with a tracer, inside instrumented
    layers and a span of its own."""
    if tracer is None:
        t0 = time.perf_counter()
        return fn(), time.perf_counter() - t0
    with instrument(tracer):
        t0 = time.perf_counter()
        with tracer.span(name):
            value = fn()
        return value, time.perf_counter() - t0


class Fig9Cold(Workload):
    name = "fig9-cold"
    mixes = ("M7", "M12")
    reference_alongside = True

    def __init__(self, seed, rundir):
        super().__init__(seed, rundir)
        self.order = list(self.mixes)
        self.rng.shuffle(self.order)

    def setup(self):
        from repro.analysis import experiments  # noqa: F401 (import cost)
        super().setup()

    def _specs(self):
        from repro.exec import mix_spec, standalone_cpu_spec
        from repro.mixes import MIXES_M
        hetero = [mix_spec(n, p, SCALE, self.sim_seed) for n in self.order
                  for p in ("baseline", "throttle", "throtcpuprio")]
        apps = sorted({a for n in self.order for a in MIXES_M[n].cpu_apps})
        return hetero + [standalone_cpu_spec(a, SCALE, self.sim_seed)
                         for a in apps]

    def traced_pass(self, tracer):
        from repro.analysis import experiments
        from repro.exec import set_shared_cache
        cache = latency_cache(self.store or self.new_store())
        self.store = None             # the next pass starts empty again
        set_shared_cache(cache)
        data, wall = timed_call(
            tracer, "analysis.experiments.fig9",
            lambda: experiments.fig9(scale=SCALE, seed=self.sim_seed,
                                     mixes=self.order))
        rep = Rep(walls=[wall],
                  rt_ms=[dt * 1e3 for spec, dt in cache.latencies
                         if spec.resolved_mix().gpu_app is not None])
        self._check(data, rep)
        stored = _cache_counters(cache)     # before the reads below
        results = [cache.get(s)[0] for s in self._specs()]
        rep.digest = digest_of([json.dumps(data, sort_keys=True)]
                               + [canonical(r) for r in results])
        if tracer is not None:
            rep.layer, rep.counters = sim_layer(tracer, stored, results,
                                                wall, self.workers)
        set_shared_cache(None)
        return rep

    def _check(self, data, rep):
        """The shape predicates of benchmarks/bench_fig09_10_11_throttling.py,
        one operation per bar and one per weighted-speedup claim."""
        from repro.mixes import MIXES_M
        fps = data["fps"]
        for n in self.order:
            g = MIXES_M[n].gpu_app
            b, t, p = (fps[pol][g] for pol in
                       ("baseline", "throttle", "throtcpuprio"))
            checks = {f"{n}/baseline": b > 35.0,
                      f"{n}/throttle": 30.0 < t <= b * 1.05
                      and (b <= 48.0 or t < b * 0.95),
                      f"{n}/throtcpuprio": 30.0 < p <= b * 1.05}
            for what, ok in checks.items():
                rep.ops += 1
                if not ok:
                    rep.failures.append(f"fig9 shape: {what} "
                                        f"(b={b:.2f} t={t:.2f} p={p:.2f})")
        ws = data["gmean_ws"]
        for what, ok in (("ws throttle > 0.99", ws["throttle"] > 0.99),
                         ("ws throtcpuprio > 0.99",
                          ws["throtcpuprio"] > 0.99),
                         ("ws boost >= 0.95 x throttle",
                          ws["throtcpuprio"] >= ws["throttle"] * 0.95)):
            rep.ops += 1
            if not ok:
                rep.failures.append(f"fig9 shape: {what} ({ws})")


class SweepJobs2(Workload):
    name = "sweep-jobs2"
    workers = 2
    policies = ("baseline", "throtcpuprio")
    #: specs re-run serially after the timed phase
    sample_size = 4

    def __init__(self, seed, rundir):
        super().__init__(seed, rundir)
        self.pairs = [(f"W{i}", p) for i in range(1, 15)
                      for p in self.policies]
        self.rng.shuffle(self.pairs)
        self.sample = sorted(self.rng.sample(range(len(self.pairs)),
                                             self.sample_size))
        self.first: Optional[list] = None

    def setup(self):
        from repro.exec import run_many  # noqa: F401 (import cost)
        super().setup()
        self.specs = [self._spec(w, p) for w, p in self.pairs]

    def _spec(self, mix, policy):
        from repro.exec import mix_spec
        return mix_spec(mix, policy, SCALE, self.sim_seed)

    def peak_rss_mb(self):
        return max(resource.getrusage(who).ru_maxrss for who in
                   (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0

    def traced_pass(self, tracer):
        from repro.exec import ResultCache, run_many
        cache = ResultCache(self.store or self.new_store())
        self.store = None
        outs, wall = timed_call(
            tracer, "exec.executor.run_many",
            lambda: run_many(self.specs, jobs=self.workers, cache=cache))
        rep = Rep(walls=[wall], rt_ms=[o.elapsed * 1e3 for o in outs],
                  ops=len(outs))
        rep.failures = [f"{o.spec.label}: {o.error}" for o in outs
                        if not o.ok]
        results = [o.result for o in outs]
        if self.first is None:
            self.first = results
        if not rep.failures:
            rep.digest = digest_of(canonical(r) for r in results)
            if tracer is not None:
                rep.layer, rep.counters = sim_layer(
                    tracer, _cache_counters(cache), results, wall,
                    self.workers)
        return rep

    def final_checks(self):
        """Re-run a seeded sample serially in-process; each pickle must
        equal the parallel result's byte for byte."""
        failures = []
        for i in self.sample:
            spec = self.specs[i]
            serial = spec.run()
            parallel = self.first[i]
            if parallel is None or (
                    pickle.dumps(serial, protocol=pickle.HIGHEST_PROTOCOL)
                    != pickle.dumps(parallel,
                                    protocol=pickle.HIGHEST_PROTOCOL)):
                failures.append(f"{spec.label}: serial re-run differs "
                                "from the parallel result")
        return len(self.sample), failures


def _http_get(sock_path: str, path: str) -> str:
    """``GET path`` over the daemon's Unix socket; returns the body."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(10.0)
        s.connect(sock_path)
        s.sendall(f"GET {path} HTTP/1.1\r\nHost: local\r\n\r\n".encode())
        chunks = []
        while True:
            data = s.recv(65536)
            if not data:
                break
            chunks.append(data)
    raw = b"".join(chunks).decode("utf-8", "replace")
    return raw.split("\r\n\r\n", 1)[1] if "\r\n\r\n" in raw else ""


def _request_ns(metrics_text: str) -> tuple:
    """``(sum, count)`` of the daemon's socket-transport
    ``repro_request_ns`` histogram."""
    total = count = 0
    for line in metrics_text.splitlines():
        if 'transport="socket"' not in line:
            continue
        if line.startswith("repro_request_ns_sum"):
            total = float(line.rsplit(" ", 1)[1])
        elif line.startswith("repro_request_ns_count"):
            count = int(float(line.rsplit(" ", 1)[1]))
    return total, count


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _self_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class ServeWarm(Workload):
    name = "serve-warm"
    setup_samples = 5
    #: cheap smoke-scale specs the daemon's store is warmed with
    warm_apps = (401, 429, 450, 462, 470, 482)
    #: submits in one traced pass
    traced_requests = 1500
    socket_name = "d.sock"

    def __init__(self, seed, rundir):
        super().__init__(seed, rundir)
        # cached results cost the same whatever their content, so here
        # the seed picks the simulation seed too
        self.sim_seed = self.rng.randrange(1, 10_000)
        self.proc: Optional[subprocess.Popen] = None

    def setup(self):
        from repro.exec import standalone_cpu_spec
        from repro.service.client import ServiceClient
        super().setup()
        env = dict(os.environ, REPRO_CACHE_DIR=self.store)
        self._logs = [open(os.path.join(self.rundir, f"daemon.{s}"), "wb")
                      for s in ("out", "err")]
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", self.socket_name],
            cwd=self.rundir, env=env, stdin=subprocess.DEVNULL,
            stdout=self._logs[0], stderr=self._logs[1])
        # relative: the driver runs in ``rundir``, and a Unix socket
        # path is limited to about 100 bytes
        self.sock = self.socket_name
        self.client = ServiceClient(self.sock, client_id="perfbench",
                                    retries=0)
        self._wait_healthy()
        self.warm = [standalone_cpu_spec(a, SCALE, self.sim_seed)
                     for a in self.warm_apps]
        outs = self.client.submit(self.warm)
        bad = [o.spec.label for o in outs if not o.ok]
        if bad:
            raise RuntimeError(f"warm-up failed: {bad}")
        self.reference = [pickle.dumps(o.result,
                                       protocol=pickle.HIGHEST_PROTOCOL)
                          for o in outs]
        self.digest = digest_of(canonical(o.result) for o in outs)
        # one cached read of each spec, so first-use costs on both
        # sides are set-up, not the first timed requests
        for spec in self.warm:
            self.client.submit([spec])

    def _wait_healthy(self, limit: float = 60.0) -> None:
        deadline = time.monotonic() + limit
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited during start-up "
                                   f"(code {self.proc.returncode})")
            if os.path.exists(self.sock):
                try:
                    if json.loads(_http_get(self.sock, "/healthz"))["ok"]:
                        return
                except (OSError, ValueError, KeyError):
                    pass
            time.sleep(0.02)
        raise RuntimeError("daemon not healthy within "
                           f"{limit:g}s")

    def _loop(self, rep: Rep, n: Optional[int], seconds: Optional[float],
              tracer: Optional[Tracer]) -> list:
        """Closed loop: one single-spec submit at a time, the next one
        sent when the previous outcome is decoded.  One submit is the
        unit of work, so ``wall_s`` here is the median submit in
        seconds."""
        served = []
        t_start = time.perf_counter()
        while (len(served) < n if n is not None
               else time.perf_counter() - t_start < seconds):
            k = self.rng.randrange(len(self.warm))
            spec = self.warm[k]
            t0 = time.perf_counter_ns()
            try:
                if tracer is None:
                    outs = self.client.submit([spec])
                else:
                    with tracer.span("service.client.submit"):
                        outs = self.client.submit([spec])
            except Exception as e:  # a failed request is counted, not fatal
                outs = []
                rep.failures.append(f"submit {spec.label}: {e}")
            dt = time.perf_counter_ns() - t0
            rep.rt_ms.append(dt * 1e-6)
            rep.walls.append(dt * 1e-9)
            served.append((k, outs))
        rep.ops += len(served)
        return served

    def _check(self, rep: Rep, served: list) -> None:
        """Every outcome must come from the cache and equal, byte for
        byte, what the daemon returned at warm-up."""
        for k, outs in served:
            if not outs:
                continue
            o = outs[0]
            if not o.ok or o.source == "run":
                rep.failures.append(f"{o.spec.label}: ok={o.ok} "
                                    f"source={o.source}")
            elif pickle.dumps(o.result, protocol=pickle.HIGHEST_PROTOCOL) \
                    != self.reference[k]:
                rep.failures.append(f"{o.spec.label}: outcome differs "
                                    "from the warm-up result")
        if not rep.failures:
            rep.digest = self.digest

    def _pass(self, n: Optional[int], seconds: Optional[float],
              tracer: Optional[Tracer]) -> tuple:
        """One closed-loop pass with the daemon's counters read around
        it.  Checks that no job executed and that the daemon counted
        every submit; returns ``(rep, served, deltas)``."""
        rep = Rep(walls=[], rt_ms=[])
        status0 = self.client.status()
        m0 = _request_ns(_http_get(self.sock, "/metrics"))
        cpu0, self0 = _proc_cpu_s(self.proc.pid), _self_cpu_s()
        t0 = time.perf_counter()
        with instrument(tracer) if tracer else contextlib.nullcontext():
            served = self._loop(rep, n, seconds, tracer)
        wall = time.perf_counter() - t0
        cpu1, self1 = _proc_cpu_s(self.proc.pid), _self_cpu_s()
        m1 = _request_ns(_http_get(self.sock, "/metrics"))
        status1 = self.client.status()
        jobs0, jobs1 = status0["jobs"], status1["jobs"]
        d = {"wall": wall, "requests": m1[1] - m0[1],
             "server_ns": m1[0] - m0[0], "daemon_cpu": cpu1 - cpu0,
             "client_cpu": self1 - self0,
             "executed": jobs1["executed"] - jobs0["executed"],
             "cache_hits": jobs1["cache_hits"] - jobs0["cache_hits"],
             "appended": (status1["journal"]["appended"]
                          - status0["journal"]["appended"])}
        if d["executed"]:
            rep.gate.append(f"{d['executed']} job(s) executed during a "
                            "timed pass")
        if d["requests"] != len(served):
            rep.gate.append(f"daemon counted {d['requests']} socket "
                            f"requests for {len(served)} submits")
        self._check(rep, served)
        return rep, served, d

    def timed(self, seconds):
        return [self._pass(None, seconds, None)[0]]

    def traced_pass(self, tracer):
        rep, served, d = self._pass(self.traced_requests, None, tracer)
        rep.walls = [d["wall"]]
        if tracer is None:
            return rep
        n = len(served)
        server_ms = d["server_ns"] / max(d["requests"], 1) * 1e-6
        replay = Tracer()
        self._replay_gets(replay, served)
        out = span_metrics(replay)
        del out["executor.sim_s"]
        out.update({
            "executor.runs_executed": d["executed"],
            "cache.hits": d["cache_hits"],
            "service.server_ms": server_ms,
            "service.wait_ms": sum(rep.rt_ms) / n - server_ms,
            "service.daemon_cpu_ms": d["daemon_cpu"] * 1e3 / n,
            "service.client_cpu_ms": d["client_cpu"] * 1e3 / n,
            "service.journal_appends": d["appended"] / n,
            "service.response_bytes":
                tracer.counts.get("service.response_bytes", 0) / n,
            "service.rt_p90_ms": percentile(rep.rt_ms, 90.0),
        })
        rep.layer = out
        rep.counters = {k: out[k] for k in
                        ("service.journal_appends", "cache.hits",
                         "specs.keys", "executor.runs_executed")}
        return rep

    def _replay_gets(self, tracer: Tracer, served: list) -> None:
        """The daemon's cache reads happen in the daemon, beyond the
        benchmark's spans; replay the pass's reads, in request order,
        against the same store from this process."""
        from repro.exec import ResultCache
        cache = ResultCache(self.store)
        with instrument(tracer):
            for k, _outs in served:
                cache.get(self.warm[k])

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def teardown(self):
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                self.client.shutdown()
                self.proc.wait(timeout=30)
        except Exception:
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=30)
            for fh in self._logs:
                fh.close()


WORKLOADS = {w.name: w for w in (Fig9Cold, SweepJobs2, ServeWarm)}
