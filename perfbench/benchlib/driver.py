"""One workload, in the fresh interpreter ``perfbench/run.py`` spawns.

    python3 perfbench/benchlib/driver.py --workload NAME --seed N \\
        --seconds S --trace 0|1 --mode setup|run --rundir DIR --out FILE

``--mode setup`` stops after set-up (one more ``setup_s`` sample);
``--mode run`` goes on to the timed phase (``--trace 0``) or to the
untraced reference pass plus two traced passes (``--trace 1``).  The
result is one JSON object written to ``--out``; ``ready`` is the
``CLOCK_MONOTONIC`` time of the first timed operation, which the parent
subtracts its spawn time from.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchlib import provenance, stats  # noqa: E402
from benchlib.trace import Tracer  # noqa: E402
from benchlib.workloads import WORKLOADS  # noqa: E402


def _rep_record(rep, root: str, salt: str, start: dict) -> dict:
    rep.provenance = provenance.record(root, salt, start,
                                       provenance.snapshot())
    return {"walls": rep.walls, "ops": rep.ops,
            "failures": rep.failures[:20], "n_failed": len(rep.failures),
            "gate": rep.gate, "digest": rep.digest,
            "provenance": rep.provenance}


def _measure(wl, seconds: float, root: str) -> dict:
    start = provenance.snapshot()
    reps = wl.timed(seconds)
    records = [_rep_record(r, root, wl.code_salt, start) for r in reps]
    rt = [x for r in reps for x in r.rt_ms]
    return {"reps": records,
            "wall_s": stats.median([w for r in reps for w in r.walls]),
            "rt_ms": rt}


def _reference_pass(wl, conn) -> None:
    wl.store = None                   # not the parent's set-up store
    conn.send(wl.traced_pass(None))
    conn.close()


def _traced(wl, root: str, spill: str) -> dict:
    """The untraced reference pass and two traced passes: the tracing
    overhead is the first traced pass's wall time minus the reference's,
    and the two traced passes must agree on every deterministic
    counter."""
    start = provenance.snapshot()
    tracers = [Tracer(spill), Tracer(spill)]
    if wl.reference_alongside:
        # the reference runs in a forked copy of this process, beside
        # the first traced pass, so both see the same contention
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_reference_pass, args=(wl, send))
        child.start()
        send.close()
        first = wl.traced_pass(tracers[0])
        untraced = recv.recv()
        child.join(timeout=60)
        passes = [first, wl.traced_pass(tracers[1])]
    else:
        untraced = wl.traced_pass(None)
        passes = [wl.traced_pass(t) for t in tracers]
    records = [_rep_record(r, root, wl.code_salt, start)
               for r in [untraced] + passes]
    gate = []
    if passes[0].counters != passes[1].counters:
        diff = {k: (passes[0].counters.get(k), passes[1].counters.get(k))
                for k in set(passes[0].counters) | set(passes[1].counters)
                if passes[0].counters.get(k) != passes[1].counters.get(k)}
        gate.append(f"deterministic counters differ between the two "
                    f"traced passes: {diff}")
    layer = dict(passes[0].layer)
    layer["trace.overhead_s"] = sum(passes[0].walls) - sum(untraced.walls)
    trace_path = os.path.join(root, ".perfbench_out",
                              f"trace-{wl.name}-{wl.seed}.jsonl")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracers[0].dump(trace_path, {"workload": wl.name, "seed": wl.seed,
                                 "kernels": tracers[0].kernels,
                                 "layer": layer})
    return {"reps": records, "layer": layer, "gate": gate,
            "counters": passes[0].counters, "trace_file": trace_path}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--root", required=True)
    args = ap.parse_args(argv)

    os.chdir(args.rundir)
    os.makedirs("spill")
    wl = WORKLOADS[args.workload](args.seed, args.rundir)
    out = {}
    try:
        wl.setup()
        out["ready"] = time.monotonic()
        out["code_salt_s"] = wl.code_salt_s
        if args.mode == "run":
            if args.trace:
                out.update(_traced(wl, args.root,
                                   os.path.join(args.rundir, "spill")))
            else:
                out.update(_measure(wl, args.seconds, args.root))
            n, failures = wl.final_checks()
            out["final_ops"], out["final_failures"] = n, failures
            out["peak_rss_mb"] = wl.peak_rss_mb()
    finally:
        wl.teardown()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
