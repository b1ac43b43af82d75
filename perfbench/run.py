#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fig9-cold --seed 1 --seconds 20 \\
        --trace 0

Run it from the root of a checkout; it builds nothing and imports the
package from ``src/``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones (see ``perfbench/README.md``).  Every
metric is printed by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Each workload runs in a fresh interpreter (``benchlib/driver.py``);
``setup_s`` is the median over several such spawns of the time from
spawn to the first timed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from benchlib import schema, stats  # noqa: E402

#: a run must end within this many seconds
RUN_LIMIT = 170.0
#: fresh interpreters timed for ``cli.import_s``
IMPORT_SAMPLES = 3


def _env(root: str, rundir: str) -> dict:
    """The drivers' environment: the checkout's ``src`` on the path,
    serial figure code, and no inherited ``REPRO_*`` setting (a salt
    override or a daemon address would change what is measured)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=os.path.join(root, "src"), REPRO_JOBS="1",
               REPRO_CACHE_DIR=os.path.join(rundir, "default-store"))
    return env


def _spawn(cmd: list, env: dict, cwd: str, limit: float):
    """Run ``cmd`` in its own session; kill the whole session (daemon,
    executor workers) if it outlives ``limit`` seconds."""
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(limit, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{cmd[1]} did not finish within {limit:.0f}s")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[:3])} exited {proc.returncode}")
    return out


def _import_s(env: dict, cwd: str) -> float:
    code = ("import time; t = time.perf_counter(); import repro.__main__; "
            "print(time.perf_counter() - t)")
    return stats.median([float(_spawn([sys.executable, "-c", code], env,
                                      cwd, 60.0))
                         for _ in range(IMPORT_SAMPLES)])


def _drive(args, root: str, rundir: str, deadline: float) -> tuple:
    """Spawn the set-up samples and the measuring driver; returns
    ``(setup samples, driver results)``."""
    from benchlib.workloads import WORKLOADS
    n = WORKLOADS[args.workload].setup_samples
    env = _env(root, rundir)
    samples, results = [], []
    for i in range(n):
        sub = os.path.join(rundir, f"s{i}")
        os.makedirs(sub)
        out = os.path.join(rundir, f"s{i}.json")
        cmd = [sys.executable, os.path.join(HERE, "benchlib", "driver.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--mode", "run" if i == n - 1 else "setup",
               "--rundir", sub, "--out", out, "--root", root]
        spawned = time.monotonic()
        _spawn(cmd, env, sub, deadline - time.monotonic())
        with open(out, encoding="utf-8") as fh:
            res = json.load(fh)
        samples.append(res["ready"] - spawned)
        results.append(res)
    return samples, results


def _report(bench: dict, args, samples: list, results: list,
            extra: dict) -> dict:
    res = results[-1]
    reps = res["reps"]
    ops = sum(r["ops"] for r in reps) + res["final_ops"]
    failed = sum(r["n_failed"] for r in reps) + len(res["final_failures"])
    gate = [g for r in reps for g in r["gate"]] + res.get("gate", [])
    digests = {r["digest"] for r in reps}
    if len(digests) != 1 or "" in digests:
        gate.append(f"result digests differ across repetitions: "
                    f"{sorted(digests)}")
    for r in reps:
        print("provenance: " + json.dumps(r["provenance"], sort_keys=True))
    for msg in ([f for r in reps for f in r["failures"]]
                + res["final_failures"] + gate):
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(f"digest: {sorted(digests)[0] if len(digests) == 1 else '-'}")

    if args.trace:
        declared = bench["per_layer"]
        values = dict(res["layer"], **extra)
        values["exec.code_salt_s"] = stats.median(
            [r["code_salt_s"] for r in results])
        print(f"trace file: {res['trace_file']}")
    else:
        declared = bench["end_to_end"]
        rt = res["rt_ms"]
        p, tail, n = stats.tail_percentile(rt)
        values = {"setup_s": stats.median(samples),
                  "wall_s": res["wall_s"],
                  "rt_p50_ms": stats.median(rt),
                  "peak_rss_mb": res["peak_rss_mb"],
                  "ok_rate": (ops - failed) / ops if ops else 0.0}
        print(f"rt samples: {n}, p{p:g} = {tail:.4f} ms" if p else
              f"rt samples: {n}, too few for a tail percentile")
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            print(f"{m['name']}: not exercised by {args.workload}, "
                  "reported as 0")
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:32s} {value:>16.6f} {m['unit']}")
    return {"correct": failed == 0 and not gate, "attempted": max(ops, 1),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    bench = schema.load_json(os.path.join(root, "BENCHMARK.json"))
    problems = schema.check_declarations(bench,
                                         schema.load_json(schema.LAYERS_PATH))
    if problems:
        print("perfbench: bad declarations:\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 2
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2

    rundir = os.path.join(root, ".perfbench_run",
                          f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        deadline = t_start + RUN_LIMIT
        samples, results = _drive(args, root, rundir, deadline)
        extra = {}
        if args.trace:
            extra["cli.import_s"] = _import_s(_env(root, rundir), rundir)
        summary = _report(bench, args, samples, results, extra)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
