"""Host records taken around each repetition.  They are not metrics:
they let a reader tell a noisy-neighbour repetition from a regression."""

from __future__ import annotations

import os
import platform
import subprocess


def steal_ticks() -> int:
    """Cumulative ``steal`` ticks of all CPUs (``/proc/stat``)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return -1
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else -1


def commit(root: str) -> str:
    """The checkout's git commit, or ``"none"`` when ``root`` is not
    itself a git work tree (the benchmark reads nothing above it)."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def snapshot() -> dict:
    return {"loadavg": os.getloadavg()[0], "steal": steal_ticks()}


def record(root: str, code_salt: str, start: dict, end: dict) -> dict:
    return {"commit": commit(root), "code_salt": code_salt,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_start": start["loadavg"], "loadavg_end": end["loadavg"],
            "steal_start": start["steal"], "steal_end": end["steal"]}
