"""The benchmark's declarations: ``BENCHMARK.json`` and the
layer -> end-to-end map in ``perfbench/layers.json``."""

from __future__ import annotations

import json
import os
import re

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS_PATH = os.path.join(HERE, "layers.json")


def valid_name(name: str) -> bool:
    """Metric and workload names: ``[A-Za-z0-9_.-]+``, starting with a
    letter or digit, at most 64 characters."""
    return (isinstance(name, str) and 0 < len(name) <= 64
            and NAME_RE.fullmatch(name) is not None
            and name[0].isalnum())


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_declarations(bench: dict, layers: dict) -> list[str]:
    """Every problem with the two files, as messages (empty when sound):
    names valid and unique, and the layer map referencing only declared
    per-layer metrics, end-to-end metrics and workloads."""
    problems = []
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    names = workloads + e2e + per_layer
    for n in names:
        if not valid_name(n):
            problems.append(f"invalid name {n!r}")
    for n in sorted({n for n in names if names.count(n) > 1}):
        problems.append(f"name used twice: {n!r}")
    mapped = set()
    for entry in layers["layers"]:
        where = f"layer {entry['layer']!r}"
        for m in entry["metrics"]:
            mapped.add(m)
            if m not in per_layer:
                problems.append(f"{where}: undeclared per-layer metric {m!r}")
        for move in entry["moves"]:
            if move["metric"] not in e2e:
                problems.append(f"{where}: undeclared end-to-end metric "
                                f"{move['metric']!r}")
            for w in move["on"]:
                if w not in workloads:
                    problems.append(f"{where}: undeclared workload {w!r}")
        for w in entry["unchanged_on"]:
            if w not in workloads:
                problems.append(f"{where}: undeclared workload {w!r}")
    for m in per_layer:
        if m not in mapped:
            problems.append(f"per-layer metric {m!r} is in no layer")
    return problems
