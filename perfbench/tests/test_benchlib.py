"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

from benchlib import schema, stats  # noqa: E402
from benchlib.trace import Span, Tracer, covered, self_times  # noqa: E402


# -- the percentile rule ---------------------------------------------------

def test_percentile_interpolates_and_checks_range():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(xs, 0) == 1.0
    assert stats.percentile(xs, 100) == 4.0
    assert stats.percentile(xs, 50) == 2.5
    with pytest.raises(ValueError):
        stats.percentile(xs, 101)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, p", [
    (19, 0.0),        # not even the median has ten samples beyond it
    (20, 50.0),
    (99, 50.0),
    (100, 90.0),
    (199, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (2000, 99.5),
    (10000, 99.9),
    (20000, 99.95),
    (100000, 99.99),
])
def test_tail_percentile_has_ten_samples_beyond(n, p):
    xs = [float(i) for i in range(n)]
    got, value, count = stats.tail_percentile(xs)
    assert (got, count) == (p, n)
    assert value == stats.percentile(xs, p if p else 50.0)
    if p:
        assert sum(1 for x in xs if x > value) >= stats.MIN_BEYOND


# -- span self time --------------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(2, 4), (3, 6), (8, 12)], 0, 10) == 4 + 2
    assert covered([(-5, 1), (9, 20)], 0, 10) == 2
    assert covered([(5, 5), (7, 6)], 0, 10) == 0


def test_self_time_subtracts_union_of_children():
    spans = [Span(1, 0, "run_many", 0, 100),
             Span(2, 1, "run", 10, 60),       # two workers overlap
             Span(3, 1, "run", 40, 90),
             Span(4, 2, "key", 20, 30)]
    selfs = self_times(spans)
    assert selfs[1] == 100 - 80              # union [10, 90], not 100
    assert selfs[2] == 50 - 10
    assert selfs[3] == 50
    assert selfs[4] == 10


def test_tracer_records_nesting():
    t = Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
        t.wrap(lambda: None, "wrapped")()
    outer = t.by_name("outer")[0]
    assert {s.parent for s in t.spans if s.name != "outer"} == {outer.id}
    assert outer.parent == 0
    selfs = self_times(t.spans)
    assert 0 <= selfs[outer.id] <= outer.duration


# -- names and the layer map -----------------------------------------------

@pytest.mark.parametrize("name, ok", [
    ("setup_s", True), ("dram.polls_per_request", True),
    ("fig9-cold", True), ("9lives", True),
    ("", False), (".hidden", False), ("_x", False), ("has space", False),
    ("a/b", False), ("x" * 64, True), ("x" * 65, False),
])
def test_metric_name_validation(name, ok):
    assert schema.valid_name(name) is ok


def _declarations():
    bench = schema.load_json(os.path.join(ROOT, "BENCHMARK.json"))
    layers = schema.load_json(schema.LAYERS_PATH)
    return bench, layers


def test_committed_declarations_are_sound():
    bench, layers = _declarations()
    assert schema.check_declarations(bench, layers) == []


def test_layer_map_rejects_undeclared_references():
    bench, layers = _declarations()
    bad = copy.deepcopy(layers)
    bad["layers"][0]["metrics"].append("nope.count")
    bad["layers"][1]["moves"][0]["metric"] = "latency_s"
    bad["layers"][2]["moves"][0]["on"].append("no-such-workload")
    bad["layers"][3]["unchanged_on"].append("other")
    problems = schema.check_declarations(bench, bad)
    assert len(problems) == 4
    assert any("nope.count" in p for p in problems)
    assert any("latency_s" in p for p in problems)
    assert any("no-such-workload" in p for p in problems)
    assert any("'other'" in p for p in problems)


def test_every_per_layer_metric_is_mapped_and_names_unique():
    bench, layers = _declarations()
    b2 = copy.deepcopy(bench)
    b2["per_layer"].append({"name": "orphan.count", "unit": "count",
                            "better": "lower"})
    b2["per_layer"].append(dict(b2["per_layer"][0]))
    problems = schema.check_declarations(b2, layers)
    assert any("orphan.count" in p for p in problems)
    assert any("used twice" in p for p in problems)


def test_workload_classes_match_declarations():
    from benchlib.workloads import WORKLOADS
    bench, _ = _declarations()
    assert sorted(WORKLOADS) == sorted(w["name"] for w in bench["workloads"])
