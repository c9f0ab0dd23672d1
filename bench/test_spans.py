"""Self-time arithmetic of the benchmark's tracer, on hand-built span trees.

Run from the repository root:  python3 -m pytest bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from spans import Tracer  # noqa: E402


class ScriptedClock:
    """Returns the given readings in order, one per clock read."""

    def __init__(self, readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def _call_tree(tracer, node):
    """Call a tree of (name, children) as nested wrapped functions."""
    name, children = node
    return tracer.wrap(name, lambda: [_call_tree(tracer, c) for c in children])()


def test_self_time_is_span_minus_direct_children():
    # root [0,10] -> a [1,4] -> b [2,3];  root -> c [5,9] -> a [6,7]
    tracer = Tracer(clock=ScriptedClock([0, 1, 2, 3, 4, 5, 6, 7, 9, 10]))
    _call_tree(tracer, ("root", [("a", [("b", [])]), ("c", [("a", [])])]))

    assert tracer.self_time("root") == 10 - (4 - 1) - (9 - 5)
    assert tracer.self_time("a") == ((4 - 1) - (3 - 2)) + (7 - 6)
    assert tracer.self_time("b") == 1
    assert tracer.self_time("c") == (9 - 5) - (7 - 6)
    assert tracer.busy("a") == 4 and tracer.calls("a") == 2
    assert tracer.self_sum() == 10


def test_spans_record_their_parent():
    tracer = Tracer(clock=ScriptedClock([0, 1, 2, 3, 4, 5]))
    _call_tree(tracer, ("root", [("a", []), ("b", [])]))
    by_name = {name: (span_id, parent, start, end)
               for span_id, parent, name, start, end in tracer.spans}
    root_id = by_name["root"][0]
    assert by_name["root"][1] is None
    assert by_name["a"][1:] == (root_id, 1, 2)
    assert by_name["b"][1:] == (root_id, 3, 4)


def test_nested_same_name_counts_busy_once():
    # x [0,5] -> x [1,2]: busy is the outer span, self times still sum to it
    tracer = Tracer(clock=ScriptedClock([0, 1, 2, 5]))
    _call_tree(tracer, ("x", [("x", [])]))
    assert tracer.busy("x") == 5
    assert tracer.self_time("x") == 5
    assert tracer.calls("x") == 2


def test_span_cap_keeps_totals_exact():
    tracer = Tracer(clock=ScriptedClock([0, 1, 2, 3, 4, 5]), keep=1)
    _call_tree(tracer, ("root", [("a", []), ("a", [])]))
    assert len(tracer.spans) == 1 and tracer.dropped == 2
    assert tracer.busy("a") == 2 and tracer.self_time("root") == 3


def test_counter_reads_no_clock():
    tracer = Tracer(clock=ScriptedClock([]))
    counted = tracer.counter("n", lambda v: v + 1)
    assert counted(1) == 2 and counted(2) == 3
    assert tracer.counts["n"] == 2


def test_per_layer_names_match_benchmark_json():
    pytest.importorskip("yaml")
    import layers

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    row = layers.sweep_metrics(Tracer(), 1.0)
    emitted = layers.summarize([row], [0.5, 0.7], 1.0)
    assert [m["name"] for m in declared] == list(emitted)
    assert all(m["unit"] == layers.unit(m["name"]) for m in declared)
