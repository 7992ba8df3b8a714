"""Fast self-tests of the benchmark's own helpers (no workload runs)."""

import json
import types
from pathlib import Path

import pytest

from perfbench import checks, layers, stats
from perfbench.common import END_TO_END_UNITS
from perfbench.layers import PER_LAYER_UNITS
from perfbench.spans import (
    Span,
    Tracer,
    accounting_closes,
    self_times,
    thread_accounting,
    union_length,
)


def span(sid, parent, start, end, thread=1, name="x"):
    return Span(sid, parent, name, thread, start, end, {})


# ------------------------------------------------------------------ spans
def test_union_length_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4)
    assert union_length([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == pytest.approx(2)
    assert union_length([], 0, 1) == 0


def test_self_time_subtracts_children_once():
    spans = [
        span(1, 0, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 1, 5.0, 6.0),
        span(4, 2, 2.0, 3.0),  # grandchild: counts against 2, not against 1
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_accounting_adds_up_to_the_window_per_thread():
    spans = [
        span(1, 0, 1.0, 3.0, thread=1),
        span(2, 1, 1.5, 2.0, thread=1),
        span(3, 0, 11.0, 12.0, thread=1),
        span(4, 0, 2.0, 9.0, thread=2),
        span(5, 0, 30.0, 31.0, thread=1),  # outside every window: ignored
    ]
    windows = [(0.0, 10.0), (10.0, 20.0)]
    acct = thread_accounting(spans, windows)
    assert acct[1] == pytest.approx({"self": 3.0, "unattributed": 17.0, "window": 20.0})
    assert acct[2] == pytest.approx({"self": 7.0, "unattributed": 13.0, "window": 20.0})
    assert accounting_closes(acct)
    acct[1]["self"] += 0.5
    assert not accounting_closes(acct)


def test_tracer_patches_every_binding_and_restores():
    def work(x):
        return x + 1

    module = types.ModuleType("perfbench_fake_module")
    module.work = work
    import sys

    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        tracer.patch_function(work, "fake.work", lambda sid, a, k, r: {"x": a[0]})
        assert module.work is not work
        assert module.work(1) == 2 and not tracer.spans  # inactive: no span
        tracer.active = True
        assert module.work(2) == 3
        (recorded,) = tracer.spans
        assert recorded.name == "fake.work" and recorded.attrs == {"x": 2}
        tracer.restore()
        assert module.work is work
    finally:
        del sys.modules[module.__name__]


def test_tracer_nests_spans_and_records_failures():
    class Thing:
        def outer(self):
            return self.inner()

        def inner(self):
            raise KeyError("boom")

    original = Thing.__dict__["outer"]
    tracer = Tracer()
    tracer.patch_method(Thing, "outer", "t.outer")
    tracer.patch_method(Thing, "inner", "t.inner")
    tracer.active = True
    with pytest.raises(KeyError):
        Thing().outer()
    inner, outer = tracer.spans
    assert inner.parent == outer.id and outer.parent == 0
    assert inner.attrs == {"error": "KeyError"}
    tracer.restore()
    assert Thing.__dict__["outer"] is original


# ----------------------------------------------------------------- checks
def test_sliding_mode_breaks_ties_towards_the_most_recent_class():
    assert checks.sliding_mode([0, 1], 5) == [0, 1]
    assert checks.sliding_mode([2, 2, 1, 1, 3], 5) == [2, 2, 2, 1, 1]
    assert checks.sliding_mode([0, 0, 0, 1, 1, 1], 3) == [0, 0, 0, 0, 1, 1]
    assert checks.sliding_mode([3, 1, 2], 1) == [3, 1, 2]


def test_sliding_mode_agrees_with_the_program_voter():
    import numpy as np
    from repro.postproc.majority import majority_filter

    raw = np.random.default_rng(3).integers(0, 4, size=500)
    for window in (1, 2, 5, 8):
        assert checks.sliding_mode(raw, window) == majority_filter(raw, window).tolist()


def test_balanced_accuracy_averages_recall_over_present_classes():
    assert checks.balanced_accuracy([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert checks.balanced_accuracy([0, 0, 0, 1], [0, 1, 1, 1]) == pytest.approx((1 / 3 + 1) / 2)
    # A class that is only ever predicted does not enter the mean.
    assert checks.balanced_accuracy([0, 0], [0, 3]) == 0.5


def test_dominated():
    assert checks.dominated((0.5, 10), [(0.6, 10)])
    assert checks.dominated((0.5, 10), [(0.5, 9)])
    assert not checks.dominated((0.5, 10), [(0.5, 10), (0.7, 20), (0.4, 5)])


def test_energy_per_cycle():
    assert checks.energy_per_cycle_uj(20e6, 1e-3) == pytest.approx(5e-5)


# ------------------------------------------------------------------ stats
def test_percentiles_carry_their_sample_count():
    values = list(range(1, 1001))
    assert stats.percentile(values, 50) == {"value": 500.0, "samples": 1000}
    assert stats.percentile(values, 99) == {"value": 990.0, "samples": 1000}
    with pytest.raises(ValueError, match="at least 1000 samples"):
        stats.percentile(values[:999], 99)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# ------------------------------------------------------------------ config
def test_benchmark_json_lists_every_per_layer_metric_with_its_unit():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == [
        "flow-sweep", "sim-batch", "sim-stream", "serve-stream"
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert "setup_s" in END_TO_END_UNITS


def test_traced_runs_report_every_per_layer_metric():
    assert set(layers.MEASURED) == {"flow-sweep", "sim-batch", "sim-stream", "serve-stream"}
    for names in layers.MEASURED.values():
        assert names <= set(PER_LAYER_UNITS)
    assert set().union(*layers.MEASURED.values()) == set(PER_LAYER_UNITS)
    measured = {name: 1.0 for name in layers.MEASURED["sim-batch"]}
    measured["sim.lockstep_share"] = None
    values, missing = layers.complete("sim-batch", measured)
    assert set(values) == set(PER_LAYER_UNITS)
    assert missing == ["sim.lockstep_share"]
    assert values["serve.queue_wait_ms"] == 0.0 and values["engine.batch_us_per_frame"] == 1.0
