"""Tests for the metrics registry: label keys, percentiles, snapshots."""

import json

from repro import obs
from repro.obs.metrics import MetricsRegistry, metric_key


class TestMetricKey:
    def test_no_labels_is_the_bare_name(self):
        assert metric_key("plan_store.hits", {}) == "plan_store.hits"

    def test_labels_are_sorted_into_the_key(self):
        assert (
            metric_key("serve.iterations", {"mode": "overlap", "arm": "a"})
            == "serve.iterations{arm=a,mode=overlap}"
        )


class TestLabelMerging:
    def test_same_labels_any_keyword_order_is_the_same_series(self):
        registry = MetricsRegistry()
        first = registry.counter("x", a=1, b=2)
        second = registry.counter("x", b=2, a=1)
        assert first is second
        first.inc()
        second.inc(2)
        assert registry.snapshot()["counters"] == {"x{a=1,b=2}": 3}

    def test_different_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("x", mode="overlap").inc()
        registry.counter("x", mode="non-overlap").inc(5)
        registry.counter("x").inc(7)
        assert registry.snapshot()["counters"] == {
            "x": 7,
            "x{mode=non-overlap}": 5,
            "x{mode=overlap}": 1,
        }

    def test_counter_gauge_histogram_namespaces_are_independent(self):
        registry = MetricsRegistry()
        registry.counter("m").inc()
        registry.gauge("m").set(2.5)
        registry.histogram("m").observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"]["m"] == 1
        assert snap["gauges"]["m"] == 2.5
        assert snap["histograms"]["m"]["count"] == 1


class TestHistogramPercentiles:
    def test_nearest_rank_on_1_to_100(self):
        histogram = MetricsRegistry().histogram("h")
        for value in range(100, 0, -1):  # insertion order must not matter
            histogram.observe(float(value))
        assert histogram.percentile(50) == 50.0
        assert histogram.percentile(90) == 90.0
        assert histogram.percentile(99) == 99.0
        assert histogram.percentile(100) == 100.0

    def test_single_value_dominates_every_percentile(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(0.25)
        summary = histogram.summary()
        assert summary["p50"] == summary["p99"] == 0.25
        assert summary["count"] == 1 and summary["mean"] == 0.25

    def test_empty_histogram_summary(self):
        assert MetricsRegistry().histogram("h").summary() == {"count": 0}

    def test_p0_p50_p100_edge_ranks(self):
        # p0 clamps to the smallest observation (rank floor of 1), p100 to
        # the largest; a two-value histogram exercises both clamp branches.
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(2.0)
        histogram.observe(1.0)
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(50) == 1.0
        assert histogram.percentile(100) == 2.0

    def test_summary_matches_per_call_percentiles(self):
        # summary() sorts once; its percentile fields must equal the
        # sort-per-call percentile() results on the same data.
        histogram = MetricsRegistry().histogram("h")
        for value in (5.0, 1.0, 4.0, 2.0, 3.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["p50"] == histogram.percentile(50)
        assert summary["p90"] == histogram.percentile(90)
        assert summary["p99"] == histogram.percentile(99)
        assert summary["min"] == 1.0 and summary["max"] == 5.0
        assert summary["sum"] == sum((5.0, 1.0, 4.0, 2.0, 3.0))
        assert histogram.values[0] == 5.0  # observation order preserved

    def test_single_value_summary_unchanged_by_single_sort(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(0.125)
        summary = histogram.summary()
        assert summary == {
            "count": 1, "sum": 0.125, "min": 0.125, "max": 0.125,
            "mean": 0.125, "p50": 0.125, "p90": 0.125, "p99": 0.125,
        }


class TestSnapshotRoundTrip:
    def test_snapshot_survives_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("jobs", kind="sweep").inc(12)
        registry.gauge("cache.size").set(34.0)
        for value in (0.1, 0.2, 0.3):
            registry.histogram("latency_s", mode="overlap").observe(value)
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_snapshot_key_order_is_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        registry.counter("c", z=1).inc()
        assert list(registry.snapshot()["counters"]) == ["a", "b", "c{z=1}"]


class TestNullMetrics:
    def test_disabled_accessors_share_null_objects(self):
        assert not obs.enabled()
        assert obs.counter("x") is obs.counter("y", any_label=1)
        assert obs.gauge("x") is obs.gauge("y")
        assert obs.histogram("x") is obs.histogram("y")

    def test_null_metrics_swallow_writes(self):
        obs.counter("x").inc(100)
        obs.gauge("x").set(5.0)
        obs.histogram("x").observe(1.0)
        with obs.observe() as session:
            pass  # nothing recorded before the session opened
        assert session.metrics.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
