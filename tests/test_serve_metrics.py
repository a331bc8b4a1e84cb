"""Tests for the serving metrics (repro.serve.metrics)."""

import pytest

from repro.serve.metrics import SLO, LatencyStats, RequestRecord, compute_metrics


def record(rid=0, arrival=0.0, first=1.0, finish=2.0, prompt=10, output=5):
    return RequestRecord(
        request_id=rid,
        arrival_time=arrival,
        first_token_time=first,
        finish_time=finish,
        prompt_tokens=prompt,
        output_tokens=output,
    )


class TestRequestRecord:
    def test_latency_definitions(self):
        r = record(arrival=1.0, first=1.5, finish=3.5, output=5)
        assert r.ttft == pytest.approx(0.5)
        assert r.e2e_latency == pytest.approx(2.5)
        assert r.tpot == pytest.approx(2.0 / 4)  # 4 gaps after the first token

    def test_single_token_output_has_zero_tpot(self):
        assert record(output=1).tpot == 0.0


class TestLatencyStats:
    def test_percentiles_on_known_series(self):
        values = [float(v) for v in range(1, 101)]
        stats = LatencyStats.from_values(values)
        assert stats.count == 100
        assert stats.mean == pytest.approx(50.5)
        assert stats.p50 == pytest.approx(50.5)
        assert stats.p99 == pytest.approx(99.01)
        assert stats.max == 100.0

    def test_empty_series(self):
        stats = LatencyStats.from_values([])
        assert stats.count == 0
        assert stats.p99 == 0.0


class TestSLO:
    def test_met_by(self):
        slo = SLO(ttft_s=1.0, tpot_s=0.5)
        assert slo.met_by(record(arrival=0.0, first=0.9, finish=2.0, output=5))
        assert not slo.met_by(record(arrival=0.0, first=1.1, finish=2.0, output=5))
        assert not slo.met_by(record(arrival=0.0, first=0.5, finish=4.6, output=3))

    def test_rejects_non_positive_bounds(self):
        with pytest.raises(ValueError):
            SLO(ttft_s=0.0)

    @pytest.mark.parametrize("field", ["ttft_s", "tpot_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_bounds(self, field, value):
        with pytest.raises(ValueError, match=f"SLO {field} must be finite and positive, got {value}"):
            SLO(**{field: value})


class TestComputeMetrics:
    def test_throughput_and_goodput(self):
        records = [
            record(rid=0, arrival=0.0, first=0.5, finish=1.0, prompt=10, output=5),
            record(rid=1, arrival=0.0, first=2.0, finish=4.0, prompt=20, output=3),
        ]
        metrics = compute_metrics(records, makespan_s=4.0, slo=SLO(ttft_s=1.0, tpot_s=1.0))
        assert metrics.requests_completed == 2
        assert metrics.output_tokens_per_s == pytest.approx(8 / 4.0)
        assert metrics.total_tokens_per_s == pytest.approx(38 / 4.0)
        assert metrics.requests_per_s == pytest.approx(0.5)
        # Only request 0 meets TTFT <= 1s.
        assert metrics.slo_attainment == pytest.approx(0.5)
        assert metrics.goodput_requests_per_s == pytest.approx(0.25)
        assert metrics.goodput_requests_per_s <= metrics.requests_per_s

    def test_empty_records(self):
        metrics = compute_metrics([], makespan_s=0.0)
        assert metrics.requests_completed == 0
        assert metrics.slo_attainment == 0.0
        assert metrics.output_tokens_per_s == 0.0

    def test_to_dict_is_json_stable(self):
        import json

        records = [record()]
        a = compute_metrics(records, makespan_s=2.0).to_dict()
        b = compute_metrics(records, makespan_s=2.0).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
