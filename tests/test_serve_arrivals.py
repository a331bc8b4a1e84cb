"""Tests for the request-traffic generators (repro.serve.arrivals)."""

import json

import numpy as np
import pytest

from repro.serve.arrivals import (
    PoissonArrivals,
    Request,
    TraceArrivals,
    distribution_by_name,
    length_distributions,
)


class TestRequest:
    def test_total_tokens(self):
        r = Request(request_id=0, arrival_time=0.5, prompt_tokens=100, output_tokens=20)
        assert r.total_tokens == 120

    def test_rejects_invalid_lengths(self):
        with pytest.raises(ValueError):
            Request(request_id=0, arrival_time=0.0, prompt_tokens=0, output_tokens=1)
        with pytest.raises(ValueError):
            Request(request_id=0, arrival_time=-1.0, prompt_tokens=1, output_tokens=1)


class TestLengthDistributions:
    def test_known_names(self):
        assert {"chat", "summarize", "code", "fixed"} <= set(length_distributions())

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown length distribution"):
            distribution_by_name("does-not-exist")

    @pytest.mark.parametrize("name", sorted(length_distributions()))
    def test_samples_within_declared_ranges(self, name):
        dist = distribution_by_name(name)
        rng = np.random.default_rng(7)
        for _ in range(200):
            prompt, output = dist.sample(rng)
            assert dist.prompt_range[0] <= prompt <= dist.prompt_range[1]
            assert dist.output_range[0] <= output <= dist.output_range[1]

    def test_fixed_distribution_has_no_variance(self):
        dist = distribution_by_name("fixed")
        rng = np.random.default_rng(0)
        samples = {dist.sample(rng) for _ in range(32)}
        assert len(samples) == 1


class TestPoissonArrivals:
    def _gen(self, **kwargs):
        defaults = dict(
            rate_rps=20.0,
            distribution=distribution_by_name("chat"),
            seed=0,
            num_requests=40,
        )
        defaults.update(kwargs)
        return PoissonArrivals(**defaults)

    def test_same_seed_same_requests(self):
        assert self._gen().generate() == self._gen().generate()

    def test_different_seed_different_requests(self):
        assert self._gen().generate() != self._gen(seed=1).generate()

    def test_request_count_and_ordering(self):
        requests = self._gen(num_requests=25).generate()
        assert len(requests) == 25
        assert [r.request_id for r in requests] == list(range(25))
        arrivals = [r.arrival_time for r in requests]
        assert arrivals == sorted(arrivals)

    def test_rate_sets_mean_gap(self):
        requests = self._gen(rate_rps=100.0, num_requests=500).generate()
        gaps = np.diff([0.0] + [r.arrival_time for r in requests])
        assert np.mean(gaps) == pytest.approx(1 / 100.0, rel=0.2)

    def test_duration_bounds_the_window(self):
        requests = self._gen(num_requests=None, duration_s=2.0).generate()
        assert requests
        assert all(r.arrival_time <= 2.0 for r in requests)

    def test_requires_some_bound(self):
        with pytest.raises(ValueError, match="bound the traffic"):
            self._gen(num_requests=None, duration_s=None)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_rejects_a_rate_that_is_not_finite_and_positive(self, value):
        with pytest.raises(ValueError, match=f"rate_rps must be finite and positive, got {value}"):
            self._gen(rate_rps=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_rejects_a_duration_that_is_not_finite_and_positive(self, value):
        # Construction only: a nan window never closes (``now > nan`` is
        # never true), so generating from one would append forever.
        with pytest.raises(ValueError, match=f"duration_s must be finite and positive, got {value}"):
            self._gen(num_requests=None, duration_s=value)


class TestTraceArrivals:
    def test_records_sorted_and_reindexed(self):
        trace = TraceArrivals.from_records(
            [
                {"arrival_time": 2.0, "prompt_tokens": 10, "output_tokens": 5},
                {"arrival_time": 1.0, "prompt_tokens": 20, "output_tokens": 8},
            ]
        )
        requests = trace.generate()
        assert [r.arrival_time for r in requests] == [1.0, 2.0]
        assert [r.request_id for r in requests] == [0, 1]
        assert requests[0].prompt_tokens == 20

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = [
            {"arrival_time": 0.1, "prompt_tokens": 64, "output_tokens": 16},
            {"arrival_time": 0.3, "prompt_tokens": 128, "output_tokens": 32},
        ]
        path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
        )
        requests = TraceArrivals.from_jsonl(path).generate()
        assert len(requests) == 2
        assert requests[1].prompt_tokens == 128
        assert requests[1].arrival_time == pytest.approx(0.3)
