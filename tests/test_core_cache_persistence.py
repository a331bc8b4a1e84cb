"""Tests for shape-cache persistence (repro.core.tuner JSON round trip)."""

import pytest

from repro.core.config import OverlapSettings
from repro.core.tuner import GemmShapeCache, PredictiveTuner, TuningResult
from repro.core.wave_grouping import WavePartition
from repro.gpu.gemm import GemmShape


@pytest.fixture
def settings():
    return OverlapSettings(executor_jitter=0.0, bandwidth_profile_noise=0.0)


@pytest.fixture
def populated_cache(paper_problem_4090, settings):
    cache = GemmShapeCache()
    tuner = PredictiveTuner(settings)
    cache.lookup_or_tune(paper_problem_4090, tuner)
    cache.add(
        GemmShape(1024, 1024, 1024),
        TuningResult(
            partition=WavePartition((2, 3)),
            predicted_latency=1.5e-3,
            candidates_evaluated=7,
            method="predictive",
            use_overlap=False,
        ),
    )
    return cache


class TestJsonRoundTrip:
    def test_round_trip_preserves_entries(self, populated_cache):
        restored = GemmShapeCache.from_json(populated_cache.to_json())
        assert len(restored) == len(populated_cache)
        for original, loaded in zip(populated_cache.entries, restored.entries):
            assert loaded.shape == original.shape
            assert loaded.result.partition == original.result.partition
            assert loaded.result.use_overlap == original.result.use_overlap
            assert loaded.result.method == original.result.method
            assert loaded.result.predicted_latency == pytest.approx(
                original.result.predicted_latency
            )

    def test_json_is_human_readable(self, populated_cache):
        text = populated_cache.to_json()
        assert '"group_sizes"' in text
        assert '"m"' in text

    def test_empty_cache_round_trip(self):
        assert len(GemmShapeCache.from_json(GemmShapeCache().to_json())) == 0


class TestFilePersistence:
    def test_save_and_load(self, populated_cache, tmp_path):
        path = tmp_path / "tuning_cache.json"
        populated_cache.save(path)
        loaded = GemmShapeCache.load(path)
        assert len(loaded) == len(populated_cache)

    def test_loaded_cache_serves_lookups(self, populated_cache, paper_problem_4090, settings, tmp_path):
        path = tmp_path / "cache.json"
        populated_cache.save(path)
        loaded = GemmShapeCache.load(path)
        tuner = PredictiveTuner(settings)
        before = len(loaded)
        result = loaded.lookup_or_tune(paper_problem_4090, tuner)
        # The cached entry is reused; no new entry is added.
        assert len(loaded) == before
        assert result.partition == populated_cache.entries[0].result.partition


class TestErgonomics:
    def test_save_creates_parent_directories(self, populated_cache, tmp_path):
        path = tmp_path / "deep" / "nested" / "dir" / "cache.json"
        populated_cache.save(path)
        assert path.exists()
        assert len(GemmShapeCache.load(path)) == len(populated_cache)

    def test_load_missing_path_raises_clear_error(self, tmp_path):
        missing = tmp_path / "does_not_exist.json"
        with pytest.raises(FileNotFoundError, match="missing_ok"):
            GemmShapeCache.load(missing)

    def test_load_missing_path_with_missing_ok_returns_empty(self, tmp_path):
        cache = GemmShapeCache.load(tmp_path / "does_not_exist.json", missing_ok=True)
        assert len(cache) == 0

    def test_save_load_round_trip_through_new_directory(self, populated_cache, tmp_path, paper_problem_4090, settings):
        path = tmp_path / "warm" / "shapes.json"
        populated_cache.save(path)
        loaded = GemmShapeCache.load(path, missing_ok=True)
        assert loaded.lookup(paper_problem_4090, settings) is not None

    def test_lookup_returns_none_on_miss(self, settings, paper_problem_4090):
        assert GemmShapeCache().lookup(paper_problem_4090, settings) is None

    def test_lookup_respects_max_distance(self, populated_cache, paper_problem_4090, settings):
        result = populated_cache.lookup(paper_problem_4090, settings)
        assert result is not None
        shape = paper_problem_4090.shape

        def cached_at(m: int) -> GemmShapeCache:
            cache = GemmShapeCache()
            cache.add(GemmShape(m, shape.n, shape.k), result)
            return cache

        # Same wave count; only the log2 shape distance (1 vs 2) differs.
        assert cached_at(2 * shape.m).lookup(paper_problem_4090, settings) is result
        assert cached_at(4 * shape.m).lookup(paper_problem_4090, settings) is None
