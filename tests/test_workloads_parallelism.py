"""Tests for parallelism configurations (repro.workloads.parallelism)."""

import pytest

from repro.workloads.parallelism import ParallelismConfig


class TestParallelismConfig:
    def test_world_size(self):
        assert ParallelismConfig(tp=8).world_size == 8
        assert ParallelismConfig(tp=4, pp=2).world_size == 8
        assert ParallelismConfig(tp=2, ep=4).world_size == 8
        assert ParallelismConfig().world_size == 1

    def test_sharding(self):
        assert ParallelismConfig(tp=4).shard_rows(8192) == 2048

    def test_sharding_indivisible_rejected(self):
        with pytest.raises(ValueError):
            ParallelismConfig(tp=3).shard_rows(8192)

    def test_invalid_degrees(self):
        with pytest.raises(ValueError):
            ParallelismConfig(tp=0)
        with pytest.raises(ValueError):
            ParallelismConfig(ep=-1)

    def test_describe(self):
        assert ParallelismConfig(tp=8).describe() == "TP=8"
        assert "EP=4" in ParallelismConfig(tp=2, ep=4).describe()
        assert ParallelismConfig().describe() == "single GPU"
