"""Tests for parallelism configurations (repro.workloads.parallelism)."""

import pytest

from repro.workloads.parallelism import ParallelismConfig


class TestParallelismConfig:
    def test_world_size(self):
        assert ParallelismConfig(tp=8).world_size == 8
        assert ParallelismConfig(tp=4, pp=2).world_size == 8
        assert ParallelismConfig(tp=2, ep=4).world_size == 8
        assert ParallelismConfig().world_size == 1

    def test_invalid_degrees(self):
        with pytest.raises(ValueError):
            ParallelismConfig(tp=0)
        with pytest.raises(ValueError):
            ParallelismConfig(ep=-1)
