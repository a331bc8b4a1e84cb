"""Tests for the signaling mechanism (repro.core.signaling)."""

import pytest

from repro.core.signaling import CountingTable, GroupAssignment, SignalOrderError
from repro.core.wave_grouping import WavePartition


@pytest.fixture
def wave_tiles():
    # 3 waves of 2 tiles each, swizzled order as in Fig. 6.
    return [[0, 2], [4, 1], [3, 5]]


@pytest.fixture
def assignment(wave_tiles):
    return GroupAssignment.build(WavePartition((1, 2)), wave_tiles)


class TestCountingTable:
    def test_fires_exactly_when_group_completes(self):
        table = CountingTable(group_sizes=(2, 4))
        assert table.record_tile(0) is False
        assert table.record_tile(0) is True
        assert table.is_complete(0)
        for _ in range(3):
            assert table.record_tile(1) is False
        assert table.record_tile(1) is True
        assert table.is_complete(1)

    def test_overcounting_rejected(self):
        table = CountingTable(group_sizes=(1,))
        table.record_tile(0)
        with pytest.raises(SignalOrderError):
            table.record_tile(0)

    def test_invalid_group_index(self):
        table = CountingTable(group_sizes=(1, 1))
        with pytest.raises(IndexError):
            table.record_tile(2)

    def test_assert_ready(self):
        table = CountingTable(group_sizes=(2,))
        with pytest.raises(SignalOrderError):
            table.assert_ready(0)
        table.record_tile(0)
        table.record_tile(0)
        table.assert_ready(0)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            CountingTable(group_sizes=())
        with pytest.raises(ValueError):
            CountingTable(group_sizes=(0,))


class TestGroupAssignment:
    def test_groups_follow_wave_partition(self, assignment):
        assert assignment.num_groups == 2
        assert assignment.group_tiles == ((0, 2), (4, 1, 3, 5))
        assert assignment.group_tile_counts() == (2, 4)

    def test_group_of_tile(self, assignment):
        assert assignment.group_of_tile[0] == 0
        assert assignment.group_of_tile[5] == 1

    def test_duplicate_tile_rejected(self):
        with pytest.raises(ValueError):
            GroupAssignment.build(WavePartition((1, 1)), [[0, 1], [1, 2]])

    def test_counting_table_sizes(self, assignment):
        table = assignment.counting_table()
        assert table.group_sizes == (2, 4)
