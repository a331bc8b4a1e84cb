"""Tests for wave-group partitions and the design space (repro.core.wave_grouping)."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from oracles.wave_grouping import (
    candidate_partitions,
    enumerate_partitions,
    from_decisions,
    heuristic_partitions,
    pruned_partitions,
)
from repro.comm.primitives import CollectiveKind
from repro.comm.topology import rtx4090_pcie
from repro.core.config import OverlapProblem, OverlapSettings
from repro.core.tuner import PredictiveTuner
from repro.core.wave_grouping import (
    PartitionMatrix,
    WavePartition,
    _geometric_rows,
    candidate_partitions_matrix,
    design_space_size,
    heuristic_partition_matrix,
    pruned_partition_matrix,
)
from repro.gpu.device import RTX_4090
from repro.gpu.gemm import GemmShape


def _rows(matrix: PartitionMatrix) -> list[WavePartition]:
    return [matrix.partition(row) for row in range(matrix.num_candidates)]


def assert_same_rows(matrix: PartitionMatrix, partitions: list[WavePartition]) -> None:
    """``matrix`` encodes ``partitions`` row by row, dtypes included."""
    expected = candidate_partitions_matrix(partitions)
    for name in ("sizes", "counts"):
        got, want = getattr(matrix, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


class TestWavePartition:
    def test_basic_properties(self):
        partition = WavePartition((1, 2, 2))
        assert partition.num_waves == 5
        assert partition.num_groups == 3
        assert partition.boundaries() == [1, 3, 5]

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            WavePartition(())
        with pytest.raises(ValueError):
            WavePartition((2, 0, 1))

    def test_constructors(self):
        assert WavePartition.single_group(4).group_sizes == (4,)
        assert WavePartition.per_wave(3).group_sizes == (1, 1, 1)
        assert WavePartition.from_sizes([2, 3]).group_sizes == (2, 3)

    def test_equal_groups(self):
        assert WavePartition.equal_groups(10, 4).group_sizes == (4, 4, 2)
        assert WavePartition.equal_groups(8, 4).group_sizes == (4, 4)
        assert WavePartition.equal_groups(3, 10).group_sizes == (3,)
        with pytest.raises(ValueError):
            WavePartition.equal_groups(8, 0)

    def test_decision_round_trip(self):
        # Fig. 9 example: partition (1, 2, 2) communicates after waves 1, 3, 5.
        partition = from_decisions([True, False, True, False, True])
        assert partition == WavePartition((1, 2, 2))
        assert partition.boundaries() == [1, 3, 5]

    def test_from_decisions_forces_last_wave(self):
        partition = from_decisions([False, True, False, False])
        assert partition.group_sizes == (2, 2)

    def test_group_waves(self):
        partition = WavePartition((1, 2, 2))
        assert list(partition.group_waves(0)) == [0]
        assert list(partition.group_waves(1)) == [1, 2]
        assert list(partition.group_waves(2)) == [3, 4]
        with pytest.raises(IndexError):
            partition.group_waves(3)

    def test_group_tiles(self):
        partition = WavePartition((1, 2))
        wave_tiles = [[0, 2], [1, 3], [4, 5]]
        assert partition.group_tiles(wave_tiles) == [[0, 2], [1, 3, 4, 5]]

    def test_group_tiles_wave_count_mismatch(self):
        with pytest.raises(ValueError):
            WavePartition((1, 1)).group_tiles([[0], [1], [2]])


class TestDesignSpace:
    @pytest.mark.parametrize("waves,expected", [(1, 1), (2, 2), (5, 16), (8, 128)])
    def test_design_space_size(self, waves, expected):
        assert design_space_size(waves) == expected
        assert len(list(enumerate_partitions(waves))) == expected

    def test_enumeration_is_unique_and_complete(self):
        partitions = list(enumerate_partitions(6))
        assert len(set(p.group_sizes for p in partitions)) == 32
        assert all(p.num_waves == 6 for p in partitions)

    def test_invalid_wave_count(self):
        with pytest.raises(ValueError):
            design_space_size(0)
        with pytest.raises(ValueError):
            list(enumerate_partitions(0))

    def test_pruning_bounds_first_and_last_groups(self):
        pruned = _rows(pruned_partition_matrix(8, max_first_group=2, max_last_group=4))
        assert pruned
        assert all(p.group_sizes[0] <= 2 and p.group_sizes[-1] <= 4 for p in pruned)
        assert len(pruned) < design_space_size(8)

    def test_pruning_shrinks_with_tighter_bounds(self):
        # Sec. 4.1.4: constraining the first/last group sizes prunes the space.
        full = design_space_size(10)
        loose = pruned_partition_matrix(10, 2, 4).num_candidates
        tight = pruned_partition_matrix(10, 1, 1).num_candidates
        assert tight < loose < full

    def test_pruned_rows_keep_the_enumeration_order(self):
        # T = 4 with both bounds at 2.  Bit i of the mask communicates after
        # wave i + 1; masks 0, 1 and 4 ((4,), (1, 3), (3, 1)) break a bound,
        # and the rest stay in ascending mask order, so np.argmin ties go to
        # the same candidate as in the enumeration.
        rows = _rows(pruned_partition_matrix(4, 2, 2))
        assert [p.group_sizes for p in rows] == [
            (2, 2), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 1, 1),
        ]

    def test_invalid_wave_count_for_the_matrix(self):
        with pytest.raises(ValueError):
            pruned_partition_matrix(0, 2, 4)


class TestPrunedMatrixMatchesOracle:
    """The decision matrix against the enumerate-and-filter list, row by row."""

    @hyp_settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_pruned_rows_match(self, data):
        waves = data.draw(st.integers(min_value=1, max_value=14), label="waves")
        first = data.draw(st.integers(min_value=1, max_value=waves + 1), label="first")
        last = data.draw(st.integers(min_value=1, max_value=waves + 1), label="last")
        assert_same_rows(
            pruned_partition_matrix(waves, first, last), pruned_partitions(waves, first, last)
        )

    @pytest.mark.parametrize("waves", range(1, 15))
    def test_default_bounds_match(self, waves):
        assert_same_rows(pruned_partition_matrix(waves, 2, 4), pruned_partitions(waves, 2, 4))

    @hyp_settings(max_examples=60, deadline=None)
    @given(
        waves=st.integers(min_value=1, max_value=40),
        first=st.integers(min_value=1, max_value=4),
        last=st.integers(min_value=1, max_value=6),
        exhaustive=st.integers(min_value=1, max_value=12),
    )
    def test_tuner_candidates_match(self, waves, first, last, exhaustive):
        settings = OverlapSettings(
            max_first_group=first, max_last_group=last, max_exhaustive_waves=exhaustive
        )
        assert_same_rows(
            PredictiveTuner(settings).candidates(waves),
            candidate_partitions(waves, first, last, exhaustive),
        )


class TestHeuristicMatrixMatchesOracle:
    """The heuristic family built as one matrix against the oracle's partition list."""

    @pytest.mark.parametrize("waves", [*range(1, 301), 1058])
    def test_rows_match(self, waves):
        for first in range(1, 5):
            for last in range(1, 7):
                assert_same_rows(
                    heuristic_partition_matrix(waves, first, last),
                    heuristic_partitions(waves, first, last),
                )


class TestHeuristicCandidates:
    def test_heuristic_covers_extremes(self):
        candidates = _rows(heuristic_partition_matrix(30, max_first_group=2, max_last_group=4))
        sizes = {c.group_sizes for c in candidates}
        assert (1,) * 30 in sizes  # per-wave
        assert (30,) in sizes  # single group
        assert all(c.num_waves == 30 for c in candidates)
        assert len(candidates) >= 10

    def test_candidate_partitions_switches_family(self):
        tuner = PredictiveTuner(OverlapSettings(max_exhaustive_waves=14))
        small = _rows(tuner.candidates(8))
        large = tuner.candidates(40)
        assert all(p.group_sizes[0] <= 2 for p in small)
        assert large.num_candidates < 200
        assert np.all(large.total_waves == 40)

    def test_candidate_partitions_single_wave(self):
        assert [p.group_sizes for p in _rows(PredictiveTuner().candidates(1))] == [(1,)]

    def test_growth_is_clamped_at_the_wave_count(self):
        # Splitting a long tail into max_last_group-sized groups used to keep
        # multiplying the geometric size until it overflowed to inf (T = 4743
        # at the default bounds).  Only the geometric rows are built here: the
        # whole family's padded matrix would take about 180 MB at this T.  The
        # oracle lists the T distinct equal-size rows first, the geometric after.
        rows = _geometric_rows(4743, 2, 4)
        assert rows and all(sum(row) == 4743 for row in rows)
        assert [tuple(row) for row in rows] == [
            p.group_sizes for p in heuristic_partitions(4743, 2, 4)[4743:]
        ]

    def test_tuner_survives_a_long_split_tail(self):
        # T = 1058 waves: the family overflowed from T = 1006 at max_last_group=1.
        problem = OverlapProblem(
            shape=GemmShape(65536, 32768, 64),
            device=RTX_4090,
            topology=rtx4090_pcie(4),
            collective=CollectiveKind.ALL_REDUCE,
        )
        settings = OverlapSettings(max_last_group=1)
        result = PredictiveTuner(settings).tune(problem)
        assert result.partition.num_waves == 1058
        assert result.candidates_evaluated == PredictiveTuner(settings).candidates(1058).num_candidates
