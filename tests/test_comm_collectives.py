"""Tests for the functional NumPy collectives (repro.comm.collectives)."""

import numpy as np
import pytest

from repro.comm.collectives import all_reduce, all_to_all, all_to_all_rows, reduce_scatter_flat


@pytest.fixture
def buffers(rng):
    return [rng.standard_normal((8, 6)) for _ in range(4)]


class TestAllReduce:
    def test_every_rank_gets_the_sum(self, buffers):
        results = all_reduce(buffers)
        expected = sum(buffers)
        assert len(results) == 4
        for out in results:
            np.testing.assert_allclose(out, expected)

    def test_results_are_independent_copies(self, buffers):
        results = all_reduce(buffers)
        results[0][0, 0] = 42.0
        assert results[1][0, 0] != 42.0

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            all_reduce([rng.standard_normal((2, 2)), rng.standard_normal((3, 2))])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            all_reduce([])


class TestReduceScatter:
    def test_flat_semantics(self, rng):
        bufs = [rng.standard_normal(16) for _ in range(4)]
        results = reduce_scatter_flat(bufs)
        expected = sum(bufs)
        for rank, out in enumerate(results):
            np.testing.assert_allclose(out, expected[rank * 4 : (rank + 1) * 4])

    def test_row_split_semantics(self, buffers):
        # The flat split of a row-major matrix whose rows divide evenly gives
        # every rank a contiguous block of whole rows of the sum.
        results = reduce_scatter_flat(buffers)
        expected = sum(buffers)
        for rank, out in enumerate(results):
            np.testing.assert_allclose(out.reshape(2, 6), expected[rank * 2 : (rank + 1) * 2])

    def test_flat_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="differs"):
            reduce_scatter_flat([rng.standard_normal(8), rng.standard_normal((2, 4))])

    def test_flat_indivisible_rejected(self, rng):
        with pytest.raises(ValueError):
            reduce_scatter_flat([rng.standard_normal(10) for _ in range(4)])

    def test_reduce_scatter_then_all_gather_is_all_reduce(self, buffers):
        shards = reduce_scatter_flat(buffers)
        # Concatenating the rank shards is the all-gather.
        np.testing.assert_allclose(np.concatenate(shards), all_reduce(buffers)[0].ravel())


class TestAllToAll:
    def test_transpose_semantics(self, rng):
        n = 3
        send = [[rng.standard_normal(4) + 10 * src + dst for dst in range(n)] for src in range(n)]
        recv = all_to_all(send)
        for dst in range(n):
            for src in range(n):
                np.testing.assert_allclose(recv[dst][src], send[src][dst])

    def test_uneven_buffer_sizes(self, rng):
        send = [
            [rng.standard_normal(i + j + 1) for j in range(2)] for i in range(2)
        ]
        recv = all_to_all(send)
        assert recv[0][1].size == send[1][0].size

    def test_wrong_row_length_rejected(self, rng):
        with pytest.raises(ValueError):
            all_to_all([[rng.standard_normal(2)], [rng.standard_normal(2), rng.standard_normal(2)]])


class TestAllToAllRows:
    def test_tokens_arrive_at_destination(self, rng):
        n = 3
        buffers = [rng.standard_normal((6, 4)) for _ in range(n)]
        destinations = [np.array([0, 1, 2, 0, 1, 2]) for _ in range(n)]
        received = all_to_all_rows(buffers, destinations)
        # Each destination receives 2 tokens from each source, in source order.
        for dst in range(n):
            assert received[dst].shape == (6, 4)
            expected = np.concatenate(
                [buffers[src][destinations[src] == dst] for src in range(n)], axis=0
            )
            np.testing.assert_allclose(received[dst], expected)

    def test_total_token_count_preserved(self, rng):
        n = 4
        buffers = [rng.standard_normal((10, 2)) for _ in range(n)]
        destinations = [rng.integers(0, n, size=10) for _ in range(n)]
        received = all_to_all_rows(buffers, destinations)
        assert sum(r.shape[0] for r in received) == n * 10

    def test_destination_out_of_range(self, rng):
        with pytest.raises(ValueError):
            all_to_all_rows([rng.standard_normal((2, 2))], [np.array([0, 5])])

    def test_mismatched_lengths(self, rng):
        with pytest.raises(ValueError):
            all_to_all_rows([rng.standard_normal((2, 2))], [np.array([0]), np.array([0])])

    def test_destination_count_mismatch(self, rng):
        with pytest.raises(ValueError):
            all_to_all_rows([rng.standard_normal((3, 2))], [np.array([0, 0])])
