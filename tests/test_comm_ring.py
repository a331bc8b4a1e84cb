"""The step-by-step ring collectives (``tests/oracles/ring``) against the models.

The ring results must equal the direct collectives, and the traffic each rank
sends must equal the factor the latency model hard-codes in
:func:`repro.comm.primitives.ring_volume_factor`.
"""

import numpy as np
import pytest

from oracles.ring import ring_all_gather, ring_all_reduce, ring_reduce_scatter
from repro.comm.collectives import all_reduce, reduce_scatter_flat
from repro.comm.primitives import CollectiveKind, ring_volume_factor


@pytest.fixture(params=[2, 3, 4, 8])
def n_ranks(request):
    return request.param


class TestRingReduceScatter:
    def test_matches_direct_reduce_scatter(self, rng, n_ranks):
        size = n_ranks * 6
        buffers = [rng.standard_normal(size) for _ in range(n_ranks)]
        ring_result, _ = ring_reduce_scatter(buffers)
        direct = reduce_scatter_flat(buffers)
        for a, b in zip(ring_result, direct):
            np.testing.assert_allclose(a, b)

    def test_traffic_matches_the_latency_model(self, rng, n_ranks):
        size = n_ranks * 8
        buffers = [rng.standard_normal(size) for _ in range(n_ranks)]
        _, report = ring_reduce_scatter(buffers)
        expected = ring_volume_factor(CollectiveKind.REDUCE_SCATTER, n_ranks)
        assert report.volume_factor(size) == pytest.approx(expected)

    def test_uneven_chunks_still_correct(self, rng):
        buffers = [rng.standard_normal(10) for _ in range(3)]
        ring_result, _ = ring_reduce_scatter(buffers)
        total = sum(buffers)
        # np.array_split boundaries: 4, 3, 3.
        np.testing.assert_allclose(ring_result[0], total[:4])
        np.testing.assert_allclose(ring_result[1], total[4:7])
        np.testing.assert_allclose(ring_result[2], total[7:])

    def test_mismatched_sizes_rejected(self, rng):
        with pytest.raises(ValueError):
            ring_reduce_scatter([rng.standard_normal(4), rng.standard_normal(5)])


class TestRingAllGather:
    def test_every_rank_gets_the_concatenation(self, rng, n_ranks):
        chunks = [rng.standard_normal(5) for _ in range(n_ranks)]
        ring_result, _ = ring_all_gather(chunks)
        for gathered in ring_result:
            np.testing.assert_allclose(gathered, np.concatenate(chunks))

    def test_traffic_matches_the_latency_model(self, rng, n_ranks):
        chunks = [rng.standard_normal(7) for _ in range(n_ranks)]
        _, report = ring_all_gather(chunks)
        expected = ring_volume_factor(CollectiveKind.ALL_GATHER, n_ranks)
        assert report.volume_factor(7 * n_ranks) == pytest.approx(expected)


class TestRingAllReduce:
    def test_matches_direct_all_reduce(self, rng, n_ranks):
        buffers = [rng.standard_normal((4, n_ranks)) for _ in range(n_ranks)]
        ring_result, _ = ring_all_reduce(buffers)
        direct = all_reduce(buffers)
        for a, b in zip(ring_result, direct):
            np.testing.assert_allclose(a, b)

    def test_traffic_matches_the_latency_model(self, rng, n_ranks):
        size = n_ranks * 4
        buffers = [rng.standard_normal(size) for _ in range(n_ranks)]
        _, report = ring_all_reduce(buffers)
        expected = ring_volume_factor(CollectiveKind.ALL_REDUCE, n_ranks)
        assert report.volume_factor(size) == pytest.approx(expected)
        assert report.steps == 2 * (n_ranks - 1)

    def test_traffic_is_reduce_scatter_plus_all_gather(self, rng, n_ranks):
        """The ring AllReduce is a ring ReduceScatter followed by a ring AllGather."""
        size = n_ranks * 4
        buffers = [rng.standard_normal(size) for _ in range(n_ranks)]
        _, all_reduce_report = ring_all_reduce(buffers)
        scattered, scatter_report = ring_reduce_scatter(buffers)
        _, gather_report = ring_all_gather(scattered)
        assert all_reduce_report.steps == scatter_report.steps + gather_report.steps
        assert all_reduce_report.elements_sent_per_rank == pytest.approx(
            scatter_report.elements_sent_per_rank + gather_report.elements_sent_per_rank
        )
        assert ring_volume_factor(CollectiveKind.ALL_REDUCE, n_ranks) == pytest.approx(
            ring_volume_factor(CollectiveKind.REDUCE_SCATTER, n_ranks)
            + ring_volume_factor(CollectiveKind.ALL_GATHER, n_ranks)
        )

    def test_single_rank_degenerates(self, rng):
        buffers = [rng.standard_normal(6)]
        result, report = ring_all_reduce(buffers)
        np.testing.assert_allclose(result[0], buffers[0])
        assert report.elements_sent_per_rank == 0.0
        assert report.volume_factor(6) == ring_volume_factor(CollectiveKind.ALL_REDUCE, 1)

    def test_combine_rejects_rank_mismatch(self, rng):
        _, r2 = ring_all_reduce([rng.standard_normal(4) for _ in range(2)])
        _, r3 = ring_all_reduce([rng.standard_normal(6) for _ in range(3)])
        with pytest.raises(ValueError):
            r2.combine(r3)
