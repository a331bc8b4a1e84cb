"""Tests for the continuous-batching scheduler (repro.serve.scheduler)."""

import pytest

from repro.comm.topology import a800_nvlink
from repro.gpu.device import A800
from repro.serve.arrivals import PoissonArrivals, Request, distribution_by_name
from repro.serve.scheduler import ContinuousBatchingScheduler, profile_iteration_tokens
from repro.serve.simulator import ServeConfig, ServingSimulator
from repro.workloads.llm import LLAMA2_7B, llm_inference_layer
from repro.workloads.parallelism import ParallelismConfig


def request(rid, prompt, output, arrival=0.0):
    return Request(
        request_id=rid, arrival_time=arrival, prompt_tokens=prompt, output_tokens=output
    )


class TestBatchPacking:
    def test_single_request_chunked_prefill(self):
        scheduler = ContinuousBatchingScheduler(max_batch_tokens=64, max_batch_size=4)
        scheduler.add(request(0, prompt=150, output=2))

        batch = scheduler.next_batch()
        assert [c.tokens for c in batch.prefill] == [64]
        assert not batch.prefill[0].finishes_prefill
        scheduler.apply(batch)

        batch = scheduler.next_batch()
        assert [c.tokens for c in batch.prefill] == [64]
        scheduler.apply(batch)

        batch = scheduler.next_batch()
        assert [c.tokens for c in batch.prefill] == [22]
        assert batch.prefill[0].finishes_prefill
        outcome = scheduler.apply(batch)
        assert outcome.first_tokens == (0,)  # prefill emits the first token

        batch = scheduler.next_batch()  # one decode left
        assert batch.prefill == () and batch.decode == (0,)
        outcome = scheduler.apply(batch)
        assert outcome.finished == (0,)
        assert not scheduler.has_work

    def test_decode_has_priority_over_prefill(self):
        scheduler = ContinuousBatchingScheduler(max_batch_tokens=16, max_batch_size=4)
        scheduler.add(request(0, prompt=4, output=8))
        scheduler.apply(scheduler.next_batch())  # request 0 finishes prefill
        scheduler.add(request(1, prompt=100, output=2))
        batch = scheduler.next_batch()
        assert batch.decode == (0,)
        assert [c.tokens for c in batch.prefill] == [15]  # leftover budget
        assert batch.total_tokens == 16

    def test_token_budget_respected(self):
        scheduler = ContinuousBatchingScheduler(max_batch_tokens=32, max_batch_size=8)
        for rid in range(8):
            scheduler.add(request(rid, prompt=20, output=4))
        while scheduler.has_work:
            batch = scheduler.next_batch()
            assert batch.total_tokens <= 32
            scheduler.apply(batch)

    def test_batch_size_bounds_admission(self):
        scheduler = ContinuousBatchingScheduler(max_batch_tokens=1024, max_batch_size=2)
        for rid in range(5):
            scheduler.add(request(rid, prompt=8, output=1))
        batch = scheduler.next_batch()
        assert [chunk.request_id for chunk in batch.prefill] == [0, 1]
        assert batch.decode == ()
        assert scheduler.waiting_count == 3

    def test_no_work_returns_none(self):
        scheduler = ContinuousBatchingScheduler()
        assert scheduler.next_batch() is None

    def test_duplicate_request_id_rejected(self):
        scheduler = ContinuousBatchingScheduler()
        scheduler.add(request(0, prompt=4, output=1))
        with pytest.raises(ValueError, match="already enqueued"):
            scheduler.add(request(0, prompt=4, output=1))


class TestSteadyDecodeRun:
    """The fast path's silent-run detector and its bulk-apply counterpart."""

    def steady_scheduler(self, outputs, max_batch_tokens=512, max_batch_size=8):
        """All requests prefilled in one batch, now mid-decode."""
        scheduler = ContinuousBatchingScheduler(
            max_batch_tokens=max_batch_tokens, max_batch_size=max_batch_size
        )
        for rid, output in enumerate(outputs):
            scheduler.add(request(rid, prompt=4, output=output))
        scheduler.apply(scheduler.next_batch())  # every prefill fits at once
        return scheduler

    def test_empty_scheduler_has_no_run(self):
        scheduler = ContinuousBatchingScheduler(max_batch_tokens=64, max_batch_size=4)
        assert scheduler.steady_decode_run() == 0

    def test_run_is_min_output_remaining_minus_one(self):
        # Prefill emits the first token, so outputs (5, 3) leave (4, 2)
        # decodes; only the first of the two remaining request-1 decodes is
        # silent -- the second finishes request 1.
        scheduler = self.steady_scheduler([5, 3])
        assert scheduler.steady_decode_run() == 1

    def test_last_token_iteration_is_never_silent(self):
        scheduler = self.steady_scheduler([2, 2])  # one decode each left
        assert scheduler.steady_decode_run() == 0

    def test_pending_admission_blocks_the_run(self):
        scheduler = self.steady_scheduler([8], max_batch_size=2)
        assert scheduler.steady_decode_run() == 6
        scheduler.add(request(99, prompt=4, output=4))  # waiting + a free slot
        assert scheduler.steady_decode_run() == 0

    def test_full_slots_keep_the_run_alive(self):
        scheduler = self.steady_scheduler([8], max_batch_size=1)
        scheduler.add(request(99, prompt=4, output=4))  # waiting, but no slot
        assert scheduler.steady_decode_run() == 6

    def test_pending_prefill_blocks_the_run(self):
        scheduler = ContinuousBatchingScheduler(max_batch_tokens=64, max_batch_size=4)
        scheduler.add(request(0, prompt=4, output=8))
        scheduler.add(request(1, prompt=150, output=8))  # needs chunked prefill
        scheduler.apply(scheduler.next_batch())  # 0 done, 1 mid-prefill
        assert scheduler.steady_decode_run() == 0

    def test_overflowing_token_budget_blocks_the_run(self):
        scheduler = self.steady_scheduler([8, 8, 8])
        scheduler.max_batch_tokens = 2  # 3 running decodes no longer fit
        assert scheduler.steady_decode_run() == 0

    def test_advance_decodes_matches_repeated_silent_batches(self):
        fast = self.steady_scheduler([6, 4])
        slow = self.steady_scheduler([6, 4])
        run = fast.steady_decode_run()
        assert run == 2
        fast.advance_decodes(run)
        for _ in range(run):
            batch = slow.next_batch()
            assert batch.prefill == () and batch.decode == (0, 1)
            outcome = slow.apply(batch)
            assert outcome.first_tokens == () and outcome.finished == ()
        assert fast.steady_decode_run() == slow.steady_decode_run() == 0
        # The next real batch finishes request 1 on both schedulers.
        for scheduler in (fast, slow):
            outcome = scheduler.apply(scheduler.next_batch())
            assert outcome.finished == (1,)

    def test_advance_decodes_rejects_negative(self):
        scheduler = self.steady_scheduler([6])
        with pytest.raises(ValueError, match=">= 0"):
            scheduler.advance_decodes(-1)

    def test_advance_decodes_rejects_crossing_a_request_boundary(self):
        scheduler = self.steady_scheduler([6, 4])
        with pytest.raises(ValueError, match="past a request boundary"):
            scheduler.advance_decodes(3)  # request 1 has only 3 decodes left

    def test_advance_decodes_rejects_pending_prefill(self):
        scheduler = ContinuousBatchingScheduler(max_batch_tokens=64, max_batch_size=4)
        scheduler.add(request(0, prompt=150, output=8))
        scheduler.apply(scheduler.next_batch())  # mid-prefill
        with pytest.raises(ValueError, match="past a request boundary"):
            scheduler.advance_decodes(1)


class TestTokenConservation:
    def test_all_tokens_scheduled_exactly_once(self):
        requests = [
            request(rid, prompt=13 + 7 * rid, output=3 + rid, arrival=0.0)
            for rid in range(6)
        ]
        scheduler = ContinuousBatchingScheduler(max_batch_tokens=24, max_batch_size=3)
        for r in requests:
            scheduler.add(r)
        prefill_tokens: dict[int, int] = {}
        output_tokens: dict[int, int] = {}
        while scheduler.has_work:
            batch = scheduler.next_batch()
            for chunk in batch.prefill:
                prefill_tokens[chunk.request_id] = (
                    prefill_tokens.get(chunk.request_id, 0) + chunk.tokens
                )
            outcome = scheduler.apply(batch)
            for rid in batch.decode + outcome.first_tokens:
                output_tokens[rid] = output_tokens.get(rid, 0) + 1
        for r in requests:
            assert prefill_tokens[r.request_id] == r.prompt_tokens
            assert output_tokens[r.request_id] == r.output_tokens

    def test_single_token_output_finishes_at_prefill(self):
        scheduler = ContinuousBatchingScheduler(max_batch_tokens=64, max_batch_size=4)
        scheduler.add(request(0, prompt=10, output=1))
        outcome = scheduler.apply(scheduler.next_batch())
        assert outcome.first_tokens == (0,)
        assert outcome.finished == (0,)
        assert not scheduler.has_work


class TestIterationShapes:
    """One iteration's overlap targets: the row-parallel projections of a
    decoder layer with ``M`` = the batched token count."""

    def test_row_parallel_projections(self):
        layer = llm_inference_layer(LLAMA2_7B, 512, ParallelismConfig(tp=4), A800,
                                    a800_nvlink(4))
        shapes = [op.problem.shape for op in layer if op.is_overlap_target]
        assert [(s.m, s.n, s.k) for s in shapes] == [
            (512, 4096, 1024),
            (512, 4096, 2752),
        ]

    def test_rejects_empty_iteration(self):
        with pytest.raises(ValueError):
            ServingSimulator(ServeConfig()).iteration_latency(0)


class TestProfileIterationTokens:
    def _requests(self, n=16, seed=0):
        return PoissonArrivals(
            rate_rps=50.0,
            distribution=distribution_by_name("chat"),
            seed=seed,
            num_requests=n,
        ).generate()

    def test_deterministic(self):
        a = profile_iteration_tokens(self._requests(), max_batch_tokens=256)
        b = profile_iteration_tokens(self._requests(), max_batch_tokens=256)
        assert a == b
        assert a  # produced at least one iteration

    def test_dry_run_stops_at_the_iteration_cap(self, monkeypatch):
        from repro.serve import scheduler

        monkeypatch.setattr(scheduler, "DRY_RUN_MAX_ITERATIONS", 3)
        with pytest.raises(RuntimeError, match="exceeded 3 iterations"):
            profile_iteration_tokens(self._requests(), max_batch_tokens=256)

    def test_budget_respected_and_tokens_conserved(self):
        requests = self._requests()
        tokens = profile_iteration_tokens(requests, max_batch_tokens=256)
        assert max(tokens) <= 256
        assert sum(tokens) == sum(r.prompt_tokens + r.output_tokens - 1 for r in requests)
