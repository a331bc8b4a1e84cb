"""The continuous-batching scheduler with one state object per request.

:class:`repro.serve.scheduler.ContinuousBatchingScheduler` keeps its running
set as per-request columns and takes positional shortcuts through them.
:class:`ReferenceScheduler` is the same policy written request by request:
every running request is a :class:`RequestState`, every batch is packed and
applied by walking those objects, and the finish check visits each one.  It
emits the production :class:`~repro.serve.scheduler.IterationBatch` (its
token total re-summed from the chunks), so a differential suite can compare
batches, outcomes, counts and errors call by call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.serve.arrivals import Request
from repro.serve.scheduler import IterationBatch, IterationOutcome, PrefillChunk


@dataclass
class RequestState:
    """Mutable per-request progress inside the scheduler."""

    request: Request
    prefill_remaining: int
    output_remaining: int

    @property
    def prefill_done(self) -> bool:
        return self.prefill_remaining == 0

    @property
    def finished(self) -> bool:
        return self.prefill_done and self.output_remaining == 0


class ReferenceScheduler:
    """Iteration-level batching over a waiting queue and a running set."""

    def __init__(self, max_batch_tokens: int = 2048, max_batch_size: int = 64) -> None:
        if max_batch_tokens < 1 or max_batch_size < 1:
            raise ValueError("max_batch_tokens and max_batch_size must be >= 1")
        self.max_batch_tokens = max_batch_tokens
        self.max_batch_size = max_batch_size
        self._waiting: deque[RequestState] = deque()
        self._running: list[RequestState] = []
        self._states: dict[int, RequestState] = {}

    def add(self, request: Request) -> None:
        """Enqueue an arrived request (FCFS)."""
        if request.request_id in self._states:
            raise ValueError(f"request {request.request_id} already enqueued")
        state = RequestState(
            request=request,
            prefill_remaining=request.prompt_tokens,
            output_remaining=request.output_tokens,
        )
        self._states[request.request_id] = state
        self._waiting.append(state)

    def remove(self, request_id: int) -> bool:
        """Evict a request wherever it is; True when it was tracked."""
        state = self._states.pop(request_id, None)
        if state is None:
            return False
        if state in self._running:
            self._running.remove(state)
        else:
            self._waiting.remove(state)
        return True

    @property
    def has_work(self) -> bool:
        return bool(self._waiting or self._running)

    @property
    def waiting_count(self) -> int:
        return len(self._waiting)

    @property
    def running_count(self) -> int:
        return len(self._running)

    def next_batch(self) -> IterationBatch | None:
        """Decode tokens first, then prefill chunks in admission order."""
        while self._waiting and len(self._running) < self.max_batch_size:
            self._running.append(self._waiting.popleft())

        budget = self.max_batch_tokens
        decode: list[int] = []
        for state in self._running:
            if state.prefill_done and budget > 0:
                decode.append(state.request.request_id)
                budget -= 1

        prefill: list[PrefillChunk] = []
        for state in self._running:
            if budget <= 0:
                break
            if not state.prefill_done:
                tokens = min(state.prefill_remaining, budget)
                prefill.append(
                    PrefillChunk(
                        request_id=state.request.request_id,
                        tokens=tokens,
                        finishes_prefill=tokens == state.prefill_remaining,
                    )
                )
                budget -= tokens

        if not decode and not prefill:
            return None
        return IterationBatch(
            prefill=tuple(prefill),
            decode=tuple(decode),
            total_tokens=sum(chunk.tokens for chunk in prefill) + len(decode),
        )

    def steady_decode_run(self) -> int:
        """``min(output_remaining) - 1`` when the next iteration is a silent repeat, else 0."""
        if not self._running:
            return 0
        if self._waiting and len(self._running) < self.max_batch_size:
            return 0
        if len(self._running) > self.max_batch_tokens:
            return 0
        floor = None
        for state in self._running:
            if not state.prefill_done:
                return 0
            if floor is None or state.output_remaining < floor:
                floor = state.output_remaining
        return floor - 1

    def advance_decodes(self, iterations: int) -> None:
        """Bulk-apply ``iterations`` silent steady-decode batches."""
        if iterations < 0:
            raise ValueError("iterations must be >= 0")
        for state in self._running:
            if not state.prefill_done or state.output_remaining <= iterations:
                raise ValueError(
                    "advance_decodes past a request boundary: "
                    f"request {state.request.request_id} is not mid-decode "
                    f"for {iterations} more iterations"
                )
            state.output_remaining -= iterations

    def apply(self, batch: IterationBatch) -> IterationOutcome:
        """Account one executed batch; returns first-token/finish events."""
        first_tokens: list[int] = []
        finished: list[int] = []

        for chunk in batch.prefill:
            state = self._states[chunk.request_id]
            state.prefill_remaining -= chunk.tokens
            if state.prefill_remaining < 0:
                raise ValueError(f"request {chunk.request_id} prefilled past its prompt")
            if chunk.finishes_prefill:
                # The prefill-completing iteration emits the first output token.
                state.output_remaining -= 1
                first_tokens.append(chunk.request_id)

        for request_id in batch.decode:
            state = self._states[request_id]
            state.output_remaining -= 1
            if state.output_remaining < 0:
                raise ValueError(f"request {request_id} decoded past its output length")

        for state in list(self._running):
            if state.finished:
                finished.append(state.request.request_id)
                self._running.remove(state)
                del self._states[state.request.request_id]

        return IterationOutcome(first_tokens=tuple(first_tokens), finished=tuple(finished))
