"""Continuous-batching scheduler with chunked prefill.

Orca/vLLM-style iteration-level scheduling: every engine iteration packs the
currently active requests into one batch -- each decoding request contributes
one token, and the remaining token budget is filled with prefill chunks in
FCFS admission order (chunked prefill, so a long prompt never blocks decodes).
The scheduler's job here is to turn request traffic into the *per-iteration
GEMM shapes* that the overlap operator sees: the row-parallel projections of
one decoder layer with ``M = total batched tokens``.

Conventions:

* a request is admitted into the running set as soon as a slot is free
  (``max_batch_size`` bounds the set);
* the iteration that consumes the last prefill chunk of a request also emits
  its first output token (prefill produces the first token, as in vLLM);
* each subsequent iteration in which the request is scheduled produces one
  more output token, until ``output_tokens`` are emitted and the request
  leaves the running set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.gpu.gemm import GemmShape
from repro.serve.arrivals import Request
from repro.workloads.llm import ModelConfig


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


@dataclass(frozen=True)
class PrefillChunk:
    """One prefill slice scheduled in an iteration."""

    request_id: int
    tokens: int
    finishes_prefill: bool


@dataclass(frozen=True)
class IterationBatch:
    """What one engine iteration executes."""

    prefill: tuple[PrefillChunk, ...]
    decode: tuple[int, ...]  # request IDs, one token each

    @property
    def total_tokens(self) -> int:
        return sum(chunk.tokens for chunk in self.prefill) + len(self.decode)

    @property
    def num_requests(self) -> int:
        return len({chunk.request_id for chunk in self.prefill} | set(self.decode))


@dataclass(frozen=True)
class IterationOutcome:
    """Request-visible events produced by applying one batch."""

    first_tokens: tuple[int, ...]  # request IDs that emitted their first token
    finished: tuple[int, ...]  # request IDs that emitted their last token


class ContinuousBatchingScheduler:
    """Iteration-level batching over a waiting queue and a running set."""

    def __init__(self, max_batch_tokens: int = 2048, max_batch_size: int = 64) -> None:
        if max_batch_tokens < 1 or max_batch_size < 1:
            raise ValueError("max_batch_tokens and max_batch_size must be >= 1")
        self.max_batch_tokens = max_batch_tokens
        self.max_batch_size = max_batch_size
        self._waiting: deque[RequestState] = deque()
        self._running: list[RequestState] = []
        self._states: dict[int, RequestState] = {}

    # -- queue management --------------------------------------------------------

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
        """Evict a request wherever it is (deadline/abandon path).

        Returns True when the request was tracked.  The serving loop only
        calls this between iterations, so an in-flight batch never references
        an evicted request.
        """
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

    # -- iteration planning --------------------------------------------------------

    def next_batch(self) -> IterationBatch | None:
        """Pack the next iteration, or None when nothing is schedulable.

        Decode tokens are placed first (one per decoding request, latency
        priority), then the leftover token budget is filled with prefill
        chunks in admission order.
        """
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
        return IterationBatch(prefill=tuple(prefill), decode=tuple(decode))

    def steady_decode_run(self) -> int:
        """How many upcoming iterations are *silent* steady-decode repeats.

        A silent iteration batches exactly one decode token for every running
        request and changes nothing observable: no admission (the waiting
        queue is empty, or every slot is taken), no prefill, no first token
        and no completion.  The serving fast path advances such runs in one
        step; the return value is ``min(output_remaining) - 1`` so that the
        iteration that emits somebody's last token is always executed
        normally.  Returns 0 when the next iteration is not a silent repeat.
        """
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
        """Bulk-apply ``iterations`` silent steady-decode batches.

        Only valid for ``iterations <= steady_decode_run()``: every running
        request decodes one token per iteration and none may finish.
        """
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


def iteration_gemm_shapes(total_tokens: int, model: ModelConfig, tp: int) -> list[GemmShape]:
    """The overlap-target GEMM shapes of one iteration over ``total_tokens``.

    These are the row-parallel projections of one decoder layer under tensor
    parallelism -- attention output and MLP down, each followed by an
    AllReduce -- with ``M`` set by the batched token count, matching
    :func:`repro.workloads.llm.llm_inference_layer`.
    """
    if total_tokens < 1:
        raise ValueError("total_tokens must be >= 1")
    return [
        GemmShape(m=total_tokens, n=model.hidden_size, k=model.hidden_size // tp),
        GemmShape(m=total_tokens, n=model.hidden_size, k=model.intermediate_size // tp),
    ]


#: Fixed iteration duration and iteration cap of the scheduler dry run.
DRY_RUN_ITERATION_S = 5e-3
DRY_RUN_MAX_ITERATIONS = 100_000


def profile_iteration_tokens(
    requests: list[Request],
    max_batch_tokens: int = 2048,
    max_batch_size: int = 64,
) -> list[int]:
    """Dry-run the scheduler over a trace with a fixed iteration duration.

    Returns the total token count of every iteration.  No latency model is
    involved (each iteration is assumed to take ``DRY_RUN_ITERATION_S``), so this
    is a cheap, deterministic way to discover which GEMM ``M`` values a given
    traffic level produces -- the sweep presets use it to grid over arrival
    rates without running the full simulator.
    """
    scheduler = ContinuousBatchingScheduler(
        max_batch_tokens=max_batch_tokens, max_batch_size=max_batch_size
    )
    ordered = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
    tokens: list[int] = []
    now = 0.0
    index = 0
    while index < len(ordered) or scheduler.has_work:
        while index < len(ordered) and ordered[index].arrival_time <= now:
            scheduler.add(ordered[index])
            index += 1
        batch = scheduler.next_batch()
        if batch is None:
            if index >= len(ordered):
                break
            now = ordered[index].arrival_time
            continue
        tokens.append(batch.total_tokens)
        scheduler.apply(batch)
        now += DRY_RUN_ITERATION_S
        if len(tokens) >= DRY_RUN_MAX_ITERATIONS:
            raise RuntimeError(f"dry run exceeded {DRY_RUN_MAX_ITERATIONS} iterations")
    return tokens
