"""Continuous-batching scheduler with chunked prefill.

Orca/vLLM-style iteration-level scheduling: every engine iteration packs the
currently active requests into one batch -- each decoding request contributes
one token, and the remaining token budget is filled with prefill chunks in
FCFS admission order (chunked prefill, so a long prompt never blocks decodes).
The scheduler's job here is to turn request traffic into the *per-iteration
token counts* that set the ``M`` of the overlap operator's GEMMs: the
row-parallel projections of one decoder layer with ``M = total batched tokens``.

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
from itertools import compress

from repro.serve.arrivals import Request


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
    total_tokens: int  # prefill chunk tokens plus one per decode


@dataclass(frozen=True)
class IterationOutcome:
    """Request-visible events produced by applying one batch."""

    first_tokens: tuple[int, ...]  # request IDs that emitted their first token
    finished: tuple[int, ...]  # request IDs that emitted their last token


_SILENT = IterationOutcome(first_tokens=(), finished=())


class ContinuousBatchingScheduler:
    """Iteration-level batching over a waiting queue and a running set.

    The running set is three parallel columns in admission order -- request
    ID, prompt tokens still to prefill, output tokens still to emit -- plus a
    count of the running requests that are still prefilling.  Prefill is
    FCFS, so the decoding requests are always a head of the running set and
    the prefilling ones its tail: a batch's decodes are a slice of the ID
    column, applied as one comprehension over the head of the output column,
    and :meth:`apply` rejects a batch whose decodes are not such a head.
    """

    def __init__(self, max_batch_tokens: int = 2048, max_batch_size: int = 64) -> None:
        if max_batch_tokens < 1 or max_batch_size < 1:
            raise ValueError("max_batch_tokens and max_batch_size must be >= 1")
        self.max_batch_tokens = max_batch_tokens
        self.max_batch_size = max_batch_size
        self._waiting: deque[Request] = deque()
        self._tracked: set[int] = set()  # waiting and running request IDs
        self._ids: list[int] = []
        self._prefill: list[int] = []
        self._output: list[int] = []
        self._prefilling = 0

    # -- queue management --------------------------------------------------------

    def add(self, request: Request) -> None:
        """Enqueue an arrived request (FCFS)."""
        if request.request_id in self._tracked:
            raise ValueError(f"request {request.request_id} already enqueued")
        self._tracked.add(request.request_id)
        self._waiting.append(request)

    def remove(self, request_id: int) -> bool:
        """Evict a request wherever it is (deadline/abandon path).

        Returns True when the request was tracked.  The serving loop only
        calls this between iterations, so an in-flight batch never references
        an evicted request.
        """
        if request_id not in self._tracked:
            return False
        self._tracked.remove(request_id)
        if request_id in self._ids:
            index = self._ids.index(request_id)
            if self._prefill[index]:
                self._prefilling -= 1
            del self._ids[index], self._prefill[index], self._output[index]
        else:
            self._waiting.remove(
                next(request for request in self._waiting if request.request_id == request_id)
            )
        return True

    @property
    def has_work(self) -> bool:
        return bool(self._waiting or self._ids)

    @property
    def waiting_count(self) -> int:
        return len(self._waiting)

    @property
    def running_count(self) -> int:
        return len(self._ids)

    # -- iteration planning --------------------------------------------------------

    def next_batch(self) -> IterationBatch | None:
        """Pack the next iteration, or None when nothing is schedulable.

        Decode tokens are placed first (one per decoding request, latency
        priority), then the leftover token budget is filled with prefill
        chunks in admission order.
        """
        ids = self._ids
        waiting = self._waiting
        while waiting and len(ids) < self.max_batch_size:
            request = waiting.popleft()
            ids.append(request.request_id)
            self._prefill.append(request.prompt_tokens)
            self._output.append(request.output_tokens)
            self._prefilling += 1
        if not ids:
            return None

        decoding = len(ids) - self._prefilling
        decode = tuple(ids[:min(self.max_batch_tokens, decoding)])
        budget = self.max_batch_tokens - len(decode)
        prefill: list[PrefillChunk] = []
        for rid, left in zip(ids[decoding:], self._prefill[decoding:]):
            if budget <= 0:
                break
            tokens = min(left, budget)
            prefill.append(
                PrefillChunk(request_id=rid, tokens=tokens, finishes_prefill=tokens == left)
            )
            budget -= tokens
        return IterationBatch(
            prefill=tuple(prefill), decode=decode, total_tokens=self.max_batch_tokens - budget
        )

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
        running = len(self._ids)
        if not running or self._prefilling:
            return 0
        if self._waiting and running < self.max_batch_size:
            return 0
        if running > self.max_batch_tokens:
            return 0
        return min(self._output) - 1

    def advance_decodes(self, iterations: int) -> None:
        """Bulk-apply ``iterations`` silent steady-decode batches.

        Only valid for ``iterations <= steady_decode_run()``: every running
        request decodes one token per iteration and none may finish.
        """
        if iterations < 0:
            raise ValueError("iterations must be >= 0")
        output = self._output
        if self._prefilling or (output and min(output) <= iterations):
            for rid, left, remaining in zip(self._ids, self._prefill, output):
                if left or remaining <= iterations:
                    raise ValueError(
                        "advance_decodes past a request boundary: "
                        f"request {rid} is not mid-decode for {iterations} more iterations"
                    )
        self._output = [remaining - iterations for remaining in output]

    def apply(self, batch: IterationBatch) -> IterationOutcome:
        """Account one executed batch; returns first-token/finish events.

        The batch's decodes must be a head of the running set, as
        :meth:`next_batch` packs them.  Evicting a request that the batch
        skipped keeps them one: it sits after that head.
        """
        ids, output = self._ids, self._output
        decode = batch.decode
        count = len(decode)
        if decode != tuple(ids[:count]):
            raise ValueError(
                f"batch decodes {list(decode)}, not the head {ids[:count]} of the running set"
            )
        first_tokens: tuple[int, ...] = ()
        if batch.prefill:
            prefill = self._prefill
            emitted: list[int] = []
            for chunk in batch.prefill:
                index = ids.index(chunk.request_id)
                left = prefill[index] - chunk.tokens
                if left < 0:
                    raise ValueError(f"request {chunk.request_id} prefilled past its prompt")
                prefill[index] = left
                if not left:
                    self._prefilling -= 1
                if chunk.finishes_prefill:
                    # The prefill-completing iteration emits the first output token.
                    output[index] -= 1
                    emitted.append(chunk.request_id)
            first_tokens = tuple(emitted)

        if count:
            head = output[:count]
            if 0 in head:
                raise ValueError(f"request {decode[head.index(0)]} decoded past its output length")
            output[:count] = [remaining - 1 for remaining in head]

        if 0 not in output:
            if not first_tokens:
                return _SILENT
            return IterationOutcome(first_tokens=first_tokens, finished=())
        keep = [remaining > 0 for remaining in output]
        finished = tuple(rid for rid, remaining in zip(ids, output) if not remaining)
        self._ids = list(compress(ids, keep))
        self._prefill = list(compress(self._prefill, keep))
        self._output = list(compress(output, keep))
        self._tracked.difference_update(finished)
        return IterationOutcome(first_tokens=first_tokens, finished=finished)


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
