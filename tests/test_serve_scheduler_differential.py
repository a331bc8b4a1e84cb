"""Differential suite: the columnar scheduler vs the object-per-request oracle.

``ContinuousBatchingScheduler`` keeps its running set as per-request columns
and applies a batch's decodes as one comprehension over the head of the
running set; ``oracles.scheduler.ReferenceScheduler`` walks one state object
per request.  Hypothesis drives the same random call sequence through both --
arrivals (duplicates included), packed-and-applied iterations, bulk decode
advances up to and past the silent steady-decode run, token budgets lowered
below the running set, and evictions of waiting, running and unknown
requests, including a running request that the in-flight batch skipped (the
serving loop's deadline path) -- and compares every batch, outcome, count,
steady-decode run, return value and error.
"""

from __future__ import annotations

import copy
from functools import partial
from unittest import mock

from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from oracles.scheduler import ReferenceScheduler
from repro.serve.arrivals import Request
from repro.serve.scheduler import (
    ContinuousBatchingScheduler,
    IterationBatch,
    profile_iteration_tokens,
)

LIMITS = st.fixed_dictionaries(
    {
        "max_batch_tokens": st.sampled_from([1, 3, 8, 32, 256]),
        "max_batch_size": st.sampled_from([1, 2, 4, 16]),
    }
)
#: One call per op: (kind, a, b, c), the integers read per kind (see below).
#: Repeated kinds weight the mix towards arrivals and iterations.
OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "add", "step", "step", "step", "step",
                         "advance", "budget", "remove", "inflight"]),
        st.integers(1, 48),
        st.integers(1, 12),
        st.integers(0, 63),
    ),
    min_size=10,
    max_size=60,
)


def outcome_of(call):
    """``("ok", value)`` or ``("error", type, message)`` of one call."""
    try:
        return ("ok", call())
    except ValueError as error:
        return ("error", type(error), str(error))


def same(production, reference, name, *args):
    """Call ``name`` on both schedulers; the results (or errors) must agree."""
    got = outcome_of(lambda: getattr(production, name)(*args))
    want = outcome_of(lambda: getattr(reference, name)(*args))
    assert got == want, (name, args)
    return got


def assert_counts(production, reference):
    assert production.has_work == reference.has_work
    assert production.waiting_count == reference.waiting_count
    assert production.running_count == reference.running_count
    assert production.steady_decode_run() == reference.steady_decode_run()


def request(request_id, prompt, output):
    return Request(request_id=request_id, arrival_time=0.0, prompt_tokens=prompt,
                   output_tokens=output)


def step(production, reference):
    """Pack and apply one iteration on both; the batch, or None when idle."""
    _, batch = same(production, reference, "next_batch")
    if batch is not None:
        same(production, reference, "apply", batch)
    return batch


@hsettings(max_examples=300, deadline=None)
@given(limits=LIMITS, ops=OPS)
def test_columnar_scheduler_matches_the_reference(limits, ops):
    production = ContinuousBatchingScheduler(**limits)
    reference = ReferenceScheduler(**limits)
    next_id = 0
    for kind, a, b, c in ops:
        if kind == "add":  # prompt a, output b; c < 8 re-adds an earlier ID
            if c < 8 and next_id:
                # "already enqueued" unless that request has left.
                request_id = c % next_id
            else:
                request_id, next_id = next_id, next_id + 1
            same(production, reference, "add", request(request_id, a, b))
        elif kind == "step":
            step(production, reference)
        elif kind == "budget":
            # Fewer tokens than running decodes: only a lowered budget gets
            # there, since every admitted decode once paid a prefill token.
            budget = max(1, reference.running_count - c % 4)
            production.max_batch_tokens = reference.max_batch_tokens = budget
        elif kind == "advance":  # from one short of the silent run to two past it
            iterations = reference.steady_decode_run() + c % 4 - 1
            before = copy.deepcopy((production, reference))
            if same(production, reference, "advance_decodes", iterations)[0] == "error":
                # The reference decrements part of its set before it raises.
                production, reference = before
        elif kind == "remove":  # a waiting, running or unknown request
            pool = [
                [state.request.request_id for state in reference._waiting],
                [state.request.request_id for state in reference._running],
                [next_id + a],
            ][c % 3]
            if pool:
                same(production, reference, "remove", pool[a % len(pool)])
        else:
            # The deadline path: a request's deadline fires while the batch
            # that skipped it is in flight, so it leaves before that batch
            # is applied.
            _, batch = same(production, reference, "next_batch")
            if batch is None:
                continue
            batched = {chunk.request_id for chunk in batch.prefill} | set(batch.decode)
            skipped = [state.request.request_id for state in reference._running
                       if state.request.request_id not in batched]
            if skipped:
                same(production, reference, "remove", skipped[c % len(skipped)])
            same(production, reference, "apply", batch)
        assert_counts(production, reference)

    while step(production, reference) is not None:
        assert_counts(production, reference)
    assert not production.has_work and not reference.has_work


def prefilled_pair(scheduler):
    """Two running requests, both prefilled (one token each emitted)."""
    scheduler.add(request(0, prompt=4, output=3))
    scheduler.add(request(1, prompt=4, output=2))
    scheduler.apply(scheduler.next_batch())
    return scheduler


def test_batches_that_do_not_decode_the_head_are_rejected():
    """Decodes off the head, or of one request twice, are not the running set's head."""
    for decode, message in (
        ((1,), "batch decodes [1], not the head [0] of the running set"),
        ((0, 0), "batch decodes [0, 0], not the head [0, 1] of the running set"),
        ((0, 1, 2), "batch decodes [0, 1, 2], not the head [0, 1] of the running set"),
    ):
        scheduler = prefilled_pair(ContinuousBatchingScheduler(max_batch_tokens=64, max_batch_size=4))
        batch = IterationBatch(prefill=(), decode=decode, total_tokens=len(decode))
        assert outcome_of(partial(scheduler.apply, batch)) == ("error", ValueError, message)
        # Rejected before any column changes: the next batch decodes both.
        assert scheduler.next_batch().decode == (0, 1)
        assert scheduler.steady_decode_run() == 0  # request 1 has one token left


def test_inconsistent_batches_are_rejected_like_the_reference():
    def prefill_twice(scheduler):
        scheduler.add(request(0, prompt=6, output=4))
        batch = scheduler.next_batch()  # a 4-token chunk of the 6-token prompt
        scheduler.apply(batch)
        scheduler.apply(batch)

    def decode_in_the_prefill_batch(scheduler):
        scheduler.add(request(0, prompt=1, output=1))
        batch = scheduler.next_batch()  # the prefill emits the only output token
        scheduler.apply(IterationBatch(prefill=batch.prefill, decode=(0,), total_tokens=2))

    for drive, message in ((prefill_twice, "request 0 prefilled past its prompt"),
                           (decode_in_the_prefill_batch,
                            "request 0 decoded past its output length")):
        errors = [
            outcome_of(partial(drive, cls(max_batch_tokens=4, max_batch_size=2)))
            for cls in (ContinuousBatchingScheduler, ReferenceScheduler)
        ]
        assert errors[0] == errors[1] == ("error", ValueError, message)


TRAFFIC = st.lists(
    st.tuples(st.floats(0.0, 0.05), st.integers(1, 300), st.integers(1, 24)),
    min_size=1,
    max_size=24,
)


@hsettings(max_examples=60, deadline=None)
@given(limits=LIMITS, traffic=TRAFFIC)
def test_dry_run_tokens_match_the_reference(limits, traffic):
    """``profile_iteration_tokens`` (the sweep presets' dry run) on both schedulers."""
    requests = [
        Request(request_id=index, arrival_time=arrival, prompt_tokens=prompt,
                output_tokens=output)
        for index, (arrival, prompt, output) in enumerate(traffic)
    ]
    production = profile_iteration_tokens(requests, **limits)
    with mock.patch("repro.serve.scheduler.ContinuousBatchingScheduler", ReferenceScheduler):
        reference = profile_iteration_tokens(requests, **limits)
    assert production == reference
