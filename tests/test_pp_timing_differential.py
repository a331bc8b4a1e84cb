"""Differential suite: the schedule generators' timing vs the event-by-event oracle.

Every generator times its cells in one list-scheduling pass as it places
them, and ``Schedule.trace`` lists each stage's cells as one stream.  Both
must be **bit-identical** to the engine-driven oracle in
``tests/oracles/replay``: every cell's ``(start, end)``, the makespan, the
per-stage work folds, and every stream's spans in order (a stage runs its
cells serially, so each stream has one order; how the oracle interleaves
streams is its event loop's business).  The on-demand :class:`Cell` view
must also repeat the stored columns field by field.  Hypothesis draws cost
models over 1-8 stages and 1-24 microbatches with random transfer delays,
and a tied strategy whose costs and delays come from {0, 1, 2}: ready and
free times collide constantly and zero-cost cells finish at their start, so
every ``>`` in the pass meets its equal case.  Both timing paths also refuse
an order no list scheduler can finish, naming the same stuck cells, instead
of returning a partial timeline.
"""

from __future__ import annotations

from itertools import repeat

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from oracles.replay import replay_reference
from repro.pp.schedule import (
    KNOWN_SCHEDULES,
    Schedule,
    StageCostVector,
    _list_schedule,
    generate_schedule,
)

DURATIONS = st.floats(min_value=0.0, max_value=1e-2, allow_nan=False, allow_infinity=False)
DELAYS = st.floats(min_value=0.0, max_value=1e-3, allow_nan=False, allow_infinity=False)
#: Few distinct small integers: end times collide constantly.
TIED = st.sampled_from([0.0, 1.0, 2.0])


@st.composite
def cost_models(draw, durations=DURATIONS, delays=DELAYS):
    """Independent per-stage forward/dgrad/wgrad costs and transfer delays."""
    stages = draw(st.integers(min_value=1, max_value=8))
    costs = tuple(
        StageCostVector(draw(durations), draw(durations), draw(durations))
        for _ in range(stages)
    )
    microbatches = draw(st.integers(min_value=1, max_value=24))
    return costs, microbatches, draw(delays), draw(delays)


def assert_matches_oracle(schedule):
    reference = replay_reference(schedule)
    assert {cell.name: (cell.start, cell.end) for cell in schedule.cells()} == reference.spans
    # The on-demand cells hold exactly the columns, field by field.
    assert schedule.num_cells == len(schedule.cells())
    for stage, order in enumerate(schedule.stage_orders):
        assert [
            (cell.stage, cell.kind, cell.microbatch, cell.duration, cell.start, cell.end)
            for cell in order
        ] == list(
            zip(
                repeat(stage),
                schedule.kinds[stage],
                schedule.microbatches[stage],
                schedule.durations[stage],
                schedule.starts[stage],
                schedule.ends[stage],
            )
        )
    assert schedule.makespan == reference.makespan
    assert schedule.stage_work() == reference.stage_work
    # The aggregates are plain python floats (JSON stability).
    assert all(type(work) is float for work in schedule.stage_work())
    trace = schedule.trace()
    streams = [f"stage{stage}" for stage in range(schedule.num_stages)]
    assert trace.streams() == streams
    spans = trace.spans
    assert len(spans) == schedule.num_cells
    for stream in streams:
        # Span equality: name, start, end (floats with ==) and category.
        assert [span for span in spans if span.stream == stream] == reference.trace.spans_on(stream)


def assert_generators_match_oracle(model):
    costs, microbatches, fwd_delay, bwd_delay = model
    for name in KNOWN_SCHEDULES:
        assert_matches_oracle(generate_schedule(name, costs, microbatches, fwd_delay, bwd_delay))


class TestGeneratorsMatchOracle:
    @pytest.mark.parametrize("name", sorted(KNOWN_SCHEDULES))
    @pytest.mark.parametrize("stages,microbatches", [(1, 1), (2, 4), (4, 8), (3, 5)])
    def test_uniform_costs(self, name, stages, microbatches):
        # Uniform costs maximize end-time ties across stages.
        costs = (StageCostVector(1.0, 1.0, 1.0),) * stages
        assert_matches_oracle(generate_schedule(name, costs, microbatches))

    @pytest.mark.parametrize("name", sorted(KNOWN_SCHEDULES))
    def test_skewed_costs_with_transfer_delays(self, name):
        costs = tuple(
            StageCostVector(1e-3 * (1 + s % 3), 2e-3 * (1 + s % 2), 5e-4 * (s + 1))
            for s in range(4)
        )
        schedule = generate_schedule(name, costs, 6, fwd_delay=2e-4, bwd_delay=3e-4)
        assert_matches_oracle(schedule)

    @pytest.mark.parametrize("name", sorted(KNOWN_SCHEDULES))
    @pytest.mark.parametrize("staggered", [False, True])
    def test_wide_pipeline(self, name, staggered):
        """64 stages x 17 microbatches; uniform costs make whole waves finish together."""
        stages, microbatches = 64, 17
        if staggered:
            costs = tuple(
                StageCostVector(1e-3 * (s % 5 + 1), 1e-3 * (s % 3 + 1), 5e-4 * (s % 2 + 1))
                for s in range(stages)
            )
            delay = 1e-4
        else:
            costs = (StageCostVector(1e-3, 1e-3, 1e-3),) * stages
            delay = 0.0
        assert_matches_oracle(generate_schedule(name, costs, microbatches, delay, delay))

    @hsettings(max_examples=100, deadline=None)
    @given(model=cost_models())
    def test_random_cost_models(self, model):
        assert_generators_match_oracle(model)

    @hsettings(max_examples=100, deadline=None)
    @given(model=cost_models(durations=TIED, delays=TIED))
    def test_tied_cost_models(self, model):
        assert_generators_match_oracle(model)


#: F/B orders no list scheduler can finish: stage 0 runs B0 ahead of the F0
#: it waits on, and stage 1's F0 waits on that F0.
INFEASIBLE = [[("B", 0), ("F", 0)], [("F", 0), ("B", 0)]]
UNIFORM = (StageCostVector(1.0, 1.0, 1.0),) * 2


def _time_in_one_pass():
    return _list_schedule("1f1b", UNIFORM, 1, 0.0, 0.0, INFEASIBLE, (2.0, 2.0), policy=None)


def _replay_event_by_event():
    def column(value):
        return tuple((value,) * len(order) for order in INFEASIBLE)

    schedule = Schedule(
        "1f1b",
        2,
        1,
        kinds=tuple("".join(kind for kind, _ in order) for order in INFEASIBLE),
        microbatches=tuple(tuple(mb for _, mb in order) for order in INFEASIBLE),
        durations=column(1.0),
        starts=column(0.0),
        ends=column(1.0),
        fwd_delay=0.0,
        bwd_delay=0.0,
    )
    return replay_reference(schedule)


class TestErrorParity:
    @pytest.mark.parametrize(
        "time_cells", [_time_in_one_pass, _replay_event_by_event], ids=["pass", "oracle"]
    )
    def test_infeasible_order_raises_with_the_same_stuck_cells(self, time_cells):
        with pytest.raises(
            RuntimeError, match=r"cells \['B0@s0', 'F0@s1'\] wait on cells that never finish"
        ):
            time_cells()
