"""Differential suite: the replay sweep vs the event-by-event oracle.

``replay_tasks`` resolves the greedy list-scheduling recurrence with one
topological sweep and rebuilds the trace order from its own spans.  It must
be **bit-identical** to the engine-driven oracle in ``tests/oracles/replay``:
same spans, same makespan, same busy and work folds, same resources, the
same trace spans in the same order, and the same error messages on malformed
inputs.  Hypothesis drives random DAGs (random resources, durations,
dependency fan-in, transfer delays, heavy end-time ties) and random straggler
:class:`SpeedProfile` assignments; the pipeline schedule generators supply
the production-shaped DAGs.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from oracles.replay import replay_reference
from repro.gpu.kernels import KernelCategory
from repro.pp.schedule import KNOWN_SCHEDULES, StageCostVector, generate_schedule
from repro.sim.replay import ReplayTask, replay_tasks

DURATIONS = st.floats(min_value=0.0, max_value=1e-2, allow_nan=False, allow_infinity=False)
DELAYS = st.floats(min_value=0.0, max_value=1e-3, allow_nan=False, allow_infinity=False)
FACTORS = st.floats(min_value=1.0, max_value=4.0, allow_nan=False, allow_infinity=False)
#: Few distinct small integers: end times collide constantly, so the trace
#: order is decided by the dispatch tie-breaks rather than by time.
TIED = st.sampled_from([0.0, 0.0, 1.0, 2.0])
CATEGORIES = st.sampled_from(list(KernelCategory))


@dataclass(frozen=True)
class KneeProfile:
    """Start-dependent straggler: slow before the knee, nominal after.

    The start-dependence matters -- it makes ``finish_time`` a genuine
    function of the realized schedule, so any ordering divergence between the
    two paths surfaces as a bitwise span difference.
    """

    factor: float
    knee: float

    def finish_time(self, start: float, work: float) -> float:
        stretch = self.factor if start < self.knee else 1.0
        return start + work * stretch


@st.composite
def task_lists(draw, min_tasks: int = 0, max_tasks: int = 24, durations=DURATIONS, delays=DELAYS):
    """Random dependency-acyclic task lists over a handful of resources.

    Dependencies only point at earlier list positions, which (together with
    the FIFO queue order) guarantees the replay can always make progress.
    """
    n_resources = draw(st.integers(min_value=1, max_value=6))
    resources = [f"r{i}" for i in range(n_resources)]
    n = draw(st.integers(min_value=min_tasks, max_value=max_tasks))
    tasks = []
    for i in range(n):
        deps = ()
        if i:
            dep_ids = draw(
                st.lists(st.integers(0, i - 1), min_size=0, max_size=3, unique=True)
            )
            deps = tuple((f"t{j}", draw(delays)) for j in dep_ids)
        tasks.append(
            ReplayTask(
                name=f"t{i}",
                resource=draw(st.sampled_from(resources)),
                duration=draw(durations),
                deps=deps,
                category=draw(CATEGORIES),
            )
        )
    return tasks


@st.composite
def profiled_task_lists(draw, durations=DURATIONS, delays=DELAYS):
    """A task list plus straggler profiles on a random subset of resources."""
    tasks = draw(task_lists(min_tasks=1, durations=durations, delays=delays))
    resources = sorted({task.resource for task in tasks})
    profiled = draw(
        st.lists(st.sampled_from(resources), min_size=0, max_size=len(resources), unique=True)
    )
    profiles = {
        resource: KneeProfile(factor=draw(FACTORS), knee=draw(durations))
        for resource in profiled
    }
    return tasks, profiles


def assert_bit_identical(tasks, profiles=None):
    reference = replay_reference(tasks, record_trace=True, resource_profiles=profiles)
    for record_trace in (False, True):
        result = replay_tasks(tasks, record_trace=record_trace, resource_profiles=profiles)
        assert result.spans == reference.spans
        assert result.makespan == reference.makespan
        assert result.busy == reference.busy
        assert result.work == reference.work
        assert result.resources == reference.resources
        # The aggregates are plain python floats (JSON stability).
        assert all(type(value) is float for value in result.busy.values())
        assert all(
            type(start) is float and type(end) is float
            for start, end in result.spans.values()
        )
    assert result.trace.spans == reference.trace.spans  # span order included
    assert replay_tasks(tasks, resource_profiles=profiles).trace is None


class TestScalarSweepMatchesReference:
    @hsettings(max_examples=200, deadline=None)
    @given(tasks=task_lists())
    def test_random_dags(self, tasks):
        assert_bit_identical(tasks)

    @hsettings(max_examples=150, deadline=None)
    @given(drawn=profiled_task_lists())
    def test_random_dags_with_speed_profiles(self, drawn):
        tasks, profiles = drawn
        assert_bit_identical(tasks, profiles)

    @hsettings(max_examples=200, deadline=None)
    @given(tasks=task_lists(durations=TIED, delays=TIED))
    def test_random_dags_with_tied_end_times(self, tasks):
        assert_bit_identical(tasks)

    @hsettings(max_examples=150, deadline=None)
    @given(drawn=profiled_task_lists(durations=TIED, delays=TIED))
    def test_tied_dags_with_speed_profiles(self, drawn):
        tasks, profiles = drawn
        assert_bit_identical(tasks, profiles)

    @pytest.mark.parametrize("staggered", [False, True])
    def test_wide_layered_dag(self, staggered):
        """64 resources x 17 layers; uniform sizes make whole layers finish together."""
        resources, layers = 64, 17
        delay = 1e-4 if staggered else 0.0
        tasks = []
        for layer in range(layers):
            for r in range(resources):
                deps = ()
                if layer:
                    deps = ((f"t{layer - 1}-{r}", 0.0), (f"t{layer - 1}-{(r + 1) % resources}", delay))
                tasks.append(
                    ReplayTask(
                        name=f"t{layer}-{r}",
                        resource=f"r{r}",
                        duration=1e-3 * ((layer + r) % 5 + 1) if staggered else 1e-3,
                        deps=deps,
                    )
                )
        assert_bit_identical(tasks)
        assert_bit_identical(tasks, {"r7": KneeProfile(factor=2.5, knee=5e-3)})


class TestPipelineSchedulesMatchReference:
    @pytest.mark.parametrize("name", sorted(KNOWN_SCHEDULES))
    @pytest.mark.parametrize("stages,microbatches", [(1, 1), (2, 4), (4, 8), (3, 5)])
    def test_uniform_costs(self, name, stages, microbatches):
        # Uniform costs maximize end-time ties across stages.
        costs = (StageCostVector(1.0, 1.0, 1.0),) * stages
        assert_bit_identical(generate_schedule(name, costs, microbatches).tasks())

    @pytest.mark.parametrize("name", sorted(KNOWN_SCHEDULES))
    def test_skewed_costs_with_transfer_delays(self, name):
        costs = tuple(
            StageCostVector(1e-3 * (1 + s % 3), 2e-3 * (1 + s % 2), 5e-4 * (s + 1))
            for s in range(4)
        )
        schedule = generate_schedule(name, costs, 6, fwd_delay=2e-4, bwd_delay=3e-4)
        assert_bit_identical(schedule.tasks())

    @pytest.mark.parametrize("name", sorted(KNOWN_SCHEDULES))
    def test_straggling_stage(self, name):
        costs = (StageCostVector(1.0, 2.0, 0.5),) * 4
        profiles = {"stage1": KneeProfile(factor=3.0, knee=6.0)}
        assert_bit_identical(generate_schedule(name, costs, 8).tasks(), profiles)


class TestErrorParity:
    def test_empty_task_list(self):
        assert_bit_identical([])
        assert replay_tasks([]).makespan == replay_reference([]).makespan == 0.0
        assert replay_tasks([], record_trace=True).trace.spans == []

    @pytest.mark.parametrize("replay", [replay_tasks, replay_reference])
    def test_duplicate_names_raise_the_reference_error(self, replay):
        tasks = [
            ReplayTask(name="t0", resource="r0", duration=1.0),
            ReplayTask(name="t0", resource="r1", duration=1.0),
        ]
        with pytest.raises(ValueError, match="duplicate task name 't0'"):
            replay(tasks)

    @pytest.mark.parametrize("replay", [replay_tasks, replay_reference])
    def test_unknown_dependency_raises_the_reference_error(self, replay):
        tasks = [ReplayTask(name="t0", resource="r0", duration=1.0, deps=(("ghost", 0.0),))]
        with pytest.raises(ValueError, match="depends on unknown task 'ghost'"):
            replay(tasks)

    @pytest.mark.parametrize("replay", [replay_tasks, replay_reference])
    def test_deadlock_raises_with_the_same_stuck_tasks(self, replay):
        # t0 waits on t1, but t1 sits behind t0 in the same queue: a cycle
        # through the resource order.  r1's queue is blocked behind t0.
        tasks = [
            ReplayTask(name="t0", resource="r0", duration=1.0, deps=(("t1", 0.0),)),
            ReplayTask(name="t1", resource="r0", duration=1.0),
            ReplayTask(name="t2", resource="r1", duration=1.0),
            ReplayTask(name="t3", resource="r1", duration=1.0, deps=(("t0", 0.0),)),
        ]
        with pytest.raises(RuntimeError, match=r"deadlocked: tasks \['t0', 't3'\]"):
            replay(tasks, record_trace=True)
