"""Property-based invariants of the pipeline schedules.

For randomly generated cost models -- stage partitions from the real
partitioner over random layer counts, random per-layer forward/dgrad/wgrad
durations and random inter-stage transfer delays -- every generated schedule
must satisfy:

* no two cells overlap on a stage (stages are serial resources);
* the F -> B -> W dependency order of every microbatch holds across stages,
  including the transfer delay between neighbouring stages;
* the bubble ratio is ordered GPipe >= 1F1B >= zero-bubble (useful work is
  identical across schedules, so this is equivalent to the step ordering);
* the generator's step time equals the critical path recomputed
  independently from the cell DAG (bit-equal: both are max/+ folds over the
  same values), and is the latest end of any cell;
* the trace lists every cell once, stage by stage, each stage's spans in
  its execution order with non-decreasing ends;
* under arbitrary per-stage costs (zero durations included), each stream of
  the trace is that stage's columns in order and passes the trace's own
  stream-order check;
* generation is deterministic and conserves cells (M forwards, M backwards
  and -- for the split schedule -- M weight-gradient cells per stage).

The suite is pure scheduling (no tuner, no plan store), so hypothesis can
afford many examples.
"""

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from oracles.replay import critical_path
from repro.gpu.kernels import KernelCategory
from repro.pp.schedule import KNOWN_SCHEDULES, StageCostVector, generate_schedule
from repro.workloads.pipeline import partition_layers

DURATIONS = st.floats(min_value=1e-4, max_value=1e-2, allow_nan=False, allow_infinity=False)
#: Backward-to-forward cost ratios of realistic training stacks: dgrad and
#: wgrad are each on the order of one forward pass (backward ~ 2x forward).
#: This realism constraint matters -- the GPipe >= 1F1B half of the bubble
#: ordering is a property of balanced pipelines, not a theorem: with, say,
#: dgrad = 80x forward and transfers larger than a forward cell, strict
#: 1F1B's interleaving delays late forwards behind backwards and loses to
#: GPipe's all-forwards-first order (hypothesis finds such cases if the
#: ratios are left unconstrained).
RATIOS = st.floats(min_value=0.5, max_value=4.0, allow_nan=False, allow_infinity=False)
#: Transfer delay as a fraction of one layer's forward: the stage-boundary
#: P2P transfer of one microbatch is far cheaper than a stage's compute on
#: any realistic link.
DELAY_FRACTIONS = st.floats(min_value=0.0, max_value=0.5, allow_nan=False, allow_infinity=False)


@st.composite
def cost_models(draw):
    """A stage-cost tuple built the way the real system builds one.

    Per-layer costs are uniform across the stack (a transformer repeats one
    layer); stages differ only through the balanced layer partition, exactly
    like :func:`repro.workloads.pipeline.partition_layers` output.
    """
    stages = draw(st.integers(min_value=1, max_value=4))
    layers = draw(st.integers(min_value=stages, max_value=3 * stages))
    forward = draw(DURATIONS)
    dgrad = forward * draw(RATIOS)
    wgrad = forward * draw(RATIOS)
    costs = tuple(
        StageCostVector(forward * count, dgrad * count, wgrad * count)
        for count in partition_layers(layers, stages)
    )
    microbatches = draw(st.integers(min_value=1, max_value=6))
    fwd_delay = forward * draw(DELAY_FRACTIONS)
    bwd_delay = forward * draw(DELAY_FRACTIONS)
    return costs, microbatches, fwd_delay, bwd_delay


def _spans(schedule):
    return {cell.name: (cell.start, cell.end) for cell in schedule.cells()}


@hsettings(max_examples=60, deadline=None)
@given(model=cost_models())
def test_no_two_cells_overlap_on_a_stage(model):
    costs, microbatches, fwd_delay, bwd_delay = model
    for name in KNOWN_SCHEDULES:
        schedule = generate_schedule(name, costs, microbatches, fwd_delay, bwd_delay)
        schedule.trace().validate_stream_order()
        # Explicit pairwise check, independent of the trace helper.
        for order in schedule.stage_orders:
            for earlier, later in zip(order, order[1:]):
                assert later.start >= earlier.end


@hsettings(max_examples=60, deadline=None)
@given(model=cost_models())
def test_dependency_order_holds_across_stages(model):
    costs, microbatches, fwd_delay, bwd_delay = model
    num_stages = len(costs)
    for name in KNOWN_SCHEDULES:
        schedule = generate_schedule(name, costs, microbatches, fwd_delay, bwd_delay)
        spans = _spans(schedule)
        for m in range(microbatches):
            for s in range(num_stages):
                f_start, f_end = spans[f"F{m}@s{s}"]
                b_start, b_end = spans[f"B{m}@s{s}"]
                # Forward flows down the pipeline (plus the transfer delay)...
                if s + 1 < num_stages:
                    assert spans[f"F{m}@s{s + 1}"][0] >= f_end + fwd_delay
                    # ... and the backward flows back up.
                    assert b_start >= spans[f"B{m}@s{s + 1}"][1] + bwd_delay
                # No backward before the stage's own forward.
                assert b_start >= f_end
                if schedule.split_backward:
                    assert spans[f"W{m}@s{s}"][0] >= b_end


@hsettings(max_examples=60, deadline=None)
@given(model=cost_models())
def test_bubble_ratio_ordering_gpipe_1f1b_zero_bubble(model):
    costs, microbatches, fwd_delay, bwd_delay = model
    steps = {}
    useful = {}
    for name in KNOWN_SCHEDULES:
        schedule = generate_schedule(name, costs, microbatches, fwd_delay, bwd_delay)
        steps[name] = schedule.makespan
        useful[name] = schedule.useful_work()
    # All three schedules do the same useful work; only the step differs.
    assert useful["gpipe"] == pytest.approx(useful["1f1b"], rel=1e-12)
    assert useful["1f1b"] == pytest.approx(useful["zero-bubble"], rel=1e-12)
    slack = 1 + 1e-9
    assert steps["gpipe"] * slack >= steps["1f1b"] >= steps["zero-bubble"] / slack


@hsettings(max_examples=60, deadline=None)
@given(model=cost_models())
def test_step_time_equals_independent_critical_path(model):
    costs, microbatches, fwd_delay, bwd_delay = model
    for name in KNOWN_SCHEDULES:
        schedule = generate_schedule(name, costs, microbatches, fwd_delay, bwd_delay)
        assert schedule.makespan == critical_path(schedule)


@hsettings(max_examples=60, deadline=None)
@given(model=cost_models())
def test_makespan_is_the_latest_cell_end(model):
    costs, microbatches, fwd_delay, bwd_delay = model
    for name in KNOWN_SCHEDULES:
        schedule = generate_schedule(name, costs, microbatches, fwd_delay, bwd_delay)
        cells = schedule.cells()
        assert all(cell.end == cell.start + cell.duration for cell in cells)
        assert schedule.makespan == max(cell.end for cell in cells)


@hsettings(max_examples=60, deadline=None)
@given(model=cost_models())
def test_trace_lists_every_cell_once_stage_by_stage(model):
    costs, microbatches, fwd_delay, bwd_delay = model
    for name in KNOWN_SCHEDULES:
        schedule = generate_schedule(name, costs, microbatches, fwd_delay, bwd_delay)
        spans = schedule.trace().spans
        # cells() is stage-major, each stage in its execution order.
        assert [(span.stream, span.name) for span in spans] == [
            (f"stage{cell.stage}", cell.name) for cell in schedule.cells()
        ]
        assert len({span.name for span in spans}) == len(spans)
        for stage in range(len(costs)):
            ends = [span.end for span in spans if span.stream == f"stage{stage}"]
            assert ends == sorted(ends)


@hsettings(max_examples=60, deadline=None)
@given(model=cost_models())
def test_generation_is_deterministic_and_conserves_cells(model):
    costs, microbatches, fwd_delay, bwd_delay = model
    for name in KNOWN_SCHEDULES:
        first = generate_schedule(name, costs, microbatches, fwd_delay, bwd_delay)
        second = generate_schedule(name, costs, microbatches, fwd_delay, bwd_delay)
        assert first == second
        assert _spans(first) == _spans(second)
        for stage, order in enumerate(first.stage_orders):
            kinds = [cell.kind for cell in order]
            assert kinds.count("F") == microbatches
            assert kinds.count("B") == microbatches
            assert kinds.count("W") == (microbatches if first.split_backward else 0)
            assert all(cell.stage == stage for cell in order)


#: Trace category of each cell kind.
CATEGORIES = {"F": KernelCategory.GEMM, "B": KernelCategory.OTHER, "W": KernelCategory.ELEMENTWISE}
#: Independent per-stage costs: unbalanced stages and zero-length cells.
STAGE_COSTS = st.lists(
    st.builds(StageCostVector, *[st.floats(min_value=0.0, max_value=1e-2)] * 3),
    min_size=1,
    max_size=4,
)


@hsettings(max_examples=60, deadline=None)
@given(
    costs=STAGE_COSTS,
    microbatches=st.integers(min_value=1, max_value=8),
    delays=st.tuples(*[st.floats(min_value=0.0, max_value=1e-3)] * 2),
)
def test_each_trace_stream_is_its_stage_columns(costs, microbatches, delays):
    for name in KNOWN_SCHEDULES:
        schedule = generate_schedule(name, tuple(costs), microbatches, *delays)
        trace = schedule.trace()
        streams = [f"stage{stage}" for stage in range(len(costs))]
        assert trace.streams() == streams
        spans = trace.spans
        for stage, stream in enumerate(streams):
            columns = zip(schedule.kinds[stage], schedule.microbatches[stage],
                          schedule.starts[stage], schedule.ends[stage])
            assert [
                (span.name, span.start, span.end, span.category)
                for span in spans if span.stream == stream
            ] == [
                (f"{kind}{mb}@s{stage}", start, end, CATEGORIES[kind])
                for kind, mb, start, end in columns
            ]
        trace.validate_stream_order()
