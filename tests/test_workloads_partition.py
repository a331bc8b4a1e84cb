"""Invariants of the balanced stage partition.

:func:`partition_layers` is the one stage split the planner prices: an
end-to-end workload repeats one transformer layer, so every layer costs the
same and the balanced split is a bottleneck-optimal contiguous partition.
The suite checks:

* shape: ``stages`` contiguous non-empty spans covering every layer;
* optimality: the largest stage equals the brute-force minimum over every
  contiguous split of a uniform stack (small instances, exhaustive);
* evenness and order: stages differ by at most one layer, and the remainder
  goes to the earliest stages (the Megatron convention);
* validation errors.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from repro.workloads.pipeline import partition_layers


def _brute_force_largest_stage(layers: int, stages: int) -> int:
    """Smallest possible largest stage over every contiguous split."""
    best = layers
    for breaks in combinations(range(1, layers), stages - 1):
        bounds = (0, *breaks, layers)
        best = min(best, max(b - a for a, b in zip(bounds, bounds[1:])))
    return best


@given(st.integers(min_value=1, max_value=96), st.integers(min_value=1, max_value=16))
@hsettings(max_examples=200, deadline=None)
def test_partition_shape(layers, stages):
    if stages > layers:
        with pytest.raises(ValueError):
            partition_layers(layers, stages)
        return
    partition = partition_layers(layers, stages)
    assert len(partition) == stages
    assert sum(partition) == layers
    assert all(count >= 1 for count in partition)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=5))
@hsettings(max_examples=150, deadline=None)
def test_largest_stage_is_optimal_on_a_uniform_stack(layers, stages):
    if stages > layers:
        return
    assert max(partition_layers(layers, stages)) == _brute_force_largest_stage(layers, stages)


@given(st.integers(min_value=1, max_value=96), st.integers(min_value=1, max_value=16))
@hsettings(max_examples=200, deadline=None)
def test_remainder_goes_to_the_earliest_stages(layers, stages):
    if stages > layers:
        return
    partition = partition_layers(layers, stages)
    assert max(partition) - min(partition) <= 1
    assert list(partition) == sorted(partition, reverse=True)
    assert sum(1 for count in partition if count > layers // stages) == layers % stages


def test_uneven_stacks():
    assert partition_layers(10, 4) == (3, 3, 2, 2)
    assert partition_layers(3, 2) == (2, 1)
    assert partition_layers(10, 8) == (2, 2, 1, 1, 1, 1, 1, 1)
    assert partition_layers(32, 1) == (32,)


def test_validation_errors():
    with pytest.raises(ValueError, match="stages must be >= 1"):
        partition_layers(4, 0)
    with pytest.raises(ValueError, match="cannot split 1 layers across 2 stages"):
        partition_layers(1, 2)
