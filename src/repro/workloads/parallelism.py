"""Parallelism configurations (TP / PP / EP)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ParallelismConfig:
    """How a model is partitioned across GPUs.

    Only the degrees that change the "GEMM + collective" patterns matter here:
    tensor parallelism shrinks the per-GPU GEMM along one dimension and adds an
    AllReduce (or ReduceScatter/AllGather pair), expert parallelism adds the
    All-to-All of MoE layers, pipeline parallelism scales the world size.
    """

    tp: int = 1
    pp: int = 1
    ep: int = 1

    def __post_init__(self) -> None:
        for name, value in ("tp", self.tp), ("pp", self.pp), ("ep", self.ep):
            if value < 1:
                raise ValueError(f"{name} degree must be >= 1, got {value}")

    @property
    def world_size(self) -> int:
        """Total number of GPUs (EP ranks are the data-parallel ranks, Megatron-style)."""
        return self.tp * self.pp * self.ep
