"""Parallelism configurations (TP / PP / DP / EP)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ParallelismConfig:
    """How a model is partitioned across GPUs.

    Only the degrees that change the "GEMM + collective" patterns matter here:
    tensor parallelism shrinks the per-GPU GEMM along one dimension and adds an
    AllReduce (or ReduceScatter/AllGather pair), expert parallelism adds the
    All-to-All of MoE layers, data/pipeline parallelism scale the world size.
    """

    tp: int = 1
    pp: int = 1
    dp: int = 1
    ep: int = 1

    def __post_init__(self) -> None:
        for name, value in ("tp", self.tp), ("pp", self.pp), ("dp", self.dp), ("ep", self.ep):
            if value < 1:
                raise ValueError(f"{name} degree must be >= 1, got {value}")

    @property
    def world_size(self) -> int:
        """Total number of GPUs (EP shares ranks with DP in Megatron-style setups)."""
        return self.tp * self.pp * max(self.dp, self.ep)

    def shard_rows(self, rows: int) -> int:
        """Per-GPU height of a row-parallel weight."""
        if rows % self.tp != 0:
            raise ValueError(f"{rows} rows not divisible by tp={self.tp}")
        return rows // self.tp

    def describe(self) -> str:
        parts = []
        for name, value in ("TP", self.tp), ("PP", self.pp), ("DP", self.dp), ("EP", self.ep):
            if value > 1:
                parts.append(f"{name}={value}")
        return ", ".join(parts) if parts else "single GPU"
