"""Kernel categories shared by the simulator's traces and breakdowns."""

from __future__ import annotations

import enum


class KernelCategory(enum.Enum):
    """Coarse category of a launched kernel, used for traces and breakdowns."""

    GEMM = "gemm"
    COMMUNICATION = "comm"
    SIGNAL = "signal"
    ELEMENTWISE = "elementwise"
    REORDER = "reorder"
    OTHER = "other"
