"""FlashOverlap core: signaling, reordering, wave grouping, tuning, operator."""

from repro.core.config import OverlapProblem
from repro.core.overlap import FlashOverlapOperator
from repro.core.wave_grouping import WavePartition

__all__ = [
    "FlashOverlapOperator",
    "OverlapProblem",
    "WavePartition",
]
