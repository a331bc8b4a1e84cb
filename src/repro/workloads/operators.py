"""Operator streams of the end-to-end workloads.

A model forward (or forward+backward) pass is flattened into a list of
:class:`OperatorInstance`:

* operators with a ``problem`` are "GEMM + collective" pairs -- the overlap
  targets; their latency depends on the execution method (non-overlap,
  FlashOverlap, or one of the baselines);
* operators with only ``other_latency`` are everything else (attention,
  column-parallel GEMMs, norms, optimizer steps) and cost the same under every
  method.

:class:`EndToEndWorkload` is such a stream plus its layer count.  It prices
nothing itself: :class:`~repro.e2e.estimator.EndToEndEstimator` prices it
through its plan store into the Fig. 4 latency shares and the Fig. 12 /
Table 4 end-to-end speedups.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import OverlapProblem


@dataclass(frozen=True)
class OperatorInstance:
    """One operator occurrence in a model's execution stream."""

    name: str
    problem: OverlapProblem | None = None
    other_latency: float = 0.0
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.problem is None and self.other_latency <= 0:
            raise ValueError(f"operator {self.name!r} has neither a problem nor a latency")
        if self.other_latency < 0:
            raise ValueError("other_latency must be non-negative")

    @property
    def is_overlap_target(self) -> bool:
        return self.problem is not None

    def pattern(self) -> str:
        """Breakdown category: ``GEMM+AR`` / ``GEMM+RS`` / ``GEMM+A2A`` / ``others``."""
        if self.problem is None:
            return "others"
        return f"GEMM+{self.problem.collective.short_name}"


@dataclass
class EndToEndWorkload:
    """A named stream of operators (typically one layer, repeated)."""

    name: str
    operators: list[OperatorInstance]
    layers: int = 1

    def __post_init__(self) -> None:
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
