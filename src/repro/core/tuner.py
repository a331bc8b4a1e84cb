"""Wave-grouping tuners: predictive search, exhaustive search, shape cache.

The online stage of the paper's Alg. 1: build the pruned candidates as one
``PartitionMatrix``, rank its rows with the latency predictor, and decode the
best.  The exhaustive tuner ranks the same rows with the ground-truth executor;
the predictive search is measured against it (Fig. 15 / claim C2).  The
shape cache implements the nearest-neighbour reuse of tuned configurations for
dynamic workloads (LLM inference) described in Sec. 4.2.2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.config import DEFAULT_SETTINGS, OverlapProblem, OverlapSettings
from repro.core.executor import OverlapExecutor
from repro.core.predictor import LatencyPredictor, OfflineProfile
from repro.core.wave_grouping import (
    PartitionMatrix,
    WavePartition,
    heuristic_partition_matrix,
    pruned_partition_matrix,
)
from repro.gpu.gemm import GemmShape


@dataclass(frozen=True)
class TuningResult:
    """Outcome of one tuning run.

    ``use_overlap`` is False when even the best partition is predicted to be
    slower than the plain sequential execution (typically tiny communication
    under SM contention); the operator then falls back to the sequential path,
    which is how FlashOverlap "effectively avoids performance deterioration".
    """

    partition: WavePartition
    predicted_latency: float
    candidates_evaluated: int
    method: str
    use_overlap: bool = True

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        mode = "overlap" if self.use_overlap else "sequential fallback"
        return (
            f"{self.method} ({mode}): partition {self.partition} "
            f"({self.predicted_latency * 1e3:.3f} ms predicted, "
            f"{self.candidates_evaluated} candidates)"
        )


class PredictiveTuner:
    """Pick the wave-group partition with the lowest *predicted* latency.

    All candidates are ranked in one
    :meth:`~repro.core.predictor.LatencyPredictor.predict_batch` pass over the
    memoized :meth:`OfflineProfile.cached` offline stage.
    """

    def __init__(self, settings: OverlapSettings = DEFAULT_SETTINGS) -> None:
        self.settings = settings

    def candidates(self, num_waves: int) -> PartitionMatrix:
        """The pruned design space when tractable, the heuristic family otherwise."""
        first, last = self.settings.max_first_group, self.settings.max_last_group
        if num_waves <= self.settings.max_exhaustive_waves:
            return pruned_partition_matrix(num_waves, first, last)
        return heuristic_partition_matrix(num_waves, first, last)

    def tune(self, problem: OverlapProblem, profile: OfflineProfile | None = None) -> TuningResult:
        with obs.span("tuner.tune", method="predictive"):
            return self._tune(problem, profile)

    def _tune(self, problem: OverlapProblem, profile: OfflineProfile | None) -> TuningResult:
        profile = profile or OfflineProfile.cached(problem, self.settings)
        predictor = LatencyPredictor(profile, total_bytes=problem.output_bytes())
        candidates = self.candidates(profile.num_waves)
        obs.counter("tuner.invocations", method="predictive").inc()
        obs.counter("tuner.candidates", method="predictive").inc(candidates.num_candidates)
        latencies = predictor.predict_batch(candidates)
        index = int(np.argmin(latencies))
        best_latency = float(latencies[index])
        use_overlap = bool(best_latency <= predictor.predict_non_overlap())
        return TuningResult(
            partition=candidates.partition(index),
            predicted_latency=best_latency,
            candidates_evaluated=candidates.num_candidates,
            method="predictive",
            use_overlap=use_overlap,
        )


class ExhaustiveTuner:
    """Pick the partition with the lowest *simulated* (ground-truth) latency.

    This is the paper's exhaustive online-profiling search: accurate but far
    too slow to run per shape in production, so it serves as the quality
    reference for the predictive search.  Every row of the predictive tuner's
    candidate matrix is decoded and ranked by :meth:`OverlapExecutor.simulate`,
    whose per-wave table all candidates share; the first minimum wins.
    """

    def __init__(self, settings: OverlapSettings = DEFAULT_SETTINGS) -> None:
        self.settings = settings

    def tune(self, problem: OverlapProblem, executor: OverlapExecutor | None = None) -> TuningResult:
        with obs.span("tuner.tune", method="exhaustive"):
            return self._tune(problem, executor)

    def _tune(self, problem: OverlapProblem, executor: OverlapExecutor | None) -> TuningResult:
        executor = executor or OverlapExecutor(problem, self.settings)
        matrix = PredictiveTuner(self.settings).candidates(executor.num_waves())
        candidates = [matrix.partition(row) for row in range(matrix.num_candidates)]
        obs.counter("tuner.invocations", method="exhaustive").inc()
        obs.counter("tuner.candidates", method="exhaustive").inc(len(candidates))
        latencies = [executor.simulate(partition).latency for partition in candidates]
        index = int(np.argmin(latencies))
        best, best_latency = candidates[index], latencies[index]
        # Like the predictive tuner, fall back to the sequential execution when
        # even the best overlapped candidate is slower than not overlapping.
        use_overlap = bool(best_latency <= executor.simulate_sequential().latency)
        return TuningResult(
            partition=best,
            predicted_latency=best_latency,
            candidates_evaluated=len(candidates),
            method="exhaustive",
            use_overlap=use_overlap,
        )


def _tuning_result_to_dict(result: TuningResult) -> dict:
    return {
        "group_sizes": list(result.partition.group_sizes),
        "predicted_latency": result.predicted_latency,
        "candidates_evaluated": result.candidates_evaluated,
        "method": result.method,
        "use_overlap": result.use_overlap,
    }


def _tuning_result_from_dict(payload: dict) -> TuningResult:
    return TuningResult(
        partition=WavePartition.from_sizes(payload["group_sizes"]),
        predicted_latency=float(payload["predicted_latency"]),
        candidates_evaluated=int(payload["candidates_evaluated"]),
        method=str(payload["method"]),
        use_overlap=bool(payload.get("use_overlap", True)),
    )


#: Largest log2-space (M, N, K) distance at which a cached partition is reused.
MAX_REUSE_DISTANCE = 1.0


@dataclass
class ShapeCacheEntry:
    shape: GemmShape
    result: TuningResult


@dataclass
class GemmShapeCache:
    """Nearest-neighbour reuse of tuned partitions for unseen GEMM shapes.

    Distance is measured in log-space over (M, N, K) so that "twice as many
    rows" counts the same at every scale.  Entries whose wave count differs
    from the query problem cannot be reused directly and are skipped.
    """

    entries: list[ShapeCacheEntry] = field(init=False, default_factory=list)

    def add(self, shape: GemmShape, result: TuningResult) -> None:
        self.entries.append(ShapeCacheEntry(shape=shape, result=result))

    def __len__(self) -> int:
        return len(self.entries)

    @staticmethod
    def _distance(a: GemmShape, b: GemmShape) -> float:
        return (
            abs(math.log2(a.m / b.m))
            + abs(math.log2(a.n / b.n))
            + abs(math.log2(a.k / b.k))
        )

    def nearest(self, shape: GemmShape, required_waves: int) -> ShapeCacheEntry | None:
        """Closest cached shape whose partition covers ``required_waves`` waves."""
        best: ShapeCacheEntry | None = None
        best_distance = math.inf
        for entry in self.entries:
            if entry.result.partition.num_waves != required_waves:
                continue
            distance = self._distance(shape, entry.shape)
            if distance < best_distance:
                best, best_distance = entry, distance
        return best

    # -- persistence -------------------------------------------------------------

    def to_json(self) -> str:
        """Serialise the cache (shapes + tuned partitions) to a JSON string.

        This is how a deployment persists its offline/online tuning results
        across process restarts (the paper's offline stage is run once per
        deployment setup).
        """
        import json

        payload = [
            {
                "shape": {"m": entry.shape.m, "n": entry.shape.n, "k": entry.shape.k},
                "result": _tuning_result_to_dict(entry.result),
            }
            for entry in self.entries
        ]
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GemmShapeCache":
        """Rebuild a cache from :meth:`to_json` output."""
        import json

        return cls.from_list(json.loads(text))

    @classmethod
    def from_list(cls, items: list) -> "GemmShapeCache":
        """Rebuild a cache from the decoded :meth:`to_json` list."""
        cache = cls()
        for item in items:
            shape = GemmShape(m=item["shape"]["m"], n=item["shape"]["n"], k=item["shape"]["k"])
            cache.add(shape, _tuning_result_from_dict(item["result"]))
        return cache

    def save(self, path) -> None:
        """Write the cache to a JSON file, creating parent directories.

        The write is atomic (temp file + rename), so a run interrupted
        mid-save never corrupts an existing warm-start cache.
        """
        from repro.atomic import atomic_write_text

        atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path, missing_ok: bool = False) -> "GemmShapeCache":
        """Load a cache previously written with :meth:`save`.

        A missing file raises :class:`FileNotFoundError` unless ``missing_ok``
        is set, in which case an empty cache is returned (the warm-start idiom:
        ``GemmShapeCache.load(path, missing_ok=True)`` on first run).
        """
        from pathlib import Path

        from repro.atomic import read_json

        target = Path(path)
        if not target.exists():
            if missing_ok:
                return cls()
            raise FileNotFoundError(
                f"no shape cache at {target}; pass missing_ok=True to start from an empty cache"
            )
        return read_json(target, cls.from_list)

    def lookup(
        self,
        problem: OverlapProblem,
        settings: OverlapSettings = DEFAULT_SETTINGS,
    ) -> TuningResult | None:
        """Nearest cached result reusable for ``problem``, or None.

        A cached partition is reusable when its wave count matches the
        problem's and the log-space shape distance is within
        ``MAX_REUSE_DISTANCE`` (one doubling of one dimension).
        """
        executor_waves = OverlapExecutor(problem, settings).num_waves()
        entry = self.nearest(problem.shape, required_waves=executor_waves)
        if entry is not None and self._distance(problem.shape, entry.shape) <= MAX_REUSE_DISTANCE:
            return entry.result
        return None

    def lookup_or_tune(
        self,
        problem: OverlapProblem,
        tuner: PredictiveTuner,
    ) -> TuningResult:
        """Reuse the nearest cached partition when close enough, else tune."""
        cached = self.lookup(problem, tuner.settings)
        if cached is not None:
            return cached
        result = tuner.tune(problem)
        self.add(problem.shape, result)
        return result


def search_quality(
    problem: OverlapProblem, settings: OverlapSettings = DEFAULT_SETTINGS
) -> dict[str, float]:
    """Compare the predictive search against the exhaustive search.

    Returns the actual latencies of both picks and the performance ratio
    (exhaustive / predictive, so 1.0 means the predictive pick is optimal).
    """
    executor = OverlapExecutor(problem, settings)
    predictive = PredictiveTuner(settings).tune(problem)
    exhaustive = ExhaustiveTuner(settings).tune(problem, executor)
    predictive_actual = executor.simulate(predictive.partition).latency
    exhaustive_actual = executor.simulate(exhaustive.partition).latency
    return {
        "predictive_latency": predictive_actual,
        "exhaustive_latency": exhaustive_actual,
        "performance_ratio": exhaustive_actual / predictive_actual,
        "predicted_latency": predictive.predicted_latency,
    }
