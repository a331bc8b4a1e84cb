"""Metrics registry: counters, gauges and histograms with labels.

One :class:`MetricsRegistry` per observability session.  Metrics are keyed by
``name{label=value,...}`` (labels sorted, Prometheus-style), so the same name
with the same labels always resolves to the same object regardless of call
site or keyword order, and ``snapshot()`` flattens the registry into a
JSON-stable dict.  The module-level accessors in :mod:`repro.obs.session`
return the shared null metrics when observability is off, so an
``obs.counter("x").inc()`` on a hot path costs two no-op calls.
"""

from __future__ import annotations

import math

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metric_key",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
]


def metric_key(name: str, labels: dict) -> str:
    """The flattened series key: ``name`` or ``name{k=v,...}`` (keys sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


def _nearest_rank(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class Histogram:
    """Observed-value distribution summarised by nearest-rank percentiles."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    def observe_repeated(self, value: float, times: int) -> None:
        """``observe(value)`` ``times`` times over."""
        self.values.extend([value] * times)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (``p`` in [0, 100]); 0.0 when empty."""
        if not self.values:
            return 0.0
        return _nearest_rank(sorted(self.values), p)

    def summary(self) -> dict:
        if not self.values:
            return {"count": 0}
        # One sort serves min/max and every percentile of the snapshot; the
        # sum is taken in observation order so it stays bit-identical to the
        # incremental accumulation the old per-call path produced.
        ordered = sorted(self.values)
        total = sum(self.values)
        return {
            "count": len(ordered),
            "sum": total,
            "min": ordered[0],
            "max": ordered[-1],
            "mean": total / len(ordered),
            "p50": _nearest_rank(ordered, 50),
            "p90": _nearest_rank(ordered, 90),
            "p99": _nearest_rank(ordered, 99),
        }


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def observe_repeated(self, value: float, times: int) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Label-keyed counters / gauges / histograms with a dict snapshot."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, **labels) -> Counter:
        key = metric_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = metric_key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str, **labels) -> Histogram:
        key = metric_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram()
        return metric

    def snapshot(self) -> dict:
        """JSON-stable flattening: identical runs produce identical dicts."""
        return {
            "counters": {key: self._counters[key].value for key in sorted(self._counters)},
            "gauges": {key: self._gauges[key].value for key in sorted(self._gauges)},
            "histograms": {
                key: self._histograms[key].summary() for key in sorted(self._histograms)
            },
        }
