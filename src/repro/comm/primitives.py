"""Collective primitives: latency models and NCCL-style metadata.

FlashOverlap is *communication agnostic*: it only ever calls the collective
through a library API and needs, per primitive, the transfer volume per rank,
the per-call setup latency and the effective bandwidth at a given message
size.  :class:`CollectiveModel` packages exactly that and is shared by the
non-overlap baseline, the decomposition baselines, the overlap simulator and
the predictive tuner.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.comm.bandwidth import AnalyticBandwidthCurve, SampledBandwidthCurve
from repro.comm.topology import Topology


class CollectiveKind(enum.Enum):
    """Collective communication primitives used in the paper."""

    ALL_REDUCE = "allreduce"
    REDUCE_SCATTER = "reducescatter"
    ALL_GATHER = "allgather"
    ALL_TO_ALL = "alltoall"

    @classmethod
    def from_name(cls, name: str) -> "CollectiveKind":
        key = name.strip().lower().replace("_", "").replace("-", "")
        aliases = {
            "ar": cls.ALL_REDUCE,
            "allreduce": cls.ALL_REDUCE,
            "rs": cls.REDUCE_SCATTER,
            "reducescatter": cls.REDUCE_SCATTER,
            "ag": cls.ALL_GATHER,
            "allgather": cls.ALL_GATHER,
            "a2a": cls.ALL_TO_ALL,
            "alltoall": cls.ALL_TO_ALL,
        }
        if key not in aliases:
            raise KeyError(f"unknown collective {name!r}")
        return aliases[key]

    @property
    def short_name(self) -> str:
        return {"allreduce": "AR", "reducescatter": "RS", "allgather": "AG", "alltoall": "A2A"}[
            self.value
        ]


def ring_volume_factor(kind: CollectiveKind, n_gpus: int) -> float:
    """Bytes moved per rank relative to the per-rank payload, ring algorithm."""
    if n_gpus < 2:
        return 0.0
    scale = (n_gpus - 1) / n_gpus
    if kind == CollectiveKind.ALL_REDUCE:
        return 2.0 * scale
    if kind in (CollectiveKind.REDUCE_SCATTER, CollectiveKind.ALL_GATHER):
        return scale
    if kind == CollectiveKind.ALL_TO_ALL:
        return scale
    raise ValueError(f"unhandled collective {kind}")  # pragma: no cover


@dataclass(frozen=True)
class CollectiveModel:
    """Latency model of one collective on one topology.

    ``latency(nbytes)`` models a single library call moving ``nbytes`` of
    payload per rank: a fixed setup term (kernel launch + protocol), plus the
    ring transfer time of ``volume_factor * nbytes`` at the size-dependent
    effective bandwidth.  A :class:`SampledBandwidthCurve` can be substituted
    for the analytic curve to reproduce the tuner's offline-profiling view.
    """

    kind: CollectiveKind
    topology: Topology
    curve: AnalyticBandwidthCurve | SampledBandwidthCurve = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.curve is None:
            object.__setattr__(self, "curve", AnalyticBandwidthCurve.for_topology(self.topology))

    # -- basic quantities ----------------------------------------------------

    @property
    def n_gpus(self) -> int:
        return self.topology.n_gpus

    def volume_factor(self) -> float:
        return ring_volume_factor(self.kind, self.n_gpus)

    def wire_bytes(self, payload_bytes: float) -> float:
        """Bytes actually moved per rank for a payload of ``payload_bytes``."""
        return self.volume_factor() * payload_bytes

    # -- latency ---------------------------------------------------------------

    def setup_latency(self) -> float:
        """Per-call fixed cost (seconds).

        All-to-All is built from point-to-point send/receive pairs and pays a
        setup cost per peer rather than per call.
        """
        base = self.topology.base_latency_s
        if self.kind == CollectiveKind.ALL_TO_ALL:
            return base * max(1, self.n_gpus - 1) * 0.5
        return base

    def latency(self, payload_bytes: float) -> float:
        """Latency of one collective call on ``payload_bytes`` per rank."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        if payload_bytes == 0:
            return 0.0
        return self.setup_latency() + self.curve.transfer_time(self.wire_bytes(payload_bytes))

    def latency_array(self, payload_bytes) -> np.ndarray:
        """Vectorized :meth:`latency` over an array of per-rank payloads.

        Element-wise identical to the scalar path (same operation order), so
        the batch latency predictor can rank candidates bit-identically to the
        per-candidate reference.
        """
        payloads = np.asarray(payload_bytes, dtype=np.float64)
        if np.any(payloads < 0):
            raise ValueError("payload_bytes must be non-negative")
        wire = self.volume_factor() * payloads
        transfer = self.curve.transfer_time(wire)
        return np.where(payloads == 0.0, 0.0, self.setup_latency() + transfer)

    def bus_bandwidth(self, payload_bytes: float) -> float:
        """Observed bus bandwidth (NCCL convention): wire bytes over latency."""
        lat = self.latency(payload_bytes)
        if lat <= 0:
            return 0.0
        return self.wire_bytes(payload_bytes) / lat

    def with_curve(self, curve: AnalyticBandwidthCurve | SampledBandwidthCurve) -> "CollectiveModel":
        """Return a copy using a different bandwidth curve (e.g. a sampled one)."""
        return CollectiveModel(kind=self.kind, topology=self.topology, curve=curve)
