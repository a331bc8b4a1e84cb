"""Interconnect topologies of the simulated multi-GPU servers.

Only the parameters that shape the Fig. 8 bandwidth curve and the SM
contention matter to the overlap model:

* the peak per-GPU link bandwidth (bus bandwidth of the collective),
* the per-call base latency (launch + protocol setup), which is what makes
  small messages so inefficient,
* the message size at which the effective bandwidth reaches half of its peak,
* the number of SMs the communication kernels occupy while running,
* whether GPU peer-to-peer access is available (required by the Async-TP and
  FLUX baselines).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class InterconnectKind(enum.Enum):
    """Kind of inter-GPU link."""

    PCIE = "pcie"
    NVLINK = "nvlink"
    NVLINK_PAIRWISE = "nvlink-pairwise"
    HCCS = "hccs"
    INFINIBAND = "infiniband"


@dataclass(frozen=True)
class Topology:
    """One multi-GPU server configuration.

    ``peak_bus_bandwidth_gbps`` is the saturated *bus bandwidth* of a large
    collective (the quantity NCCL reports as busbw), per GPU.
    ``half_saturation_mb`` is the per-GPU message size (in MiB) at which the
    effective bandwidth is half of the peak; a fast interconnect needs larger
    messages to amortise its per-transfer protocol cost, so the NVLink knee
    sits at a larger message size than the PCIe knee.
    """

    name: str
    n_gpus: int
    kind: InterconnectKind
    peak_bus_bandwidth_gbps: float
    base_latency_us: float
    half_saturation_mb: float
    comm_sm_count: int
    supports_p2p: bool
    intra_node: bool = True
    #: GPU count at which the raw bandwidth/latency parameters are specified;
    #: :meth:`with_n_gpus` applies its scaling penalty relative to this count.
    #: Defaults to ``n_gpus`` at construction (a directly-built topology's
    #: numbers are taken at face value).
    base_n_gpus: int | None = None

    def __post_init__(self) -> None:
        if self.n_gpus < 2:
            raise ValueError("a topology needs at least 2 GPUs")
        if self.peak_bus_bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.base_latency_us < 0 or self.half_saturation_mb <= 0:
            raise ValueError("latency and saturation point must be positive")
        if self.comm_sm_count < 0:
            raise ValueError("comm_sm_count must be non-negative")
        if self.base_n_gpus is None:
            object.__setattr__(self, "base_n_gpus", self.n_gpus)
        elif self.base_n_gpus < 2:
            raise ValueError("base_n_gpus must be >= 2")

    @property
    def peak_bus_bandwidth_bytes(self) -> float:
        return self.peak_bus_bandwidth_gbps * 1e9

    @property
    def base_latency_s(self) -> float:
        return self.base_latency_us * 1e-6

    @property
    def half_saturation_bytes(self) -> float:
        return self.half_saturation_mb * 1024 * 1024

    def _gpu_count_scales(self, n_gpus: int) -> tuple[float, float]:
        """(bandwidth, latency) scale of ``n_gpus`` relative to ``base_n_gpus``.

        Only penalties, never bonuses: a GPU count at or below the base keeps
        the base parameters (scaling an InfiniBand cluster *down* must not
        make it faster than its NIC-derived model).
        """
        doublings = max(0.0, (n_gpus - self.base_n_gpus) / 2.0)
        bandwidth = 0.92**doublings if self.kind == InterconnectKind.PCIE else 0.97**doublings
        return bandwidth, 1.0 + 0.1 * doublings

    def with_n_gpus(self, n_gpus: int) -> "Topology":
        """Return the same server type scaled to a different GPU count.

        Going through more PCIe hops / NUMA nodes or sharing NVLink lanes
        reduces the per-GPU bus bandwidth slightly; the model applies a mild
        penalty per doubling beyond :attr:`base_n_gpus` (the count the raw
        parameters were specified at).  The scaling already baked into
        ``self`` is divided out first, so the method is idempotent and
        path-independent: ``t.with_n_gpus(k).with_n_gpus(k) ==
        t.with_n_gpus(k)`` (a preset at its default GPU count passes through
        unchanged).
        """
        if n_gpus < 2:
            raise ValueError("n_gpus must be >= 2")
        if n_gpus == self.n_gpus:
            return self
        current_bw, current_lat = self._gpu_count_scales(self.n_gpus)
        target_bw, target_lat = self._gpu_count_scales(n_gpus)
        return Topology(
            name=self.name,
            n_gpus=n_gpus,
            kind=self.kind,
            peak_bus_bandwidth_gbps=self.peak_bus_bandwidth_gbps / current_bw * target_bw,
            base_latency_us=self.base_latency_us / current_lat * target_lat,
            half_saturation_mb=self.half_saturation_mb,
            comm_sm_count=self.comm_sm_count,
            supports_p2p=self.supports_p2p,
            intra_node=self.intra_node,
            base_n_gpus=self.base_n_gpus,
        )

    def degraded(self, factor: float) -> "Topology":
        """The same server with its links running at ``factor`` of peak bandwidth.

        Models a degraded interconnect (flapping link, congested fabric): the
        whole Fig. 8 bandwidth curve scales down while the base latency and
        saturation knee stay put.  The name gains a ``@bw<factor>`` suffix so
        plan caches keyed on topology name keep faulted and nominal pricing
        separate.  ``factor == 1`` returns ``self`` unchanged.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError("degradation factor must be in (0, 1]")
        if factor == 1.0:
            return self
        return Topology(
            name=f"{self.name}@bw{factor:g}",
            n_gpus=self.n_gpus,
            kind=self.kind,
            peak_bus_bandwidth_gbps=self.peak_bus_bandwidth_gbps * factor,
            base_latency_us=self.base_latency_us,
            half_saturation_mb=self.half_saturation_mb,
            comm_sm_count=self.comm_sm_count,
            supports_p2p=self.supports_p2p,
            intra_node=self.intra_node,
            base_n_gpus=self.base_n_gpus,
        )


# -- presets -----------------------------------------------------------------


def rtx4090_pcie(n_gpus: int = 4) -> Topology:
    """Consumer server: RTX 4090 GPUs over PCIe 4.0 across NUMA nodes.

    No peer-to-peer access (the paper notes FLUX / Async-TP cannot run here).
    The effective bus bandwidth of NCCL collectives over PCIe is ~ 12-20 GB/s.
    """
    base = Topology(
        name="rtx4090-pcie",
        n_gpus=2,
        kind=InterconnectKind.PCIE,
        peak_bus_bandwidth_gbps=18.0,
        base_latency_us=30.0,
        half_saturation_mb=1.2,
        comm_sm_count=4,
        supports_p2p=False,
    )
    return base.with_n_gpus(n_gpus)


def a800_nvlink(n_gpus: int = 4) -> Topology:
    """Data-center server: A800 GPUs with pairwise NVLink bridges."""
    base = Topology(
        name="a800-nvlink",
        n_gpus=2,
        kind=InterconnectKind.NVLINK_PAIRWISE,
        peak_bus_bandwidth_gbps=170.0,
        base_latency_us=12.0,
        half_saturation_mb=6.0,
        comm_sm_count=8,
        supports_p2p=True,
    )
    return base.with_n_gpus(n_gpus)


def ascend_hccs(n_gpus: int = 4) -> Topology:
    """HUAWEI Ascend 910B NPUs connected through HCCS."""
    base = Topology(
        name="ascend910b-hccs",
        n_gpus=2,
        kind=InterconnectKind.HCCS,
        peak_bus_bandwidth_gbps=90.0,
        base_latency_us=18.0,
        half_saturation_mb=4.0,
        comm_sm_count=2,
        supports_p2p=True,
    )
    return base.with_n_gpus(n_gpus)


def multinode_a800(n_nodes: int = 2, gpus_per_node: int = 8) -> Topology:
    """Multi-node A800 cluster: NVLink inside a node, InfiniBand across nodes.

    For collectives spanning nodes the inter-node fabric is the bottleneck, so
    the effective per-GPU bus bandwidth is the NIC bandwidth divided by the
    GPUs sharing it, with a noticeably higher base latency than any intra-node
    link.  This is the configuration the paper's reusability notes (A.6.2)
    point at when moving from multi-processing to a distributed backend.
    """
    if n_nodes < 2:
        raise ValueError("a multi-node topology needs at least 2 nodes")
    if gpus_per_node < 1:
        raise ValueError("gpus_per_node must be >= 1")
    nic_bandwidth_gbps = 50.0  # 400 Gb/s HDR InfiniBand per node
    return Topology(
        name=f"a800-{n_nodes}node-ib",
        n_gpus=n_nodes * gpus_per_node,
        kind=InterconnectKind.INFINIBAND,
        peak_bus_bandwidth_gbps=nic_bandwidth_gbps / max(1, gpus_per_node // 4),
        base_latency_us=45.0,
        half_saturation_mb=8.0,
        comm_sm_count=12,
        supports_p2p=False,
        intra_node=False,
    )


def tiny_pcie() -> Topology:
    """Miniature 4-GPU PCIe box for correctness pipelines and tests.

    Deliberately slow and small so numeric verification problems produce few
    waves and tiny messages; the default topology of ``repro verify``.
    """
    base = Topology(
        name="tiny-pcie",
        n_gpus=2,
        kind=InterconnectKind.PCIE,
        peak_bus_bandwidth_gbps=10.0,
        base_latency_us=20.0,
        half_saturation_mb=0.5,
        comm_sm_count=2,
        supports_p2p=False,
    )
    return base.with_n_gpus(4)


def known_topologies() -> dict[str, Topology]:
    """Preset topologies at their default GPU counts."""
    return {
        "rtx4090-pcie": rtx4090_pcie(),
        "a800-nvlink": a800_nvlink(),
        "ascend910b-hccs": ascend_hccs(),
        "a800-2node-ib": multinode_a800(),
        "tiny-pcie": tiny_pcie(),
    }
