"""The cluster description shared by every subcommand and the planner.

Historically each CLI subcommand grew its own placement flags -- ``serve``
took ``--gpus`` while ``e2e``/``pp`` took ``--nodes``/``--gpus-per-node`` --
and each resolved them into a :class:`~repro.comm.topology.Topology` with its
own ad-hoc logic.  :class:`ClusterSpec` is the one value all of them (and the
:mod:`repro.api` facade) now consume:

* ``device`` names the accelerator preset (``repro.gpu.device``);
* ``topology`` names a single-server interconnect preset, scaled to ``gpus``
  GPUs; leaving both unset means "each workload's paper-default placement"
  (what ``repro e2e`` / ``repro pp`` do without flags);
* ``nodes``/``gpus_per_node`` instead place the collective on a multi-node
  A800 cluster (NVLink inside a node, InfiniBand across nodes) and override
  ``topology``/``gpus``.

The auto-parallelism planner additionally asks a spec for the topology of a
*tensor-parallel group*: :meth:`topology_for_tp` spans the group inside one
server while it fits and falls over to the multi-node fabric when the degree
exceeds ``gpus_per_node``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.topology import Topology, known_topologies, multinode_a800
from repro.gpu.device import GPUSpec, device_by_name, known_devices

__all__ = ["ClusterSpec"]

#: Single-server fallback preset when only a GPU count is given.
_DEFAULT_TOPOLOGY = "a800-nvlink"


@dataclass(frozen=True)
class ClusterSpec:
    """One cluster configuration: accelerator + interconnect + GPU placement."""

    device: str = "a800"
    topology: str | None = None
    gpus: int | None = None
    nodes: int | None = None
    gpus_per_node: int = 8

    def __post_init__(self) -> None:
        if self.device not in known_devices():
            raise ValueError(f"unknown device {self.device!r}; known: {sorted(known_devices())}")
        if self.topology is not None and self.topology not in known_topologies():
            raise ValueError(
                f"unknown topology {self.topology!r}; known: {sorted(known_topologies())}"
            )
        if self.gpus is not None and self.gpus < 2:
            raise ValueError("gpus must be >= 2 (a collective needs at least two ranks)")
        if self.nodes is not None and self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")

    # -- derived values ----------------------------------------------------------

    @property
    def device_spec(self) -> GPUSpec:
        return device_by_name(self.device)

    @property
    def total_gpus(self) -> int:
        """GPUs available to the planner (nodes x gpus_per_node, or ``gpus``)."""
        if self.nodes:
            return self.nodes * self.gpus_per_node
        if self.gpus is not None:
            return self.gpus
        return known_topologies()[self.topology or _DEFAULT_TOPOLOGY].n_gpus

    def resolve(self) -> Topology | None:
        """The topology this spec describes.

        Multi-node placements win over single-server presets; a spec with
        neither ``topology``/``gpus`` nor ``nodes`` resolves to ``None``,
        which consumers read as "use the workload's paper-default placement".
        """
        if self.nodes and self.nodes > 1:
            return multinode_a800(n_nodes=self.nodes, gpus_per_node=self.gpus_per_node)
        if self.nodes == 1:
            preset = known_topologies()[self.topology or _DEFAULT_TOPOLOGY]
            return preset.with_n_gpus(self.gpus_per_node)
        if self.topology is None and self.gpus is None:
            return None
        preset = known_topologies()[self.topology or _DEFAULT_TOPOLOGY]
        return preset.with_n_gpus(self.gpus) if self.gpus else preset

    def topology_for_tp(self, tp: int) -> Topology:
        """The interconnect one tensor-parallel group of degree ``tp`` runs on.

        While the group fits inside a server it spans the single-node preset
        scaled to ``tp`` GPUs; a degree beyond ``gpus_per_node`` must cross
        nodes, so the group lands on the multi-node A800 fabric.  The planner
        prices every TP degree through this, so "TP=16 needs InfiniBand" is
        part of the search's cost model rather than an afterthought.
        """
        if tp < 2:
            raise ValueError("a tensor-parallel group needs at least 2 GPUs")
        per_node = self.gpus_per_node if self.nodes else min(self.gpus_per_node, self.total_gpus)
        if tp > per_node:
            if tp % per_node != 0:
                raise ValueError(
                    f"TP={tp} does not split evenly across {per_node}-GPU nodes"
                )
            return multinode_a800(n_nodes=tp // per_node, gpus_per_node=per_node)
        preset = known_topologies()[self.topology or _DEFAULT_TOPOLOGY]
        return preset.with_n_gpus(tp)

    # -- (de)serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "device": self.device,
            "topology": self.topology,
            "gpus": self.gpus,
            "nodes": self.nodes,
            "gpus_per_node": self.gpus_per_node,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ClusterSpec":
        return cls(
            device=payload.get("device", "a800"),
            topology=payload.get("topology"),
            gpus=payload.get("gpus"),
            nodes=payload.get("nodes"),
            gpus_per_node=payload.get("gpus_per_node", 8),
        )
