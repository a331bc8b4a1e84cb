"""Communication substrate: topologies, bandwidth curves and collectives.

The paper calls NCCL through its public API and treats communication as a
black box characterised by (1) the data semantics of each collective and
(2) its latency as a function of message size on a given interconnect.  This
package provides both halves:

* **functional collectives** (:mod:`repro.comm.collectives`) operate on
  lists of NumPy arrays -- one per simulated GPU -- and are used for the
  numerical-correctness path;
* **latency models** (:mod:`repro.comm.topology`,
  :mod:`repro.comm.bandwidth`, :mod:`repro.comm.primitives`) reproduce the
  size-dependent effective-bandwidth curve of Fig. 8 for PCIe / NVLink / HCCS
  interconnects and are used by the simulator and the predictive tuner.
"""

from repro.comm.topology import (
    InterconnectKind,
    Topology,
    a800_nvlink,
    ascend_hccs,
    known_topologies,
    multinode_a800,
    rtx4090_pcie,
)
from repro.comm.bandwidth import AnalyticBandwidthCurve, SampledBandwidthCurve, sample_bandwidth
from repro.comm.primitives import CollectiveKind, CollectiveModel
from repro.comm.collectives import all_reduce, all_to_all, reduce_scatter_flat

__all__ = [
    "InterconnectKind",
    "Topology",
    "rtx4090_pcie",
    "a800_nvlink",
    "ascend_hccs",
    "multinode_a800",
    "known_topologies",
    "AnalyticBandwidthCurve",
    "SampledBandwidthCurve",
    "sample_bandwidth",
    "CollectiveKind",
    "CollectiveModel",
    "all_reduce",
    "reduce_scatter_flat",
    "all_to_all",
]
