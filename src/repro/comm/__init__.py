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

from repro.comm.primitives import CollectiveKind
from repro.comm.topology import a800_nvlink, rtx4090_pcie

__all__ = [
    "CollectiveKind",
    "a800_nvlink",
    "rtx4090_pcie",
]
