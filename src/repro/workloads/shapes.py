"""GEMM shape suites used by the operator-level evaluation.

Table 3 of the paper specifies, per primitive and per GPU type, the range of
output sizes (``M x N``, in multiples of 1024^2 elements) and accumulation
sizes (``K``, in multiples of 1024) covered by the evaluation.  The suites
here generate a deterministic grid over those ranges.  The module also
provides the typical shapes of Fig. 11, the heatmap grids of Fig. 13 and the
Ascend NPU shapes of Fig. 16.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.primitives import CollectiveKind
from repro.gpu.gemm import GemmShape

#: Output width used when expanding an ``M x N`` product into a concrete shape.
DEFAULT_N = 8192


@dataclass(frozen=True)
class ShapeSuite:
    """A named collection of GEMM shapes."""

    name: str
    shapes: tuple[GemmShape, ...]

    def __len__(self) -> int:
        return len(self.shapes)

    def __iter__(self):
        return iter(self.shapes)


#: Table 3 ranges: (mn_min, mn_max) in units of 1024^2 output elements and
#: (k_min, k_max) in units of 1024, per (primitive, device family).
TABLE3_RANGES: dict[tuple[CollectiveKind, str], tuple[tuple[int, int], tuple[int, int]]] = {
    (CollectiveKind.ALL_REDUCE, "a800"): ((64, 256), (2, 8)),
    (CollectiveKind.ALL_REDUCE, "rtx4090"): ((16, 64), (8, 16)),
    (CollectiveKind.REDUCE_SCATTER, "a800"): ((64, 256), (2, 8)),
    (CollectiveKind.REDUCE_SCATTER, "rtx4090"): ((16, 64), (8, 16)),
    (CollectiveKind.ALL_TO_ALL, "a800"): ((16, 400), (4, 8)),
    (CollectiveKind.ALL_TO_ALL, "rtx4090"): ((4, 68), (8, 16)),
}


def _mn_to_shape(mn_mega: int, k_kilo: int) -> GemmShape:
    """Expand an output size of ``mn_mega * 1024^2`` elements into (M, ``DEFAULT_N``, K)."""
    total = mn_mega * 1024 * 1024
    m = max(128, total // DEFAULT_N)
    return GemmShape(m=m, n=DEFAULT_N, k=k_kilo * 1024)


def operator_suite(
    collective: CollectiveKind,
    device_family: str,
    mn_points: int = 5,
    k_points: int = 4,
) -> ShapeSuite:
    """Deterministic grid over the Table 3 range for one primitive/GPU pair."""
    key = (collective, device_family.lower())
    if key not in TABLE3_RANGES:
        raise KeyError(
            f"no Table 3 range for {collective.short_name} on {device_family!r}; "
            f"known families: a800, rtx4090"
        )
    (mn_lo, mn_hi), (k_lo, k_hi) = TABLE3_RANGES[key]
    mn_values = _linspace_int(mn_lo, mn_hi, mn_points)
    k_values = _linspace_int(k_lo, k_hi, k_points)
    shapes = tuple(
        _mn_to_shape(mn, k) for mn in mn_values for k in k_values
    )
    return ShapeSuite(
        name=f"table3-{collective.short_name.lower()}-{device_family.lower()}", shapes=shapes
    )


def fig11_shapes() -> ShapeSuite:
    """The typical GEMM+RS shapes of Fig. 11 (A800): M x 8192 with three K."""
    ms = (16384, 32768, 49152)
    ks = (2048, 4096, 8192)
    shapes = tuple(GemmShape(m=m, n=DEFAULT_N, k=k) for k in ks for m in ms)
    return ShapeSuite(name="fig11-typical-rs-a800", shapes=shapes)


def fig13_grid(device_family: str) -> tuple[list[int], list[int]]:
    """Heatmap axes of Fig. 13: output sizes (x1024^2) and K values (x1024).

    RTX 4090: M x N from 16 to 64 Mi elements, K from 4k to 16k.
    A800:     M x N from 64 to 256 Mi elements, K from 2k to 8k.
    """
    family = device_family.lower()
    if family == "rtx4090":
        return [16, 24, 32, 40, 48, 56, 64], [4, 6, 8, 10, 12, 14, 16]
    if family == "a800":
        return [64, 96, 128, 160, 192, 224, 256], [2, 3, 4, 5, 6, 7, 8]
    raise KeyError(f"unknown device family {device_family!r}")


def fig13_shape(mn_mega: int, k_kilo: int) -> GemmShape:
    """Concrete GEMM shape of one heatmap cell."""
    return _mn_to_shape(mn_mega, k_kilo)


def ascend_suite() -> ShapeSuite:
    """Typical LLM GEMM shapes of the Ascend 910B evaluation (Fig. 16)."""
    shapes = (
        GemmShape(2048, 5120, 2560),
        GemmShape(4096, 2048, 8192),
        GemmShape(4096, 4096, 2048),
        GemmShape(5120, 6912, 4096),
        GemmShape(2048, 8192, 12288),
        GemmShape(4096, 5120, 2560),
        GemmShape(4096, 8192, 4096),
        GemmShape(2048, 4096, 5120),
    )
    return ShapeSuite(name="fig16-ascend-llm", shapes=shapes)


def _linspace_int(lo: int, hi: int, points: int) -> list[int]:
    """Evenly spaced integers from ``lo`` to ``hi`` inclusive (deduplicated)."""
    if points < 2 or lo == hi:
        return [lo] if lo == hi else [lo, hi][:points]
    step = (hi - lo) / (points - 1)
    values = []
    for i in range(points):
        value = int(round(lo + i * step))
        if not values or value != values[-1]:
            values.append(value)
    return values
