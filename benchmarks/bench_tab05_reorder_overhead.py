"""Table 5: overhead of the fused pre/post-communication reorderings.

Reproduces the two halves of Table 5 on both devices:

* the post-communication reorder fused into an RMSNorm kernel (tile /
  sub-tile / sub-token granularity) stays around or below ~10%,
* the pre-communication reorder fused into the GEMM epilogue stays below 1%.

The bench also measures the functional reorder cost on NumPy data (gather +
scatter of every tile) relative to the element-wise operator itself, as a
sanity check that the index arithmetic is cheap.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.gpu.device import A800, RTX_4090
from repro.gpu.epilogue import REORDER_UNITS, ReorderOverheadModel
from repro.gpu.gemm import GemmShape, GemmTileConfig

from conftest import run_once

#: Overhead sweep from the paper: M=128..32768, N=1024..8192, K=1024..32768.
SWEEP = [
    GemmShape(128, 1024, 1024),
    GemmShape(1024, 4096, 4096),
    GemmShape(4096, 8192, 8192),
    GemmShape(16384, 8192, 16384),
    GemmShape(32768, 8192, 32768),
]


def collect_overheads():
    config = GemmTileConfig(tile_m=128, tile_n=128)
    table = {}
    for device in (A800, RTX_4090):
        model = ReorderOverheadModel(device)
        for unit in REORDER_UNITS:
            rmsnorm = float(np.mean([
                model.elementwise_overhead(unit, config, n_gpus=4, shape=shape) for shape in SWEEP
            ]))
            gemm = float(np.mean([
                model.gemm_epilogue_overhead(unit, config, n_gpus=4, shape=shape) for shape in SWEEP
            ]))
            table[(device.name, unit)] = (rmsnorm, gemm)
    return table


def test_tab05_reorder_overhead(benchmark, save_report):
    table = run_once(benchmark, collect_overheads)

    rows = [
        [device, unit, f"{rmsnorm * 100:.2f}%", f"{gemm * 100:.2f}%"]
        for (device, unit), (rmsnorm, gemm) in table.items()
    ]
    save_report(
        "tab05_reorder_overhead",
        format_table(["device", "unit", "RMSNorm overhead", "GEMM overhead"], rows,
                     title="Table 5 -- average overhead of the fused reorderings"),
    )

    for (device, unit), (rmsnorm, gemm) in table.items():
        # Claim C3: RMSNorm overhead ~<10%, GEMM overhead <1%.
        assert rmsnorm < 0.11, (device, unit)
        assert gemm < 0.01, (device, unit)
    # Finer granularity costs more; A800 (higher HBM bandwidth) costs less.
    for device in (A800.name, RTX_4090.name):
        assert table[(device, "tile")][0] <= table[(device, "subtile")][0] <= table[(device, "subtoken")][0]
    for unit in REORDER_UNITS:
        assert table[(A800.name, unit)][0] < table[(RTX_4090.name, unit)][0]


def test_tab05_functional_reorder_cost(benchmark, save_report, rng=np.random.default_rng(0)):
    """Functional check: a full gather+scatter pass over the output touches each
    element twice -- the same order of work as the RMSNorm it is fused into."""
    from repro.tensor.layout import TileLayout
    from repro.tensor.tiles import gather_tiles_indexed, scatter_tiles_indexed, tile_flat_indices
    from repro.gpu.swizzle import swizzled_order

    layout = TileLayout(m=512, n=512, tile_m=64, tile_n=64)
    matrix = rng.standard_normal((512, 512))
    order = swizzled_order(layout, 3)

    def reorder_round_trip():
        indices = tile_flat_indices(layout, order)
        buffer = gather_tiles_indexed(matrix, indices)
        out = np.zeros_like(matrix)
        scatter_tiles_indexed(out, indices, buffer)
        return out

    out = benchmark(reorder_round_trip)
    np.testing.assert_array_equal(out, matrix)
    save_report(
        "tab05_functional_roundtrip",
        f"gather+scatter round trip over a {layout.m}x{layout.n} matrix "
        f"({layout.num_tiles} tiles) verified bit-exact",
    )
