"""Fig. 3: wave pattern of GEMM tile completion times.

Reproduces the staircase of tile completion times for the paper's example
(M=2048, N=K=8192 on an RTX 4090): tiles complete in distinct waves, and with
block swizzling the completion order does not follow the address order.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.gpu.device import RTX_4090
from repro.gpu.gemm import GemmKernelModel, GemmShape, GemmTileConfig

from conftest import run_once


def collect_wave_pattern():
    shape = GemmShape(m=2048, n=8192, k=8192)
    config = GemmTileConfig(tile_m=128, tile_n=256, swizzle_size=3)
    model = GemmKernelModel(shape, RTX_4090, config)
    times = model.tile_completion_times(jitter=0.05, seed=0)
    waves = model.wave_tiles()
    return model, times, waves


def test_fig03_wave_pattern(benchmark, save_report):
    model, times, waves = run_once(benchmark, collect_wave_pattern)

    # The paper's headline numbers: 512 tiles in 4 waves on 128 SMs.
    assert model.num_tiles == 512
    assert model.num_waves() == 4

    wave_ms = model.wave_completion_times() * 1e3
    rows = []
    order = model.execution_order()
    for index, tiles in enumerate(waves):
        spread = times[tiles] * 1e3
        # Address discontiguity: how many launched tiles are non-adjacent.
        adjacent = sum(1 for a, b in zip(tiles, tiles[1:]) if b == a + 1)
        rows.append(
            [
                f"W{index + 1}",
                len(tiles),
                f"{spread.min():.3f}",
                f"{spread.max():.3f}",
                f"{wave_ms[index]:.3f}",
                f"{1 - adjacent / max(1, len(tiles) - 1):.2f}",
            ]
        )
    report = format_table(
        ["wave", "tiles", "first done (ms)", "last done (ms)", "wave end (ms)", "addr discontiguity"],
        rows,
        title="Fig. 3 -- wave pattern of tile completion (M=2048, N=K=8192, RTX 4090)",
    )
    save_report("fig03_wave_pattern", report)

    # Within-wave spread is < 5% of a wave duration; waves are well separated.
    wave_len = model.wave_duration()
    for index, tiles in enumerate(waves):
        spread = times[tiles]
        assert spread.max() - spread.min() <= 0.055 * wave_len
    # The swizzled completion order does not match the address order.
    assert not np.array_equal(order, np.sort(order))
    assert np.argmax(times) != model.num_tiles - 1 or order[-1] == model.num_tiles - 1


def test_fig03_reordered_index_is_monotone(benchmark, save_report):
    """Fig. 3(b): after reordering by execution order, completion time is
    monotone in the reordered tile index."""

    def collect():
        model, times, _ = collect_wave_pattern()
        order = model.execution_order()
        return times[order]

    reordered_times = run_once(benchmark, collect)
    wave_len = GemmKernelModel(
        GemmShape(2048, 8192, 8192), RTX_4090, GemmTileConfig(tile_m=128, tile_n=256)
    ).wave_duration()
    violations = np.sum(np.diff(reordered_times) < -0.06 * wave_len)
    save_report(
        "fig03_reordered_monotonicity",
        f"non-monotone steps after reordering: {int(violations)} / {len(reordered_times) - 1}",
    )
    assert violations == 0
