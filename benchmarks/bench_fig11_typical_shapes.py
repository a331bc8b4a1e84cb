"""Fig. 11: per-shape comparison on typical GEMM+RS shapes (A800).

Reproduces the per-shape bars of Fig. 11: for nine typical (M, N, K) points,
the speedup of every method over the non-overlap execution, on 4x A800.
FlashOverlap should win on most shapes, with the fusion baseline (FLUX)
allowed to win at K=2048 where its epilogue saving matters most.
"""

from repro.analysis.reporting import format_table
from repro.analysis.speedup import compare_methods
from repro.comm.primitives import CollectiveKind
from repro.comm.topology import a800_nvlink
from repro.core.config import OverlapProblem
from repro.core.overlap import FlashOverlapOperator
from repro.gpu.device import A800
from repro.workloads.shapes import fig11_shapes

from conftest import run_once, scaled


def collect(settings, smoke_mode=False):
    topology = a800_nvlink(4)
    # Smoke mode keeps one shape per K so every regime is still touched.
    shapes = list(fig11_shapes())[:: scaled(smoke_mode, 1, 3)]
    results = []
    for shape in shapes:
        problem = OverlapProblem(
            shape=shape, device=A800, topology=topology, collective=CollectiveKind.REDUCE_SCATTER
        )
        report = FlashOverlapOperator(problem, settings).report()
        results.append((shape, compare_methods(report, settings=settings)))
    return results


def test_fig11_typical_shapes(benchmark, save_report, fast_settings, smoke):
    results = run_once(benchmark, lambda: collect(fast_settings, smoke))

    methods = sorted(results[0][1].speedups)
    rows = [
        [f"{shape.m}x{shape.n}", shape.k] + [comparison.speedups.get(m, float("nan")) for m in methods]
        for shape, comparison in results
    ]
    report = format_table(
        ["MxN", "K", *methods],
        rows,
        title="Fig. 11 -- GEMM+RS speedups on typical shapes (4x A800)",
    )
    save_report("fig11_typical_shapes", report)

    wins = 0
    for shape, comparison in results:
        flash = comparison.speedups["flashoverlap"]
        assert flash > 1.0, shape
        best_other = max(v for k, v in comparison.speedups.items() if k != "flashoverlap")
        if flash >= best_other * 0.999:
            wins += 1
        elif shape.k > 2048:
            # Outside the small-K regime FlashOverlap should stay within a few
            # percent of the best method even when it does not win outright.
            assert flash > best_other * 0.90, shape
    # FlashOverlap wins on most of the shapes (nine in the full run).
    assert wins >= max(1, len(results) // 2 + 1)
