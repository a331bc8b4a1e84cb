"""Fig. 14: ablation of wave grouping and the tuning algorithm.

Compares the tuned FlashOverlap partition against (a) equally-sized groupings
with group sizes 1..32 and (b) a deliberately misconfigured wave size, on the
two setups of the paper's ablation (GEMM+AR on 2x RTX 4090 and GEMM+RS on
4x A800).  The conclusions to reproduce: no fixed or equal group size wins
everywhere, and the tuned partition matches or beats all of them.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.comm.primitives import CollectiveKind
from repro.comm.topology import a800_nvlink, rtx4090_pcie
from repro.core.baselines import NonOverlapBaseline
from repro.core.config import OverlapProblem
from repro.core.executor import OverlapExecutor
from repro.core.tuner import PredictiveTuner
from repro.core.wave_grouping import WavePartition
from repro.gpu.device import A800, RTX_4090
from repro.gpu.gemm import GemmShape

from conftest import run_once

EQUAL_GROUP_SIZES = (1, 2, 4, 8, 16, 32)

CASES = {
    "rtx4090-ar-2gpu": [
        OverlapProblem(GemmShape(4096, 8192, 8192), RTX_4090, rtx4090_pcie(2), CollectiveKind.ALL_REDUCE),
        OverlapProblem(GemmShape(8192, 8192, 1024), RTX_4090, rtx4090_pcie(2), CollectiveKind.ALL_REDUCE),
        OverlapProblem(GemmShape(16384, 8192, 1024), RTX_4090, rtx4090_pcie(2), CollectiveKind.ALL_REDUCE),
    ],
    "a800-rs-4gpu": [
        OverlapProblem(GemmShape(32768, 8192, 2048), A800, a800_nvlink(4), CollectiveKind.REDUCE_SCATTER),
        OverlapProblem(GemmShape(4096, 8192, 8192), A800, a800_nvlink(4), CollectiveKind.REDUCE_SCATTER),
        OverlapProblem(GemmShape(2048, 8192, 16384), A800, a800_nvlink(4), CollectiveKind.REDUCE_SCATTER),
    ],
}


def evaluate_case(problem, settings):
    executor = OverlapExecutor(problem, settings)
    waves = executor.num_waves()
    non_overlap = NonOverlapBaseline(settings).latency(problem)

    speedups = {}
    for group in EQUAL_GROUP_SIZES:
        partition = WavePartition.equal_groups(waves, group)
        speedups[f"equal-{group}"] = non_overlap / executor.simulate(partition).latency

    # Misconfigured wave size: the schedule believes waves are 20 tiles larger
    # than they are, so every signal waits for tiles of the *next* wave.
    wrong_sms = problem.compute_sm_count() + 20
    wrong_waves = executor.gemm_contended.wave_tiles(wrong_sms)
    payloads = executor.gemm_contended.wave_bytes(wrong_sms)
    # Communication of a misconfigured group can only start when the last wave
    # containing one of its tiles finishes.
    wave_end = executor.gemm_contended.wave_completion_times(problem.compute_sm_count())
    tile_wave = {t: w for w, tiles in enumerate(executor.wave_tiles()) for t in tiles}
    comm_end = 0.0
    for tiles, payload in zip(wrong_waves, payloads):
        ready = wave_end[max(tile_wave[t] for t in tiles)]
        duration = executor.comm_model.latency(float(payload))
        comm_end = max(comm_end, ready + settings.comm_launch_s) + duration
    speedups["misconfigured-wave"] = non_overlap / comm_end

    tuned = PredictiveTuner(settings).tune(problem)
    tuned_latency = (
        executor.simulate(tuned.partition).latency
        if tuned.use_overlap
        else executor.simulate_sequential().latency
    )
    speedups["flashoverlap"] = non_overlap / tuned_latency
    return speedups


@pytest.mark.parametrize("case", list(CASES))
def test_fig14_grouping_ablation(benchmark, save_report, fast_settings, case):
    problems = CASES[case]
    results = run_once(benchmark, lambda: [evaluate_case(p, fast_settings) for p in problems])

    methods = list(results[0])
    rows = [
        [f"{p.shape.m}x{p.shape.n}x{p.shape.k}"] + [r[m] for m in methods]
        for p, r in zip(problems, results)
    ]
    save_report(
        f"fig14_grouping_{case}",
        format_table(["shape", *methods], rows, title=f"Fig. 14 -- grouping ablation ({case})"),
    )

    for problem, speedups in zip(problems, results):
        flash = speedups["flashoverlap"]
        # (1) The tuned configuration matches or beats every equal-size grouping.
        best_equal = max(v for k, v in speedups.items() if k.startswith("equal-"))
        assert flash >= best_equal * 0.99, problem.shape
        # (2) A misconfigured wave size never helps (within modeling noise).
        assert speedups["misconfigured-wave"] <= flash * 1.02, problem.shape

    # (2b) On average across the cases the misconfiguration clearly loses.
    import numpy as np

    assert np.mean([r["misconfigured-wave"] for r in results]) < np.mean(
        [r["flashoverlap"] for r in results]
    )

    # (3) No single equal group size is optimal across all cases.
    winners = set()
    for speedups in results:
        equals = {k: v for k, v in speedups.items() if k.startswith("equal-")}
        winners.add(max(equals, key=equals.get))
    assert len(winners) >= 2 or "equal-1" not in winners
