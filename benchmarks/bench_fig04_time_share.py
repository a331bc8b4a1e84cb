"""Fig. 4: share of end-to-end time spent in "GEMM + collective" pairs.

Reproduces the latency-share breakdown of the four Table 4 applications on the
A800 substrate: the GEMM+AR / GEMM+RS / GEMM+A2A shares should be a
substantial fraction (the paper quotes roughly 30-45% for the TP workloads).
"""

from repro.analysis.breakdown import breakdown_fractions, estimate_breakdown_table
from repro.e2e import EndToEndEstimator
from repro.workloads.e2e import llama2_training_workload, paper_workloads

from conftest import run_once


def collect_breakdowns(settings):
    estimator = EndToEndEstimator(settings)
    # Fig. 4 additionally profiles Llama2-7B training under TP=4, PP=2.
    workloads = [*paper_workloads(), llama2_training_workload()]
    estimates = [estimator.estimate(workload) for workload in workloads]
    return estimates, [breakdown_fractions(estimate) for estimate in estimates]


def test_fig04_time_share(benchmark, save_report, fast_settings):
    estimates, fractions = run_once(benchmark, lambda: collect_breakdowns(fast_settings))
    save_report("fig04_time_share", estimate_breakdown_table(estimates))

    by_name = {e.name: f for e, f in zip(estimates, fractions)}
    inference = by_name["Llama3-70B inference (TP=8)"]
    training = by_name["Llama3-70B training (TP=8)"]
    moe = by_name["Mixtral-8x7B training (EP=4, TP=2)"]
    t2v = by_name["Step-Video-T2V (TP=4)"]
    llama2 = by_name["Llama2-7B training (TP=4, PP=2)"]
    # Fig. 4: GEMM+RS takes roughly 30% of Llama2-7B training time.
    assert 0.15 < llama2["GEMM+RS"] < 0.45

    # TP inference / T2V: GEMM+AR is a large share of the end-to-end time.
    assert 0.25 < inference["GEMM+AR"] < 0.55
    assert 0.20 < t2v["GEMM+AR"] < 0.55
    # TP training replaces AllReduce by ReduceScatter.
    assert training["GEMM+RS"] > 0.15
    assert training["GEMM+AR"] == 0.0
    # MoE training has a visible GEMM+A2A share.
    assert moe["GEMM+A2A"] > 0.05
    # Every workload keeps a non-trivial "others" share.
    for name, shares in by_name.items():
        assert shares["others"] > 0.3, name
        assert abs(sum(shares.values()) - 1.0) < 1e-9
