"""Workloads: GEMM shape suites and model-level operator streams.

Two levels of workloads drive the evaluation:

* **operator-level** (:mod:`repro.workloads.shapes`) -- the GEMM size suites
  of Table 3, the typical shapes of Fig. 11, the heatmap grids of Fig. 13 and
  the Ascend shapes of Fig. 16;
* **model-level** (:mod:`repro.workloads.llm`, :mod:`repro.workloads.moe`,
  :mod:`repro.workloads.t2v`, :mod:`repro.workloads.e2e`) -- per-layer
  operator streams of the Table 4 applications (Llama3-70B TP inference and
  training, Mixtral-8x7B EP+TP training, Step-Video-T2V TP inference) and of
  the Fig. 4 Llama2-7B profiling run, plus their pipeline-parallel split
  (:mod:`repro.workloads.pipeline`).

Workloads describe shapes only and price nothing: :mod:`repro.e2e` turns an
operator stream into the Fig. 4 latency breakdown and the Fig. 12 / Table 4
end-to-end speedups, and :mod:`repro.pp` schedules the pipeline split.  The
one thing this package takes from :mod:`repro.core` is
:class:`~repro.core.config.OverlapProblem`, the shape of one overlap target.
"""
