"""Command-line interface: tune, evaluate, serve, schedule and plan overlap.

A thin front end over the :mod:`repro.api` facade (and, for the historical
single-problem commands, :class:`~repro.core.overlap.FlashOverlapOperator`)
so the library can be exercised without writing Python::

    repro report  --m 4096 --n 8192 --k 7168 --device rtx4090 \
                  --topology rtx4090-pcie --gpus 4 --collective allreduce
    repro tune    --m 16384 --n 8192 --k 2048 --device a800 \
                  --topology a800-nvlink --gpus 4 --collective reducescatter
    repro verify  --collective alltoall --gpus 4
    repro compare --m 16384 --n 8192 --k 4096 --device a800 \
                  --topology a800-nvlink --gpus 8 --collective reducescatter
    repro sweep   --preset llm-inference --workers 4 --out results.jsonl
    repro serve   --rate 32 --requests 64 --workload llama3-70b --baseline
    repro e2e     --workload llama3-training --smoke
    repro pp      --stages 4 --microbatches 8 --schedule zero-bubble
    repro plan    --gpus 8 --smoke --emit-plan plan.json

One module per subcommand (``repro.cli.report`` ... ``repro.cli.plan``); each
defines ``NAME``, ``add_parser(sub)`` and ``run(args) -> int``.  The shared
placement flags (``--device``/``--topology``/``--gpus``/``--nodes``/
``--gpus-per-node``) live in :mod:`repro.cli.common` and resolve into the
:class:`~repro.cluster.ClusterSpec` every subcommand passes to the facade.

Sub-commands:

* ``report``  -- tune, simulate and print the speedup report of one problem;
* ``tune``    -- print the tuned wave-group partition (optionally persist it
  into a JSON shape cache with ``--cache``);
* ``compare`` -- compare FlashOverlap against every supported baseline;
* ``verify``  -- run the NumPy correctness pipeline on a small instance;
* ``sweep``   -- fan a scenario matrix (named preset or JSON config) out over
  worker processes into a JSONL result store, with resume and shape-cache
  warm start;
* ``serve``   -- simulate online serving (Poisson or trace arrivals,
  continuous batching, one cached plan per token bucket) and report TTFT/TPOT
  percentiles, throughput and goodput, optionally against the non-overlap
  baseline;
* ``e2e``     -- estimate whole-model latency for the paper's end-to-end
  workloads (Table 4) through a shared plan store;
* ``pp``      -- schedule those workloads under pipeline parallelism
  (GPipe / 1F1B / zero-bubble) with plan-store-priced cells, or replay a
  planner-emitted configuration with ``--plan``;
* ``plan``    -- jointly search TP degree x pipeline stages x microbatch
  count x schedule x overlap method, report the latency/memory Pareto
  frontier and emit the winning plan as reusable JSON.

Multi-GPU problems default to one server (``--topology`` x ``--gpus``); pass
``--nodes``/``--gpus-per-node`` instead to place the collective on a
multi-node A800 cluster (NVLink inside a node, InfiniBand across nodes).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.cli import compare, e2e, plan, pp, report, serve, sweep, tune, verify
from repro.cli.common import command_error

__all__ = ["main"]

#: Subcommand modules in help-listing order.
_MODULES = (report, tune, compare, verify, sweep, serve, e2e, pp, plan)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlashOverlap reproduction: tune and evaluate GEMM + collective overlap",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for module in _MODULES:
        module.add_parser(sub)
    return parser


_COMMANDS = {module.NAME: module.run for module in _MODULES}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro`` / ``repro-overlap`` console scripts."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # e.g. `repro sweep | head`: the reader went away; exit quietly with
        # the conventional SIGPIPE status instead of a traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, ValueError) as error:  # must stay below BrokenPipeError, an OSError
        return command_error(args.command, error)
