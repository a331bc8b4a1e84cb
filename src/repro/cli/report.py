"""``repro report`` -- tune, simulate and print the speedup report of one problem."""

from __future__ import annotations

import argparse

from repro.cli.common import (
    add_problem_arguments,
    add_profile_arguments,
    finish_profile,
    problem_from_args,
    profile_scope,
    settings_from_args,
)

NAME = "report"


def add_parser(sub) -> None:
    parser = sub.add_parser(NAME, help="tune, simulate and print the speedup report")
    add_problem_arguments(parser)
    add_profile_arguments(parser)


def run(args: argparse.Namespace) -> int:
    from repro.core.overlap import FlashOverlapOperator

    with profile_scope(args, NAME) as session:
        problem = problem_from_args(args)
        report = FlashOverlapOperator(problem, settings_from_args(args)).report()
    tuning = report.tuning
    print(f"problem           : {problem.describe()}")
    print(f"waves             : {tuning.partition.num_waves}")
    print(f"tuned partition   : {tuning.partition}")
    print(f"mode              : {'overlap' if tuning.use_overlap else 'sequential fallback'}")
    print(f"non-overlap       : {report.non_overlap_latency * 1e3:.3f} ms")
    print(f"FlashOverlap      : {report.overlap_latency * 1e3:.3f} ms")
    print(f"theoretical bound : {report.theoretical_latency * 1e3:.3f} ms")
    print(f"speedup           : {report.speedup:.3f}x "
          f"({report.ratio_of_theoretical * 100:.1f}% of theoretical)")
    finish_profile(args, session, NAME)
    return 0
