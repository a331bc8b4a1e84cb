"""``repro compare`` -- compare FlashOverlap against every supported baseline."""

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

NAME = "compare"


def add_parser(sub) -> None:
    parser = sub.add_parser(NAME, help="compare FlashOverlap against the baselines")
    add_problem_arguments(parser)
    add_profile_arguments(parser)


def run(args: argparse.Namespace) -> int:
    from repro.analysis.speedup import compare_methods
    from repro.core.overlap import FlashOverlapOperator

    with profile_scope(args, NAME) as session:
        problem = problem_from_args(args)
        settings = settings_from_args(args)
        report = FlashOverlapOperator(problem, settings).report()
        comparison = compare_methods(report, settings=settings)
    print(f"problem: {problem.describe()}")
    width = max(len(name) for name in comparison.speedups)
    for name, speedup in sorted(comparison.speedups.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<{width}} : {speedup:.3f}x")
    print(f"best method: {comparison.best_method()}")
    finish_profile(args, session, NAME)
    return 0
