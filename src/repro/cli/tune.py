"""``repro tune`` -- print the tuned wave-group partition of one problem.

The mode line is the priced one (:func:`~repro.core.overlap.price_plan`),
so it agrees with ``repro report``; the ``--cache`` file keeps the tuner's
own result.
"""

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

NAME = "tune"


def add_parser(sub) -> None:
    parser = sub.add_parser(NAME, help="print the tuned wave-group partition")
    add_problem_arguments(parser)
    parser.add_argument("--cache", type=str, default=None,
                        help="JSON shape-cache file to read/update with the tuned result")
    add_profile_arguments(parser)


def run(args: argparse.Namespace) -> int:
    from repro.core.overlap import price_plan
    from repro.core.tuner import GemmShapeCache, PredictiveTuner

    with profile_scope(args, NAME) as session:
        problem = problem_from_args(args)
        settings = settings_from_args(args)
        tuner = PredictiveTuner(settings)
        if args.cache:
            cache = GemmShapeCache.load(args.cache, missing_ok=True)
            result = cache.lookup_or_tune(problem, tuner)
            cache.save(args.cache)
            print(f"cache             : {args.cache} ({len(cache)} entries)")
        else:
            result = tuner.tune(problem)
        use_overlap = price_plan(problem, result, settings).tuning.use_overlap
    print(f"problem           : {problem.describe()}")
    print(f"partition         : {result.partition}")
    print(f"predicted latency : {result.predicted_latency * 1e3:.3f} ms")
    print(f"candidates        : {result.candidates_evaluated}")
    print(f"mode              : {'overlap' if use_overlap else 'sequential fallback'}")
    finish_profile(args, session, NAME)
    return 0
