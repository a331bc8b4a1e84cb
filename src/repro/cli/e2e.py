"""``repro e2e`` -- estimate whole-model latency of the paper workloads."""

from __future__ import annotations

import argparse

from repro.cli.common import (
    add_cluster_arguments,
    add_json_argument,
    add_profile_arguments,
    add_seed_argument,
    add_smoke_argument,
    cluster_from_args,
    finish_profile,
    plan_store_line,
    profile_scope,
    write_json_report,
)

NAME = "e2e"


def add_parser(sub) -> None:
    from repro.workloads.e2e import workload_builders

    parser = sub.add_parser(
        NAME, help="estimate whole-model latency of the paper's end-to-end workloads"
    )
    parser.add_argument("--workload", action="append", dest="workloads", metavar="NAME",
                        choices=sorted(workload_builders()),
                        help="workload to estimate (repeatable; default: all five paper "
                             f"workloads: {', '.join(sorted(workload_builders()))})")
    parser.add_argument("--tokens", type=int, default=None,
                        help="input token count / chunk size override "
                             "(default: each model's paper input size)")
    parser.add_argument("--layers", type=int, default=None,
                        help="layers per model (default: the paper's per-model counts; "
                             "--smoke uses 2)")
    add_cluster_arguments(parser, device="a800")
    parser.add_argument("--no-reuse", action="store_true",
                        help="disable the shared plan store (re-tune every operator "
                             "occurrence; the estimate itself is bit-identical)")
    add_seed_argument(parser)
    parser.add_argument("--trace", type=str, default=None, metavar="PREFIX",
                        help="export a Chrome trace per workload to PREFIX-<workload>.json")
    add_json_argument(parser)
    add_smoke_argument(parser,
                       "CI-sized run: paper shapes but 2 layers per model "
                       "(the committed golden fixtures)")
    add_profile_arguments(parser)


def run(args: argparse.Namespace) -> int:
    import repro.api as api

    with profile_scope(args, NAME) as session:
        report = api.estimate(
            args.workloads,
            tokens=args.tokens,
            layers=args.layers,
            cluster=cluster_from_args(args),
            seed=args.seed,
            reuse=not args.no_reuse,
            record_trace=bool(args.trace),
            smoke=args.smoke,
        )

    print(report.table())
    print()
    print(report.breakdown_table())
    for estimate in report.estimates:
        print()
        print(report.operator_table(estimate))
    print("\n" + plan_store_line(report.plan_stats, args.no_reuse))
    finish_profile(args, session, NAME, report)

    if args.trace:
        from pathlib import Path

        from repro.sim.trace_export import export_chrome_trace

        obs_spans = report.profile.spans if report.profile is not None else None
        for estimate in report.estimates:
            path = export_chrome_trace(estimate.trace, Path(f"{args.trace}-{estimate.name}.json"),
                                       obs_spans=obs_spans)
            print(f"trace      : {path}")
    if args.json:
        write_json_report(report, args.json)
    return 0
