"""``repro pp`` -- schedule the paper workloads under pipeline parallelism."""

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

NAME = "pp"


def _parse_partition(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as error:  # non-integer parts
        raise argparse.ArgumentTypeError(
            f"--partition wants comma-separated layer counts, got {text!r}"
        ) from error


def add_parser(sub) -> None:
    from repro.pp.schedule import KNOWN_SCHEDULES
    from repro.workloads.e2e import workload_builders

    parser = sub.add_parser(
        NAME, help="schedule the paper workloads under pipeline parallelism "
                   "(GPipe / 1F1B / zero-bubble)"
    )
    parser.add_argument("--workload", action="append", dest="workloads", metavar="NAME",
                        choices=sorted(workload_builders()),
                        help="workload to schedule (repeatable; default: all five paper "
                             "workloads; --smoke uses llama3-training)")
    parser.add_argument("--stages", type=int, default=None,
                        help="pipeline stages the layer stack is split across "
                             "(default 4; --smoke uses 2)")
    parser.add_argument("--microbatches", type=int, default=None,
                        help="microbatches the input tokens are split into "
                             "(default 8; --smoke uses 4)")
    parser.add_argument("--schedule", action="append", dest="schedules", metavar="NAME",
                        choices=sorted(KNOWN_SCHEDULES),
                        help="schedule to evaluate (repeatable; default: all three: "
                             f"{', '.join(KNOWN_SCHEDULES)})")
    parser.add_argument("--partition", type=_parse_partition, default=None, metavar="L0,L1,...",
                        help="explicit per-stage layer counts overriding the balanced "
                             "split (must sum to the layer count)")
    parser.add_argument("--plan", type=str, default=None, metavar="PATH",
                        help="replay a plan JSON emitted by `repro plan --emit-plan` "
                             "(overrides the workload/stage/schedule flags)")
    parser.add_argument("--tokens", type=int, default=None,
                        help="total input token count split across the microbatches "
                             "(default: each model's paper input size)")
    parser.add_argument("--layers", type=int, default=None,
                        help="layers per model (default: the paper's per-model counts; "
                             "--smoke uses 4)")
    add_cluster_arguments(parser, device="a800")
    parser.add_argument("--no-reuse", action="store_true",
                        help="disable the shared plan store (re-tune every operator; "
                             "the schedule estimates are bit-identical)")
    add_seed_argument(parser)
    parser.add_argument("--trace", type=str, default=None, metavar="PREFIX",
                        help="export a Chrome trace (one thread per stage) per workload "
                             "and schedule to PREFIX-<workload>-<schedule>.json")
    add_json_argument(parser)
    add_smoke_argument(parser,
                       "CI-sized run for any flags not passed explicitly: "
                       "llama3-training, 2 stages, 4 microbatches, 4 layers "
                       "(the committed golden fixtures)")
    add_profile_arguments(parser)


def _print_report(report, no_reuse: bool = False) -> None:
    for estimate in report.estimates:
        print(report.table(estimate))
        if estimate.synthesized_backward:
            print("(forward-only stream: backward cells synthesized as ~2x forward)")
        for name, schedule in estimate.schedules.items():
            if schedule.trace is not None:
                print()
                print(f"{name} timeline (FlashOverlap, F=forward B=backward W=wgrad):")
                print(schedule.trace.render_ascii(width=64))
        print()
    print(plan_store_line(report.plan_stats, no_reuse))


def _export_traces(report, prefix: str, obs_spans: list | None = None) -> None:
    from pathlib import Path

    from repro.sim.trace_export import export_chrome_trace

    for estimate in report.estimates:
        for schedule_name, schedule in estimate.schedules.items():
            path = export_chrome_trace(
                schedule.trace, Path(f"{prefix}-{estimate.name}-{schedule_name}.json"),
                process_name=f"pipeline-{estimate.name}",
                obs_spans=obs_spans,
            )
            print(f"trace      : {path}")


def run(args: argparse.Namespace) -> int:
    import repro.api as api

    with profile_scope(args, NAME) as session:
        if args.plan:
            from repro.plan import ParallelismPlan, replay_plan

            plan = ParallelismPlan.load(args.plan)
            print(f"replaying  : {plan.describe()}")
            report = replay_plan(plan, record_trace=True)
        else:
            report = api.pp(
                args.workloads,
                stages=args.stages,
                microbatches=args.microbatches,
                schedules=args.schedules,
                tokens=args.tokens,
                layers=args.layers,
                partition=args.partition,
                cluster=cluster_from_args(args),
                seed=args.seed,
                reuse=not args.no_reuse,
                record_trace=True,
                smoke=args.smoke,
            )

    _print_report(report, args.no_reuse)
    finish_profile(args, session, NAME, report)
    if args.trace:
        _export_traces(report, args.trace,
                       report.profile.spans if report.profile is not None else None)
    if args.json:
        write_json_report(report, args.json)
    return 0
