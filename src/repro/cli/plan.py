"""``repro plan`` -- joint auto-parallelism search over the plan store."""

from __future__ import annotations

import argparse

from repro.cli.common import (
    add_cluster_arguments,
    add_json_argument,
    add_profile_arguments,
    add_seed_argument,
    add_smoke_argument,
    cluster_from_args,
    command_error,
    finish_profile,
    profile_scope,
    write_json_report,
)

NAME = "plan"


def add_parser(sub) -> None:
    from repro.plan import PLAN_METHODS
    from repro.pp.schedule import KNOWN_SCHEDULES
    from repro.workloads.e2e import workload_builders

    parser = sub.add_parser(
        NAME, help="search TP x stages x microbatches x schedule x overlap "
                   "for the best parallelism plan"
    )
    parser.add_argument("--workload", default="llama3-training",
                        choices=sorted(workload_builders()),
                        help="workload to plan (default llama3-training)")
    add_cluster_arguments(parser, device="a800", gpus=8)
    parser.add_argument("--tokens", type=int, default=None,
                        help="total input token count per step "
                             "(default: the workload's paper input size)")
    parser.add_argument("--layers", type=int, default=None,
                        help="layers of the model (default: the paper's count; "
                             "--smoke uses 4)")
    parser.add_argument("--tp", action="append", type=int, dest="tp_degrees",
                        metavar="DEGREE",
                        help="tensor-parallel degree to search (repeatable; default: "
                             "every divisor >= 2 of the GPU count; --smoke uses 2,4,8)")
    parser.add_argument("--microbatches", action="append", type=int,
                        dest="microbatch_counts", metavar="COUNT",
                        help="microbatch count to search (repeatable; default 1,2,4,8; "
                             "--smoke uses 2,4,8)")
    parser.add_argument("--schedule", action="append", dest="schedules", metavar="NAME",
                        choices=sorted(KNOWN_SCHEDULES),
                        help="schedule to search (repeatable; default: all three: "
                             f"{', '.join(KNOWN_SCHEDULES)})")
    parser.add_argument("--method", action="append", dest="methods", metavar="NAME",
                        choices=sorted(PLAN_METHODS),
                        help="execution method to search (repeatable; default: "
                             f"{' and '.join(PLAN_METHODS)})")
    parser.add_argument("--max-configs", type=int, default=None, metavar="N",
                        help="search budget: price at most N configurations "
                             "(cheapest lower bound first)")
    parser.add_argument("--no-prune", action="store_true",
                        help="disable dominated-config pruning (price every candidate)")
    parser.add_argument("--deadline", type=float, default=None, metavar="S",
                        help="wall-clock budget in seconds: stop pricing when it "
                             "elapses and return the best-so-far frontier "
                             "(marked truncated)")
    add_seed_argument(parser)
    parser.add_argument("--emit-plan", type=str, default=None, metavar="PATH",
                        help="write the winning configuration as reusable plan JSON "
                             "(replayable via `repro pp --plan`)")
    parser.add_argument("--replay", action="store_true",
                        help="re-run the winner through the pp and e2e paths and check "
                             "the predictions reproduce bit-identically")
    parser.add_argument("--trace", type=str, default=None, metavar="PREFIX",
                        help="export a Chrome trace of the winning schedule to "
                             "PREFIX-<workload>-winner.json")
    add_json_argument(parser)
    add_smoke_argument(parser,
                       "CI-sized search space: 4 layers, TP and microbatches in "
                       "{2, 4, 8}")
    add_profile_arguments(parser)


def run(args: argparse.Namespace) -> int:
    import repro.api as api

    with profile_scope(args, NAME) as session:
        report = api.plan(
            args.workload,
            cluster=cluster_from_args(args),
            tokens=args.tokens,
            layers=args.layers,
            tp_degrees=args.tp_degrees,
            microbatch_counts=args.microbatch_counts,
            schedules=args.schedules,
            methods=args.methods,
            max_configs=args.max_configs,
            prune=not args.no_prune,
            deadline=args.deadline,
            seed=args.seed,
            smoke=args.smoke,
        )

    print(report.summary_table())
    finish_profile(args, session, NAME, report)
    winner = report.winner
    if winner is None:
        return command_error(NAME, "no feasible configuration was priced")

    if args.emit_plan:
        path = winner.save(args.emit_plan)
        print(f"plan       : {path}")
    if args.trace:
        from pathlib import Path

        from repro.plan import replay_plan
        from repro.sim.trace_export import export_chrome_trace

        replay = replay_plan(winner, record_trace=True)
        trace = replay.estimates[0].schedules[winner.schedule].trace
        path = export_chrome_trace(
            trace, Path(f"{args.trace}-{winner.workload}-winner.json"),
            process_name=f"plan-{winner.workload}",
            obs_spans=report.profile.spans if report.profile is not None else None,
        )
        print(f"trace      : {path}")
    if args.json:
        write_json_report(report, args.json)
    if args.replay:
        from repro.plan import verify_replay

        result = verify_replay(winner)
        width = max(len(name) for name in result["checks"])
        for name, check in result["checks"].items():
            status = "ok" if check["matches"] else "MISMATCH"
            print(f"replay     : {name:<{width}} "
                  f"predicted {check['predicted']!r} == replayed {check['replayed']!r} "
                  f"-> {status}")
        if not result["matches"]:
            print("replay     : MISMATCH -- the plan does not reproduce bit-identically")
            return 1
        print("replay     : bit-identical through the pp and e2e paths")
    return 0
