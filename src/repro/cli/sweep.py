"""``repro sweep`` -- fan a scenario matrix out over worker processes."""

from __future__ import annotations

import argparse

from repro.cli.common import (
    add_json_argument,
    add_profile_arguments,
    finish_profile,
    profile_scope,
    write_json_report,
)

NAME = "sweep"


def add_parser(sub) -> None:
    parser = sub.add_parser(
        NAME, help="fan a scenario matrix out over worker processes into a JSONL store"
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", action="append", dest="presets", metavar="NAME",
                        help="named scenario matrix (repeatable); see --list-presets")
    source.add_argument("--config", type=str,
                        help="JSON file holding a ScenarioMatrix dict (see sweep docs)")
    source.add_argument("--list-presets", action="store_true",
                        help="print the known preset matrices and exit")
    parser.add_argument("--out", type=str, default="sweep_results.jsonl",
                        help="JSONL result store (appended to; used by --resume)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (<=1 runs in-process)")
    parser.add_argument("--resume", action="store_true",
                        help="skip job IDs already completed in --out")
    parser.add_argument("--cache", type=str, default=None,
                        help="GEMM shape-cache JSON warm start, updated after the run")
    parser.add_argument("--plan-store", type=str, default=None,
                        help="content-addressed priced-cell store: unchanged sweep "
                             "points replay from it instead of re-simulating; "
                             "freshly priced cells are written back")
    parser.add_argument("--baselines", action="store_true",
                        help="also evaluate every baseline method per scenario (slower)")
    parser.add_argument("--group-by", type=str, default="workload,collective,topology",
                        help="comma-separated scenario fields of the summary rollup")
    parser.add_argument("--heartbeat", type=float, default=0.0, metavar="S",
                        help="print progress lines (done/total, retries, quarantines, "
                             "ETA) to stderr every S seconds (0 disables)")
    add_json_argument(parser, "write the summaries and per-job records to a JSON file")
    add_profile_arguments(parser)


def run(args: argparse.Namespace) -> int:
    import repro.api as api

    if args.list_presets:
        from repro.sweep import sweep_presets

        for name, factory in sorted(sweep_presets().items()):
            print(f"{name:<20} {len(factory())} scenarios")
        return 0

    group_keys = tuple(key.strip() for key in args.group_by.split(",") if key.strip())
    with profile_scope(args, NAME) as session:
        report = api.sweep(
            args.presets,
            config=args.config,
            out=args.out,
            workers=args.workers,
            resume=args.resume,
            cache=args.cache,
            plan_store=args.plan_store,
            baselines=args.baselines,
            group_by=group_keys,
            heartbeat_s=args.heartbeat,
        )

    print(report.summary_table())
    meta = report.meta
    print(f"\nresults  : {meta['out']} ({meta['completed_jobs']} completed jobs)")
    if args.cache:
        print(f"cache    : {args.cache} ({meta['cache_entries']} entries)")
    if args.plan_store:
        print(f"plans    : {args.plan_store} ({meta['priced_cells']} cells, "
              f"{meta['priced_hits']} replayed)")
    finish_profile(args, session, NAME, report)
    if args.json:
        write_json_report(report, args.json)
    return 1 if report.failed else 0
