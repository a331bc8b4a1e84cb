"""``repro serve`` -- simulate online serving with continuous batching."""

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
    profile_scope,
    write_json_report,
)

NAME = "serve"


def add_parser(sub) -> None:
    from repro.faults import fault_presets
    from repro.serve.arrivals import length_distributions
    from repro.serve.simulator import SERVE_MODELS

    parser = sub.add_parser(
        NAME, help="simulate online serving: traffic, continuous batching, plan cache"
    )
    # Flags covered by the --smoke preset default to None so that --smoke can
    # fill exactly the values the user did not pass (see api.SERVE_DEFAULTS).
    parser.add_argument("--rate", type=float, default=None,
                        help="Poisson arrival rate in requests/s (default 32)")
    parser.add_argument("--requests", type=int, default=None,
                        help="number of requests to generate "
                             "(default 64, unless --duration bounds the traffic)")
    parser.add_argument("--duration", type=float, default=None,
                        help="bound the arrival window (seconds) instead of, "
                             "or in addition to, --requests")
    parser.add_argument("--distribution", default=None,
                        choices=sorted(length_distributions()),
                        help="prompt/output length distribution of the traffic (default chat)")
    parser.add_argument("--trace", type=str, default=None,
                        help="JSONL request trace replacing the Poisson generator "
                             "(fields: arrival_time, prompt_tokens, output_tokens)")
    parser.add_argument("--workload", default=None, choices=sorted(SERVE_MODELS),
                        help="served model (default llama3-70b)")
    add_cluster_arguments(parser, device="a800", topology="a800-nvlink", gpus=4)
    parser.add_argument("--layers", type=int, default=None,
                        help="decoder layers priced per iteration (default 4)")
    parser.add_argument("--max-batch-tokens", type=int, default=None,
                        help="token budget of one continuous-batching iteration (default 4096)")
    parser.add_argument("--max-batch-size", type=int, default=None,
                        help="maximum concurrently running requests (default 32)")
    parser.add_argument("--plan-cache", type=int, default=64, metavar="CAPACITY",
                        help="plan-cache capacity in bucketed shapes (0 disables caching)")
    parser.add_argument("--warm-cache", type=str, default=None,
                        help="GemmShapeCache JSON warm start, updated after the run")
    parser.add_argument("--baseline", action="store_true",
                        help="also serve the same traffic without overlap and compare")
    parser.add_argument("--slo-ttft", type=float, default=1.0, help="TTFT SLO in seconds")
    parser.add_argument("--slo-tpot", type=float, default=0.1, help="TPOT SLO in seconds")
    parser.add_argument("--faults", type=str, default=None, metavar="PLAN_JSON",
                        help="inject a fault plan (FaultPlan JSON; see examples/)")
    parser.add_argument("--fault-preset", default=None, choices=sorted(fault_presets()),
                        help="inject a named fault preset scaled to the traffic horizon")
    parser.add_argument("--retry-policy", type=str, default=None, metavar="SPEC",
                        help="retry policy for dropped requests, e.g. "
                             "'retries=3,backoff=0.05,multiplier=2,jitter=0.25'")
    parser.add_argument("--deadline", type=float, default=None, metavar="S",
                        help="per-request deadline in seconds (timed-out requests "
                             "are abandoned and counted against goodput)")
    parser.add_argument("--admission-limit", type=int, default=None, metavar="N",
                        help="shed new arrivals once N requests are waiting or running")
    parser.add_argument("--warm-spares", type=int, default=0, metavar="N",
                        help="replica crashes covered by warm spares (failover "
                             "instead of full recovery)")
    parser.add_argument("--failover-delay", type=float, default=0.05, metavar="S",
                        help="outage length of a warm-spare failover (default 0.05s)")
    add_seed_argument(parser, "traffic and model seed")
    add_json_argument(parser, "write the full metrics report to a JSON file")
    add_smoke_argument(parser,
                       "CI-sized defaults for any flags not passed explicitly "
                       "(short summarization burst on the small model); implies --baseline")
    add_profile_arguments(parser)


def run(args: argparse.Namespace) -> int:
    import repro.api as api

    with profile_scope(args, NAME) as session:
        report = api.serve(
            rate=args.rate,
            requests=args.requests,
            duration=args.duration,
            distribution=args.distribution,
            trace=args.trace,
            workload=args.workload,
            layers=args.layers,
            max_batch_tokens=args.max_batch_tokens,
            max_batch_size=args.max_batch_size,
            plan_cache=args.plan_cache,
            warm_cache=args.warm_cache,
            baseline=args.baseline,
            slo_ttft=args.slo_ttft,
            slo_tpot=args.slo_tpot,
            faults=args.faults,
            fault_preset=args.fault_preset,
            retry_policy=args.retry_policy,
            deadline=args.deadline,
            admission_limit=args.admission_limit,
            warm_spares=args.warm_spares,
            failover_delay=args.failover_delay,
            cluster=cluster_from_args(args),
            seed=args.seed,
            smoke=args.smoke,
        )

    print(report.summary_table())
    finish_profile(args, session, NAME, report)
    if args.json:
        write_json_report(report, args.json)
    return 0
