"""Shared argument plumbing of the ``repro`` CLI.

Historically every subcommand grew its own placement flags with its own
resolution logic.  They now all describe the cluster through the same flag
set -- ``--device`` / ``--topology`` / ``--gpus`` plus the multi-node pair
``--nodes`` / ``--gpus-per-node`` -- added by :func:`add_cluster_arguments`
with per-subcommand defaults, and resolve them into one
:class:`~repro.cluster.ClusterSpec` via :func:`cluster_from_args`.  The old
spellings keep working: they *are* the unified flags, only the defaults
differ per subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro import obs
from repro.cluster import ClusterSpec
from repro.comm.primitives import CollectiveKind
from repro.comm.topology import known_topologies
from repro.core.config import OverlapProblem, OverlapSettings
from repro.gpu.device import device_by_name, known_devices
from repro.gpu.gemm import GemmShape

__all__ = [
    "add_cluster_arguments",
    "add_json_argument",
    "add_multinode_arguments",
    "add_problem_arguments",
    "add_profile_arguments",
    "add_seed_argument",
    "add_smoke_argument",
    "cluster_from_args",
    "command_error",
    "finish_profile",
    "plan_store_line",
    "problem_from_args",
    "profile_scope",
    "settings_from_args",
    "topology_from_args",
    "write_json_report",
]


def add_cluster_arguments(
    parser: argparse.ArgumentParser,
    *,
    device: str = "a800",
    topology: str | None = None,
    gpus: int | None = None,
) -> None:
    """The unified placement flags; defaults vary per subcommand."""
    parser.add_argument("--device", default=device, choices=sorted(known_devices()),
                        help="simulated accelerator")
    parser.add_argument("--topology", default=topology, choices=sorted(known_topologies()),
                        help="simulated server / interconnect"
                             + ("" if topology
                                else " (default: each workload's paper placement)"))
    parser.add_argument("--gpus", type=int, default=gpus,
                        help="GPUs in the collective / tensor-parallel group")
    add_multinode_arguments(parser)


def add_multinode_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=None, metavar="N",
                        help="span the collective across N A800 nodes over InfiniBand "
                             "(overrides --topology/--gpus)")
    parser.add_argument("--gpus-per-node", type=int, default=8,
                        help="GPUs per node when --nodes is given")


def add_seed_argument(parser: argparse.ArgumentParser,
                      help_text: str = "seed of the stochastic model terms") -> None:
    parser.add_argument("--seed", type=int, default=0, help=help_text)


def add_smoke_argument(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument("--smoke", action="store_true", help=help_text)


def add_json_argument(parser: argparse.ArgumentParser,
                      help_text: str = "write the full report to a JSON file") -> None:
    parser.add_argument("--json", type=str, default=None, metavar="PATH", help=help_text)


def add_problem_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags of the single-problem commands (report / tune / compare)."""
    parser.add_argument("--m", type=int, default=4096, help="GEMM M (rows of the output)")
    parser.add_argument("--n", type=int, default=8192, help="GEMM N (columns of the output)")
    parser.add_argument("--k", type=int, default=7168, help="GEMM K (accumulation depth)")
    add_cluster_arguments(parser, device="rtx4090", topology="rtx4090-pcie", gpus=4)
    parser.add_argument("--collective", default="allreduce",
                        choices=["allreduce", "reducescatter", "alltoall"],
                        help="collective following the GEMM")
    parser.add_argument("--imbalance", type=float, default=1.0,
                        help="per-GPU workload skew (>= 1.0, for expert parallelism)")
    add_seed_argument(parser)


def cluster_from_args(args: argparse.Namespace) -> ClusterSpec:
    """The one ClusterSpec every subcommand hands to :mod:`repro.api`."""
    return ClusterSpec(
        device=getattr(args, "device", "a800"),
        topology=args.topology,
        gpus=args.gpus,
        nodes=args.nodes,
        gpus_per_node=args.gpus_per_node,
    )


def topology_from_args(args: argparse.Namespace):
    """Resolution of the single-problem commands: a topology is always concrete.

    Their ``--topology`` / ``--gpus`` defaults are set, so the
    :class:`ClusterSpec` they describe never resolves to ``None``.
    """
    return cluster_from_args(args).resolve()


def problem_from_args(args: argparse.Namespace) -> OverlapProblem:
    return OverlapProblem(
        shape=GemmShape(m=args.m, n=args.n, k=args.k),
        device=device_by_name(args.device),
        topology=topology_from_args(args),
        collective=CollectiveKind.from_name(args.collective),
        imbalance=args.imbalance,
    )


def settings_from_args(args: argparse.Namespace) -> OverlapSettings:
    return OverlapSettings(seed=args.seed)


def command_error(command: str, error: object) -> int:
    """Print a subcommand error to stderr; returns the conventional exit 2."""
    print(f"repro {command}: error: {error}", file=sys.stderr)
    return 2


def write_json_report(report, path: str) -> None:
    """Persist a ReportMixin report; the ``--json`` flag of every subcommand."""
    target = report.save_json(path)
    print(f"report     : {target}")


def add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags of every subcommand."""
    parser.add_argument("--profile", action="store_true",
                        help="print a per-phase wall-time table and a metrics "
                             "snapshot after the run")
    parser.add_argument("--profile-json", type=str, default=None, metavar="PATH",
                        help="write the profile snapshot (spans, phases, metrics) "
                             "to a JSON file; implies instrumentation is on")


@contextlib.contextmanager
def profile_scope(args: argparse.Namespace, command: str):
    """Observability session of one CLI invocation.

    Yields the active :class:`~repro.obs.session.ObsSession` when ``--profile`` or
    ``--profile-json`` was given, else ``None`` (all instrumentation stays
    no-op).  The whole command runs inside a ``repro <command>`` root span.
    When the command body raises, the flight-recorder ring buffer is dumped
    to ``repro-<command>-flight.jsonl`` before the exception propagates, so
    a crashed run leaves a post-mortem artifact.
    """
    wanted = getattr(args, "profile", False) or getattr(args, "profile_json", None)
    if not wanted:
        yield None
        return
    with obs.observe() as session:
        try:
            with obs.span(f"repro {command}"):
                yield session
        except Exception:
            flight_path = f"repro-{command}-flight.jsonl"
            obs.dump_flight(flight_path)
            print(f"repro {command}: flight recorder dumped to {flight_path}",
                  file=sys.stderr)
            raise


def finish_profile(args: argparse.Namespace, session, command: str, report=None) -> None:
    """Snapshot the session; print/write per the ``--profile*`` flags.

    Call right after the ``with profile_scope(...)`` block, so the root span
    is already closed and the snapshot's phase rollup sees its full duration.
    When ``report`` is given the snapshot is attached first, so a later
    ``--json`` write carries the ``observability`` section.
    """
    if session is None:
        return
    snapshot = session.snapshot(command=f"repro {command}")
    if report is not None:
        report.attach_observability(snapshot)
    if getattr(args, "profile", False):
        print()
        print(snapshot.phase_table())
        metrics = snapshot.metrics_table()
        if metrics:
            print()
            print(metrics)
    target = getattr(args, "profile_json", None)
    if target:
        print(f"profile    : {snapshot.save(target)}")


def plan_store_line(stats: dict, no_reuse: bool = False) -> str:
    """The shared plan-store summary line of e2e / pp."""
    return (f"plan store : {stats['size']} plans, {stats['lookups']} lookups, "
            f"{stats['hit_rate'] * 100:.1f}% hits, "
            f"{stats['tuner_invocations']} tuner invocations"
            + (" (reuse disabled)" if no_reuse else ""))
