"""Export simulated timelines to the Chrome trace-event format.

The JSON produced here can be loaded into ``chrome://tracing`` / Perfetto to
inspect a simulated overlap schedule the same way one would inspect an Nsight
capture of the real system: one row per stream, one slice per kernel, instant
events for signals.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.gpu.kernels import KernelCategory
from repro.sim.trace import Trace

#: Chrome trace colour names per kernel category.
_CATEGORY_COLORS = {
    KernelCategory.GEMM: "thread_state_running",
    KernelCategory.COMMUNICATION: "rail_response",
    KernelCategory.SIGNAL: "vsync_highlight_color",
    KernelCategory.ELEMENTWISE: "thread_state_runnable",
    KernelCategory.REORDER: "thread_state_iowait",
    KernelCategory.OTHER: "generic_work",
}


def trace_to_chrome_events(trace: Trace, process_name: str = "simulated-gpu") -> list[dict]:
    """Convert a :class:`Trace` into a list of Chrome trace-event dicts.

    Durations are emitted in microseconds (the Chrome trace unit).  Streams
    become threads of a single process; zero-duration spans become instant
    events.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    stream_ids = {stream: index for index, stream in enumerate(trace.streams())}
    for stream, tid in stream_ids.items():
        events.append(
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid, "args": {"name": stream}}
        )
    for stream, name, start, end, category in trace.rows():
        tid = stream_ids[stream]
        start_us = start * 1e6
        duration = end - start
        if duration == 0.0:
            events.append(
                {
                    "name": name,
                    "ph": "i",
                    "s": "t",
                    "pid": 0,
                    "tid": tid,
                    "ts": start_us,
                    "cat": category.value,
                }
            )
            continue
        events.append(
            {
                "name": name,
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "ts": start_us,
                "dur": duration * 1e6,
                "cat": category.value,
                "cname": _CATEGORY_COLORS.get(category, "generic_work"),
            }
        )
    return events


def obs_spans_to_chrome_events(spans: list[dict]) -> list[dict]:
    """Convert :mod:`repro.obs` span dicts into Chrome trace events.

    The span forest lands in its own ``observability`` process (``pid=1``, so
    it never collides with the simulated-GPU process at ``pid=0``) with one
    thread per nesting depth -- the slices then stack in the viewer the way
    the spans nested at runtime.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "observability"},
        }
    ]
    max_depth = 0

    def visit(node: dict, depth: int) -> None:
        nonlocal max_depth
        max_depth = max(max_depth, depth)
        events.append(
            {
                "name": node["name"],
                "ph": "X",
                "pid": 1,
                "tid": depth,
                "ts": node["start_s"] * 1e6,
                "dur": node["duration_s"] * 1e6,
                "cat": "obs",
                "args": node.get("attrs", {}),
            }
        )
        for child in node.get("children", ()):
            visit(child, depth + 1)

    for root in spans:
        visit(root, 0)
    for depth in range(max_depth + 1):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": depth,
                "args": {"name": f"spans (depth {depth})"},
            }
        )
    return events


def export_chrome_trace(
    trace: Trace,
    path: str | Path,
    process_name: str = "simulated-gpu",
    obs_spans: list[dict] | None = None,
) -> Path:
    """Write a Chrome trace JSON file and return its path.

    ``obs_spans`` (the ``spans`` list of a profile snapshot) lands in the
    same file on a separate ``observability`` process track, so simulated
    events and profiling spans can be inspected side by side.
    """
    from repro.atomic import atomic_write_text

    events = trace_to_chrome_events(trace, process_name)
    if obs_spans:
        events.extend(obs_spans_to_chrome_events(obs_spans))
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    return atomic_write_text(path, json.dumps(payload, indent=2))
