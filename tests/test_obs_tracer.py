"""Tests for the span tracer: deterministic trees under the FakeClock.

The FakeClock advances by one step per reading, so the exact same code path
always produces the exact same span tree -- the golden test below pins the
tree (and the profile JSON built from it) byte for byte.
"""

import json

from repro import obs
from repro.obs.clock import FakeClock
from repro.obs.recorder import FLIGHT_CAPACITY, FlightRecorder

#: The tree `_traced_run` must produce under FakeClock(start=0, step=1).
#: Ticks in tree order: root opens at 0; a spans [1, 2); b spans [3, 6)
#: around c at [4, 5); root closes at 7.
GOLDEN_TREE = [
    {
        "attrs": {"kind": "test"},
        "children": [
            {"attrs": {}, "children": [], "duration_s": 1.0, "name": "a", "start_s": 1.0},
            {
                "attrs": {"items": 3},
                "children": [
                    {"attrs": {}, "children": [], "duration_s": 1.0, "name": "c", "start_s": 4.0}
                ],
                "duration_s": 3.0,
                "name": "b",
                "start_s": 3.0,
            },
        ],
        "duration_s": 7.0,
        "name": "root",
        "start_s": 0.0,
    }
]


def _traced_run():
    with obs.observe(clock=FakeClock(start=0.0, step=1.0)) as session:
        with obs.span("root", kind="test"):
            with obs.span("a"):
                pass
            with obs.span("b") as b:
                b.note(items=3)
                with obs.span("c"):
                    pass
    return session


class TestGoldenTree:
    def test_span_tree_matches_golden_bytes(self):
        session = _traced_run()
        assert json.dumps(session.tracer.root_dicts(), sort_keys=True) == json.dumps(
            GOLDEN_TREE, sort_keys=True
        )

    def test_snapshot_json_is_byte_stable(self):
        first = _traced_run().snapshot(command="test").to_json()
        second = _traced_run().snapshot(command="test").to_json()
        assert first == second

    def test_phases_are_direct_children_plus_untracked(self):
        snapshot = _traced_run().snapshot()
        assert snapshot.command == "root"
        assert snapshot.total_s == 7.0
        assert snapshot.phases == [
            {"name": "a", "count": 1, "total_s": 1.0},
            {"name": "b", "count": 1, "total_s": 3.0},
            {"name": "(untracked)", "count": 0, "total_s": 3.0},
        ]

    def test_sibling_spans_aggregate_by_name(self):
        with obs.observe(clock=FakeClock()) as session:
            with obs.span("root"):
                for _ in range(3):
                    with obs.span("phase"):
                        pass
        (phase, untracked) = session.snapshot().phases
        assert phase == {"name": "phase", "count": 3, "total_s": 3.0}
        assert untracked["name"] == "(untracked)"


class TestSpanBehaviour:
    def test_disabled_span_is_shared_null_noop(self):
        assert not obs.enabled()
        first = obs.span("anything", ignored=1)
        second = obs.span("other")
        assert first is second  # the shared NULL_SPAN
        with first as active:
            active.note(also_ignored=True)  # must not raise

    def test_failed_span_is_marked(self):
        with obs.observe(clock=FakeClock()) as session:
            try:
                with obs.span("boom"):
                    raise RuntimeError("nope")
            except RuntimeError:
                pass
        (root,) = session.tracer.roots
        assert root.attrs == {"failed": True}

    def test_nested_observe_joins_the_outer_session(self):
        with obs.observe(clock=FakeClock()) as outer:
            with obs.observe() as inner:
                assert inner is outer
                with obs.span("inner-span"):
                    pass
            assert obs.enabled()  # inner exit must not tear the session down
        assert not obs.enabled()
        assert [node.name for node in outer.tracer.roots] == ["inner-span"]

    def test_events_land_in_the_flight_recorder(self):
        with obs.observe(clock=FakeClock()) as session:
            obs.event("tick", detail="x")
        (entry,) = session.recorder.entries()
        assert entry == {"kind": "event", "name": "tick", "time_s": 0.0, "attrs": {"detail": "x"}}

    def test_tracer_truncates_past_max_nodes(self, monkeypatch):
        from repro.obs import tracer as tracer_module

        monkeypatch.setattr(tracer_module, "MAX_NODES", 2)
        tracer = tracer_module.Tracer(FakeClock())
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.roots) == 2


class TestFlightRecorder:
    def test_ring_buffer_keeps_the_newest_entries(self, tmp_path, monkeypatch):
        from repro.obs import recorder as recorder_module

        monkeypatch.setattr(recorder_module, "FLIGHT_CAPACITY", 3)
        recorder = FlightRecorder()
        for tick in range(5):
            recorder.record_event("tick", float(tick), {"n": tick})
        assert len(recorder) == 3
        assert recorder.recorded == 5  # counts past eviction
        assert [entry["attrs"]["n"] for entry in recorder.entries()] == [2, 3, 4]
        lines = recorder.dump_jsonl(tmp_path / "flight.jsonl").read_text().splitlines()
        assert [json.loads(line)["time_s"] for line in lines] == [2.0, 3.0, 4.0]

    def test_session_snapshot_reports_capacity_and_recorded(self):
        with obs.observe(clock=FakeClock()) as session:
            for _ in range(3):
                obs.event("tick")
        recorder = session.snapshot().to_dict()["flight_recorder"]
        assert recorder == {"capacity": FLIGHT_CAPACITY, "recorded": 3}
