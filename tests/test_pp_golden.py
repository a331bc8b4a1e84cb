"""Golden conformance tests for ``repro pp --smoke --json``.

The committed fixtures under ``tests/golden/pp/`` are the exact JSON reports
of the smoke pipeline run (2 stages, 4 microbatches, 4 layers, all three
schedules) of two workloads -- one training stream (llama3-training) and one
forward-only stream with a synthesized backward (llama3-inference).  Any
change to the latency models, the tuner, the plan store, the schedule
generators or the report schema shows up as a diff here -- intentional
changes must regenerate the fixtures:

    repro pp --smoke --workload <name> --json tests/golden/pp/<name>.json

(once per fixture workload; the README documents the same update path).
Floats are compared with a tight relative tolerance so the fixtures stay
portable across interpreter/numpy builds; everything else must match
exactly.
"""

import itertools
import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core.config import OverlapSettings
from repro.pp import PipelineEstimator
from repro.workloads.pipeline import build_pipeline_workload

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "pp"
WORKLOADS = ("llama3-training", "llama3-inference")
SCHEDULES = ("gpipe", "1f1b", "zero-bubble")


def _assert_matches(expected, actual, path="$"):
    """Recursive diff: exact for structure/ints/strings, tolerant for floats."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected object, got {type(actual).__name__}"
        assert sorted(expected) == sorted(actual), (
            f"{path}: keys differ: {sorted(expected)} vs {sorted(actual)}"
        )
        for key in expected:
            _assert_matches(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(expected) == len(actual), (
            f"{path}: list length {len(expected)} vs {len(actual)}"
        )
        for index, (e, a) in enumerate(zip(expected, actual)):
            _assert_matches(e, a, f"{path}[{index}]")
    elif isinstance(expected, float) and not isinstance(expected, bool):
        assert actual == pytest.approx(expected, rel=1e-6, abs=1e-12), f"{path}: {actual} != {expected}"
    else:
        assert expected == actual, f"{path}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_report_matches_golden(name, tmp_path):
    fixture = GOLDEN_DIR / f"{name}.json"
    assert fixture.exists(), (
        f"missing golden fixture {fixture}; generate it with "
        f"`repro pp --smoke --workload {name} --json {fixture}`"
    )
    out = tmp_path / f"{name}.json"
    assert cli_main(["pp", "--smoke", "--workload", name, "--json", str(out)]) == 0
    _assert_matches(json.loads(fixture.read_text()), json.loads(out.read_text()))


@pytest.mark.parametrize("name", WORKLOADS)
def test_golden_covers_three_schedules_with_decreasing_bubble(name):
    """The fixtures themselves honour the acceptance criterion."""
    payload = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    workload = next(iter(payload["workloads"].values()))
    assert sorted(workload["schedules"]) == sorted(SCHEDULES)
    bubbles = [
        workload["schedules"][schedule]["methods"]["overlap"]["bubble_ratio"]
        for schedule in SCHEDULES
    ]
    assert bubbles[0] > bubbles[1] > bubbles[2], bubbles
    for schedule in SCHEDULES:
        assert workload["schedules"][schedule]["speedup"] > 1.0


def test_bubble_strictly_decreasing_across_grid():
    """GPipe > 1F1B > zero-bubble at 2 and 4 stages x 4 and 8 microbatches.

    One estimator prices the whole grid, so later points reuse its plan store.
    """
    settings = OverlapSettings()
    estimator = PipelineEstimator(settings)
    for stages, microbatches in itertools.product((2, 4), (4, 8)):
        workload = build_pipeline_workload(
            "llama3-training", stages=stages, microbatches=microbatches, layers=4
        )
        schedules = estimator.estimate(workload).schedules
        bubbles = {name: estimate.bubble_ratio for name, estimate in schedules.items()}
        assert bubbles["gpipe"] > bubbles["1f1b"] > bubbles["zero-bubble"], (
            stages, microbatches, bubbles,
        )
    assert estimator.plan_store.stats()["hit_rate"] > 0


def test_smoke_default_run(tmp_path, capsys):
    """The acceptance-criteria run: `repro pp --smoke` (llama3-training)."""
    out = tmp_path / "pp.json"
    assert cli_main(["pp", "--smoke", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["meta"] == {
        "workloads": ["llama3-training"],
        "stages": 2,
        "microbatches": 4,
        "schedules": list(SCHEDULES),
        "tokens": None,
        "layers": 4,
        "device": "A800",
        "seed": 0,
        "reuse": True,
        "smoke": True,
    }
    workload = next(iter(report["workloads"].values()))
    bubbles = [
        workload["schedules"][schedule]["methods"]["overlap"]["bubble_ratio"]
        for schedule in SCHEDULES
    ]
    assert bubbles[0] > bubbles[1] > bubbles[2], bubbles
    assert report["plan_store"]["hit_rate"] > 0
    printed = capsys.readouterr().out
    assert "bubble" in printed and "timeline" in printed and "plan store" in printed


def test_cli_s1m1_e2e_block_is_bit_identical_to_repro_e2e(tmp_path):
    """`repro pp --stages 1 --microbatches 1` embeds the exact e2e report."""
    pp_out = tmp_path / "pp.json"
    e2e_out = tmp_path / "e2e.json"
    args = ["--workload", "llama3-training", "--layers", "2"]
    assert cli_main(["pp", "--stages", "1", "--microbatches", "1", *args,
                     "--json", str(pp_out)]) == 0
    assert cli_main(["e2e", *args, "--json", str(e2e_out)]) == 0
    pp_report = json.loads(pp_out.read_text())
    e2e_report = json.loads(e2e_out.read_text())
    (pp_workload,) = pp_report["workloads"].values()
    (e2e_workload,) = e2e_report["workloads"].values()
    # Totals (and the whole embedded report) are bit-identical: same code
    # path, same plan store, same fresh hit/miss sequence.
    assert pp_workload["e2e"] == e2e_workload
