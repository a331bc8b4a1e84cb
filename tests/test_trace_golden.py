"""Golden traces: the ASCII timelines and Chrome traces, byte for byte.

``tests/test_pp_golden.py`` and ``tests/test_e2e_golden.py`` pin the
``--json`` payloads, which carry no spans.  The fixtures under
``tests/golden/trace/`` pin the traces themselves:

* ``pp-smoke.txt`` -- ``repro pp --smoke`` stdout (three ASCII timelines);
* ``pp-llama3-training-<schedule>.json`` -- the three Chrome traces of
  ``repro pp --smoke --trace PREFIX``;
* ``e2e-llama3-training.json`` -- the Chrome trace of ``repro e2e --smoke
  --workload llama3-training --trace PREFIX``;
* ``quickstart-timeline.txt`` -- the ASCII timeline ``examples/quickstart.py``
  prints for its operator (``result.trace.render_ascii(width=76)``).

An intentional change to a trace regenerates the fixture with the same
command (each Chrome trace is written as ``PREFIX-<workload name>.json``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent / "golden" / "trace"
WORKLOAD = "Llama3-70B training (TP=8)"


def test_pp_smoke_stdout(capsys):
    assert cli_main(["pp", "--smoke"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "pp-smoke.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("schedule", ["gpipe", "1f1b", "zero-bubble"])
def test_pp_smoke_chrome_trace(capsys, tmp_path, schedule):
    assert cli_main(["pp", "--smoke", "--trace", str(tmp_path / "pp")]) == 0
    capsys.readouterr()
    written = (tmp_path / f"pp-{WORKLOAD}-{schedule}.json").read_bytes()
    assert written == (GOLDEN / f"pp-llama3-training-{schedule}.json").read_bytes()


def test_e2e_smoke_chrome_trace(capsys, tmp_path):
    argv = ["e2e", "--smoke", "--workload", "llama3-training", "--trace", str(tmp_path / "e2e")]
    assert cli_main(argv) == 0
    capsys.readouterr()
    written = (tmp_path / f"e2e-{WORKLOAD}.json").read_bytes()
    assert written == (GOLDEN / "e2e-llama3-training.json").read_bytes()


def test_quickstart_timeline():
    from repro import (
        RTX_4090,
        CollectiveKind,
        FlashOverlapOperator,
        GemmShape,
        OverlapProblem,
        rtx4090_pcie,
    )

    problem = OverlapProblem(
        shape=GemmShape(m=4096, n=8192, k=7168),
        device=RTX_4090,
        topology=rtx4090_pcie(4),
        collective=CollectiveKind.ALL_REDUCE,
    )
    operator = FlashOverlapOperator(problem)
    timeline = operator.simulate(operator.plan()).trace.render_ascii(width=76)
    assert timeline + "\n" == (GOLDEN / "quickstart-timeline.txt").read_text(encoding="utf-8")
