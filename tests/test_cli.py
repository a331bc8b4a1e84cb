"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import main


class TestReportCommand:
    def test_report_prints_speedup(self, capsys):
        code = main([
            "report", "--m", "2048", "--n", "8192", "--k", "8192",
            "--device", "rtx4090", "--topology", "rtx4090-pcie",
            "--gpus", "4", "--collective", "allreduce",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "speedup" in out and "tuned partition" in out
        assert "RTX 4090" in out

    def test_report_a800_reducescatter(self, capsys):
        code = main([
            "report", "--m", "16384", "--n", "8192", "--k", "2048",
            "--device", "a800", "--topology", "a800-nvlink",
            "--gpus", "8", "--collective", "reducescatter",
        ])
        assert code == 0
        assert "FlashOverlap" in capsys.readouterr().out


class TestTuneCommand:
    def test_tune_prints_partition(self, capsys):
        code = main([
            "tune", "--m", "4096", "--n", "8192", "--k", "7168",
            "--device", "rtx4090", "--topology", "rtx4090-pcie",
            "--gpus", "4", "--collective", "allreduce",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "partition" in out and "candidates" in out

    def test_tune_with_cache_round_trip(self, capsys, tmp_path):
        cache_file = tmp_path / "cache.json"
        args = [
            "tune", "--m", "4096", "--n", "8192", "--k", "7168",
            "--device", "rtx4090", "--topology", "rtx4090-pcie",
            "--gpus", "4", "--collective", "allreduce",
            "--cache", str(cache_file),
        ]
        assert main(args) == 0
        assert cache_file.exists()
        first = capsys.readouterr().out
        # Second invocation reuses the cached entry (same partition printed).
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "1 entries" in second or "1 entr" in second
        partition_line = [l for l in first.splitlines() if l.startswith("partition")][0]
        assert partition_line in second

    def test_tune_prints_the_mode_report_prices(self, capsys):
        """The tuner predicts overlap here, but the simulation falls back."""
        problem = ["--m", "512", "--n", "6144", "--k", "3072", "--device", "a800",
                   "--topology", "a800-nvlink", "--gpus", "4"]
        modes = []
        for command in ("tune", "report"):
            assert main([command, *problem]) == 0
            out = capsys.readouterr().out
            modes.append([line for line in out.splitlines() if line.startswith("mode")])
        assert modes[0] == modes[1] == ["mode              : sequential fallback"]

    def test_tune_cache_keeps_the_tuners_own_pick(self, capsys, tmp_path):
        """The priced mode is printed; the cache file stores what the tuner chose."""
        import json

        cache_file = tmp_path / "cache.json"
        assert main(["tune", "--m", "512", "--n", "6144", "--k", "3072", "--device", "a800",
                     "--topology", "a800-nvlink", "--gpus", "4",
                     "--cache", str(cache_file)]) == 0
        assert "mode              : sequential fallback" in capsys.readouterr().out
        (entry,) = json.loads(cache_file.read_text())
        assert entry["shape"] == {"m": 512, "n": 6144, "k": 3072}
        assert entry["result"]["use_overlap"] is True


class TestCompareCommand:
    def test_compare_lists_baselines(self, capsys):
        code = main([
            "compare", "--m", "16384", "--n", "8192", "--k", "4096",
            "--device", "a800", "--topology", "a800-nvlink",
            "--gpus", "4", "--collective", "reducescatter",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "flashoverlap" in out
        assert "vanilla-decomposition" in out
        assert "best method" in out


class TestVerifyCommand:
    @pytest.mark.parametrize("collective", ["allreduce", "reducescatter", "alltoall"])
    def test_verify_all_primitives(self, capsys, collective):
        code = main(["verify", "--collective", collective, "--gpus", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all close" in out
        assert "tiny-pcie" in out  # the default topology preset

    def test_verify_honors_topology(self, capsys):
        code = main(["verify", "--collective", "allreduce", "--gpus", "4",
                     "--topology", "a800-nvlink"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all close" in out and "a800-nvlink" in out

    def test_verify_multinode(self, capsys):
        code = main(["verify", "--collective", "allreduce",
                     "--nodes", "2", "--gpus-per-node", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all close" in out and "4 simulated GPUs" in out and "2node" in out


class TestMultinodeKnobs:
    def test_report_routes_through_multinode_a800(self, capsys):
        code = main([
            "report", "--m", "1024", "--n", "4096", "--k", "4096",
            "--device", "a800", "--nodes", "2", "--gpus-per-node", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "8x A800" in out and "a800-2node-ib" in out

    def test_tune_accepts_nodes(self, capsys):
        code = main([
            "tune", "--m", "1024", "--n", "4096", "--k", "4096",
            "--device", "a800", "--nodes", "2", "--gpus-per-node", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "a800-2node-ib" in out

    #: Single-problem commands: shape flags, default placement, placement line.
    SINGLE_PROBLEM = [
        ("report", ["--m", "1024", "--n", "4096", "--k", "4096"], ("rtx4090-pcie", 4),
         "on {n}x RTX 4090 ({name})"),
        ("tune", ["--m", "1024", "--n", "4096", "--k", "4096"], ("rtx4090-pcie", 4),
         "on {n}x RTX 4090 ({name})"),
        ("compare", ["--m", "1024", "--n", "4096", "--k", "4096"], ("rtx4090-pcie", 4),
         "on {n}x RTX 4090 ({name})"),
        ("verify", [], ("tiny-pcie", 4), "on {n} simulated GPUs ({name})"),
    ]

    @pytest.mark.parametrize("nodes", [0, 1, 2], ids=lambda nodes: f"nodes{nodes}")
    @pytest.mark.parametrize(("command", "shape", "defaults", "placement"), SINGLE_PROBLEM,
                             ids=[row[0] for row in SINGLE_PROBLEM])
    def test_nodes_resolve_through_the_cluster_spec(
        self, capsys, command, shape, defaults, placement, nodes
    ):
        """Every subcommand reads --nodes the way ClusterSpec does."""
        from repro.cluster import ClusterSpec

        code = main([command, *shape, "--nodes", str(nodes)])
        captured = capsys.readouterr()
        if nodes == 0:
            assert code == 2
            assert captured.err.strip() == f"repro {command}: error: nodes must be >= 1"
            return
        topology, gpus = defaults
        expected = ClusterSpec(topology=topology, gpus=gpus, nodes=nodes).resolve()
        assert code == 0
        assert placement.format(n=expected.n_gpus, name=expected.name) in captured.out


class TestSweepCommand:
    def test_list_presets(self, capsys):
        assert main(["sweep", "--list-presets"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "llm-inference" in out

    def test_sweep_smoke_preset_happy_path(self, capsys, tmp_path):
        out_path = tmp_path / "results.jsonl"
        cache_path = tmp_path / "shapes.json"
        code = main([
            "sweep", "--preset", "smoke", "--workers", "1",
            "--out", str(out_path), "--cache", str(cache_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out_path.exists()
        assert cache_path.exists()
        assert "per-scenario results" in out
        assert "per-group summary" in out
        assert "12/12 jobs executed" in out

    def test_sweep_resume_executes_nothing(self, capsys, tmp_path):
        out_path = tmp_path / "results.jsonl"
        args = ["sweep", "--preset", "smoke", "--workers", "2", "--out", str(out_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main([*args, "--resume"]) == 0
        assert "0/12 jobs executed (12 resumed" in capsys.readouterr().out

    def test_sweep_from_config_file(self, capsys, tmp_path):
        import json

        config = {
            "name": "from-config",
            "workload": "from-config",
            "shapes": [[512, 1024, 1024]],
            "platforms": [["rtx4090", "rtx4090-pcie", 4]],
            "collectives": ["allreduce"],
        }
        config_path = tmp_path / "matrix.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code = main([
            "sweep", "--config", str(config_path), "--out", str(tmp_path / "r.jsonl"),
        ])
        assert code == 0
        assert "from-config: 1/1 jobs executed" in capsys.readouterr().out

    def test_sweep_requires_a_source(self):
        with pytest.raises(SystemExit):
            main(["sweep"])


class TestServeCommand:
    def test_serve_smoke_reports_and_beats_baseline(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "serve.json"
        code = main(["serve", "--smoke", "--json", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        for marker in ("TTFT", "TPOT", "throughput", "goodput", "plan cache", "baseline"):
            assert marker in out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        overlap, baseline = report["overlap"], report["non-overlap"]
        cache = overlap["plan_cache"]
        assert cache["tuner_invocations"] < overlap["iterations"]
        assert cache["hits"] > cache["misses"]
        assert (overlap["metrics"]["e2e_latency"]["mean"]
                < baseline["metrics"]["e2e_latency"]["mean"])

    def test_serve_smoke_is_deterministic(self, capsys, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["serve", "--smoke", "--json", str(first)]) == 0
        assert main(["serve", "--smoke", "--json", str(second)]) == 0
        capsys.readouterr()
        assert first.read_text(encoding="utf-8") == second.read_text(encoding="utf-8")

    def test_serve_trace_input(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        records = [
            {"arrival_time": 0.0, "prompt_tokens": 64, "output_tokens": 4},
            {"arrival_time": 0.01, "prompt_tokens": 128, "output_tokens": 8},
        ]
        trace.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        code = main(["serve", "--trace", str(trace), "--workload", "llama2-7b",
                     "--layers", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 requests" in out

    def test_serve_duration_is_not_capped_by_default_requests(self, capsys):
        # 200 req/s over 0.5s produces ~100 requests: well past the 64-request
        # default, which must not apply when --duration bounds the traffic.
        code = main(["serve", "--duration", "0.5", "--rate", "200",
                     "--workload", "llama2-7b", "--layers", "1"])
        out = capsys.readouterr().out
        assert code == 0
        n_requests = int(out.split("traffic    : ")[1].split(" requests")[0])
        assert n_requests > 64

    def test_serve_smoke_respects_explicit_flags(self, capsys):
        code = main(["serve", "--smoke", "--workload", "llama3-70b", "--requests", "4",
                     "--layers", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Llama3-70B (1 layers" in out  # explicit flags win over the preset
        assert "4 requests" in out
        assert "summarize" in out  # unset flags still take the smoke defaults

    def test_serve_warm_cache_round_trip(self, capsys, tmp_path):
        warm = tmp_path / "warm.json"
        args = ["serve", "--smoke", "--warm-cache", str(warm)]
        assert main(args) == 0
        assert warm.exists()
        first = capsys.readouterr().out
        assert ", 0 tuner invocations)" not in first
        # The second run warm-starts every bucket from the persisted shape
        # cache, so the tuner is never invoked.
        assert main(args) == 0
        assert ", 0 tuner invocations)" in capsys.readouterr().out

    def test_serve_reports_arms_that_complete_no_request(self, capsys, tmp_path):
        import json

        # A valid deadline under which every request times out: both arms
        # complete nothing, so the baseline's latency ratios are undefined.
        report_path = tmp_path / "dl.json"
        code = main(["serve", "--smoke", "--deadline", "1e-9", "--json", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "overlapped (n/a), TTFT p99 n/a, makespan " in out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        offered = report["meta"]["requests"]
        for arm in ("overlap", "non-overlap"):
            assert report[arm]["metrics"]["requests_completed"] == 0
            outcomes = [failure["outcome"] for failure in report[arm]["failures"]]
            assert outcomes == ["timed-out"] * offered


def _thread_events(path) -> dict[str, list[tuple]]:
    """The ``X`` events of a Chrome trace file per thread, keyed by thread name."""
    import json

    events = json.loads(path.read_text(encoding="utf-8"))["traceEvents"]
    names = {e["tid"]: e["args"]["name"] for e in events if e["name"] == "thread_name"}
    threads: dict[str, list[tuple]] = {name: [] for name in names.values()}
    for e in events:
        if e["ph"] == "X":
            threads[names[e["tid"]]].append((e["name"], e["ts"], e["dur"]))
    return threads


def _stream_spans(trace) -> dict[str, list[tuple]]:
    """A trace's spans per stream, as the Chrome export writes them."""
    spans: dict[str, list[tuple]] = {stream: [] for stream in trace.streams()}
    for s in trace.spans:
        spans[s.stream].append((s.name, s.start * 1e6, s.duration * 1e6))
    return spans


class TestPipelineCommand:
    def test_pp_trace_export_lists_the_oracle_spans(self, capsys, tmp_path):
        """`repro pp --smoke --trace` writes one Chrome trace per schedule.

        Each trace holds the FlashOverlap arm's cells as ``X`` events, one
        thread per stage, and each thread lists the event-by-event oracle's
        spans on that stage in order.
        """
        from oracles.replay import replay_reference
        from repro.api import PP_SMOKE
        from repro.cluster import ClusterSpec
        from repro.core.config import OverlapSettings
        from repro.e2e.estimator import EndToEndEstimator
        from repro.pp.pricing import price_pipeline
        from repro.pp.schedule import KNOWN_SCHEDULES, generate_schedule
        from repro.workloads.pipeline import build_pipeline_workload

        assert main(["pp", "--smoke", "--trace", str(tmp_path / "t")]) == 0
        capsys.readouterr()
        settings = OverlapSettings()
        cluster = ClusterSpec()
        (name,) = PP_SMOKE["workloads"]
        workload = build_pipeline_workload(
            name, stages=PP_SMOKE["stages"], microbatches=PP_SMOKE["microbatches"],
            layers=PP_SMOKE["layers"], device=cluster.device_spec,
            topology=cluster.resolve(),
        )
        costs = price_pipeline(workload, EndToEndEstimator(settings))
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == sorted(f"t-{workload.name}-{schedule}.json" for schedule in KNOWN_SCHEDULES)
        for schedule_name in KNOWN_SCHEDULES:
            schedule = generate_schedule(
                schedule_name, costs.vectors["overlap"], workload.microbatches,
                fwd_delay=costs.fwd_delay, bwd_delay=costs.bwd_delay,
            )
            threads = _thread_events(tmp_path / f"t-{workload.name}-{schedule_name}.json")
            assert list(threads) == [f"stage{stage}" for stage in range(PP_SMOKE["stages"])]
            assert threads == _stream_spans(replay_reference(schedule).trace)
            assert sum(map(len, threads.values())) == schedule.num_cells


class TestTraceWriters:
    """`repro e2e --trace` and `repro plan --trace` write what their producers recorded."""

    def test_e2e_writes_each_workload_estimate_trace(self, capsys, tmp_path):
        import repro.api as api

        assert main(["e2e", "--smoke", "--trace", str(tmp_path / "e")]) == 0
        capsys.readouterr()
        estimates = api.estimate(smoke=True, record_trace=True).estimates
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == sorted(f"e-{estimate.name}.json" for estimate in estimates)
        for estimate in estimates:
            threads = _thread_events(tmp_path / f"e-{estimate.name}.json")
            assert threads == _stream_spans(estimate.trace)
            assert list(threads) == estimate.trace.streams()

    def test_plan_writes_the_winner_replay_trace(self, capsys, tmp_path):
        import repro.api as api
        from repro.plan import replay_plan

        assert main(["plan", "--smoke", "--trace", str(tmp_path / "p")]) == 0
        capsys.readouterr()
        winner = api.plan(smoke=True).winner
        replay = replay_plan(winner, record_trace=True)
        trace = replay.estimates[0].schedules[winner.schedule].trace
        path = tmp_path / f"p-{winner.workload}-winner.json"
        assert sorted(tmp_path.iterdir()) == [path]
        threads = _thread_events(path)
        assert threads == _stream_spans(trace)
        assert list(threads) == [f"stage{stage}" for stage in range(winner.stages)]


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_device_rejected(self):
        with pytest.raises(SystemExit):
            main(["report", "--device", "tpu-v9"])


class TestCleanErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["e2e", "--smoke", "--tokens", "0"], "tokens must be >= 1"),
            (["e2e", "--smoke", "--tokens", "-3"], "tokens must be >= 1"),
            (["e2e", "--smoke", "--layers", "0"], "layers must be >= 1"),
            (["pp", "--smoke", "--stages", "0"], "stages must be >= 1"),
            (["tune", "--m", "0"], "GEMM dims must be positive"),
            (["report", "--m", "0"], "GEMM dims must be positive"),
            (["compare", "--m", "0"], "GEMM dims must be positive"),
            (["serve", "--smoke", "--failover-delay", "-1"],
             "failover_delay must be finite and non-negative, got -1.0"),
            (["serve", "--smoke", "--failover-delay", "nan"],
             "failover_delay must be finite and non-negative, got nan"),
            (["serve", "--smoke", "--failover-delay", "inf"],
             "failover_delay must be finite and non-negative, got inf"),
            (["serve", "--smoke", "--rate", "nan"], "rate_rps must be finite and positive, got nan"),
            (["serve", "--smoke", "--rate", "inf"], "rate_rps must be finite and positive, got inf"),
            (["serve", "--smoke", "--deadline", "nan"],
             "deadline_s must be finite and positive when set, got nan"),
            (["serve", "--smoke", "--slo-ttft", "nan"], "SLO ttft_s must be finite and positive, got nan"),
            (["serve", "--smoke", "--slo-tpot", "inf"], "SLO tpot_s must be finite and positive, got inf"),
            (["serve", "--smoke", "--retry-policy", "backoff=nan"],
             "backoff_s must be finite and non-negative, got nan"),
            (["sweep", "--preset", "nope"], "unknown sweep preset 'nope'; known: ["),
            (["pp", "--smoke", "--tokens", "-5"], "tokens must be >= 1"),
            (["plan", "--smoke", "--tokens", "0"], "tokens must be >= 1"),
            (["tune", "--imbalance", "nan"], "imbalance must be finite and >= 1.0, got nan"),
            (["report", "--imbalance", "inf"], "imbalance must be finite and >= 1.0, got inf"),
            (["compare", "--imbalance", "nan"], "imbalance must be finite and >= 1.0, got nan"),
            (["plan", "--smoke", "--deadline", "nan"], "the deadline must be finite, got nan"),
            (["plan", "--smoke", "--deadline", "inf"], "the deadline must be finite, got inf"),
            (["sweep", "--preset", "smoke", "--heartbeat", "nan"],
             "heartbeat_s must be finite and non-negative, got nan"),
            (["sweep", "--preset", "smoke", "--heartbeat", "inf"],
             "heartbeat_s must be finite and non-negative, got inf"),
        ],
    )
    def test_invalid_input_exits_2_without_traceback(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: error: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "override,message",
        [
            ('{"signal_poll_us": NaN}', "signal_poll_us must be finite, got nan"),
            ('{"comm_launch_us": Infinity}', "comm_launch_us must be finite, got inf"),
            ('{"seed": Infinity}', "seed must be finite, got inf"),
            ('{"signal_poll_us": -1}', "overheads must be non-negative"),
            ('{"max_exhaustive_waves": 40}', "max_exhaustive_waves must be in 1..16, got 40"),
            ('{"bandwidth_samples_per_decade": 0}',
             "bandwidth_samples_per_decade must be in 1..1000, got 0"),
            ('{"bandwidth_samples_per_decade": -5}',
             "bandwidth_samples_per_decade must be in 1..1000, got -5"),
        ],
    )
    def test_invalid_settings_override_exits_2_before_any_record(
        self, capsys, tmp_path, override, message
    ):
        config = tmp_path / "matrix.json"
        config.write_text(
            '{"name": "non-finite", "shapes": [[512, 1024, 1024]], '
            '"platforms": [["a800", "a800-nvlink", 4]], "collectives": ["allreduce"], '
            f'"settings_grid": [{override}]}}',
            encoding="utf-8",
        )
        out = tmp_path / "r.jsonl"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"repro sweep: error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis,message",
        [
            ({"imbalances": [float("nan")]}, "imbalance must be finite and >= 1.0, got nan"),
            ({"platforms": [["nope", "a800-nvlink", 4]]}, "unknown device 'nope'"),
            ({"platforms": [["a800", "nope-net", 4]]}, "unknown topology 'nope-net'"),
            ({"collectives": ["broadcast"]}, "unknown collective 'broadcast'"),
        ],
        ids=["nan-imbalance", "unknown-device", "unknown-topology", "unknown-collective"],
    )
    def test_invalid_matrix_axis_exits_2_before_any_record(self, capsys, tmp_path, axis, message):
        config = tmp_path / "matrix.json"
        matrix = {"name": "bad-axis", "shapes": [[512, 1024, 1024]],
                  "platforms": [["a800", "a800-nvlink", 4]], "collectives": ["allreduce"]}
        config.write_text(json.dumps({**matrix, **axis}), encoding="utf-8")
        out = tmp_path / "r.jsonl"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro sweep: error: ") and message in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("arrival", ["NaN", "Infinity", '"nan"', '"-inf"', "-1.0"])
    def test_trace_arrival_that_is_not_finite_and_non_negative_exits_2(
        self, capsys, tmp_path, arrival
    ):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            '{"arrival_time": 0.0, "prompt_tokens": 8, "output_tokens": 4}\n'
            f'{{"arrival_time": {arrival}, "prompt_tokens": 8, "output_tokens": 4}}\n',
            encoding="utf-8",
        )
        assert main(["serve", "--smoke", "--trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert "repro serve: error: arrival_time must be finite and non-negative, got " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--trace", "--faults"])
    def test_missing_serve_input_file_exits_2(self, capsys, tmp_path, flag):
        missing = tmp_path / "missing.json"
        assert main(["serve", "--smoke", flag, str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve: error: ")
        assert str(missing) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,content,message",
        [
            (["tune", "--cache"], '[{"shape": {"m": 1}}]', "KeyError: 'n'"),
            (["serve", "--smoke", "--warm-cache"], '[{"shape": {"m": 1}}]', "KeyError: 'n'"),
            (["sweep", "--preset", "smoke", "--cache"], '[{"shape": {"m": 1}}]', "KeyError: 'n'"),
            (["pp", "--plan"], "[1]", "AttributeError: "),
            (["pp", "--plan"], '{"a": 1}', "KeyError: 'workload'"),
            (["pp", "--plan"], "{not json", "JSONDecodeError: "),
            (["serve", "--smoke", "--faults"], "[1]", "AttributeError: "),
            (["serve", "--smoke", "--trace"], "[1]", "TypeError: "),
            (["serve", "--smoke", "--trace"], '{"prompt_tokens": 8, "output_tokens": 4}',
             "KeyError: 'arrival_time'"),
            (["serve", "--smoke", "--trace"], "{not json", "JSONDecodeError: "),
            (["sweep", "--preset", "smoke", "--plan-store"], "[1]", "AttributeError: "),
            (["sweep", "--config"], "[1]", "TypeError: "),
        ],
    )
    def test_malformed_artifact_file_exits_2(self, capsys, tmp_path, argv, content, message):
        path = tmp_path / "artifact.json"
        path.write_text(content, encoding="utf-8")
        extra = ["--out", str(tmp_path / "r.jsonl")] if argv[0] == "sweep" else []
        assert main([*argv, str(path), *extra]) == 2
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: error: malformed {path}: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["pp", "serve"])
    def test_no_reference_loop_flag(self, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--smoke", "--no-fast"])
        assert excinfo.value.code == 2
