"""Tests for the latency predictor (repro.core.predictor, Alg. 1)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from oracles.predictor import group_bytes, group_comm_times, timeline
from repro.core.executor import OverlapExecutor
from repro.core.predictor import LatencyPredictor, OfflineProfile
from repro.core.tuner import PredictiveTuner
from repro.core.wave_grouping import WavePartition


@pytest.fixture
def profile(paper_problem_4090, fast_settings):
    return OfflineProfile.build(paper_problem_4090, fast_settings)


@pytest.fixture
def predictor(profile, paper_problem_4090):
    return LatencyPredictor(profile, total_bytes=paper_problem_4090.output_bytes())


class TestOfflineProfile:
    def test_wave_count_uses_contended_sms(self, profile, paper_problem_4090):
        gemm = paper_problem_4090.gemm_model()
        assert profile.num_waves == gemm.num_waves(paper_problem_4090.compute_sm_count())
        assert profile.num_waves >= gemm.num_waves()  # fewer SMs -> at least as many waves

    def test_wave_time_positive(self, profile):
        assert profile.wave_time > 0
        assert profile.wave_bytes > 0

    def test_comm_model_uses_sampled_curve(self, profile):
        from repro.comm.bandwidth import SampledBandwidthCurve

        assert isinstance(profile.comm_model.curve, SampledBandwidthCurve)

    def test_building_a_profile_does_not_load_numpy_ma(self):
        # Every sweep worker and CLI call builds a profile; numpy.ma (which
        # np.unique imports) would add about 10 ms to each fresh process.
        code = (
            "import sys\n"
            "from repro.comm.primitives import CollectiveKind\n"
            "from repro.comm.topology import rtx4090_pcie\n"
            "from repro.core.config import OverlapProblem\n"
            "from repro.core.predictor import OfflineProfile\n"
            "from repro.gpu.device import RTX_4090\n"
            "from repro.gpu.gemm import GemmShape\n"
            "OfflineProfile.build(OverlapProblem(shape=GemmShape(m=2048, n=8192, k=8192),\n"
            "    device=RTX_4090, topology=rtx4090_pcie(4), collective=CollectiveKind.ALL_REDUCE))\n"
            "print(sorted(name for name in ('numpy.ma', 'numpy.random') if name in sys.modules))\n"
        )
        paths = [str(Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        # The default profiling noise draws from numpy.random; numpy.ma stays out.
        assert done.stdout.strip() == "['numpy.random']"


class TestPrediction:
    def test_group_bytes_respect_total(self, predictor, paper_problem_4090):
        for partition in (
            WavePartition.single_group(predictor.profile.num_waves),
            WavePartition.equal_groups(predictor.profile.num_waves, 3),
        ):
            payloads = group_bytes(predictor, partition)
            assert payloads.sum() <= predictor.profile.num_waves * predictor.profile.wave_bytes + 1
            assert payloads.sum() >= paper_problem_4090.output_bytes() * 0.99
            assert np.all(payloads >= 0)

    def test_timeline_is_causal(self, predictor):
        partition = WavePartition.equal_groups(predictor.profile.num_waves, 2)
        predicted = timeline(predictor, partition)
        assert np.all(predicted.comm_start >= predicted.compute_end - 1e-12)
        assert np.all(np.diff(predicted.comm_end) > 0)
        assert predicted.latency == predicted.comm_end[-1] == predictor.predict(partition)

    def test_some_partition_beats_non_overlap(self, predictor, fast_settings):
        candidates = PredictiveTuner(fast_settings).candidates(predictor.profile.num_waves)
        best = predictor.predict_batch(candidates).min()
        assert best < predictor.predict_non_overlap()

    def test_single_group_close_to_non_overlap(self, predictor):
        single = predictor.predict(WavePartition.single_group(predictor.profile.num_waves))
        non_overlap = predictor.predict_non_overlap()
        # The single-group plan pays SM contention but hides nothing; it should
        # sit near (and not far below) the sequential prediction.
        assert single >= non_overlap * 0.95
        assert single <= non_overlap * 1.3

    def test_wave_count_mismatch_rejected(self, predictor):
        with pytest.raises(ValueError):
            predictor.predict(WavePartition((1, 1)))

    def test_imbalance_increases_prediction(self, paper_problem_4090, fast_settings):
        from dataclasses import replace

        balanced = OfflineProfile.build(paper_problem_4090, fast_settings)
        skewed = replace(balanced, imbalance=1.4)
        partition = WavePartition.equal_groups(balanced.num_waves, 2)
        total = paper_problem_4090.output_bytes()
        assert (LatencyPredictor(skewed, total).predict(partition)
                > LatencyPredictor(balanced, total).predict(partition))

    def test_fragmentation_penalty_visible(self, predictor):
        # Per-wave signaling pays more per-call setup than a 4-wave grouping:
        # total communication time (ignoring overlap) is larger.
        waves = predictor.profile.num_waves
        per_wave = group_comm_times(predictor, WavePartition.per_wave(waves))
        grouped = group_comm_times(predictor, WavePartition.equal_groups(waves, 4))
        assert per_wave.sum() > grouped.sum()


class TestPredictionAccuracy:
    def test_prediction_tracks_simulation(self, paper_problem_4090, fast_settings):
        """Claim C2 backbone: the predictor errs by a few percent and always
        on the optimistic side (the executor adds real overheads)."""
        executor = OverlapExecutor(paper_problem_4090, fast_settings)
        profile = OfflineProfile.build(paper_problem_4090, fast_settings)
        predictor = LatencyPredictor(profile, total_bytes=paper_problem_4090.output_bytes())
        errors = []
        for group_size in (1, 2, 3, 4, 6):
            partition = WavePartition.equal_groups(executor.num_waves(), group_size)
            predicted = predictor.predict(partition)
            actual = executor.simulate(partition).latency
            errors.append(abs(actual - predicted) / actual)
            assert actual >= predicted * 0.98
        assert float(np.mean(errors)) < 0.10

    def test_prediction_ranks_partitions_consistently(self, paper_problem_4090, fast_settings):
        executor = OverlapExecutor(paper_problem_4090, fast_settings)
        profile = OfflineProfile.build(paper_problem_4090, fast_settings)
        predictor = LatencyPredictor(profile, total_bytes=paper_problem_4090.output_bytes())
        waves = executor.num_waves()
        partitions = [WavePartition.equal_groups(waves, g) for g in (1, 4, waves)]
        predicted = [predictor.predict(p) for p in partitions]
        actual = [executor.simulate(p).latency for p in partitions]
        assert np.argsort(predicted).tolist() == np.argsort(actual).tolist()
