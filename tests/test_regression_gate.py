"""Deterministic tests of the variance-gated regression logic.

Every sample here is injected by hand — no timers, no benchmarks, no
wall clock — so pass/fail boundaries are exact and the suite runs in
milliseconds inside tier-1.  Covers the pure gate functions
(:func:`gate_speedup`, :func:`gate_regression`), the pairwise speedup
construction, the :class:`RegressionGate` wrapper over
:class:`Distribution` records, the :class:`BenchHistory` baseline
round-trip, and a chaos case where baseline and candidate
distributions overlap.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.bench import (
    BenchHistory,
    Distribution,
    GateVerdict,
    RegressionGate,
    distinguishable,
    gate_regression,
    gate_speedup,
    speedup_samples,
)


class TestSpeedupSamples:
    def test_all_pairwise_ratios(self):
        ratios = speedup_samples([10.0, 20.0], [2.0, 5.0])
        assert sorted(ratios) == [2.0, 4.0, 5.0, 10.0]
        assert len(ratios) == 4

    def test_zero_candidate_clamped_to_smallest_positive(self):
        ratios = speedup_samples([10.0], [0.0, 2.0])
        assert sorted(ratios) == [5.0, 5.0]

    def test_all_zero_candidate_is_infinite(self):
        assert speedup_samples([1.0], [0.0, 0.0]) == (float("inf"),)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            speedup_samples([], [1.0])
        with pytest.raises(ValueError):
            speedup_samples([1.0], [])


class TestGateSpeedup:
    def test_exact_boundary_fails(self):
        """Sitting exactly on the floor fails: the gate is strictly >."""
        verdict = gate_speedup([2.0, 2.0, 2.0], floor=2.0)   # MAD = 0
        assert not verdict.passed
        assert verdict.margin == 0.0

    def test_just_above_boundary_passes(self):
        verdict = gate_speedup([2.0, 2.0, 2.0], floor=1.999)
        assert verdict.passed
        assert verdict.margin == pytest.approx(0.001)

    def test_k_widens_the_guard_band(self):
        # median 3, MAD 1
        speedups = [2.0, 2.0, 3.0, 4.0, 4.0]
        assert gate_speedup(speedups, floor=1.9, k=1.0).passed
        assert not gate_speedup(speedups, floor=1.9, k=3.0).passed

    def test_k_zero_gates_on_raw_median(self):
        verdict = gate_speedup([1.0, 100.0, 3.0], floor=2.9, k=0.0)
        assert verdict.passed
        assert verdict.margin == pytest.approx(0.1)

    def test_negative_k_raises(self):
        with pytest.raises(ValueError):
            gate_speedup([1.0], floor=1.0, k=-1.0)

    def test_reason_carries_the_decision_trace(self):
        verdict = gate_speedup([2.0, 2.0], floor=1.0)
        assert "median" in verdict.reason and "floor 1" in verdict.reason

    def test_informational_flag_preserved(self):
        verdict = gate_speedup([0.5], floor=10.0, gating=False)
        assert not verdict.passed and not verdict.gating


class TestDistinguishable:
    def test_clearly_faster(self):
        assert distinguishable([5.0, 5.1, 4.9], baseline=1.0, k=3.0)

    def test_clearly_slower(self):
        assert distinguishable([0.5, 0.49, 0.51], baseline=1.0, k=3.0)

    def test_straddling_one_is_noise(self):
        # median 1.0, MAD 0.2: the ±3 MAD band [0.4, 1.6] contains 1.0
        assert not distinguishable([0.8, 1.0, 1.2], baseline=1.0, k=3.0)


class TestGateRegression:
    def test_empty_baseline_passes_trivially(self):
        for baseline in (None, (), []):
            verdict = gate_regression([1.0, 2.0], baseline)
            assert verdict.passed
            assert verdict.margin == float("inf")
            assert "no baseline" in verdict.reason

    def test_exact_boundary_fails(self):
        # zero MAD on both sides, zero tolerance: threshold = baseline median
        verdict = gate_regression([1.0, 1.0], [1.0, 1.0])
        assert not verdict.passed
        assert verdict.margin == 0.0

    def test_clear_regression_fails(self):
        verdict = gate_regression([1.3, 1.31, 1.29], [1.0, 1.0, 1.0])
        assert not verdict.passed

    def test_faster_candidate_passes(self):
        assert gate_regression([0.9, 0.91], [1.0, 1.0]).passed

    def test_tolerance_absorbs_deliberate_slowdown(self):
        candidate, baseline = [1.05, 1.05], [1.0, 1.0]
        assert not gate_regression(candidate, baseline).passed
        assert gate_regression(candidate, baseline, tolerance=0.10).passed

    def test_larger_mad_wins(self):
        """A degenerately quiet baseline cannot flag an ordinarily noisy
        candidate: the guard band uses max(baseline MAD, candidate MAD)."""
        quiet_baseline = [1.0, 1.0, 1.0]                  # MAD 0
        noisy_candidate = [0.9, 1.1, 1.3, 0.8, 1.2]       # median 1.1, MAD 0.2
        verdict = gate_regression(noisy_candidate, quiet_baseline, k=3.0)
        # threshold = 1.0 + 3*0.2 = 1.6 > 1.1
        assert verdict.passed
        assert verdict.margin == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            gate_regression([1.0], [1.0], k=-1.0)
        with pytest.raises(ValueError):
            gate_regression([1.0], [1.0], tolerance=-0.1)


class TestOverlapChaos:
    """Baseline and candidate distributions overlap heavily: the gate
    must not raise false alarms, but must still catch a real shift."""

    @staticmethod
    def _noisy(center, seed, n=25, spread=0.05):
        rng = np.random.default_rng(seed)
        return (center + spread * rng.standard_normal(n)).tolist()

    def test_overlapping_same_center_passes(self):
        baseline = self._noisy(1.0, seed=1)
        candidate = self._noisy(1.0, seed=2)
        assert gate_regression(candidate, baseline, k=3.0).passed

    def test_small_shift_inside_noise_band_passes(self):
        baseline = self._noisy(1.0, seed=3)
        candidate = self._noisy(1.02, seed=4)     # < k*MAD away
        assert gate_regression(candidate, baseline, k=3.0).passed

    def test_large_shift_outside_noise_band_fails(self):
        baseline = self._noisy(1.0, seed=5)
        candidate = self._noisy(1.5, seed=6)      # >> k*MAD away
        assert not gate_regression(candidate, baseline, k=3.0).passed

    def test_overlapping_speedup_gate_is_symmetric_noise(self):
        """Two identical implementations measured with noise must not
        clear any floor above ~1x, in either direction."""
        a = self._noisy(1.0, seed=7)
        b = self._noisy(1.0, seed=8)
        ratios_ab = speedup_samples(a, b)
        ratios_ba = speedup_samples(b, a)
        assert not gate_speedup(ratios_ab, floor=1.1).passed
        assert not gate_speedup(ratios_ba, floor=1.1).passed
        assert not distinguishable(ratios_ab, baseline=1.0)


class TestRegressionGateWrapper:
    def test_check_speedup_over_distributions(self):
        gate = RegressionGate(k=3.0)
        reference = Distribution(samples=(10.0, 10.1, 9.9))
        candidate = Distribution(samples=(1.0, 1.01, 0.99))
        verdict = gate.check_speedup(reference, candidate, floor=5.0)
        assert verdict.passed
        assert isinstance(verdict, GateVerdict)

    def test_check_speedup_informational(self):
        gate = RegressionGate()
        d = Distribution(samples=(1.0, 1.0))
        verdict = gate.check_speedup(d, d, floor=100.0, gating=False)
        assert not verdict.passed and not verdict.gating

    def test_check_baseline_none_passes(self):
        gate = RegressionGate()
        assert gate.check_baseline(Distribution(samples=(1.0,)), None).passed

    def test_check_baseline_catches_regression(self):
        gate = RegressionGate(k=3.0)
        baseline = Distribution(samples=(1.0, 1.0, 1.0))
        slower = Distribution(samples=(1.4, 1.41, 1.39))
        faster = Distribution(samples=(0.7, 0.71, 0.69))
        assert not gate.check_baseline(slower, baseline).passed
        assert gate.check_baseline(faster, baseline).passed

    def test_speedup_stats_keys_and_consistency(self):
        gate = RegressionGate(k=2.0)
        reference = Distribution(samples=(8.0, 8.0))
        candidate = Distribution(samples=(2.0, 2.0))
        stats = gate.speedup_stats(reference, candidate)
        assert stats["speedup_median"] == 4.0
        assert stats["speedup_mad"] == 0.0
        assert stats["speedup_lower_bound"] == 4.0
        assert stats["k"] == 2.0
        json.dumps(stats)                          # JSON-ready

    def test_validation(self):
        with pytest.raises(ValueError):
            RegressionGate(k=-1.0)
        with pytest.raises(ValueError):
            RegressionGate(tolerance=-0.1)


class TestBenchHistory:
    def test_append_load_round_trip(self, tmp_path):
        history = BenchHistory(tmp_path / "hist.jsonl")
        d = Distribution(samples=(1.0, 2.0, 3.0), label="w")
        record = history.append("kernels", "cc", "n=100",
                                {"candidate": d}, stats={"x": 1.0},
                                meta={"pr": 7})
        loaded = history.load()
        assert len(loaded) == 1
        assert loaded[0]["suite"] == "kernels"
        assert loaded[0]["stats"] == {"x": 1.0}
        assert loaded[0]["meta"] == {"pr": 7}
        assert record["kernel"] == "cc"

    def test_missing_file_is_empty(self, tmp_path):
        assert BenchHistory(tmp_path / "nope.jsonl").load() == []
        assert BenchHistory(tmp_path / "nope.jsonl").baseline("s", "k") is None

    def test_malformed_lines_skipped(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        history = BenchHistory(path)
        history.append("s", "k", "w", {"candidate": Distribution(samples=(1.0,))})
        with path.open("a") as fh:
            fh.write("{truncated by a killed CI job\n")
        history.append("s", "k", "w", {"candidate": Distribution(samples=(2.0,))})
        assert len(history.load()) == 2

    def test_records_filtering(self, tmp_path):
        history = BenchHistory(tmp_path / "hist.jsonl")
        d = Distribution(samples=(1.0,))
        history.append("kernels", "cc", "w", {"candidate": d})
        history.append("kernels", "kabsch", "w", {"candidate": d})
        history.append("spill", "cc", "w", {"candidate": d})
        assert len(history.records(suite="kernels")) == 2
        assert len(history.records(kernel="cc")) == 2
        assert len(history.records(suite="spill", kernel="cc")) == 1

    def test_baseline_is_latest_matching_record(self, tmp_path):
        history = BenchHistory(tmp_path / "hist.jsonl")
        history.append("s", "k", "w",
                       {"candidate": Distribution(samples=(1.0, 1.0))})
        history.append("s", "k", "w",
                       {"candidate": Distribution(samples=(5.0, 5.0))})
        baseline = history.baseline("s", "k")
        assert baseline is not None
        assert baseline.median == 5.0

    def test_baseline_role_lookup(self, tmp_path):
        history = BenchHistory(tmp_path / "hist.jsonl")
        history.append("s", "k", "w", {
            "reference": Distribution(samples=(9.0,)),
            "vectorized": Distribution(samples=(3.0,)),
        })
        assert history.baseline("s", "k", role="vectorized").median == 3.0
        assert history.baseline("s", "k", role="candidate") is None

    def test_sha_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GITHUB_SHA", "abc123")
        history = BenchHistory(tmp_path / "hist.jsonl")
        record = history.append("s", "k", "w",
                                {"candidate": Distribution(samples=(1.0,))})
        assert record["sha"] == "abc123"

    @staticmethod
    def fake_git(bin_dir, body):
        """Put a ``git`` script running ``body`` first on an empty PATH."""
        git = bin_dir / "git"
        git.write_text("#!/bin/sh\n" + body + "\n")
        git.chmod(0o755)
        return str(bin_dir)

    def test_sha_falls_back_to_git_head(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GITHUB_SHA", raising=False)
        monkeypatch.setenv("PATH", self.fake_git(
            tmp_path, '[ "$*" = "rev-parse HEAD" ] && echo 0123abcd && exit 0\nexit 1'))
        history = BenchHistory(tmp_path / "hist.jsonl")
        record = history.append("s", "k", "w",
                                {"candidate": Distribution(samples=(1.0,))})
        assert record["sha"] == "0123abcd"
        assert history.load()[0]["sha"] == "0123abcd"

    @pytest.mark.parametrize("git_body", [None, "exit 128"])
    def test_sha_is_none_when_git_fails(self, tmp_path, monkeypatch, git_body):
        monkeypatch.delenv("GITHUB_SHA", raising=False)
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        # no git on PATH at all, or a git that fails (not a repository)
        path = str(bin_dir) if git_body is None else self.fake_git(bin_dir, git_body)
        monkeypatch.setenv("PATH", path)
        record = BenchHistory(tmp_path / "hist.jsonl").append(
            "s", "k", "w", {"candidate": Distribution(samples=(1.0,))})
        assert record["sha"] is None


class TestEndToEndDeterministic:
    """The full CI decision path — history baseline, regression gate,
    speedup floor — on injected samples only."""

    def test_injected_regression_is_caught(self, tmp_path):
        history = BenchHistory(tmp_path / "hist.jsonl")
        gate = RegressionGate(k=3.0)
        history.append("kernels", "cc", "n=100",
                       {"candidate": Distribution(samples=(1.0, 1.01, 0.99,
                                                           1.0, 1.02))})
        baseline = history.baseline("kernels", "cc")
        healthy = Distribution(samples=(1.0, 1.01, 1.02, 0.98, 0.99))
        regressed = Distribution(samples=(1.3, 1.31, 1.29, 1.32, 1.28))
        assert gate.check_baseline(healthy, baseline).passed
        assert not gate.check_baseline(regressed, baseline).passed

    def test_first_run_of_new_workload_always_passes(self, tmp_path):
        history = BenchHistory(tmp_path / "hist.jsonl")
        gate = RegressionGate()
        candidate = Distribution(samples=(math.pi,))
        verdict = gate.check_baseline(
            candidate, history.baseline("kernels", "brand-new"))
        assert verdict.passed and verdict.margin == float("inf")
