"""BENCH_history.jsonl trend analysis + the bench-script --check gates.

The acceptance pair: a synthetic injected regression against a copied
history must FAIL the gate; the repo's committed history must PASS it.
"""

import importlib.util
import json
import os
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs import span_scope
from repro.obs.history import (
    check_trend,
    detect_regression,
    load_history,
    metric_series,
    trend_summary,
)

pytestmark = pytest.mark.obslive

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
COMMITTED_HISTORY = os.path.join(REPO_ROOT, "BENCH_history.jsonl")


def load_script(name):
    path = os.path.join(REPO_ROOT, "scripts", name)
    spec = importlib.util.spec_from_file_location(name.replace(".py", ""), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_history(path, benchmark, metric, values):
    with open(path, "w") as handle:
        for value in values:
            handle.write(json.dumps({"benchmark": benchmark,
                                     metric: value}) + "\n")


class TestLoader:
    def test_torn_and_garbage_lines_are_counted_not_raised(self, tmp_path):
        path = os.path.join(tmp_path, "h.jsonl")
        with open(path, "w") as handle:
            handle.write('{"benchmark": "b", "fps": 10.0}\n')
            handle.write("not json at all\n")
            handle.write('[1, 2, 3]\n')          # JSON but not an object
            handle.write("\n")                    # blank: ignored silently
            handle.write('{"benchmark": "b", "fps": 11.0}\n')
            handle.write('{"benchmark": "b", "fps": 12.')  # torn tail
        result = load_history(path)
        assert len(result.records) == 2
        assert result.bad_lines == 3
        assert metric_series(result, "b", "fps") == [10.0, 11.0]

    def test_benchmark_filter(self, tmp_path):
        path = os.path.join(tmp_path, "h.jsonl")
        with open(path, "w") as handle:
            handle.write('{"benchmark": "a", "fps": 1.0}\n')
            handle.write('{"benchmark": "b", "fps": 2.0}\n')
        result = load_history(path, benchmark="b")
        assert [r["fps"] for r in result.records] == [2.0]


class TestDetector:
    def test_insufficient_history_passes(self):
        verdict = detect_regression([1.0, 2.0, 3.0], 0.0, min_points=4)
        assert verdict.status == "insufficient"
        assert verdict.ok

    def test_clear_regression_fails(self):
        trailing = [100.0, 101.0, 99.0, 100.5, 100.0, 99.5]
        verdict = detect_regression(trailing, 50.0, direction="higher")
        assert verdict.status == "regression"
        assert not verdict.ok

    def test_value_inside_band_passes(self):
        trailing = [100.0, 101.0, 99.0, 100.5, 100.0, 99.5]
        verdict = detect_regression(trailing, 98.0, direction="higher")
        assert verdict.status == "ok"

    def test_lower_is_better_direction(self):
        trailing = [10.0, 11.0, 9.0, 10.5, 10.0]
        assert detect_regression(trailing, 30.0,
                                 direction="lower").status == "regression"
        assert detect_regression(trailing, 10.2,
                                 direction="lower").status == "ok"

    def test_single_outlier_in_window_does_not_poison_baseline(self):
        # One loaded-CI-box outlier: median/MAD shrug it off where a
        # mean/sigma band would balloon.
        trailing = [100.0, 100.5, 99.5, 1000.0, 100.0, 100.2]
        verdict = detect_regression(trailing, 99.0, direction="higher")
        assert verdict.status == "ok"

    def test_identical_window_tolerates_rounding_wobble(self):
        trailing = [100.0] * 6  # MAD = 0: the relative floor must kick in
        assert detect_regression(trailing, 99.0,
                                 direction="higher").status == "ok"
        assert detect_regression(trailing, 50.0,
                                 direction="higher").status == "regression"

    def test_bad_direction_raises(self):
        with pytest.raises(ValueError):
            detect_regression([1.0] * 5, 1.0, direction="sideways")


class TestBenchGates:
    """The three scripts' check_history_trend, driven as the CI gate does."""

    def test_committed_history_passes_all_three_gates(self):
        """The committed history must never veto the committed reports:
        each gate is fed its own committed number (falling back to a
        nominal value while that benchmark's history is still too short
        to judge)."""
        hot = load_script("bench_hotpath.py")
        train = load_script("bench_train.py")
        serve = load_script("bench_serve.py")
        with open(os.path.join(REPO_ROOT, "BENCH_hotpath.json")) as handle:
            hot_report = json.load(handle)
        with open(os.path.join(REPO_ROOT, "BENCH_serve.json")) as handle:
            serve_report = json.load(handle)
        with open(os.path.join(REPO_ROOT, "BENCH_train.json")) as handle:
            train_report = json.load(handle)
        assert hot.check_history_trend(
            COMMITTED_HISTORY,
            {"batched_fps": hot_report["batched_fps"]}) == 0
        assert train.check_history_trend(
            COMMITTED_HISTORY,
            {"parallel_steps_per_sec":
             train_report["parallel_steps_per_sec"]}) == 0
        assert serve.check_history_trend(
            COMMITTED_HISTORY,
            {"sustained_fps": serve_report["sustained_fps"],
             "latency_p99_ms": serve_report["latency_p99_ms"]}) == 0

    def test_injected_regression_fails_the_hotpath_gate(self, tmp_path):
        """Copy the committed history, extend it to a judgeable window,
        then present a collapsed fps: the gate must fail."""
        path = os.path.join(tmp_path, "BENCH_history.jsonl")
        shutil.copy(COMMITTED_HISTORY, path)
        with open(path, "a") as handle:
            for fps in (200.0, 201.0, 199.0, 200.5, 200.0, 199.5):
                handle.write(json.dumps({
                    "benchmark": "av_pipeline_hotpath",
                    "batched_fps": fps}) + "\n")
        hot = load_script("bench_hotpath.py")
        assert hot.check_history_trend(path, {"batched_fps": 200.0}) == 0
        assert hot.check_history_trend(path, {"batched_fps": 60.0}) == 1

    def test_injected_latency_regression_fails_the_serve_gate(self, tmp_path):
        path = os.path.join(tmp_path, "h.jsonl")
        with open(path, "w") as handle:
            for fps, p99 in ((50.0, 20.0), (51.0, 21.0), (49.0, 19.0),
                             (50.5, 20.5), (50.0, 20.0)):
                handle.write(json.dumps({
                    "benchmark": "detection_serve",
                    "sustained_fps": fps, "latency_p99_ms": p99}) + "\n")
        serve = load_script("bench_serve.py")
        healthy = {"sustained_fps": 50.0, "latency_p99_ms": 20.0}
        assert serve.check_history_trend(path, healthy) == 0
        slow_tail = {"sustained_fps": 50.0, "latency_p99_ms": 80.0}
        assert serve.check_history_trend(path, slow_tail) == 1

    @pytest.mark.parametrize("workers, speedup, fatal", [
        (0, 1.05, False),   # serial against serial: no parallel target
        (2, 1.2, True),     # under the floor on enough CPUs
        (2, 1.6, False),
    ])
    def test_train_speedup_floor_binds_two_or_more_workers(
            self, tmp_path, monkeypatch, workers, speedup, fatal):
        train = load_script("bench_train.py")
        patch = SimpleNamespace(patch=np.zeros((1, 1, 4, 4), np.float32))

        def timed_run(args, n_workers, runtime=None, obs=None, live=None):
            with span_scope(obs, "attack.train"):  # the stage table's trace
                return patch, 10.0 if n_workers == 0 else 10.0 / speedup

        monkeypatch.setattr(train, "run_training", timed_run)
        monkeypatch.setattr(train.os, "cpu_count", lambda: 2)
        report = os.path.join(tmp_path, "BENCH_train.json")
        argv = ["--workers", str(workers), "--steps", "4",
                "--skip-resume-gate", "--history", "", "--output", report]
        if fatal:
            # A string exit code makes the interpreter exit with status 1.
            with pytest.raises(SystemExit, match="FATAL.*below the 1.5x"):
                train.main(argv)
            assert not os.path.exists(report)
        else:
            assert train.main(argv) == 0
            with open(report) as handle:
                gate = json.load(handle)["speedup_gate"]
            assert gate["enforced"] == (workers >= 2)

    def test_injected_regression_fails_the_train_gate(self, tmp_path):
        path = os.path.join(tmp_path, "h.jsonl")
        write_history(path, "parallel_train_engine", "parallel_steps_per_sec",
                      [4.0, 4.1, 3.9, 4.0, 4.05])
        train = load_script("bench_train.py")
        assert train.check_history_trend(
            path, {"parallel_steps_per_sec": 4.0}) == 0
        assert train.check_history_trend(
            path, {"parallel_steps_per_sec": 1.0}) == 1

    def test_window_only_batch_cut_fails_the_open_loop_gate(
            self, monkeypatch):
        """The same-run gate must fail once a lone frame waits out its
        batch window again. An 8 ms window leaves the old rule over the
        bound for any detect under 2.5 ms, and stays well under the
        ~13 ms each frame finds the server idle, so the idle-window cut
        still serves every frame at once."""
        from repro.serve import DetectionServer, batch_cut, next_wake
        from repro.serve import server as server_module

        serve = load_script("bench_serve.py")
        monkeypatch.setattr(serve, "OPEN_LOOP_SECONDS", 0.5)
        args = serve.parse_args(["--workers", "0", "--batch-window-s",
                                 "0.008", "--history", ""])
        detector = serve.build_detector(args)
        detect_ms = serve.detect_batch1_ms(args, detector)

        def open_loop():
            server = DetectionServer(detector, serve.serve_config(args))
            try:
                return serve.run_open_loop(args, server, detect_ms)
            finally:
                server.close()

        idle_cut = open_loop()
        # Put back the window-only rule: no idle-window cut or wake.
        monkeypatch.setattr(
            server_module, "batch_cut",
            lambda queue, now, max_batch, window, draining=False,
            idle_since=None: batch_cut(queue, now, max_batch, window,
                                       draining))
        monkeypatch.setattr(
            server_module, "next_wake",
            lambda queue, now, window, idle_since=None: next_wake(
                queue, now, window))
        window_only = open_loop()
        assert serve.check_open_loop(window_only) == 1
        # Same host, same detect base: only the policy moved the ratio.
        assert idle_cut["p50_over_detect"] < window_only["p50_over_detect"]

    def test_missing_history_file_passes(self, tmp_path):
        hot = load_script("bench_hotpath.py")
        missing = os.path.join(tmp_path, "nope.jsonl")
        assert hot.check_history_trend(missing, {"batched_fps": 1.0}) == 0


class TestTrendSummary:
    def test_summary_over_committed_history(self):
        summary = trend_summary(COMMITTED_HISTORY)
        assert summary["bad_lines"] == 0
        assert "detection_serve" in summary["benchmarks"]
        serve = summary["benchmarks"]["detection_serve"]
        assert "sustained_fps" in serve
        assert serve["sustained_fps"]["points"] >= 1
        assert serve["sustained_fps"]["median"] > 0

    def test_check_trend_reports_bad_lines(self, tmp_path):
        path = os.path.join(tmp_path, "h.jsonl")
        write_history(path, "b", "fps", [10.0, 10.1, 9.9, 10.0])
        with open(path, "a") as handle:
            handle.write("torn garba")
        verdict = check_trend(path, "b", "fps", 10.0)
        assert verdict.ok
        assert verdict.bad_lines == 1
