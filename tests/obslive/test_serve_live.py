"""Live telemetry wired into DetectionServer: periodic mirrors, the
zero-overhead ``live=None`` contract, and SIGKILL durability.

Everything runs the in-process backend (``workers=0``) so no worker
processes are involved — the SIGKILL test kills the *server host*
process, which is exactly the failure the atomic-snapshot / durable-
append contract exists for.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.detection.config import TinyYoloConfig
from repro.detection.model import TinyYolo
from repro.obs import Run, load_live_snapshot
from repro.obs.slo import load_alerts
from repro.serve import SERVE_STATS_NAME, DetectionServer, ServeConfig

pytestmark = pytest.mark.obslive

INPUT_SIZE = 64
REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


@pytest.fixture(scope="module")
def detector():
    model = TinyYolo(TinyYoloConfig(input_size=INPUT_SIZE,
                                    width_multiplier=0.25))
    return model.eval()


def make_frames(count, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.random((3, INPUT_SIZE, INPUT_SIZE)).astype(np.float32)
            for _ in range(count)]


def inproc_config(**overrides):
    defaults = dict(workers=0, max_batch=4, batch_window_s=0.002,
                    queue_capacity=16, deadline_s=30.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestZeroOverhead:
    def test_live_none_attaches_nothing(self, detector):
        before = {t.name for t in threading.enumerate()}
        server = DetectionServer(detector, inproc_config())
        try:
            assert server.live is None
            after = {t.name for t in threading.enumerate()} - before
            assert not any("live-sampler" in name for name in after)
        finally:
            server.close()

    def test_live_none_without_obs_writes_no_files(self, detector, tmp_path):
        server = DetectionServer(detector, inproc_config())
        try:
            session = server.open_session("t")
            for future in [server.submit(session, frame)
                           for frame in make_frames(4)]:
                future.result(timeout=30)
        finally:
            server.close()
        assert os.listdir(tmp_path) == []


class TestPeriodicMirror:
    def test_serve_stats_json_refreshed_before_close(self, detector, tmp_path):
        """Satellite fix: the stats file exists *during* the run, not only
        after a clean close."""
        run = Run(str(tmp_path / "run"))
        server = DetectionServer(
            detector, inproc_config(stats_interval_s=0.02), obs=run)
        try:
            session = server.open_session("t")
            stats_path = os.path.join(run.directory, SERVE_STATS_NAME)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                for future in [server.submit(session, frame)
                               for frame in make_frames(2)]:
                    future.result(timeout=30)
                if os.path.exists(stats_path):
                    break
            assert os.path.exists(stats_path), \
                "no serve_stats.json written mid-life"
            doc = json.load(open(stats_path))
            assert doc["schema_version"] == 1
            assert doc["stats"]["ok"] >= 1
        finally:
            server.close()

    def test_periodic_plus_final_mirror_never_double_counts(
            self, detector, tmp_path):
        run = Run(str(tmp_path / "run"))
        server = DetectionServer(
            detector, inproc_config(stats_interval_s=0.01), obs=run)
        n = 12
        try:
            session = server.open_session("t")
            for future in [server.submit(session, frame)
                           for frame in make_frames(n)]:
                future.result(timeout=30)
            time.sleep(0.1)  # let several mirror intervals elapse
        finally:
            server.close()
        counters = run.metrics.snapshot()["counters"]
        assert counters["serve.ok"] == float(n)
        assert counters["serve.accepted"] == float(n)
        histograms = run.metrics.snapshot()["histograms"]
        assert histograms["serve.latency_s"]["count"] == n
        assert histograms["serve.stage.forward_s"]["count"] == n

    def test_samples_past_the_ring_are_counted_not_lost(self, detector,
                                                        tmp_path):
        from repro.serve.scheduler import SAMPLE_RING
        run = Run(str(tmp_path / "run"))
        server = DetectionServer(detector, inproc_config(), obs=run)
        try:
            server.mirror_stats()
            n = SAMPLE_RING + 100  # more than the ring holds between mirrors
            for _ in range(n):
                server.stats.observe_latency(0.001, {"queue": 0.0005})
            server.mirror_stats()
        finally:
            server.close()
        snap = run.metrics.snapshot()
        histograms = snap["histograms"]
        assert histograms["serve.latency_s"]["count"] == SAMPLE_RING
        assert histograms["serve.stage.queue_s"]["count"] == SAMPLE_RING
        # 100 latencies + 100 queue-stage samples left the ring unread.
        assert snap["counters"]["serve.mirror_dropped"] == 200.0

    def test_probe_surface(self, detector):
        server = DetectionServer(detector, inproc_config())
        try:
            session = server.open_session("t")
            for future in [server.submit(session, frame)
                           for frame in make_frames(4)]:
                future.result(timeout=30)
            probe = server.probe()
        finally:
            server.close()
        assert probe["ok"] == 4
        assert probe["queue_depth"] >= 0
        assert "latency_p50_ms" in probe and "latency_p99_ms" in probe
        assert "stage.queue_p50_ms" in probe
        assert "stage.forward_p99_ms" in probe
        assert 0.0 <= probe["batch_fill"] <= 1.0
        assert probe["pool.respawns"] == 0
        assert probe["degraded"] == 1.0  # workers=0 is chosen-degraded


class TestLiveAttached:
    def test_live_series_and_snapshot_land_in_run_dir(
            self, detector, tmp_path):
        from repro.obs import LiveConfig
        run = Run(str(tmp_path / "run"))
        server = DetectionServer(
            detector, inproc_config(), obs=run,
            live=LiveConfig(interval_s=0.02,
                            rules=("serve.shed_rate < 0.5",)))
        try:
            assert server.live is not None
            session = server.open_session("t")
            for future in [server.submit(session, frame)
                           for frame in make_frames(8)]:
                future.result(timeout=30)
            time.sleep(0.15)
        finally:
            server.close()
        doc = load_live_snapshot(os.path.join(run.directory, "live.json"))
        assert doc["ticks"] >= 1
        assert "serve.ok" in doc["series"]
        assert "proc.rss_mb" in doc["series"]
        assert "serve.shed_rate < 0.5" in doc["slo"]
        # live=True (defaults) is accepted too, but not started here.


SIGKILL_CHILD = textwrap.dedent("""
    import os, sys, time
    import numpy as np
    sys.path.insert(0, {src!r})
    from repro.detection.config import TinyYoloConfig
    from repro.detection.model import TinyYolo
    from repro.obs import LiveConfig, Run
    from repro.serve import DetectionServer, ServeConfig

    run_dir = sys.argv[1]
    detector = TinyYolo(TinyYoloConfig(input_size=64,
                                       width_multiplier=0.25)).eval()
    run = Run(run_dir)
    server = DetectionServer(
        detector,
        ServeConfig(workers=0, max_batch=4, queue_capacity=8,
                    stats_interval_s=0.02),
        obs=run,
        live=LiveConfig(interval_s=0.02,
                        rules=("serve.queue_depth < 1",)))
    session = server.open_session("victim")
    rng = np.random.default_rng(0)
    announced = False
    while True:  # serve until SIGKILLed; never close() cleanly
        frames = [rng.random((3, 64, 64), dtype=np.float32).astype(np.float32)
                  for _ in range(4)]
        for future in [server.submit(session, frame) for frame in frames]:
            future.result(timeout=30)
        stats = os.path.join(run_dir, "serve_stats.json")
        alerts = os.path.join(run_dir, "alerts.jsonl")
        if not announced and os.path.exists(stats) and os.path.exists(alerts):
            print("READY", flush=True)
            announced = True
""")


class TestSigkillDurability:
    def test_sigkilled_server_leaves_loadable_artifacts(self, tmp_path):
        """The acceptance scenario: SIGKILL the serving process mid-
        traffic; serve_stats.json must load, alerts.jsonl must parse, and
        live.json must be a whole JSON document."""
        run_dir = str(tmp_path / "run")
        child_src = SIGKILL_CHILD.format(
            src=os.path.abspath(os.path.join(REPO_ROOT, "src")))
        proc = subprocess.Popen([sys.executable, "-c", child_src, run_dir],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = ""
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if "READY" in line or proc.poll() is not None:
                    break
            assert "READY" in line, "child never produced telemetry files"
            # A few more ticks of traffic, then the axe.
            time.sleep(0.2)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        stats = json.load(open(os.path.join(run_dir, "serve_stats.json")))
        assert stats["stats"]["ok"] >= 1
        assert stats["schema_version"] == 1

        # queue_depth < 1 is violated whenever work is queued, so the
        # alert stream is non-empty — and every line is whole JSON.
        alerts = load_alerts(os.path.join(run_dir, "alerts.jsonl"))
        assert len(alerts) >= 1
        assert alerts[0].kind == "violation"

        live = json.load(open(os.path.join(run_dir, "live.json")))
        assert live["ticks"] >= 1
        assert "serve.ok" in live["series"]
