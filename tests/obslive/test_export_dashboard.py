"""Speedscope export + the TTY/HTML dashboard renderers.

The speedscope checks are shape checks against the published file format
(schema URL, frames table, well-nested evented samples) — enough that
https://www.speedscope.app accepts the output.
"""

import json
import os
import re

import pytest

from repro.obs import (
    LiveConfig,
    LiveTelemetry,
    gather_dashboard,
    render_html,
    render_tty,
    sparkline,
    trace_to_speedscope,
    validate_speedscope,
)
from repro.obs.trace import Tracer, load_trace

pytestmark = pytest.mark.obslive


def make_trace(tmp_path):
    path = os.path.join(tmp_path, "trace.jsonl")
    tracer = Tracer(sink_path=path)
    with tracer.span("root"):
        with tracer.span("child_a"):
            with tracer.span("grandchild"):
                pass
        with tracer.span("child_b"):
            pass
    tracer.flush()
    return load_trace(path)


class TestSpeedscope:
    def test_export_shape(self, tmp_path):
        spans = make_trace(tmp_path)
        doc = trace_to_speedscope(spans, name="unit")
        assert doc["$schema"].endswith("file-format-schema.json")
        assert doc["profiles"][0]["type"] == "evented"
        names = {frame["name"] for frame in doc["shared"]["frames"]}
        assert {"root", "child_a", "child_b", "grandchild"} <= names
        events = doc["profiles"][0]["events"]
        # Every open has a matching close: equal counts, stack-balanced.
        assert len([e for e in events if e["type"] == "O"]) == \
            len([e for e in events if e["type"] == "C"])

    def test_export_validates(self, tmp_path):
        doc = trace_to_speedscope(make_trace(tmp_path), name="unit")
        assert validate_speedscope(doc) == []

    def test_events_time_ordered_and_nested(self, tmp_path):
        doc = trace_to_speedscope(make_trace(tmp_path), name="unit")
        events = doc["profiles"][0]["events"]
        times = [event["at"] for event in events]
        assert times == sorted(times)
        stack = []
        for event in events:
            if event["type"] == "O":
                stack.append(event["frame"])
            else:
                assert stack.pop() == event["frame"]
        assert stack == []

    def test_validator_rejects_malformed_documents(self):
        assert validate_speedscope({}) != []
        assert validate_speedscope({"$schema": "http://wrong"}) != []
        # Mismatched open/close must be caught.
        bad = {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": [{"name": "f"}]},
            "profiles": [{
                "type": "evented", "name": "p", "unit": "seconds",
                "startValue": 0, "endValue": 1,
                "events": [{"type": "O", "frame": 0, "at": 0}],
            }],
        }
        assert any("unclosed" in p or "open" in p
                   for p in validate_speedscope(bad))

    def test_empty_trace_exports_empty_profile(self):
        doc = trace_to_speedscope([], name="empty")
        assert validate_speedscope(doc) == []
        assert doc["profiles"][0]["events"] == []


class TestDashboard:
    def make_run_dir(self, tmp_path):
        run_dir = str(tmp_path)
        clock = {"t": 0.0}

        def tick():
            clock["t"] += 1.0
            return clock["t"]

        live = LiveTelemetry(
            directory=run_dir,
            config=LiveConfig(rules=("serve.depth < 3",)),
            clock=tick)
        depths = iter([1.0, 5.0, 5.0, 1.0, 2.0])
        live.add_probe("serve", lambda: {"depth": next(depths),
                                         "latency_p99_ms": 42.0})
        for _ in range(5):
            live.sample_once()
        return run_dir

    def test_gather_on_populated_run_dir(self, tmp_path):
        run_dir = self.make_run_dir(tmp_path)
        dash = gather_dashboard(run_dir)
        assert dash["live"] is not None
        assert "serve.depth" in dash["live"]["series"]
        assert len(dash["alerts"]) == 2  # violation + recovery

    def test_gather_on_empty_dir_is_all_optional(self, tmp_path):
        empty = os.path.join(tmp_path, "empty")
        os.makedirs(empty)
        dash = gather_dashboard(empty)
        assert dash["live"] is None and dash["manifest"] is None
        # Renderers must not crash on a completely empty run.
        assert isinstance(render_tty(dash), str)
        assert render_html(dash).startswith("<!DOCTYPE html>")

    def test_tty_render_contains_series_and_alerts(self, tmp_path):
        dash = gather_dashboard(self.make_run_dir(tmp_path))
        text = render_tty(dash)
        assert "serve.depth" in text
        assert "violation" in text
        assert "serve.depth < 3" in text

    def test_html_render_is_self_contained(self, tmp_path):
        dash = gather_dashboard(self.make_run_dir(tmp_path))
        html = render_html(dash, title="unit test")
        assert html.startswith("<!DOCTYPE html>")
        assert "unit test" in html
        assert "serve.depth" in html
        assert "<script src=" not in html  # no external JS
        assert 'href="http' not in html    # no external CSS
        assert "prefers-color-scheme" in html

    def test_serving_card_shows_each_stage(self, tmp_path):
        run_dir = self.make_run_dir(tmp_path)
        stages = {"forward": {"p50": 2.25, "p99": 4.75},
                  "queue": {"p50": 0.125, "p99": 3.5}}
        with open(os.path.join(run_dir, "serve_stats.json"), "w") as handle:
            json.dump({"schema_version": 1, "stats": {
                "ok": 3, "latency_p50_ms": 5.0, "stages_ms": stages}}, handle,
                sort_keys=True)
        dash = gather_dashboard(run_dir)
        text = render_tty(dash)
        # Pipeline order, not the file's key order: queue before forward.
        assert re.search(r"queue\s+0\.125\s+3\.500\n\s+forward\s+2\.250"
                         r"\s+4\.750", text)
        html = render_html(dash)
        assert ('<td class="series-name">queue</td><td class="num">0.125'
                '</td><td class="num">3.500</td>') in html

    def test_history_section_from_committed_file(self, tmp_path):
        repo_history = os.path.join(os.path.dirname(__file__), "..", "..",
                                    "BENCH_history.jsonl")
        dash = gather_dashboard(self.make_run_dir(tmp_path),
                                history_path=repo_history)
        assert dash["history"] is not None
        assert "detection_serve" in dash["history"]["benchmarks"]
        assert "detection_serve" in render_tty(dash)


class TestTrainDashboard:
    def make_train_run_dir(self, tmp_path):
        from repro.obs import TrainTelemetry

        run_dir = str(tmp_path)
        clock = {"t": 0.0}

        def tick():
            clock["t"] += 1.0
            return clock["t"]

        live = TrainTelemetry(
            directory=run_dir,
            config=LiveConfig(window_s=4.0,
                              rules=("train.steps_per_s > 0.5 for_ticks 2",)),
            clock=tick)
        state = live.attach("gan", 8)
        live.ensure_probe("train.gan.pool",
                          lambda: {"workers_alive": 2.0, "utilization": 0.5,
                                   "in_flight": 1.0, "pending": 0.0,
                                   "respawns": 0.0})
        losses = iter([3.0, 2.0, 1.5, 1.2, 1.0, 0.9, 0.8, 0.7])
        for step in range(8):
            state.step(step, loss=next(losses), grad_norm=1.0)
            if step == 0:
                state.checkpoint_saved()
            live.sample_once()
        state.finish()
        live.sample_once()
        return run_dir

    def test_gather_loads_train_live(self, tmp_path):
        dash = gather_dashboard(self.make_train_run_dir(tmp_path))
        assert dash["train_live"] is not None
        assert dash["live"] is None  # no serving producer in this dir
        assert dash["train_live"]["trainers"]["gan"]["finished"] is True
        assert "train.loss" in dash["train_live"]["series"]

    def test_tty_render_has_train_section(self, tmp_path):
        dash = gather_dashboard(self.make_train_run_dir(tmp_path))
        text = render_tty(dash)
        assert "gan" in text
        assert "train.loss" in text
        assert "train.steps_per_s" in text
        assert "train.steps_per_s > 0.5 for_ticks 2" in text
        assert "worker pools:" in text  # health grid from train.gan.pool.*
        assert "workers_alive=2" in text

    def test_html_render_has_train_cards(self, tmp_path):
        dash = gather_dashboard(self.make_train_run_dir(tmp_path))
        html = render_html(dash, title="train unit")
        assert "Training" in html
        assert "train.loss" in html
        assert "Training SLOs" in html
        assert "<script src=" not in html

    def test_mixed_dir_renders_both_producers(self, tmp_path):
        serve_dir = TestDashboard().make_run_dir(tmp_path)
        self.make_train_run_dir(tmp_path)
        dash = gather_dashboard(serve_dir)
        assert dash["live"] is not None and dash["train_live"] is not None
        text = render_tty(dash)
        assert "serve.depth" in text and "train.loss" in text


class TestDashboardViews:
    def test_cli_view_filters_producers(self, tmp_path):
        import subprocess
        import sys
        run_dir = str(tmp_path / "run")
        os.makedirs(run_dir)
        TestDashboard().make_run_dir(run_dir)
        TestTrainDashboard().make_train_run_dir(run_dir)
        repo = os.path.join(os.path.dirname(__file__), "..", "..")
        script = os.path.join(repo, "scripts", "obs_dashboard.py")
        env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))

        def run_view(view):
            out = subprocess.run([sys.executable, script, run_dir,
                                  "--view", view],
                                 capture_output=True, text=True, env=env)
            assert out.returncode == 0, out.stderr
            return out.stdout

        # serve.depth leaks into every view via the *shared* alerts file,
        # so view isolation is asserted on alert-free series names.
        both = run_view("all")
        assert "serve.latency_p99_ms" in both and "train.loss" in both
        serve_only = run_view("serve")
        assert "serve.latency_p99_ms" in serve_only
        assert "train.loss" not in serve_only
        train_only = run_view("train")
        assert "train.loss" in train_only
        assert "serve.latency_p99_ms" not in train_only
        # Alerts are shared files: visible from every view.
        assert "violation" in serve_only and "violation" in train_only


class TestSparkline:
    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        line = sparkline([0.0, 1.0, 2.0, 3.0], width=4)
        assert len(line) == 4
        assert line[0] != line[-1]  # rising series uses different glyphs

    def test_sparkline_constant_series(self):
        line = sparkline([5.0, 5.0, 5.0], width=3)
        assert len(line) == 3
        assert len(set(line)) == 1

    def test_sparkline_downsamples_wide_input(self):
        line = sparkline(list(range(1000)), width=16)
        assert len(line) == 16


class TestDashboardScript:
    def test_cli_renders_and_exports(self, tmp_path):
        import subprocess
        import sys
        run_dir = TestDashboard().make_run_dir(tmp_path / "run")
        repo = os.path.join(os.path.dirname(__file__), "..", "..")
        script = os.path.join(repo, "scripts", "obs_dashboard.py")
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(repo, "src"))
        out = subprocess.run([sys.executable, script, run_dir],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert "serve.depth" in out.stdout

        html_path = os.path.join(tmp_path, "report.html")
        out = subprocess.run([sys.executable, script, run_dir,
                              "--html", html_path],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert os.path.exists(html_path)

        flame_path = os.path.join(tmp_path, "flame.json")
        out = subprocess.run([sys.executable, script, run_dir,
                              "--flamegraph", flame_path],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        doc = json.load(open(flame_path))
        assert validate_speedscope(doc) == []
