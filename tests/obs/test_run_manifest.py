"""Run identity: manifests, config digests, span_scope no-op path."""

import json
import os
from dataclasses import dataclass

import pytest

from repro.obs import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA_VERSION,
    Run,
    config_digest,
    host_info,
    load_trace,
    span_scope,
)

pytestmark = pytest.mark.obs


@dataclass
class _Config:
    steps: int = 5
    lr: float = 1e-4


class TestConfigDigest:
    def test_dict_key_order_does_not_matter(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})

    def test_different_configs_differ(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_dataclass_matches_equivalent_dict(self):
        assert config_digest(_Config()) == config_digest({"steps": 5, "lr": 1e-4})

    def test_none_and_arbitrary_objects_digest(self):
        assert len(config_digest(None)) == 16
        assert len(config_digest(object())) == 16


class TestHostInfo:
    def test_fields_present(self):
        info = host_info()
        for key in ("platform", "python", "numpy", "hostname", "pid"):
            assert key in info


class TestRun:
    def test_enter_writes_running_manifest(self, tmp_path):
        directory = str(tmp_path / "run")
        with Run(directory, name="t", config={"x": 1}, seeds={"s": 3}) as run:
            document = json.load(open(run.manifest_path))
            assert document["status"] == "running"
            assert document["schema_version"] == MANIFEST_SCHEMA_VERSION
            assert document["seeds"] == {"s": 3}
            assert document["config_digest"] == config_digest({"x": 1})
        document = json.load(open(os.path.join(directory, MANIFEST_NAME)))
        assert document["status"] == "completed"
        assert document["started_unix"] <= document["finished_unix"]

    def test_failure_recorded_in_manifest(self, tmp_path):
        directory = str(tmp_path / "run")
        with pytest.raises(RuntimeError):
            with Run(directory, name="t") as run:
                with run.span("stage"):
                    raise RuntimeError("boom")
        document = json.load(open(os.path.join(directory, MANIFEST_NAME)))
        assert document["status"] == "failed"
        assert "RuntimeError" in document["error"]
        # The failing span still made it to the trace with error status.
        lines = open(os.path.join(directory, "trace.jsonl")).read().splitlines()
        assert json.loads(lines[0])["status"] == "error"

    def test_metrics_snapshot_lands_in_manifest(self, tmp_path):
        directory = str(tmp_path / "run")
        with Run(directory, name="t") as run:
            run.metrics.counter("steps").inc(7)
            run.metrics.gauge("loss").set(0.25)
        document = json.load(open(os.path.join(directory, MANIFEST_NAME)))
        assert document["metrics"]["counters"] == {"steps": 7.0}
        assert document["metrics"]["gauges"] == {"loss": 0.25}

    def test_checkpoint_persists_midrun(self, tmp_path):
        directory = str(tmp_path / "run")
        with Run(directory, name="t", buffer_limit=100) as run:
            with run.span("early"):
                pass
            run.metrics.counter("c").inc()
            run.checkpoint()
            midway = json.load(open(run.manifest_path))
            trace_lines = open(run.trace_path).read().splitlines()
            assert midway["status"] == "running"
            assert midway["metrics"]["counters"] == {"c": 1.0}
            assert len(trace_lines) == 1

    def test_run_ids_unique(self, tmp_path):
        run_a = Run(str(tmp_path / "a"), name="x")
        run_b = Run(str(tmp_path / "b"), name="x")
        assert run_a.run_id != run_b.run_id

    def test_manifest_written_atomically(self, tmp_path):
        directory = str(tmp_path / "run")
        with Run(directory, name="t"):
            leftovers = [f for f in os.listdir(directory) if f.endswith(".tmp")]
            assert leftovers == []


class TestSpanScope:
    def test_none_is_noop(self):
        with span_scope(None, "anything", attr=1):
            pass  # must not raise and must cost nothing

    def test_run_scope_records(self, tmp_path):
        with Run(str(tmp_path / "run"), name="t") as run:
            with span_scope(run, "stage", k=2):
                pass
        spans = load_trace(run.trace_path)
        assert spans[0].name == "stage"
        assert spans[0].attrs == {"k": 2}
