"""Report tooling: perf-report round-trip with manifest fields, run
loading, tree rendering, and the two-run diff."""

import json
import os

import pytest

from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    REPORT_SCHEMA_VERSION,
    Run,
    append_jsonl,
    config_digest,
    diff_runs,
    host_info,
    load_report,
    load_run,
    metric_deltas,
    render_diff,
    render_run,
    span_path_totals,
    write_report,
)

pytestmark = pytest.mark.obs


class TestPerfReportRoundTrip:
    """Satellite: BENCH-style reports now carry a run-manifest stamp."""

    def _payload(self):
        return {
            "benchmark": "unit",
            "batched_fps": 10.0,
            "manifest": {
                "schema_version": MANIFEST_SCHEMA_VERSION,
                "run_id": "bench-test",
                "config_digest": config_digest({"frames": 8, "seed": 0}),
                "seeds": {"video": 0, "detector": 0},
                "host": host_info(),
            },
        }

    def test_manifest_fields_roundtrip(self, tmp_path):
        path = str(tmp_path / "BENCH_unit.json")
        write_report(path, self._payload())
        loaded = load_report(path)
        assert loaded["schema_version"] == REPORT_SCHEMA_VERSION
        manifest = loaded["manifest"]
        assert manifest["run_id"] == "bench-test"
        assert manifest["config_digest"] == config_digest({"seed": 0, "frames": 8})
        assert manifest["seeds"] == {"video": 0, "detector": 0}
        assert set(manifest["host"]) >= {"platform", "python", "numpy",
                                         "hostname", "pid"}

    def test_history_append_is_machine_readable(self, tmp_path):
        path = str(tmp_path / "BENCH_history.jsonl")
        append_jsonl(path, {"batched_fps": 10.0, "run_id": "a"})
        append_jsonl(path, {"batched_fps": 11.0, "run_id": "b"})
        lines = [json.loads(line) for line in open(path)]
        assert [entry["run_id"] for entry in lines] == ["a", "b"]
        assert lines[1]["batched_fps"] == 11.0

    def test_history_append_never_leaves_a_torn_line(self, tmp_path):
        # The durability contract: payload + newline go down in ONE write
        # and are fsynced before close, so after any append the file is a
        # whole number of parseable lines — even for multi-KB records.
        path = str(tmp_path / "BENCH_history.jsonl")
        big = {"run_id": "big", "payload": {f"metric_{i}": float(i)
                                            for i in range(2000)}}
        append_jsonl(path, big)
        append_jsonl(path, {"run_id": "after"})
        raw = open(path).read()
        assert raw.endswith("\n")
        parsed = [json.loads(line) for line in raw.splitlines()]
        assert [entry["run_id"] for entry in parsed] == ["big", "after"]
        assert parsed[0]["payload"]["metric_1999"] == 1999.0


def make_run(directory, marker=0.0, fail=False):
    try:
        with Run(str(directory), name="demo", config={"k": 1},
                 seeds={"seed": 0}) as run:
            with run.span("train", steps=2):
                with run.span("steps"):
                    run.tracer.add("items", 4)
            with run.span("eval"):
                with run.span("render"):
                    pass
                with run.span("render"):
                    pass
            run.metrics.counter("steps_run").inc(2)
            run.metrics.gauge("loss").set(0.5 + marker)
            if fail:
                raise RuntimeError("boom")
    except RuntimeError:
        pass
    return load_run(str(directory))


class TestLoadAndRender:
    def test_load_run_from_directory_and_manifest_path(self, tmp_path):
        loaded = make_run(tmp_path / "r")
        via_manifest = load_run(os.path.join(loaded.path, "manifest.json"))
        assert via_manifest.run_id == loaded.run_id
        assert len(via_manifest.spans) == len(loaded.spans)

    def test_render_contains_tree_and_counters(self, tmp_path):
        loaded = make_run(tmp_path / "r")
        text = render_run(loaded)
        assert loaded.run_id in text
        assert "train" in text and "eval" in text and "render" in text
        assert "└─" in text or "├─" in text
        assert "steps_run" in text

    def test_missing_trace_loads_empty(self, tmp_path):
        loaded = make_run(tmp_path / "r")
        os.unlink(os.path.join(loaded.path, "trace.jsonl"))
        reloaded = load_run(loaded.path)
        assert reloaded.spans == []
        assert "(no spans recorded)" in render_run(reloaded)

    def test_span_path_totals_aggregates_repeats(self, tmp_path):
        loaded = make_run(tmp_path / "r")
        totals = span_path_totals(loaded)
        assert totals["eval/render"][1] == 2  # two render calls, one path
        assert totals["train/steps"][1] == 1
        assert totals["train"][0] >= totals["train/steps"][0]


class TestDiff:
    def test_same_seed_runs_have_zero_metric_deltas(self, tmp_path):
        a = make_run(tmp_path / "a")
        b = make_run(tmp_path / "b")
        diff = diff_runs(a, b)
        assert diff["config_equal"] and diff["status_equal"]
        assert diff["metrics"]["deterministic_equal"]
        text = render_diff(diff)
        assert "zero deltas" in text

    def test_metric_drift_is_reported(self, tmp_path):
        a = make_run(tmp_path / "a")
        b = make_run(tmp_path / "b", marker=0.1)
        deltas = metric_deltas(a, b)
        assert not deltas["deterministic_equal"]
        assert deltas["gauges"]["loss"]["delta"] == pytest.approx(0.1)
        assert "loss" in render_diff(diff_runs(a, b))

    def test_exit_status_comparison(self, tmp_path):
        a = make_run(tmp_path / "a")
        b = make_run(tmp_path / "b", fail=True)
        diff = diff_runs(a, b)
        assert not diff["status_equal"]
        assert "DIFFERS" in render_diff(diff)

    def test_span_wall_clock_deltas_per_path(self, tmp_path):
        a = make_run(tmp_path / "a")
        b = make_run(tmp_path / "b")
        diff = diff_runs(a, b)
        entry = diff["spans"]["eval/render"]
        assert entry["a_calls"] == entry["b_calls"] == 2
        assert entry["delta_seconds"] == pytest.approx(
            entry["b_seconds"] - entry["a_seconds"])

    def test_recovery_counters_surface(self, tmp_path):
        a = make_run(tmp_path / "a")
        b = make_run(tmp_path / "b")
        b.manifest["metrics"]["counters"]["events.divergence_recovery"] = 2.0
        diff = diff_runs(a, b)
        assert diff["recovery"]["b"] == {"events.divergence_recovery": 2.0}
        assert "divergence_recovery" in render_diff(diff)


class TestReportIo:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        document = write_report(path, {"batched_fps": 123.0})
        assert document["schema_version"] == REPORT_SCHEMA_VERSION
        loaded = load_report(path)
        assert loaded["batched_fps"] == 123.0

    def test_version_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        path2 = str(tmp_path / "BENCH_bad.json")
        with open(path, "w") as handle:
            json.dump({"schema_version": 999}, handle)
        with pytest.raises(ValueError, match="schema_version"):
            load_report(path)
        with open(path2, "w") as handle:
            json.dump({}, handle)
        with pytest.raises(ValueError):
            load_report(path2)

    def test_version_check_can_be_skipped(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        with open(path, "w") as handle:
            json.dump({"schema_version": 999, "x": 1}, handle)
        assert load_report(path, expected_version=None)["x"] == 1

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        write_report(path, {"a": 1})
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
