"""Hierarchical span tracing: nesting, sink buffering, reconstruction."""

import json

import pytest

from repro.obs import Tracer, build_tree, load_trace

pytestmark = pytest.mark.obs


class TestTracer:
    def test_nesting_assigns_parent_ids(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child_a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child_b"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["root"].parent_id is None
        assert by_name["child_a"].parent_id == by_name["root"].span_id
        assert by_name["grandchild"].parent_id == by_name["child_a"].span_id
        assert by_name["child_b"].parent_id == by_name["root"].span_id

    def test_span_times_are_monotone(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert outer.start_s <= inner.start_s
        assert inner.end_s <= outer.end_s
        assert inner.duration_s() >= 0.0

    def test_error_status_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.spans[0].status == "error"
        assert tracer.spans[0].end_s is not None

    def test_counters_and_annotations_hit_innermost(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.add("items", 2)
            with tracer.span("inner"):
                tracer.add("items", 5)
                tracer.annotate(note="deep")
        outer, inner = tracer.spans
        assert outer.counters == {"items": 2.0}
        assert inner.counters == {"items": 5.0}
        assert inner.attrs["note"] == "deep"

    def test_add_outside_any_span_is_noop(self):
        tracer = Tracer()
        tracer.add("items")
        tracer.annotate(x=1)
        assert tracer.spans == []


class TestSink:
    def test_buffered_flush_writes_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink_path=str(path), buffer_limit=2)
        with tracer.span("a"):
            pass
        assert not path.exists() or path.read_text() == ""
        with tracer.span("b"):
            pass
        # Second close reached the buffer limit -> both lines on disk.
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert {json.loads(line)["name"] for line in lines} == {"a", "b"}

    def test_sink_bounds_memory_to_open_spans(self, tmp_path):
        """A tracer with a sink keeps no closed span past its flush, so a
        long-lived tracer (one span per served batch) stays bounded."""
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink_path=str(path), buffer_limit=4)
        with tracer.span("root"):
            for index in range(10):
                with tracer.span("child", index=index):
                    pass
                assert len(tracer.spans) <= 4
        assert len(tracer.spans) <= 4
        tracer.flush()
        assert tracer.spans == []
        spans = load_trace(str(path))
        assert len(path.read_text().splitlines()) == 11
        assert [s.name for s in spans] == ["root"] + ["child"] * 10

    def test_explicit_flush_drains_buffer(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink_path=str(path), buffer_limit=100)
        with tracer.span("only"):
            pass
        tracer.flush()
        assert len(path.read_text().strip().splitlines()) == 1

    def test_nested_roundtrip_through_jsonl(self, tmp_path):
        """Satellite: parent/child reconstruction from the JSONL sink."""
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink_path=str(path), buffer_limit=1)
        with tracer.span("train", steps=3):
            with tracer.span("warmup"):
                pass
            with tracer.span("steps"):
                tracer.add("items", 3)
        with tracer.span("eval"):
            with tracer.span("render"):
                pass
        tracer.flush()

        spans = load_trace(str(path))
        # File order is completion order; load re-sorts into start order.
        assert [s.name for s in spans] == ["train", "warmup", "steps",
                                           "eval", "render"]
        roots = build_tree(spans)
        assert [r.name for r in roots] == ["train", "eval"]
        train, eval_root = roots
        assert [c.name for c in train.children] == ["warmup", "steps"]
        assert [c.name for c in eval_root.children] == ["render"]
        assert train.record.attrs == {"steps": 3}
        steps = train.children[1].record
        assert steps.counters == {"items": 3.0}
        assert all(s.status == "ok" for s in spans)

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink_path=str(path), buffer_limit=1)
        with tracer.span("kept"):
            pass
        with open(path, "a") as handle:
            handle.write('{"span_id": 99, "name": "torn", "start')
        spans = load_trace(str(path))
        assert [s.name for s in spans] == ["kept"]

    def test_orphan_span_promoted_to_root(self):
        tracer = Tracer()
        with tracer.span("lost_parent"):
            with tracer.span("survivor"):
                pass
        survivor = [s for s in tracer.spans if s.name == "survivor"]
        roots = build_tree(survivor)
        assert [r.name for r in roots] == ["survivor"]

    def test_json_safe_attrs(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink_path=str(path), buffer_limit=1)
        with tracer.span("attrs", tup=(1, 2), obj=object(), text="x"):
            pass
        tracer.flush()
        record = json.loads(path.read_text())
        assert record["attrs"]["tup"] == [1, 2]
        assert isinstance(record["attrs"]["obj"], str)
        assert record["attrs"]["text"] == "x"
