"""Hierarchical span tracing with a buffered JSONL sink.

A span is one timed region of a run — a training phase, a rendered video,
a batched detector forward. Spans nest: the tracer keeps an open-span
stack, so a span started while another is open becomes its child, and one
trace covers train → render → eval end to end when the same
:class:`~repro.obs.run.Run` is threaded through all stages.

Spans carry any-type attributes (set at open) and float counters
(accumulated while open), are assigned ids in start order, and are written
to the sink as JSON lines when they *close* — so the file order is
completion order, and reconstruction (:func:`load_trace` /
:func:`build_tree`) re-sorts by id. The sink is buffered but bounded:
every ``buffer_limit`` closed spans it appends and flushes, so a killed
process loses at most one buffer of spans, never the whole trace, and a
long-lived process holds at most one buffer of closed spans in memory.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["SpanRecord", "SpanNode", "Tracer", "load_trace", "build_tree"]

TRACE_SCHEMA_VERSION = 1


def _json_safe(value: Any) -> Any:
    """Best-effort JSON coercion for any-type span attributes."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    try:
        return float(value)  # numpy scalars
    except (TypeError, ValueError):
        return repr(value)


@dataclass
class SpanRecord:
    """One closed (or still-open) span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float                     # seconds since the tracer's origin
    end_s: Optional[float] = None
    status: str = "open"               # open | ok | error
    attrs: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def to_json(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "status": self.status,
            "attrs": {k: _json_safe(v) for k, v in self.attrs.items()},
            "counters": dict(self.counters),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SpanRecord":
        return cls(
            span_id=int(payload["span_id"]),
            parent_id=(None if payload.get("parent_id") is None
                       else int(payload["parent_id"])),
            name=str(payload["name"]),
            start_s=float(payload["start_s"]),
            end_s=(None if payload.get("end_s") is None
                   else float(payload["end_s"])),
            status=str(payload.get("status", "ok")),
            attrs=dict(payload.get("attrs", {})),
            counters={k: float(v) for k, v in payload.get("counters", {}).items()},
        )


@dataclass
class SpanNode:
    """A reconstructed span with its children, in start order."""

    record: SpanRecord
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record.name

    def walk(self) -> Iterator["SpanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


class Tracer:
    """Collects spans for one run and streams them to a JSONL sink.

    ``sink_path=None`` keeps every span in :attr:`spans` (tests, ephemeral
    runs). With a sink, :attr:`spans` drops what each flush wrote and keeps
    only the open spans, so memory stays bounded however long the tracer
    lives; read closed spans back with :func:`load_trace`. The tracer is
    single-threaded by design — the whole experiment stack is — so the
    open-span stack needs no locking.
    """

    def __init__(self, sink_path: Optional[str] = None, buffer_limit: int = 64):
        if buffer_limit < 1:
            raise ValueError("buffer_limit must be >= 1")
        self.sink_path = sink_path
        self.buffer_limit = buffer_limit
        self.spans: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []
        self._pending: List[SpanRecord] = []
        self._next_id = 0
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, items: Optional[float] = None,
             **attrs: Any) -> Iterator[SpanRecord]:
        """Open one span; nests under the currently open span. ``items``
        (units of work: frames, samples) starts its ``items`` counter."""
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            start_s=time.perf_counter() - self._origin,
            attrs=dict(attrs),
            counters={} if items is None else {"items": float(items)},
        )
        self._next_id += 1
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
            record.status = "ok"
        except BaseException:
            record.status = "error"
            raise
        finally:
            record.end_s = time.perf_counter() - self._origin
            self._stack.pop()
            self._pending.append(record)
            if len(self._pending) >= self.buffer_limit:
                self.flush()

    def current(self) -> Optional[SpanRecord]:
        return self._stack[-1] if self._stack else None

    def add(self, counter: str, amount: float = 1.0) -> None:
        """Accumulate a counter on the innermost open span (no-op outside)."""
        record = self.current()
        if record is not None:
            record.counters[counter] = record.counters.get(counter, 0.0) + float(amount)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span (no-op outside)."""
        record = self.current()
        if record is not None:
            record.attrs.update(attrs)

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Append buffered closed spans to the sink and fsync-flush it;
        a tracer with a sink then keeps only its open spans in memory."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        if self.sink_path is None:
            return
        with open(self.sink_path, "a") as handle:
            for record in pending:
                handle.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.spans = list(self._stack)


def load_trace(path: str) -> List[SpanRecord]:
    """Read a JSONL trace back into records, sorted into start (id) order.

    Tolerates a torn final line (the process died mid-write); everything
    before it is still recovered.
    """
    records: List[SpanRecord] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(SpanRecord.from_json(json.loads(line)))
            except (ValueError, KeyError):
                continue
    records.sort(key=lambda r: r.span_id)
    return records


def build_tree(spans: List[SpanRecord]) -> List[SpanNode]:
    """Reconstruct the span forest (roots in start order).

    A span whose parent is missing from ``spans`` (lost buffer tail)
    is promoted to a root rather than dropped.
    """
    nodes = {record.span_id: SpanNode(record) for record in spans}
    roots: List[SpanNode] = []
    for record in sorted(spans, key=lambda r: r.span_id):
        node = nodes[record.span_id]
        parent = (nodes.get(record.parent_id)
                  if record.parent_id is not None else None)
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    return roots
