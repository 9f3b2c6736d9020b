"""Run identity: one manifest per experiment run, one trace, one registry.

A :class:`Run` is the unit of provenance the paper's long multi-stage
pipelines were missing: every number a run produces is tied to a run id,
a config digest, the RNG seeds, and the host that produced it. The
manifest is written atomically (:func:`write_json_atomic`, which the
versioned ``BENCH_*.json`` reports share) both when the run opens — so a
crashed run still leaves a ``status: "running"`` manifest behind — and
when it closes, with the final status and the full metrics snapshot.

Hot paths take ``obs=None`` and stay zero-overhead without a run:
:func:`span_scope` is the one stage timer, a span when a run is attached
and a no-op scope otherwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import socket
import time
import uuid
from contextlib import nullcontext
from typing import Any, ContextManager, Dict, Optional

import numpy as np

from .metrics import Metrics
from .trace import Tracer

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "MANIFEST_NAME",
    "TRACE_NAME",
    "config_digest",
    "host_info",
    "Run",
    "span_scope",
    "write_json_atomic",
    "append_jsonl",
    "REPORT_SCHEMA_VERSION",
    "write_report",
    "load_report",
]

MANIFEST_SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
TRACE_NAME = "trace.jsonl"
#: Bump when the ``BENCH_*.json`` report layout changes incompatibly.
REPORT_SCHEMA_VERSION = 1


def _config_payload(config: Any) -> Any:
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    if isinstance(config, dict):
        return config
    return repr(config)


def config_digest(config: Any) -> str:
    """Stable short digest of a config (dataclass, dict, or anything).

    Key order never matters: the canonical form is sorted JSON. Two runs
    with the same digest ran the same configuration, which is what makes
    a cross-run diff meaningful.
    """
    canonical = json.dumps(_config_payload(config), sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def host_info() -> Dict[str, Any]:
    """Where a run executed — enough to explain wall-clock differences."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "hostname": socket.gethostname(),
        "pid": os.getpid(),
    }


def write_json_atomic(path: str, document: dict) -> None:
    """Write JSON via a same-directory temp file + atomic rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp_path = os.path.join(directory, f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp_path, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True, default=repr)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def append_jsonl(path: str, record: dict) -> None:
    """Append one JSON line durably (history logs, e.g. BENCH_history).

    The full line (payload + newline) goes down in a single ``write`` so
    a crash between writes can't interleave torn fragments, and the
    append is fsynced before the handle closes — a SIGKILL'd process
    leaves either the whole line or nothing, never a torn trailing line.
    """
    line = json.dumps(record, sort_keys=True, default=repr) + "\n"
    with open(path, "a") as handle:
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())


def write_report(path: str, payload: dict) -> dict:
    """Atomically write a ``BENCH_*.json`` report, stamped with
    :data:`REPORT_SCHEMA_VERSION`; returns the document written."""
    document = {"schema_version": REPORT_SCHEMA_VERSION, **payload}
    write_json_atomic(path, document)
    return document


def load_report(path: str,
                expected_version: Optional[int] = REPORT_SCHEMA_VERSION) -> dict:
    """Load a ``BENCH_*.json`` report, validating the schema version when
    given."""
    with open(path) as handle:
        document = json.load(handle)
    version = document.get("schema_version")
    if expected_version is not None and version != expected_version:
        raise ValueError(
            f"perf report {path!r} has schema_version={version!r}, "
            f"expected {expected_version}"
        )
    return document


class Run:
    """Context manager owning one run's identity, trace, and metrics.

    Usage::

        with Run(run_dir, name="attack", config=cfg, seeds={"attack": 0}) as run:
            with run.span("attack.train", steps=cfg.steps):
                ...
            run.metrics.counter("attack.steps_run").inc()

    ``run_dir`` receives ``manifest.json`` and ``trace.jsonl``. The
    manifest is (re)written on entry, on :meth:`checkpoint`, and on exit;
    the trace streams incrementally through the tracer's buffered sink.
    """

    def __init__(self, directory: str, name: str = "run",
                 config: Any = None, seeds: Optional[Dict[str, int]] = None,
                 run_id: Optional[str] = None, buffer_limit: int = 64):
        self.directory = directory
        self.name = name
        self.config = config
        self.seeds = dict(seeds or {})
        self.run_id = run_id or f"{name}-{uuid.uuid4().hex[:12]}"
        self.status = "created"
        self.error: Optional[str] = None
        self.started_unix: Optional[float] = None
        self.finished_unix: Optional[float] = None
        os.makedirs(directory, exist_ok=True)
        self.trace_path = os.path.join(directory, TRACE_NAME)
        self.manifest_path = os.path.join(directory, MANIFEST_NAME)
        self.tracer = Tracer(sink_path=self.trace_path, buffer_limit=buffer_limit)
        self.metrics = Metrics()

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> ContextManager:
        return self.tracer.span(name, **attrs)

    def manifest(self) -> dict:
        document = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "run_id": self.run_id,
            "name": self.name,
            "status": self.status,
            "config_digest": config_digest(self.config),
            "config": _config_payload(self.config),
            "seeds": dict(self.seeds),
            "host": host_info(),
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "trace_path": TRACE_NAME,
            "metrics": self.metrics.snapshot(),
        }
        if self.error is not None:
            document["error"] = self.error
        return document

    def write_manifest(self) -> dict:
        document = self.manifest()
        write_json_atomic(self.manifest_path, document)
        return document

    def checkpoint(self) -> None:
        """Flush the trace and persist the current manifest mid-run."""
        self.tracer.flush()
        self.write_manifest()

    # ------------------------------------------------------------------
    def __enter__(self) -> "Run":
        self.status = "running"
        self.started_unix = time.time()
        self.write_manifest()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self.finished_unix = time.time()
        if exc_type is None:
            self.status = "completed"
        else:
            self.status = "failed"
            self.error = f"{exc_type.__name__}: {exc}"
        self.tracer.flush()
        self.write_manifest()
        return False


def span_scope(obs: Optional[Run], name: str, **attrs: Any) -> ContextManager:
    """``obs.span(...)`` when a run (or tracer) is attached, else a no-op.

    The one stage timer: hot paths thread ``obs`` through unconditionally
    and pay nothing when it is ``None``. ``items=n`` starts the span's
    ``items`` counter (frames, samples), which :func:`~repro.obs.stage_table`
    and :func:`~repro.obs.render_run` read as throughput::

        with span_scope(obs, "detect.forward", items=len(batch)):
            ...
    """
    if obs is None:
        return nullcontext()
    return obs.span(name, **attrs)
