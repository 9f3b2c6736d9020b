"""`repro.serve` — robust detection-as-a-service (DESIGN.md §11).

The serving layer turns the batched inference hot path (DESIGN.md §8) and
the hardened worker pool (DESIGN.md §10) into an async multi-tenant
server:

* :mod:`.config` — the bounded-everything knob set (admission, queue,
  batch window, deadlines, retry-once, degraded fallback);
* :mod:`.scheduler` — process-free scheduling primitives: the bounded
  shared-memory frame store, the batch-cut deadline policy, the
  request/response vocabulary with its per-stage latency split, and the
  thread-safe, bounded stats ledger;
* :mod:`.backends` — where batches run: the ``repro.parallel`` worker
  pool (scale path) or serial in-process inference (degraded mode);
* :mod:`.workers` — spawn-side detector workers and the slab/wire
  formats they share with the parent;
* :mod:`.server` — :class:`DetectionServer`, the client-facing object:
  sessions, futures, the scheduler thread, chaos-tested recovery.

Benchmarked by ``scripts/bench_serve.py`` (``BENCH_serve.json``): p50/p99
latency, the stage split and sustained frames/sec at N simulated
closed-loop clients, an open-loop camera phase, plus overload (bounded
shed) and chaos (worker SIGKILL) phases.
"""

from .backends import InprocBackend, PoolBackend
from .config import AdmissionError, ServeConfig, ServerClosed
from .scheduler import (
    STAGES,
    DetectionResponse,
    FrameStore,
    PendingRequest,
    RequestStatus,
    ServeStats,
    batch_cut,
    next_wake,
)
from .server import SERVE_STATS_NAME, DetectionServer, StreamSession

__all__ = [
    "AdmissionError",
    "ServeConfig",
    "ServerClosed",
    "DetectionResponse",
    "FrameStore",
    "PendingRequest",
    "RequestStatus",
    "ServeStats",
    "STAGES",
    "batch_cut",
    "next_wake",
    "InprocBackend",
    "PoolBackend",
    "DetectionServer",
    "StreamSession",
    "SERVE_STATS_NAME",
]
