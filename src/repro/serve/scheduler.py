"""Scheduling primitives of the serving layer: request state, the bounded
frame store, batch-cut policy, and the stats ledger.

These pieces are deliberately process- and thread-free so the admission /
batching / deadline logic is unit-testable with a fake clock and a fake
backend; :class:`repro.serve.server.DetectionServer` wires them to real
worker processes.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..detection.decode import Detection
from ..parallel import SharedSlab
from .workers import FRAME_ARRAY, frame_spec

__all__ = [
    "RequestStatus",
    "DetectionResponse",
    "PendingRequest",
    "FrameStore",
    "batch_cut",
    "next_wake",
    "ServeStats",
    "STAGES",
]


class RequestStatus:
    """Terminal statuses a request can resolve to (strings, JSON-ready)."""

    OK = "ok"
    SHED = "shed"            # rejected at admission: no free queue slot
    TIMEOUT = "timeout"      # deadline passed (queued or completed late)
    FAILED = "failed"        # inference failed after retry + fallback policy
    CANCELLED = "cancelled"  # server closed without draining

    TERMINAL = (OK, SHED, TIMEOUT, FAILED, CANCELLED)


@dataclass
class DetectionResponse:
    """What one frame submission resolves to."""

    session_id: int
    seq: int
    status: str
    detections: List[Detection] = field(default_factory=list)
    latency_s: float = 0.0
    degraded: bool = False
    #: Seconds per stage of an ``ok`` response, keyed by :data:`STAGES`;
    #: all but ``admit`` sum to ``latency_s``. Empty for other statuses.
    stages: Dict[str, float] = field(default_factory=dict)


@dataclass
class PendingRequest:
    """One admitted frame: slot-held from admission to terminal response."""

    session_id: int
    seq: int
    slot: int
    enqueue_t: float
    deadline_t: float
    future: "Future[DetectionResponse]"
    completed: bool = False
    #: Seconds from entering ``submit`` to ``enqueue_t`` (the slab copy).
    admit_s: float = 0.0
    #: When the request's batch was handed to the backend.
    dispatch_t: float = 0.0


class FrameStore:
    """Bounded slot pool over one shared-memory frame slab.

    The store *is* the admission bound: a request holds its slot from
    submit until its response is terminal, so ``capacity`` caps queued +
    in-flight work in one number and "queue depth" can never grow past
    it. Slot acquisition/release is thread-safe (client threads submit
    concurrently); writes go to disjoint slots, so they need no lock.
    """

    def __init__(self, input_size: int, capacity: int):
        self.capacity = capacity
        self._slab = SharedSlab.create((frame_spec(input_size),), slots=capacity)
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._lock = threading.Lock()
        self._shape = (3, input_size, input_size)

    def handle(self):
        return self._slab.handle()

    @property
    def in_use(self) -> int:
        with self._lock:
            return self.capacity - len(self._free)

    def acquire(self, frame: np.ndarray) -> Optional[int]:
        """Copy ``frame`` into a free slot; ``None`` when full (shed)."""
        if frame.shape != self._shape:
            raise ValueError(
                f"frame shape {frame.shape} != expected {self._shape}")
        with self._lock:
            if not self._free:
                return None
            slot = self._free.pop()
        self._slab.write({FRAME_ARRAY: frame.astype(np.float32, copy=False)},
                         slot=slot)
        return slot

    def read(self, slot: int) -> np.ndarray:
        return self._slab.slot_copy(FRAME_ARRAY, slot)

    def release(self, slot: int) -> None:
        with self._lock:
            self._free.append(slot)

    def close(self) -> None:
        self._slab.close()


def batch_cut(queue: Sequence[PendingRequest], now: float, max_batch: int,
              batch_window_s: float, draining: bool = False,
              idle_since: Optional[float] = None) -> int:
    """How many queued requests to dispatch *now* (0 = keep waiting).

    Cut a full batch the moment one exists. Cut a partial batch once its
    oldest member has waited out the batch window, once the server is
    draining, or once the backend has been idle for a whole window.
    ``idle_since`` is the time since which no batch has been in flight —
    the last batch completion, ``-inf`` before the first dispatch — and
    ``None`` while a batch is in flight. The window buys occupancy only
    while a co-batcher can still arrive: a closed-loop client resubmits
    right after its answer, so for one window after a completion the
    queue waits for it; an idle backend that long serves the queue at
    once. Otherwise wait — :func:`next_wake` bounds how long.
    """
    if not queue:
        return 0
    if len(queue) >= max_batch:
        return max_batch
    idle_expired = (idle_since is not None
                    and now - idle_since >= batch_window_s)
    if (draining or idle_expired
            or now - queue[0].enqueue_t >= batch_window_s):
        return len(queue)
    return 0


def next_wake(queue: Sequence[PendingRequest], now: float,
              batch_window_s: float,
              idle_since: Optional[float] = None) -> Optional[float]:
    """Seconds until the scheduler must act on the queue (None = no work:
    sleep until a submit arrives): the earliest of the oldest request's
    window expiry, the idle-window expiry (``idle_since`` as in
    :func:`batch_cut`) and the earliest deadline."""
    if not queue:
        return None
    wake = min(queue[0].enqueue_t + batch_window_s,
               min(request.deadline_t for request in queue))
    if idle_since is not None:
        wake = min(wake, idle_since + batch_window_s)
    return max(0.0, wake - now)


#: Samples each :class:`ServeStats` series retains; percentiles and the
#: obs mirror read these, the lifetime totals are kept apart.
SAMPLE_RING = 4096

#: Stages of one ``ok`` response, in order (DESIGN.md §11). ``admit`` is
#: the slab copy before enqueue; the other five sum to ``latency_s``.
STAGES = ("admit", "queue", "pool", "forward", "postprocess", "delivery")


class _Ring:
    """The last :data:`SAMPLE_RING` samples of one series, plus the
    running count (sequence number) and sum of every sample appended."""

    def __init__(self) -> None:
        self.samples: Deque[float] = deque(maxlen=SAMPLE_RING)
        self.seq = 0
        self.total = 0.0

    def append(self, value: float) -> None:
        self.samples.append(value)
        self.seq += 1
        self.total += value

    def last(self, n: int) -> List[float]:
        """The newest ``n`` retained samples, oldest first."""
        return list(itertools.islice(reversed(self.samples), n))[::-1]


def _p50_p99_ms(samples: Sequence[float]) -> Tuple[float, float]:
    p50, p99 = np.percentile(samples, (50, 99))
    return 1e3 * float(p50), 1e3 * float(p99)


@dataclass
class ServeStats:
    """Thread-safe robustness ledger of one server lifetime.

    Counters are lifetime totals; latencies, batch occupancies and the
    per-stage times keep running totals plus a ring of the last
    :data:`SAMPLE_RING` samples, so memory and :meth:`snapshot` cost stay
    fixed however long the server runs. Percentiles are over the ring.
    Mirrored into a :class:`repro.obs.Metrics` registry by
    ``DetectionServer.publish`` — kept separate so client threads never
    touch the (single-writer) obs registry directly.
    """

    accepted: int = 0
    shed: int = 0
    ok: int = 0
    timeouts: int = 0
    failed: int = 0
    cancelled: int = 0
    batches: int = 0
    degraded_batches: int = 0
    admission_rejected: int = 0
    max_queue_depth: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._rings: Dict[str, _Ring] = {
            name: _Ring() for name in ("latency", "occupancy") + STAGES}

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def observe_depth(self, depth: int) -> None:
        with self._lock:
            self.max_queue_depth = max(self.max_queue_depth, depth)

    def observe_batch(self, occupancy: int) -> None:
        with self._lock:
            self.batches += 1
            self._rings["occupancy"].append(occupancy)

    def observe_latency(self, seconds: float,
                        stages: Optional[Dict[str, float]] = None) -> None:
        """One ``ok`` response: its latency and, when known, its stages
        (seconds, keyed by :data:`STAGES`)."""
        with self._lock:
            self._rings["latency"].append(seconds)
            for name, value in (stages or {}).items():
                self._rings[name].append(value)

    def samples_since(self, series: str,
                      seq: int) -> Tuple[List[float], int, int]:
        """Samples of ``series`` appended after sequence number ``seq``:
        ``(samples, current seq, lost)``, where ``lost`` counts those that
        already left the ring — a reader that falls behind learns by how
        much instead of silently missing them."""
        with self._lock:
            ring = self._rings[series]
            fresh = ring.seq - seq
            samples = ring.last(fresh)
            return samples, ring.seq, fresh - len(samples)

    def _counters(self) -> dict:
        return {
            "accepted": self.accepted,
            "shed": self.shed,
            "ok": self.ok,
            "timeouts": self.timeouts,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "batches": self.batches,
            "degraded_batches": self.degraded_batches,
            "admission_rejected": self.admission_rejected,
            "max_queue_depth": self.max_queue_depth,
        }

    def probe(self) -> dict:
        """Live-telemetry probe: flat counters plus rolling latency,
        per-stage and occupancy summaries over the most recent
        observations. Cheap by construction (bounded slices), so a
        sampler can poll it at sub-second intervals without perturbing
        the scheduler."""
        with self._lock:
            out = self._counters()
            recent = {name: ring.last(256) for name, ring in self._rings.items()
                      if name != "occupancy"}
            occupancy = self._rings["occupancy"].last(64)
        latencies = recent.pop("latency")
        if latencies:
            out["latency_p50_ms"], out["latency_p99_ms"] = _p50_p99_ms(
                latencies)
        for name, samples in recent.items():
            if samples:
                (out[f"stage.{name}_p50_ms"],
                 out[f"stage.{name}_p99_ms"]) = _p50_p99_ms(samples)
        if occupancy:
            out["recent_batch_occupancy"] = float(np.mean(occupancy))
        return out

    def snapshot(self) -> dict:
        """JSON-ready ledger: lifetime counters, lifetime mean batch
        occupancy, and p50/p99 latency plus ``stages_ms`` over the
        retained samples."""
        with self._lock:
            out = self._counters()
            occupancy_total = self._rings["occupancy"].total
            samples = {name: list(ring.samples)
                       for name, ring in self._rings.items()
                       if name != "occupancy"}
        out["mean_batch_occupancy"] = (
            occupancy_total / out["batches"] if out["batches"] else 0.0)
        latencies = samples.pop("latency")
        if latencies:
            out["latency_p50_ms"], out["latency_p99_ms"] = _p50_p99_ms(
                latencies)
        out["stages_ms"] = {
            name: dict(zip(("p50", "p99"), _p50_p99_ms(values)))
            for name, values in samples.items() if values}
        return out
