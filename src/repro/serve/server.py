"""`DetectionServer` — async multi-tenant detection-as-a-service.

Many concurrent clients open stream sessions and submit frames; a single
scheduler thread coalesces admitted requests into dynamic batches under
the latency-vs-throughput window policy and runs them on an inference
backend (worker pool, or serial in-process in degraded mode). Every
submission resolves a :class:`concurrent.futures.Future` with exactly one
terminal :class:`~repro.serve.scheduler.DetectionResponse` — accepted work
is never dropped and never answered twice, whatever happens to the
workers underneath (DESIGN.md §11).

Robustness contract:

* **admission control** — sessions beyond ``max_sessions`` are refused;
  frames beyond the bounded slot pool are shed *immediately* with status
  ``"shed"`` (queue depth is capped by construction, overload can never
  express itself as unbounded latency);
* **deadlines** — a request still queued past its deadline is answered
  ``"timeout"`` without costing a forward pass; one whose batch returns
  late is answered ``"timeout"`` too;
* **worker failure** — a SIGKILL'd or hung worker is detected by the
  pool, respawned, and its in-flight batch redispatched exactly once;
  if the batch is lost anyway, the server reruns it serially in-process
  (``degraded_ok``) so its requests still complete;
* **degraded mode** — if the pool cannot be built (or all workers fail
  init), the server falls back to serial in-process inference and keeps
  serving.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

import numpy as np

from ..detection.model import TinyYolo
from ..nn.functional import conv_workspace_totals
from ..nn.quant import QuantizationError, quant_runtime_totals
from ..obs import Run
from ..obs.live import LiveConfig, LiveTelemetry, process_stats
from ..obs.run import write_json_atomic
from ..obs.trace import Tracer
from .backends import InprocBackend, PoolBackend
from .config import AdmissionError, ServeConfig, ServerClosed
from .scheduler import (
    DetectionResponse,
    FrameStore,
    PendingRequest,
    RequestStatus,
    ServeStats,
    batch_cut,
    next_wake,
)
from .workers import decode_detections

__all__ = ["DetectionServer", "StreamSession", "SERVE_STATS_NAME"]

#: Atomic per-interval stats snapshot (``{obs.directory}/serve_stats.json``).
SERVE_STATS_NAME = "serve_stats.json"
SERVE_STATS_SCHEMA_VERSION = 1

#: Init failures (relative to the worker count) after which the pool is
#: declared unbuildable and the server drops to degraded mode.
_INIT_FAILURE_FACTOR = 2


def _shed_rate(live: LiveTelemetry, now: float) -> Optional[float]:
    """Derived SLO input: fraction of submits shed over the live window."""
    shed = live.rate("serve.shed", now)
    accepted = live.rate("serve.accepted", now)
    if shed is None or accepted is None:
        return None
    attempted = shed + accepted
    return shed / attempted if attempted > 0 else 0.0


def _respawns_per_min(live: LiveTelemetry, now: float) -> Optional[float]:
    """Derived SLO input: worker respawns per minute over the window."""
    rate = live.rate("serve.pool.respawns", now)
    return None if rate is None else 60.0 * rate


@dataclass
class StreamSession:
    """One tenant's admitted frame stream."""

    session_id: int
    name: str = ""

    def __post_init__(self) -> None:
        self._seq = itertools.count()
        self.open = True

    def next_seq(self) -> int:
        return next(self._seq)


class DetectionServer:
    """Async multi-tenant inference over a frozen detector.

    Parameters
    ----------
    detector:
        The frozen perception model; its weights are broadcast to the
        worker pool once and reused for serial fallback inference.
    config:
        Robustness/batching knobs (:class:`~repro.serve.config.ServeConfig`).
    obs:
        Optional :class:`repro.obs.Run`. The scheduler thread gets its
        *own* span tracer (``serve_trace.jsonl`` in the run directory —
        the run's main tracer is single-threaded by design), mirrors its
        stats into the run's metrics registry every
        ``config.stats_interval_s`` (delta-based, so the final mirror at
        :meth:`close` never double-counts), and refreshes an atomic
        ``serve_stats.json`` alongside — a SIGKILLed server still leaves
        a loadable last state.
    live:
        Optional :class:`repro.obs.LiveConfig` (or ``True`` for the
        defaults). Attaches a :class:`repro.obs.LiveTelemetry` sampler
        polling the server ledger, pool health, and process RSS/CPU,
        evaluating the configured SLO rules, and writing ``live.json`` /
        ``alerts.jsonl`` into the obs directory. ``None`` — the default —
        costs nothing: no thread, no probes, no files.
    calibration:
        :class:`~repro.nn.quant.CalibrationResult` backing
        ``ServeConfig(precision="int8")`` (DESIGN.md §15). Required when
        the config asks for int8 — validated here at construction, so a
        mis-configured server fails fast instead of on the first batch —
        and forwarded to pool workers (who re-quantize after the weight
        broadcast) and the in-process fallback alike.
    """

    def __init__(self, detector: TinyYolo, config: Optional[ServeConfig] = None,
                 obs: Optional[Run] = None, conf_threshold: float = 0.3,
                 iou_threshold: float = 0.45, max_detections: int = 50,
                 live=None, calibration=None):
        self.config = config or ServeConfig()
        if self.config.precision == "int8" and calibration is None:
            raise QuantizationError(
                "ServeConfig(precision='int8') requires calibration: pass "
                "DetectionServer(calibration=CalibrationResult) — run "
                "calibrate_detector(detector, frames) first")
        self.calibration = calibration
        self.detector = detector.eval()
        self.obs = obs
        self._conf = conf_threshold
        self._iou = iou_threshold
        self._max_detections = max_detections
        self.stats = ServeStats()

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: Deque[PendingRequest] = deque()
        self._inflight: Dict[int, List[PendingRequest]] = {}
        self._sessions: Dict[int, StreamSession] = {}
        self._session_ids = itertools.count()
        self._draining = False
        self._abort = False
        self._closed = False
        self.degraded = False
        self._backend_broken = False
        # Pool-health bookkeeping: batches the pool actually completed,
        # and the current run of consecutive pool-lost batches.
        self._pool_ok_batches = 0
        self._pool_failure_streak = 0

        # Delta-based mirror state: what has already been folded into the
        # obs metrics registry, so periodic mirrors + the final one at
        # close() sum to exactly the ledger totals (no double-counting).
        self._mirror_lock = threading.Lock()
        self._mirrored: Dict[str, float] = {}
        self._mirrored_latencies = 0
        self._mirrored_occupancy = 0
        self._last_mirror_t = time.monotonic()

        self._store = FrameStore(detector.config.input_size,
                                 self.config.queue_capacity)
        self._backend = self._build_backend()
        self._tracer: Optional[Tracer] = None
        if obs is not None:
            self._tracer = Tracer(
                sink_path=os.path.join(obs.directory, "serve_trace.jsonl"))

        self.live: Optional[LiveTelemetry] = None
        if live is not None and live is not False:
            live_config = live if isinstance(live, LiveConfig) else LiveConfig()
            self.live = LiveTelemetry(
                directory=obs.directory if obs is not None else None,
                config=live_config,
                metrics=obs.metrics if obs is not None else None)
            self.live.add_probe("serve", self.probe)
            self.live.add_probe("proc", process_stats)
            # Conv workspace occupancy (buffer_bytes, hits/misses,
            # evictions) aggregated across every thread's workspace plus
            # any lowered-plan caches — the memory side of the hot path.
            self.live.add_probe("workspace", conv_workspace_totals)
            # Quantization runtime: calibration range summary, plan-cache
            # sizes and dequant-epilogue counts over every quantized
            # detector in-process — shows which precision is serving.
            # All zeros on an fp server (the probe is precision-agnostic;
            # pool workers' quantized detectors live in *their* processes
            # and surface through their own telemetry, not this probe).
            self.live.add_probe("quant", quant_runtime_totals)
            self.live.add_derived("serve.shed_rate", _shed_rate)
            self.live.add_derived("serve.respawns_per_min", _respawns_per_min)
            if obs is not None:
                # Satellite of the durability contract: refresh the stats
                # mirror + atomic serve_stats.json on *every* sampler tick,
                # not just at close.
                self.live.add_snapshot_writer(self.mirror_stats)

        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-scheduler")
        self._thread.start()
        if self.live is not None:
            self.live.start()

    # -- construction ---------------------------------------------------
    def _inproc_backend(self) -> InprocBackend:
        return InprocBackend(self.detector, self._store, self._conf,
                             self._iou, self._max_detections,
                             lowered=self.config.lowered,
                             precision=self.config.precision,
                             calibration=self.calibration)

    def _build_backend(self):
        if self.config.workers == 0:
            self.degraded = True  # chosen up front, not a failure
            return self._inproc_backend()
        try:
            return PoolBackend(self.detector, self._store, self.config,
                               self._conf, self._iou, self._max_detections,
                               calibration=self.calibration)
        except Exception:
            if not self.config.degraded_ok:
                raise
            self.degraded = True
            return self._inproc_backend()

    # -- client surface -------------------------------------------------
    def open_session(self, name: str = "") -> StreamSession:
        """Admit one tenant stream; raises :class:`AdmissionError` when
        the multi-tenant cap is reached."""
        with self._lock:
            if self._closed or self._draining:
                raise ServerClosed("server is shutting down")
            if len(self._sessions) >= self.config.max_sessions:
                self.stats.count("admission_rejected")
                raise AdmissionError(
                    f"session limit {self.config.max_sessions} reached")
            session = StreamSession(next(self._session_ids), name=name)
            self._sessions[session.session_id] = session
            return session

    def close_session(self, session: StreamSession) -> None:
        with self._lock:
            session.open = False
            self._sessions.pop(session.session_id, None)

    def submit(self, session: StreamSession, frame: np.ndarray,
               deadline_s: Optional[float] = None) -> "Future[DetectionResponse]":
        """Submit one CHW frame; resolves to exactly one terminal response.

        Never blocks on a full server: with no free queue slot the
        request is *shed* — the future resolves immediately with status
        ``"shed"`` and an incremented shed counter, instead of joining an
        unbounded queue.
        """
        if not session.open:
            raise ValueError(f"session {session.session_id} is closed")
        with self._lock:
            if self._closed or self._draining:
                raise ServerClosed("server is shutting down")
        frame = np.asarray(frame, dtype=np.float32)
        seq = session.next_seq()
        future: "Future[DetectionResponse]" = Future()
        slot = self._store.acquire(frame)  # raises ValueError on bad shape
        if slot is None:
            self.stats.count("shed")
            future.set_result(DetectionResponse(
                session.session_id, seq, RequestStatus.SHED))
            return future
        now = time.monotonic()
        pending = PendingRequest(
            session_id=session.session_id, seq=seq, slot=slot,
            enqueue_t=now,
            deadline_t=now + (deadline_s if deadline_s is not None
                              else self.config.deadline_s),
            future=future,
        )
        with self._cond:
            if self._closed or self._draining:
                self._store.release(slot)
                future.set_result(DetectionResponse(
                    session.session_id, seq, RequestStatus.CANCELLED))
                return future
            self._queue.append(pending)
            self.stats.count("accepted")
            self.stats.observe_depth(self._store.in_use)
            self._cond.notify()
        return future

    def submit_async(self, session: StreamSession, frame: np.ndarray,
                     deadline_s: Optional[float] = None):
        """Awaitable facade over :meth:`submit` (asyncio clients)."""
        import asyncio
        return asyncio.wrap_future(self.submit(session, frame, deadline_s))

    def worker_pids(self) -> List[int]:
        """Live inference-worker pids (chaos testing: SIGKILL one)."""
        return self._backend.worker_pids()

    def snapshot(self) -> dict:
        """JSON-ready stats: ledger + pool counters + mode."""
        out = self.stats.snapshot()
        counters = self._backend.counters
        out.update({
            "mode": self._backend.name,
            "degraded": self.degraded,
            "precision": self.config.precision,
            "queue_capacity": self.config.queue_capacity,
            "pool": {
                "respawns": counters.respawns,
                "requeues": counters.requeues,
                "timeouts": counters.timeouts,
                "worker_deaths": counters.worker_deaths,
            },
        })
        return out

    def probe(self) -> dict:
        """Live-telemetry probe (``LiveTelemetry.add_probe`` target):
        flat scalars — ledger counters, rolling latency percentiles,
        current queue depth, batch fill, and pool health."""
        out = self.stats.probe()
        out["queue_depth"] = self._store.in_use
        out["degraded"] = 1.0 if self.degraded else 0.0
        out["int8"] = 1.0 if self.config.precision == "int8" else 0.0
        occupancy = out.get("recent_batch_occupancy")
        if occupancy is not None:
            out["batch_fill"] = occupancy / self.config.max_batch
        counters = self._backend.counters
        for attr in ("respawns", "requeues", "timeouts", "worker_deaths"):
            out[f"pool.{attr}"] = getattr(counters, attr)
        return out

    # -- shutdown -------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop the server. ``drain=True`` completes all admitted work
        first; ``drain=False`` cancels queued and in-flight requests."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._draining = True
            self._abort = not drain
            self._cond.notify_all()
        self._thread.join(timeout=max(60.0, 4 * self.config.task_timeout_s))
        if self.live is not None:
            # Final sampler tick runs the serve_stats mirror one last time.
            self.live.stop()
        self._backend.close()
        self._store.close()
        if self.obs is not None:
            self.mirror_stats()  # mop up deltas since the last tick
        if self._tracer is not None:
            self._tracer.flush()

    def __enter__(self) -> "DetectionServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def publish(self, obs: Run) -> None:
        """Mirror the server ledger into an obs metrics registry.

        Delta-based: only counts not yet mirrored by a previous
        :meth:`mirror_stats` tick are added, so calling this at close
        after a lifetime of periodic mirrors reaches exactly the ledger
        totals."""
        self._mirror_into(obs.metrics, self.snapshot())

    def mirror_stats(self) -> dict:
        """One periodic stats mirror: fold ledger deltas into the obs
        metrics registry and atomically refresh ``serve_stats.json``.

        Called from the scheduler loop every ``stats_interval_s`` and
        from every live-sampler tick; safe from either thread (one
        internal lock serializes mirror state). Returns the snapshot it
        published."""
        snap = self.snapshot()
        if self.obs is not None:
            self._mirror_into(self.obs.metrics, snap)
            write_json_atomic(
                os.path.join(self.obs.directory, SERVE_STATS_NAME),
                {"schema_version": SERVE_STATS_SCHEMA_VERSION,
                 "updated_unix": time.time(), "stats": snap})
        return snap

    def _mirror_into(self, metrics, snap: dict) -> None:
        with self._mirror_lock:
            for key in ("accepted", "shed", "ok", "timeouts", "failed",
                        "cancelled", "batches", "degraded_batches",
                        "admission_rejected"):
                value = snap.get(key, 0)
                delta = value - self._mirrored.get(key, 0)
                if delta > 0:
                    metrics.counter(f"serve.{key}").inc(delta)
                    self._mirrored[key] = value
            metrics.gauge("serve.max_queue_depth").set(snap["max_queue_depth"])
            metrics.gauge("serve.mean_batch_occupancy").set(
                snap["mean_batch_occupancy"])
            for attr, value in snap["pool"].items():
                delta = value - self._mirrored.get(f"pool.{attr}", 0)
                if delta > 0:
                    metrics.counter(f"serve.pool.{attr}").inc(delta)
                    self._mirrored[f"pool.{attr}"] = value
            with self.stats._lock:
                latencies = self.stats.latencies_s[self._mirrored_latencies:]
                occupancy = self.stats.batch_occupancy[
                    self._mirrored_occupancy:]
                self._mirrored_latencies += len(latencies)
                self._mirrored_occupancy += len(occupancy)
            latency_hist = metrics.histogram("serve.latency_s")
            for value in latencies:
                latency_hist.observe(value)
            occupancy_hist = metrics.histogram(
                "serve.batch_occupancy",
                buckets=(1, 2, 4, 8, 16, 32, float("inf")))
            for value in occupancy:
                occupancy_hist.observe(value)

    # -- scheduler thread ----------------------------------------------
    def _run(self) -> None:
        try:
            if self._tracer is not None:
                with self._tracer.span("serve.loop",
                                       workers=self.config.workers,
                                       capacity=self.config.queue_capacity):
                    self._loop()
            else:
                self._loop()
        finally:
            # Whatever happens, no admitted future is left unresolved.
            self._cancel_everything()
            if self._tracer is not None:
                self._tracer.flush()

    def _loop(self) -> None:
        while True:
            if (self.obs is not None
                    and time.monotonic() - self._last_mirror_t
                    >= self.config.stats_interval_s):
                self._last_mirror_t = time.monotonic()
                self.mirror_stats()
            batch: Optional[List[PendingRequest]] = None
            expired: List[PendingRequest] = []
            with self._cond:
                if self._abort:
                    return
                now = time.monotonic()
                expired = self._pop_expired_locked(now)
                cut = batch_cut(self._queue, now, self.config.max_batch,
                                self.config.batch_window_s,
                                draining=self._draining)
                if cut:
                    batch = [self._queue.popleft() for _ in range(cut)]
                elif not self._inflight and not self._backend.outstanding:
                    if self._draining and not self._queue:
                        return
                    wake = next_wake(self._queue, now,
                                     self.config.batch_window_s)
                    self._cond.wait(timeout=wake if wake is not None else 0.1)
            for request in expired:
                self._complete(request, RequestStatus.TIMEOUT)
            if batch is not None:
                self._dispatch(batch)
                continue  # a second full batch may already be waiting
            if self._inflight or self._backend.outstanding:
                for outcome in self._poll_backend():
                    self._finish_batch(outcome)

    def _pop_expired_locked(self, now: float) -> List[PendingRequest]:
        if not self._queue:
            return []
        expired = [r for r in self._queue if r.deadline_t <= now]
        if expired:
            self._queue = deque(
                r for r in self._queue if r.deadline_t > now)
        return expired

    def _dispatch(self, batch: List[PendingRequest]) -> None:
        task = {"slots": [request.slot for request in batch]}
        if self._backend_broken:
            for request in batch:
                self._complete(request, RequestStatus.FAILED)
            return
        try:
            if self._tracer is not None:
                with self._tracer.span("serve.dispatch", occupancy=len(batch),
                                       queue_depth=self._store.in_use,
                                       mode=self._backend.name):
                    task_id = self._backend.submit(task)
            else:
                task_id = self._backend.submit(task)
        except Exception as exc:
            if self._switch_degraded(f"submit failed: {exc!r}"):
                task_id = self._backend.submit(task)
            else:
                for request in batch:
                    self._complete(request, RequestStatus.FAILED)
                return
        self._inflight[task_id] = batch
        self.stats.observe_batch(len(batch))

    def _poll_backend(self):
        try:
            outcomes = self._backend.poll(self.config.poll_interval_s)
        except Exception as exc:
            if self._switch_degraded(f"poll failed: {exc!r}"):
                return []
            self._fail_inflight()
            return []
        if isinstance(self._backend, PoolBackend):
            threshold = max(2, _INIT_FAILURE_FACTOR * self.config.workers)
            counters = self._backend.counters
            # "Cannot be (re)built": workers report init failures, or they
            # keep dying before ever completing a batch (spawn storms), or
            # several batches in a row were lost despite retry-once.
            unbuildable = (
                self._backend.init_failures >= threshold
                or (counters.worker_deaths >= threshold
                    and self._pool_ok_batches == 0)
                or self._pool_failure_streak >= 3
            )
            if unbuildable:
                if not self._switch_degraded(
                        f"pool unusable: init_failures="
                        f"{self._backend.init_failures} worker_deaths="
                        f"{counters.worker_deaths} "
                        f"failure_streak={self._pool_failure_streak}"):
                    self._fail_inflight()
                return []
        return outcomes

    def _finish_batch(self, outcome) -> None:
        batch = self._inflight.pop(outcome.task_id, None)
        if batch is None:
            return  # late duplicate of a redispatched batch (pool dedupes)
        if outcome.status == "done":
            if self._backend.name == "pool":
                self._pool_ok_batches += 1
                self._pool_failure_streak = 0
            by_slot = {row[0]: row[1] for row in outcome.rows}
            now = time.monotonic()
            for request in batch:
                encoded = by_slot.get(request.slot)
                if encoded is None:
                    self._complete(request, RequestStatus.FAILED)
                elif now > request.deadline_t:
                    self._complete(request, RequestStatus.TIMEOUT)
                else:
                    self._complete(request, RequestStatus.OK,
                                   decode_detections(encoded),
                                   degraded=self._backend.name == "inproc")
            return
        # "error" / "failed": the batch is lost to the pool (retry-once
        # exhausted, or the task itself raised). Degrade to a serial
        # in-process rerun so the requests still complete.
        if self._backend.name == "pool":
            self._pool_failure_streak += 1
        if self.config.degraded_ok:
            self.stats.count("degraded_batches")
            self._run_inline(batch)
        else:
            for request in batch:
                self._complete(request, RequestStatus.FAILED)

    def _run_inline(self, batch: List[PendingRequest]) -> None:
        inline = self._inproc_backend()
        task_id = inline.submit({"slots": [r.slot for r in batch]})
        for outcome in inline.poll():
            if outcome.task_id != task_id or outcome.status != "done":
                for request in batch:
                    self._complete(request, RequestStatus.FAILED)
                return
            by_slot = {row[0]: row[1] for row in outcome.rows}
            now = time.monotonic()
            for request in batch:
                encoded = by_slot.get(request.slot)
                if encoded is None:
                    self._complete(request, RequestStatus.FAILED)
                elif now > request.deadline_t:
                    self._complete(request, RequestStatus.TIMEOUT)
                else:
                    self._complete(request, RequestStatus.OK,
                                   decode_detections(encoded), degraded=True)

    def _switch_degraded(self, reason: str) -> bool:
        """Replace the backend with serial in-process inference; resubmit
        every in-flight batch. Returns False when fallback is disabled."""
        if isinstance(self._backend, InprocBackend):
            return True  # nothing further to fall back to
        if not self.config.degraded_ok:
            self._backend_broken = True
            try:
                self._backend.close()
            except Exception:
                pass
            return False
        old, inflight = self._backend, self._inflight
        self._backend = self._inproc_backend()
        self._inflight = {}
        self.degraded = True
        if self._tracer is not None:
            self._tracer.annotate(degraded_reason=reason)
        for batch in inflight.values():
            task_id = self._backend.submit(
                {"slots": [request.slot for request in batch]})
            self._inflight[task_id] = batch
        try:
            old.close()  # kills any stragglers; no late results can race
        except Exception:
            pass
        return True

    def _fail_inflight(self) -> None:
        inflight, self._inflight = self._inflight, {}
        for batch in inflight.values():
            for request in batch:
                self._complete(request, RequestStatus.FAILED)

    def _cancel_everything(self) -> None:
        with self._cond:
            queued = list(self._queue)
            self._queue.clear()
        for request in queued:
            self._complete(request, RequestStatus.CANCELLED)
        inflight, self._inflight = self._inflight, {}
        for batch in inflight.values():
            for request in batch:
                self._complete(request, RequestStatus.CANCELLED)

    def _complete(self, request: PendingRequest, status: str,
                  detections: Optional[List] = None,
                  degraded: bool = False) -> None:
        if request.completed:
            return
        request.completed = True
        latency = time.monotonic() - request.enqueue_t
        self._store.release(request.slot)
        if status == RequestStatus.OK:
            self.stats.count("ok")
            self.stats.observe_latency(latency)
        elif status == RequestStatus.TIMEOUT:
            self.stats.count("timeouts")
        elif status == RequestStatus.FAILED:
            self.stats.count("failed")
        elif status == RequestStatus.CANCELLED:
            self.stats.count("cancelled")
        request.future.set_result(DetectionResponse(
            session_id=request.session_id, seq=request.seq, status=status,
            detections=detections or [], latency_s=latency,
            degraded=degraded))
