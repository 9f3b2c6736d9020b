"""Inference backends: where a dispatched batch actually runs.

The scheduler speaks one tiny interface — ``submit(task) -> task_id`` /
``poll(timeout) -> [TaskOutcome]`` — with two implementations:

* :class:`PoolBackend` — the scale path: a hardened
  :class:`repro.parallel.WorkerPool` of spawned inference processes,
  weights broadcast once through shared memory, frames read from the
  request slab. Worker death/hang recovery (respawn, redispatch-once,
  exactly-once outcomes) comes from the pool itself.
* :class:`InprocBackend` — the degraded mode: serial in-process
  inference on the parent's own detector. No crash isolation, no
  parallelism — but no way to fail to start, which is exactly what the
  fallback path needs.

Both return rows in the pool's post-strip wire format (``(slot,
(encoded, forward_s, postprocess_s))`` — the pool drops each row's grads
dict before queueing it), so the server decodes responses identically
either way.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from ..detection.model import TinyYolo
from ..nn.quant import resolve_inference_model
from ..parallel import PoolCounters, TaskOutcome, WorkerPool, WorkSpec
from .config import ServeConfig
from .scheduler import FrameStore
from .workers import (
    ServeWorkerPayload,
    detect_batch,
    detector_param_specs,
    serve_worker_infer,
    serve_worker_init,
)

__all__ = ["PoolBackend", "InprocBackend"]


class InprocBackend:
    """Serial in-process inference (degraded mode / ``workers=0``)."""

    name = "inproc"

    def __init__(self, detector: TinyYolo, store: FrameStore,
                 conf_threshold: float, iou_threshold: float,
                 max_detections: int, lowered: bool = False,
                 precision: str = "fp", calibration=None):
        self._detector = detector.eval()
        self._infer_model = resolve_inference_model(
            detector, precision=precision, lowered=lowered,
            calibration=calibration)
        self._store = store
        self._conf = conf_threshold
        self._iou = iou_threshold
        self._max_detections = max_detections
        self._task_ids = itertools.count()
        self._pending: List[tuple] = []
        self.counters = PoolCounters()

    def submit(self, task: dict) -> int:
        task_id = next(self._task_ids)
        self._pending.append((task_id, task))
        return task_id

    def poll(self, timeout: float = 0.0) -> List[TaskOutcome]:
        """Run every queued batch synchronously (timeout is irrelevant —
        the work happens on the calling thread)."""
        outcomes: List[TaskOutcome] = []
        pending, self._pending = self._pending, []
        for task_id, task in pending:
            try:
                slots = list(task["slots"])
                frames = [self._store.read(slot) for slot in slots]
                rows = list(zip(slots, detect_batch(
                    self._infer_model, frames, conf_threshold=self._conf,
                    iou_threshold=self._iou,
                    max_detections=self._max_detections)))
                outcomes.append(TaskOutcome(task_id, "done", rows=rows))
            except Exception as exc:  # complete, don't crash the scheduler
                outcomes.append(TaskOutcome(task_id, "error", error=repr(exc)))
        return outcomes

    def worker_pids(self) -> List[int]:
        return []

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def close(self) -> None:
        self._pending.clear()


class PoolBackend:
    """Worker-pool inference over ``repro.parallel`` (the scale path)."""

    name = "pool"

    def __init__(self, detector: TinyYolo, store: FrameStore,
                 config: ServeConfig, conf_threshold: float,
                 iou_threshold: float, max_detections: int,
                 calibration=None):
        payload = ServeWorkerPayload(
            detector_config=detector.config,
            frame_handle=store.handle(),
            conf_threshold=conf_threshold,
            iou_threshold=iou_threshold,
            max_detections=max_detections,
            fail_init=config.debug_fail_worker_init,
            lowered=config.lowered,
            precision=config.precision,
            calibration=calibration,
        )
        spec = WorkSpec(
            init_fn=serve_worker_init,
            work_fn=serve_worker_infer,
            init_payload=payload,
            param_specs=detector_param_specs(detector),
            grad_specs=(),  # inference returns detections, not gradients
            max_samples=config.queue_capacity,
        )
        self._pool = WorkerPool(
            spec, config.workers,
            task_timeout=config.task_timeout_s,
            max_task_retries=config.max_task_retries,
            poll_interval=config.poll_interval_s,
        )
        # The detector is frozen: one broadcast for the pool's lifetime.
        self._pool.broadcast(detector.state_dict())
        #: Workers that died in ``init_fn`` before serving anything; the
        #: server reads this to decide the pool "cannot be (re)built".
        self.init_failures = 0

    def submit(self, task: dict) -> int:
        return self._pool.submit(task)

    def poll(self, timeout: float = 0.0) -> List[TaskOutcome]:
        outcomes = []
        for outcome in self._pool.pump(timeout):
            if outcome.task_id == -1:
                self.init_failures += 1
                continue
            outcomes.append(outcome)
        return outcomes

    def worker_pids(self) -> List[int]:
        return self._pool.worker_pids()

    @property
    def outstanding(self) -> int:
        return self._pool.outstanding

    @property
    def counters(self) -> PoolCounters:
        return self._pool.counters

    def close(self) -> None:
        self._pool.close()
