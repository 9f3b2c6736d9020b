"""Configuration and error vocabulary for the detection serving layer.

One :class:`ServeConfig` captures every robustness knob of the server —
how much concurrency it admits (sessions), how much work it will hold
(the bounded slot queue), how long it will trade latency for batch
occupancy (the batch window), and when it gives up on a request (the
deadline). Everything is explicit and bounded: overload policy is
*reject at admission*, never silent unbounded queueing (DESIGN.md §11).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServeConfig", "AdmissionError", "ServerClosed"]


class AdmissionError(RuntimeError):
    """The server refused a new session (tenant limit reached)."""


class ServerClosed(RuntimeError):
    """The server is shut down (or draining) and accepts no new work."""


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one :class:`~repro.serve.server.DetectionServer`.

    Attributes
    ----------
    workers:
        Inference worker processes. ``0`` serves in-process (the degraded
        mode, chosen up front) — still batched and still asynchronous
        with respect to clients, just without process-level parallelism
        or crash isolation.
    max_batch:
        Upper bound on frames coalesced into one detector forward.
    batch_window_s:
        Longest a queued request may wait for co-batchers before a
        partial batch is dispatched anyway — the latency half of the
        latency-vs-throughput deadline policy. It applies only while a
        co-batcher can still arrive: while a batch is in flight, or
        within one window of the last completion (closed-loop clients
        resubmit right after their answers). A backend idle for a whole
        window serves the queue at once. ``0`` dispatches eagerly.
    queue_capacity:
        The bounded request pool: queued **plus** in-flight frames. A
        submit that finds no free slot is shed immediately with status
        ``"shed"`` — queue depth can never exceed this number.
    max_sessions:
        Concurrent stream sessions admitted (multi-tenant cap); the
        ``max_sessions + 1``-th :meth:`open_session` raises
        :class:`AdmissionError`.
    deadline_s:
        Default per-request deadline, measured from admission. A request
        still queued past it is answered ``"timeout"`` without touching
        the detector; one completed past it is answered ``"timeout"``
        with its detections discarded (the client has moved on).
    task_timeout_s:
        Pool-level bound on one batch forward; a worker exceeding it is
        killed and the batch redispatched (then failed — retry-once).
    retry_once:
        Redispatch a batch exactly once after its worker died or hung
        (``max_task_retries=1``); ``False`` fails it on first loss.
    poll_interval_s:
        Scheduler-loop result-poll granularity while batches are in
        flight.
    stats_interval_s:
        How often (scheduler-loop time) the server mirrors its ledger
        into the obs metrics registry and refreshes the atomic
        ``serve_stats.json`` snapshot — so a crashed or SIGKILLed server
        still leaves a recent, loadable stats file behind. Mirroring is
        delta-based, so periodic mirrors and the final one at
        :meth:`~repro.serve.server.DetectionServer.close` never
        double-count. Only active when an obs run is attached.
    degraded_ok:
        Permit the serial in-process fallback when the worker pool
        cannot be built or becomes unusable. ``False`` turns those
        events into ``"failed"`` responses instead.
    lowered:
        Run inference through the eval-time lowered detector
        (``TinyYolo.lower()``, DESIGN.md §13): BN folded into the conv
        weights, fused epilogues, pre-planned buffers. Same detections
        within the lowering parity tolerance, measurably faster. Applies
        to both the worker pool (each worker lowers after loading the
        broadcast weights) and the in-process fallback. Default off.
    precision:
        ``"fp"`` (default) or ``"int8"``. Int8 runs inference through the
        post-training-quantized plan (DESIGN.md §15): each pool worker
        re-quantizes after loading the broadcast weights, exactly as it
        re-lowers today, and the in-process fallback quantizes locally.
        Requires a calibration result passed to the server
        (``DetectionServer(calibration=...)``) — detections then match
        the fp oracle within the bench accuracy budget, not bit-exactly.
        All delivery guarantees (admission, deadlines, exactly-once,
        chaos recovery) are precision-independent.
    debug_fail_worker_init:
        Test/chaos hook: makes every pool worker raise in its init
        function, simulating a pool that cannot be (re)built.
    """

    workers: int = 2
    max_batch: int = 8
    batch_window_s: float = 0.004
    queue_capacity: int = 64
    max_sessions: int = 16
    deadline_s: float = 5.0
    task_timeout_s: float = 30.0
    retry_once: bool = True
    poll_interval_s: float = 0.002
    stats_interval_s: float = 1.0
    degraded_ok: bool = True
    lowered: bool = False
    precision: str = "fp"
    debug_fail_worker_init: bool = False

    def __post_init__(self) -> None:
        if self.precision not in ("fp", "int8"):
            raise ValueError(
                f"precision must be 'fp' or 'int8', got {self.precision!r}")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.batch_window_s < 0 or self.deadline_s <= 0:
            raise ValueError("batch_window_s must be >= 0 and deadline_s > 0")
        if self.task_timeout_s <= 0 or self.poll_interval_s <= 0:
            raise ValueError("task_timeout_s and poll_interval_s must be > 0")
        if self.stats_interval_s <= 0:
            raise ValueError("stats_interval_s must be > 0")

    @property
    def max_task_retries(self) -> int:
        return 1 if self.retry_once else 0
