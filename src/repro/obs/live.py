"""Live in-process telemetry: ring-buffer time series + background sampler.

Everything the obs layer recorded before this module was post-hoc — the
metrics registry snapshots at manifest writes, the trace streams at span
close, and ``ServeStats`` was mirrored only when the server shut down
cleanly. :class:`LiveTelemetry` closes that gap for long-lived processes
(``repro.serve`` under traffic, the parallel training engine mid-sweep):

* :class:`Timeseries` — a fixed-capacity ring buffer of ``(t, value)``
  samples. Single-writer / multi-reader and lock-free: the writer fills
  the slot *before* publishing the new count, and readers rebuild a
  consistent chronological view from ``(count, capacity)`` alone, so the
  sampler thread never contends with dashboard readers.
* :class:`Rollup` — the windowed summary of a series (count / mean / min /
  max / p50 / p99 / last), deterministic for a fixed window of values.
* :class:`LiveTelemetry` — a registry of series fed by *probes*
  (callables returning ``{name: value}`` dicts, e.g.
  ``DetectionServer.probe``, ``WorkerPool.probe``, process RSS/CPU from
  :func:`process_stats`) and *derived* values (rates and ratios computed
  from series history, e.g. ``shed_rate``, ``respawns_per_min``). Each
  tick it polls every probe, appends samples, evaluates the
  :class:`~repro.obs.slo.SloEngine`, and runs registered snapshot writers
  (atomic JSON files, so a SIGKILLed process always leaves a readable
  last state).

The sampler runs on a daemon thread woken every ``interval_s`` via an
event (so :meth:`LiveTelemetry.stop` returns promptly), but the whole
pipeline is clock-injected: tests construct with a fake ``clock`` and
drive :meth:`LiveTelemetry.sample_once` directly — no thread, no sleeps,
fully deterministic rollups and SLO transitions.

Overhead contract: the established ``obs=None`` idiom extends to
``live=None`` — hosts thread the knob through and pay nothing when it is
``None`` (no thread, no probes, no files). When enabled, each tick is
O(probes + rules) with bounded memory (every series is a fixed ring), and
the sampler observes its *own* tick duration into the
``live.tick_seconds`` series so the overhead budget is itself monitored.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .run import write_json_atomic
from .slo import SloEngine, SloRule

__all__ = ["Timeseries", "Rollup", "LiveConfig", "LiveTelemetry",
           "TrainerState", "TrainTelemetry",
           "LIVE_SNAPSHOT_NAME", "TRAIN_SNAPSHOT_NAME", "LIVE_SCHEMA_VERSION",
           "load_live_snapshot", "load_train_snapshot", "process_stats"]

LIVE_SNAPSHOT_NAME = "live.json"
TRAIN_SNAPSHOT_NAME = "train_live.json"
LIVE_SCHEMA_VERSION = 1

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, OSError, ValueError):
    _PAGE_SIZE = 4096

#: Module-level so tests (and exotic hosts) can point it elsewhere.
_STATM_PATH = "/proc/self/statm"


def process_stats() -> Dict[str, Optional[float]]:
    """Cheap self-observation: resident set size and cumulative CPU time.

    Reads ``/proc/self/statm`` where available (Linux) and falls back to
    ``os.times()`` everywhere, so the live sampler can poll it at high
    frequency on any platform without psutil. Keys: ``rss_mb`` (``None``
    when unknowable — non-Linux hosts have no statm; the live sampler
    skips non-float values, so the series is simply absent there) and
    ``cpu_seconds`` (user + system of this process).
    """
    rss_mb: Optional[float] = None
    try:
        with open(_STATM_PATH) as handle:
            rss_pages = int(handle.read().split()[1])
        rss_mb = rss_pages * _PAGE_SIZE / (1024.0 * 1024.0)
    except (OSError, ValueError, IndexError):
        pass
    times = os.times()
    return {"rss_mb": rss_mb, "cpu_seconds": times.user + times.system}


class Timeseries:
    """Fixed-capacity ring buffer of ``(time, value)`` samples.

    The concurrency contract is single-writer (the sampler thread),
    any-reader: :meth:`append` writes the slot arrays first and only then
    increments ``_count`` (an atomic int store under the GIL), so a reader
    that snapshots ``_count`` sees only fully written samples. Readers
    copy — they never hand out views into the ring.
    """

    def __init__(self, name: str, capacity: int = 512):
        if capacity < 2:
            raise ValueError("Timeseries capacity must be >= 2")
        self.name = name
        self.capacity = capacity
        self._times = np.full(capacity, np.nan, dtype=np.float64)
        self._values = np.full(capacity, np.nan, dtype=np.float64)
        self._count = 0  # total samples ever appended; published last

    def __len__(self) -> int:
        return min(self._count, self.capacity)

    @property
    def total_appended(self) -> int:
        return self._count

    def append(self, t: float, value: float) -> None:
        slot = self._count % self.capacity
        self._times[slot] = float(t)
        self._values[slot] = float(value)
        self._count += 1  # publish: readers below this count see full slots

    # -- readers --------------------------------------------------------
    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        """Chronological copies of (times, values) currently retained."""
        count = self._count  # one atomic read; ignore concurrent appends
        if count == 0:
            return (np.empty(0), np.empty(0))
        if count <= self.capacity:
            return (self._times[:count].copy(), self._values[:count].copy())
        head = count % self.capacity
        order = np.r_[head:self.capacity, 0:head]
        return (self._times[order].copy(), self._values[order].copy())

    def last(self) -> Optional[Tuple[float, float]]:
        count = self._count
        if count == 0:
            return None
        slot = (count - 1) % self.capacity
        return (float(self._times[slot]), float(self._values[slot]))

    def window(self, since_t: float) -> Tuple[np.ndarray, np.ndarray]:
        """Samples with ``t >= since_t`` (chronological copies)."""
        times, values = self.snapshot()
        mask = times >= since_t
        return times[mask], values[mask]

    def rate(self, window_s: float, now: float) -> Optional[float]:
        """Per-second growth of a cumulative-counter series over a window.

        Uses the first and last samples at or after ``now - window_s``;
        ``None`` until two samples span a positive time range. Counter
        resets (value decreasing, e.g. a restarted producer) clamp to 0
        rather than reporting a negative rate.
        """
        times, values = self.window(now - window_s)
        if len(times) < 2 or times[-1] <= times[0]:
            return None
        delta = float(values[-1] - values[0])
        return max(0.0, delta) / float(times[-1] - times[0])

    def rollup(self, window_s: Optional[float] = None,
               now: Optional[float] = None) -> "Rollup":
        if window_s is None:
            _, values = self.snapshot()
        else:
            if now is None:
                raise ValueError("window_s needs an explicit now")
            _, values = self.window(now - window_s)
        return Rollup.from_values(values)


@dataclass(frozen=True)
class Rollup:
    """Windowed summary of one series — deterministic for fixed values."""

    count: int
    mean: float
    min: float
    max: float
    p50: float
    p99: float
    last: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "Rollup":
        values = np.asarray(values, dtype=np.float64)
        values = values[np.isfinite(values)]
        if values.size == 0:
            nan = float("nan")
            return cls(0, nan, nan, nan, nan, nan, nan)
        return cls(
            count=int(values.size),
            mean=float(np.mean(values)),
            min=float(np.min(values)),
            max=float(np.max(values)),
            p50=float(np.percentile(values, 50)),
            p99=float(np.percentile(values, 99)),
            last=float(values[-1]),
        )

    def to_json(self) -> dict:
        def _safe(value: float):
            return value if np.isfinite(value) else None
        return {
            "count": self.count,
            "mean": _safe(self.mean),
            "min": _safe(self.min),
            "max": _safe(self.max),
            "p50": _safe(self.p50),
            "p99": _safe(self.p99),
            "last": _safe(self.last),
        }


@dataclass(frozen=True)
class LiveConfig:
    """Knobs of one :class:`LiveTelemetry` pipeline.

    ``rules`` accepts :class:`~repro.obs.slo.SloRule` instances or rule
    strings (``"p99_latency_ms < 120"``). ``window_s`` is the default
    rollup/rate window the derived values and snapshot rollups use.
    """

    interval_s: float = 0.25
    capacity: int = 512
    window_s: float = 10.0
    rules: Tuple[Union[SloRule, str], ...] = ()
    snapshot_recent: int = 64

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if self.capacity < 2:
            raise ValueError("capacity must be >= 2")
        if self.window_s <= 0:
            raise ValueError("window_s must be > 0")
        if self.snapshot_recent < 1:
            raise ValueError("snapshot_recent must be >= 1")

    def parsed_rules(self) -> Tuple[SloRule, ...]:
        return tuple(rule if isinstance(rule, SloRule) else SloRule.parse(rule)
                     for rule in self.rules)


class LiveTelemetry:
    """In-process telemetry pipeline: probes → ring series → SLOs → sinks.

    Parameters
    ----------
    directory:
        Where file sinks land (``live.json`` snapshot, ``alerts.jsonl``,
        ``live_trace.jsonl``). ``None`` keeps everything in memory.
    config:
        :class:`LiveConfig`; defaults are serving-friendly.
    clock:
        Monotonic-seconds callable. Tests inject a fake; the background
        thread paces itself with real time regardless (its waits are
        bounded by ``interval_s``), so a fake clock with ``start()`` is
        only sensible in tests that drive :meth:`sample_once` directly.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` the SLO engine emits
        alert spans into. The default builds a private tracer writing
        ``live_trace.jsonl`` — the sampler runs on its own thread, so it
        must never share a (single-threaded) tracer with the host.
    """

    #: File the per-tick atomic snapshot lands in; subclasses override
    #: (the training pipeline writes ``train_live.json`` so one run
    #: directory can hold a serve snapshot and a train snapshot side by
    #: side).
    snapshot_name = LIVE_SNAPSHOT_NAME

    def __init__(self, directory: Optional[str] = None,
                 config: Optional[LiveConfig] = None,
                 clock: Callable[[], float] = time.monotonic,
                 tracer=None, metrics=None):
        from .trace import Tracer  # local: avoid import cycle at module load

        self.config = config or LiveConfig()
        self.directory = directory
        self.clock = clock
        self.metrics = metrics
        self._series: Dict[str, Timeseries] = {}
        self._probes: List[Tuple[str, Callable[[], Optional[dict]]]] = []
        self._derived: List[Tuple[str, Callable[["LiveTelemetry", float],
                                                Optional[float]]]] = []
        self._snapshot_writers: List[Callable[[], None]] = []
        self._on_sample: List[Callable[[], None]] = []
        self.ticks = 0

        alerts_path = None
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            alerts_path = os.path.join(directory, "alerts.jsonl")
            if tracer is None:
                tracer = Tracer(
                    sink_path=os.path.join(directory, "live_trace.jsonl"),
                    buffer_limit=1)
        self.tracer = tracer
        self.engine = SloEngine(self.config.parsed_rules(),
                                alerts_path=alerts_path, tracer=tracer,
                                metrics=metrics)

        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()

    # -- registration ---------------------------------------------------
    def series(self, name: str) -> Timeseries:
        """Get-or-create the named ring-buffer series."""
        ts = self._series.get(name)
        if ts is None:
            ts = self._series[name] = Timeseries(name, self.config.capacity)
        return ts

    def series_names(self) -> List[str]:
        return sorted(self._series)

    def add_probe(self, prefix: str,
                  fn: Callable[[], Optional[dict]]) -> None:
        """Register a sampled source. Each tick ``fn()`` returns a flat
        ``{name: scalar}`` dict recorded as ``{prefix}.{name}`` samples
        (``None`` or a raising probe skips the tick — a dying host must
        not take the sampler down with it)."""
        self._probes.append((prefix, fn))

    def add_derived(self, name: str,
                    fn: Callable[["LiveTelemetry", float],
                                 Optional[float]]) -> None:
        """Register a computed value — ``fn(live, now)`` runs after the
        probes each tick; a non-None result is recorded under ``name``
        and visible to SLO rules."""
        self._derived.append((name, fn))

    def add_snapshot_writer(self, fn: Callable[[], None]) -> None:
        """Register an extra per-tick snapshot callback (e.g. the serve
        layer's atomic ``serve_stats.json`` mirror)."""
        self._snapshot_writers.append(fn)

    def on_sample(self, fn: Callable[[], None]) -> None:
        """Register a per-tick side effect that runs before snapshots."""
        self._on_sample.append(fn)

    # -- sampling -------------------------------------------------------
    def sample_once(self, now: Optional[float] = None) -> Dict[str, float]:
        """One sampler tick; returns the values observed this tick.

        Deterministic under an injected clock: probes → derived values →
        SLO evaluation → mirrors/snapshots, in registration order.
        """
        tick_start = time.perf_counter()
        if now is None:
            now = self.clock()
        observed: Dict[str, float] = {}
        for prefix, fn in self._probes:
            try:
                sample = fn()
            except Exception:
                continue  # a failing probe must never kill the sampler
            if not sample:
                continue
            for name, value in sample.items():
                try:
                    value = float(value)
                except (TypeError, ValueError):
                    continue
                full = f"{prefix}.{name}" if prefix else name
                self.series(full).append(now, value)
                observed[full] = value
        for name, fn in self._derived:
            try:
                value = fn(self, now)
            except Exception:
                continue
            if value is None:
                continue
            self.series(name).append(now, float(value))
            observed[name] = float(value)
        self.ticks += 1
        self.engine.evaluate(now, observed)
        for fn in self._on_sample:
            try:
                fn()
            except Exception:
                continue
        self.series("live.tick_seconds").append(
            now, time.perf_counter() - tick_start)
        self._write_snapshot(now)
        return observed

    def rate(self, name: str, now: float,
             window_s: Optional[float] = None) -> Optional[float]:
        ts = self._series.get(name)
        if ts is None:
            return None
        return ts.rate(window_s or self.config.window_s, now)

    def last(self, name: str) -> Optional[float]:
        ts = self._series.get(name)
        sample = ts.last() if ts is not None else None
        return sample[1] if sample is not None else None

    # -- snapshot -------------------------------------------------------
    def snapshot(self, now: Optional[float] = None) -> dict:
        """JSON-ready state: per-series rollups + recent samples + SLOs."""
        if now is None:
            now = self.clock()
        series = {}
        for name in self.series_names():
            ts = self._series[name]
            times, values = ts.snapshot()
            recent = self.config.snapshot_recent
            series[name] = {
                "rollup": ts.rollup().to_json(),
                "window": ts.rollup(self.config.window_s, now).to_json(),
                "recent": [[round(float(t), 6), float(v)]
                           for t, v in zip(times[-recent:], values[-recent:])],
            }
        return {
            "schema_version": LIVE_SCHEMA_VERSION,
            "updated_unix": time.time(),
            "sampled_t": now,
            "ticks": self.ticks,
            "interval_s": self.config.interval_s,
            "series": series,
            "slo": self.engine.snapshot(),
        }

    def _write_snapshot(self, now: float) -> None:
        if self.directory is not None:
            write_json_atomic(os.path.join(self.directory, self.snapshot_name),
                              self.snapshot(now))
        for fn in self._snapshot_writers:
            try:
                fn()
            except Exception:
                continue

    # -- background thread ---------------------------------------------
    def start(self) -> "LiveTelemetry":
        """Start the daemon sampler thread (idempotent)."""
        if self._thread is not None:
            return self
        self._stop_event.clear()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-obs-live-sampler")
        self._thread.start()
        return self

    def stop(self, final_sample: bool = True) -> None:
        """Stop the sampler; by default take one last sample so the final
        state of a cleanly closed host is on disk."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop_event.set()
            thread.join(timeout=max(5.0, 4 * self.config.interval_s))
        if final_sample:
            self.sample_once()
        if self.tracer is not None:
            self.tracer.flush()

    def _run(self) -> None:
        while not self._stop_event.wait(self.config.interval_s):
            try:
                self.sample_once()
            except Exception:
                # Telemetry must never crash the host; skip the tick.
                continue

    def __enter__(self) -> "LiveTelemetry":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def load_live_snapshot(path: str) -> dict:
    """Read a ``live.json`` snapshot (atomic writes make this torn-free)."""
    with open(path) as handle:
        return json.load(handle)


def load_train_snapshot(path: str) -> dict:
    """Read a ``train_live.json`` snapshot (same atomic-write contract)."""
    return load_live_snapshot(path)


# ----------------------------------------------------------------------
# Training-side telemetry
# ----------------------------------------------------------------------

class TrainerState:
    """Mutable per-trainer ledger: the step loop writes, the sampler polls.

    The training loop calls :meth:`step` / :meth:`checkpoint_saved` /
    :meth:`recovery` — plain attribute writes on already-computed floats,
    so attaching telemetry can never perturb the numerics (the bit-identity
    tests hold it to that). :meth:`probe` is the
    :meth:`LiveTelemetry.add_probe` target; reads are GIL-atomic snapshots,
    consistent enough for sampling.
    """

    def __init__(self, name: str, total_steps: int,
                 clock: Callable[[], float]):
        self.name = name
        self.total_steps = int(total_steps)
        self.clock = clock
        self.steps_done = 0
        self.eot_epoch = 0
        self.recoveries = 0
        self.checkpoints = 0
        self.last_checkpoint_t: Optional[float] = None
        self.last_metrics: Dict[str, float] = {}
        self.finished = False

    # -- writers (training loop) ---------------------------------------
    def step(self, step: int, **metrics: float) -> None:
        """Record one completed optimizer step. Canonical gauge names the
        SLO catalogue keys on: ``loss`` and ``grad_norm``; extras (e.g.
        ``d_loss``, ``attack``) ride along under their own names."""
        self.steps_done = int(step) + 1
        cleaned = {}
        for key, value in metrics.items():
            try:
                cleaned[key] = float(value)
            except (TypeError, ValueError):
                continue
        self.last_metrics = cleaned

    def checkpoint_saved(self) -> None:
        self.checkpoints += 1
        self.last_checkpoint_t = self.clock()

    def recovery(self) -> None:
        self.recoveries += 1

    def set_epoch(self, eot_epoch: int) -> None:
        self.eot_epoch = int(eot_epoch)

    def finish(self) -> None:
        self.finished = True

    # -- reader (sampler) ----------------------------------------------
    def probe(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "steps_done": float(self.steps_done),
            "total_steps": float(self.total_steps),
            "eot_epoch": float(self.eot_epoch),
            "recoveries": float(self.recoveries),
            "checkpoints": float(self.checkpoints),
            "finished": 1.0 if self.finished else 0.0,
        }
        if self.total_steps > 0:
            out["progress"] = self.steps_done / self.total_steps
        if self.last_checkpoint_t is not None:
            out["checkpoint_age_s"] = max(
                0.0, self.clock() - self.last_checkpoint_t)
        out.update(self.last_metrics)
        return out


def _train_steps_per_s(live: "LiveTelemetry", now: float) -> Optional[float]:
    """Derived SLO input: optimizer steps per second over the window."""
    return live.rate("train.steps_done", now)


class TrainTelemetry(LiveTelemetry):
    """Training-side live telemetry: trainer/pool/guard probes → SLOs.

    The training analogue of the serve wiring (DESIGN.md §12 → §14): one
    instance is threaded through a training entry point (``live=`` on
    :func:`repro.attack.trainer.train_patch_attack`,
    :func:`repro.gan.trainer.train_gan`,
    :func:`repro.detection.train.train_detector` — ``live=None`` costs
    nothing), trainers :meth:`attach` themselves and register their guard /
    worker-pool / workspace probes, and each tick lands in ring-buffer
    series, the SLO engine, and an atomic SIGKILL-durable
    ``train_live.json``.

    The **primary** trainer — the first to attach — additionally publishes
    under the flat ``train.*`` namespace (``train.steps_done``,
    ``train.loss``, ``train.grad_norm``, ``train.checkpoint_age_s``) with
    the derived ``train.steps_per_s`` rate, which is what the stall /
    divergence SLO catalogue keys on; every trainer (primary included)
    also publishes under ``train.{name}.*`` so a nested warm-up
    (attack → gan) stays distinguishable.

    ``metrics`` enables delta-based mirroring into the registry on every
    tick: cumulative trainer counters (steps, checkpoints, recoveries)
    fold in as deltas and the final mirror at :meth:`stop` tops the totals
    up exactly — periodic + final never double-count.
    """

    snapshot_name = TRAIN_SNAPSHOT_NAME

    def __init__(self, directory: Optional[str] = None,
                 config: Optional[LiveConfig] = None,
                 clock: Callable[[], float] = time.monotonic,
                 tracer=None, metrics=None):
        super().__init__(directory=directory, config=config, clock=clock,
                         tracer=tracer, metrics=metrics)
        self.trainers: Dict[str, TrainerState] = {}
        self.primary: Optional[str] = None
        self._probe_prefixes: set = set()
        self._mirrored: Dict[str, float] = {}
        if metrics is not None:
            self.add_snapshot_writer(self.mirror_stats)

    # -- registration ---------------------------------------------------
    def attach(self, name: str, total_steps: int) -> TrainerState:
        """Register one trainer; returns the ledger its step loop updates.

        Re-attaching a name (e.g. a retried phase) reuses the existing
        state so counters stay cumulative across attempts.
        """
        state = self.trainers.get(name)
        if state is not None:
            return state
        state = TrainerState(name, total_steps, self.clock)
        self.trainers[name] = state
        self.add_probe(f"train.{name}", state.probe)
        if self.primary is None:
            self.primary = name
            self.add_probe("train", state.probe)
            self.add_derived("train.steps_per_s", _train_steps_per_s)
        return state

    def ensure_probe(self, prefix: str,
                     fn: Callable[[], Optional[dict]]) -> None:
        """Register a probe once per prefix — trainers re-entered across
        divergence retries (and nested trainers sharing process-wide
        sources like ``proc`` / ``workspace``) must not double-sample."""
        if prefix in self._probe_prefixes:
            return
        self._probe_prefixes.add(prefix)
        self.add_probe(prefix, fn)

    def register_host_probes(self) -> None:
        """Process-wide sources every trainer shares: RSS/CPU and conv
        workspace occupancy. Idempotent, so a nested warm-up attaching
        after its parent does not double-sample them. Imported lazily —
        :mod:`repro.obs` must not depend on :mod:`repro.nn` at load."""
        from ..nn.functional import conv_workspace_totals
        from ..nn.quant import quant_runtime_totals
        self.ensure_probe("proc", process_stats)
        self.ensure_probe("workspace", conv_workspace_totals)
        self.ensure_probe("quant", quant_runtime_totals)

    # -- metrics mirroring ---------------------------------------------
    def mirror_stats(self) -> None:
        """Fold trainer-ledger deltas into the metrics registry.

        Runs on every sampler tick (snapshot-writer hook) and once more on
        :meth:`stop`'s final sample; delta accounting makes the sum land
        exactly on the cumulative totals however many ticks happened.
        """
        if self.metrics is None:
            return
        for name, state in self.trainers.items():
            for counter, value in (("steps", state.steps_done),
                                   ("checkpoints", state.checkpoints),
                                   ("recoveries", state.recoveries)):
                key = f"train.{name}.{counter}"
                delta = value - self._mirrored.get(key, 0)
                if delta > 0:
                    self.metrics.counter(key).inc(delta)
                    self._mirrored[key] = value
            for gauge, value in state.last_metrics.items():
                self.metrics.gauge(f"train.{name}.{gauge}").set(value)

    # -- snapshot -------------------------------------------------------
    def snapshot(self, now: Optional[float] = None) -> dict:
        doc = super().snapshot(now)
        doc["trainers"] = {
            name: {
                "total_steps": state.total_steps,
                "steps_done": state.steps_done,
                "checkpoints": state.checkpoints,
                "recoveries": state.recoveries,
                "finished": state.finished,
                "primary": name == self.primary,
            }
            for name, state in sorted(self.trainers.items())
        }
        return doc
