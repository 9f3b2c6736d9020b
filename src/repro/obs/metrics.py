"""Typed metric instruments with one shared registry per run.

Before this module every telemetry producer invented its own shape:
:class:`~repro.utils.logging.TrainLog` kept lists of record dicts and the
runtime guard logged recovery events as free-form dicts. The :class:`Metrics`
registry gives them one vocabulary — counter / gauge / histogram — so a
run's quantitative state serializes to a single JSON-ready snapshot and
two runs can be diffed instrument by instrument (``scripts/obs_report.py``).

Counters and gauges are deterministic for a fixed seed (they carry step
counts, losses, frame counts); histograms are where nondeterministic
observations (wall-clock seconds) go, keeping the deterministic surface
cleanly separable for cross-run comparison.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "Metrics", "DEFAULT_BUCKETS"]

#: Default histogram buckets: log-spaced upper bounds that cover everything
#: from sub-millisecond stage timings to multi-minute training phases.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 600.0,
    float("inf"),
)


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += float(amount)

    def summary(self) -> float:
        return self.value


class Gauge:
    """A last-value-wins scalar (loss, learning rate, fps)."""

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = float("nan")
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1

    def summary(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket distribution summary (count / sum / min / max / buckets).

    Buckets are upper bounds; the last bound must be ``+inf`` so every
    observation lands somewhere. Only the summary is retained — individual
    observations are never stored, so a histogram stays O(buckets) no
    matter how long the run.
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or sorted(bounds) != list(bounds):
            raise ValueError(f"histogram {name!r} buckets must be sorted")
        if bounds[-1] != float("inf"):
            bounds = bounds + (float("inf"),)
        self.name = name
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-th percentile from the bucket counts.

        Returns ``None`` for an empty histogram. The estimate interpolates
        linearly within the bucket holding the target rank, clamped to the
        observed ``[min, max]`` — so a single-sample histogram returns that
        sample exactly, and the top bucket (upper bound ``+inf``) resolves
        to the observed max rather than infinity.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q} must be in [0, 100]")
        if self.count == 0:
            return None
        target = (q / 100.0) * self.count
        if target <= 0:
            return self.min
        cumulative = 0
        lower = self.min
        for bound, count in zip(self.bounds, self.counts):
            if count == 0:
                continue
            upper = min(bound, self.max)
            if cumulative + count >= target:
                fraction = (target - cumulative) / count
                value = lower + fraction * (upper - lower)
                return min(max(value, self.min), self.max)
            cumulative += count
            lower = max(lower, upper)
        return self.max

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean(),
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {
                ("inf" if bound == float("inf") else repr(bound)): count
                for bound, count in zip(self.bounds, self.counts)
                if count
            },
        }


class Metrics:
    """Get-or-create registry of named instruments.

    Names are dotted paths (``attack.steps_run``, ``perf.forward.seconds``).
    Re-registering a name with a different instrument kind is an error —
    it means two producers disagree about what the metric is.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def _get(self, name: str, factory, kind: str):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif instrument.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {instrument.kind}, "
                f"requested {kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name), "gauge")

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get(
            name, lambda: Histogram(name, buckets or DEFAULT_BUCKETS),
            "histogram",
        )

    # ------------------------------------------------------------------
    def names(self, kind: Optional[str] = None) -> List[str]:
        return sorted(
            name for name, inst in self._instruments.items()
            if kind is None or inst.kind == kind
        )

    def snapshot(self) -> dict:
        """JSON-ready state of every instrument, grouped by kind."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for name in self.names():
            instrument = self._instruments[name]
            out[instrument.kind + "s"][name] = instrument.summary()
        return out
