"""`BENCH_history.jsonl`: the one writer, and trend analysis over it.

Every bench run that passes its report rows appends one manifest-stamped
line through :func:`append_history` (the bench harness,
:mod:`repro.obs.bench`, is its caller), so the line format lives here
beside its reader: a tolerant
loader, per-benchmark trend summaries for the dashboard, and the robust
regression detector behind the harness's ``trend`` gate rows.

The detector is deliberately robust statistics, not a mean/σ band: bench
numbers on shared CI boxes have heavy-tailed noise (one loaded run would
poison a mean), so the baseline is the **median** of the trailing
:data:`WINDOW` and the band is scaled **MAD** (median absolute deviation,
×1.4826 to be σ-consistent under normality) with a relative floor — a
window of identical values must not produce a zero-width band that fails
on the first rounding wobble. A trend compares like with like: only lines
of the same benchmark *and* config digest count, and with fewer than
:data:`MIN_POINTS` of them the verdict is ``"insufficient"``, which the
harness reports as a skip: a young history cannot judge a change.

Loader contract: files written before the fsync-durable append can end in
a torn or non-JSON line; :func:`load_history` *skips and counts* such
lines instead of raising, so one corrupt byte never bricks every
``--check`` gate downstream.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .run import append_jsonl

__all__ = ["HistoryLoadResult", "TrendVerdict", "load_history",
           "metric_series", "detect_regression", "check_trend",
           "trend_summary", "append_history", "field_value"]

#: σ-consistency constant for MAD under a normal distribution.
MAD_SCALE = 1.4826
#: Band half-width in scaled MADs.
N_MADS = 4.0
#: Relative floor on the band half-width (fraction of |median|) so an
#: all-identical window still tolerates small wobble.
REL_FLOOR = 0.10
#: Trailing-window length and the minimum points to judge at all.
WINDOW = 8
MIN_POINTS = 4


def field_value(document: dict, path: str) -> Any:
    """The value at a dotted ``path`` (``"quant.accuracy.pwc_delta"``);
    ``KeyError(path)`` when any part of it is missing."""
    value: Any = document
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise KeyError(path)
        value = value[key]
    return value


def append_history(path: str, payload: dict, fields: Sequence[str],
                   mode: str, status: int) -> None:
    """Append one bench run's line to the history file.

    The line names the run (time, ``mode`` "write" or "check", exit
    ``status``, benchmark, run id, config digest) and holds the payload's
    top-level numbers plus each dotted path in ``fields`` that the payload
    has, keyed by that path: the keys :func:`check_trend` reads back.
    """
    manifest = payload["manifest"]
    line = {"unix_time": time.time(), "mode": mode, "status": status,
            "benchmark": payload["benchmark"], "run_id": manifest["run_id"],
            "config_digest": manifest["config_digest"]}
    line.update((key, value) for key, value in payload.items()
                if isinstance(value, (int, float)))
    for field in fields:
        try:
            line[field] = field_value(payload, field)
        except KeyError:
            pass
    append_jsonl(path, line)


@dataclass
class HistoryLoadResult:
    """Parsed history lines plus the corruption tally."""

    records: List[dict]
    bad_lines: int
    path: str

    def benchmarks(self) -> List[str]:
        return sorted({str(r.get("benchmark", "?")) for r in self.records})


def load_history(path: str, benchmark: Optional[str] = None) -> HistoryLoadResult:
    """Read a ``BENCH_history.jsonl`` file, skipping unparseable lines.

    A line counts as bad when it is not valid JSON or not a JSON object
    (torn tail from a pre-durability writer, editor droppings, partial
    copies). Blank lines are ignored silently — they carry no data and
    appear in hand-edited files.
    """
    records: List[dict] = []
    bad = 0
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                bad += 1
                continue
            if not isinstance(record, dict):
                bad += 1
                continue
            if benchmark is not None and record.get("benchmark") != benchmark:
                continue
            records.append(record)
    return HistoryLoadResult(records=records, bad_lines=bad, path=path)


def metric_series(history: HistoryLoadResult, benchmark: str,
                  metric: str) -> List[float]:
    """Chronological values of one metric for one benchmark (file order —
    the file is append-only, so file order is time order)."""
    values: List[float] = []
    for record in history.records:
        if record.get("benchmark") != benchmark:
            continue
        value = record.get(metric)
        if isinstance(value, (int, float)) and np.isfinite(value):
            values.append(float(value))
    return values


@dataclass
class TrendVerdict:
    """Outcome of one regression check.

    ``status`` is ``"ok"``, ``"regression"``, or ``"insufficient"`` (fewer
    than :data:`MIN_POINTS` trailing points: too few to judge).
    """

    status: str
    direction: str              # "higher" | "lower" is better
    value: Optional[float]
    median: Optional[float] = None
    mad: Optional[float] = None
    band: Optional[float] = None
    points: int = 0
    bad_lines: int = 0

    @property
    def ok(self) -> bool:
        return self.status != "regression"


def detect_regression(trailing: Sequence[float], value: float,
                      direction: str = "higher") -> TrendVerdict:
    """Judge ``value`` against the trailing window with median/MAD bands.

    ``direction="higher"`` means larger is better (fps, steps/sec) and a
    regression is ``value < median - band``; ``"lower"`` means smaller is
    better (latency) and a regression is ``value > median + band``, where
    ``band = max(N_MADS * MAD_SCALE * mad, REL_FLOOR * |median|)``.
    """
    if direction not in ("higher", "lower"):
        raise ValueError(f"direction must be 'higher' or 'lower', "
                         f"got {direction!r}")
    trailing = [float(v) for v in trailing if np.isfinite(v)]
    if len(trailing) < MIN_POINTS:
        return TrendVerdict(status="insufficient", direction=direction,
                            value=value, points=len(trailing))
    window = np.asarray(trailing, dtype=np.float64)
    median = float(np.median(window))
    mad = float(np.median(np.abs(window - median)))
    band = max(N_MADS * MAD_SCALE * mad, REL_FLOOR * abs(median))
    if direction == "higher":
        regressed = value < median - band
    else:
        regressed = value > median + band
    return TrendVerdict(status="regression" if regressed else "ok",
                        direction=direction, value=value, median=median,
                        mad=mad, band=band, points=len(trailing))


def check_trend(path: str, benchmark: str, digest: str, metric: str,
                value: float, direction: str = "higher") -> TrendVerdict:
    """Check a fresh measurement against the trailing committed history.

    The window is the last :data:`WINDOW` recorded values of ``metric``
    on lines of ``benchmark`` run under config ``digest`` (the fresh
    ``value`` itself is *not* in the file yet — the harness appends after
    gating).
    """
    history = load_history(path, benchmark=benchmark)
    history.records = [record for record in history.records
                       if record.get("config_digest") == digest]
    values = metric_series(history, benchmark, metric)[-WINDOW:]
    verdict = detect_regression(values, value, direction=direction)
    verdict.bad_lines = history.bad_lines
    return verdict


def trend_summary(path: str) -> dict:
    """Dashboard view: per-benchmark, per-metric trailing rollups.

    Summarizes every numeric field that appears in a benchmark's records
    (excluding bookkeeping fields), with median/MAD/latest over the
    trailing window.
    """
    skip = {"unix_time", "status", "schema_version"}
    history = load_history(path)
    out: Dict[str, Dict[str, dict]] = {}
    for benchmark in history.benchmarks():
        metrics: Dict[str, dict] = {}
        names = set()
        for record in history.records:
            if record.get("benchmark") != benchmark:
                continue
            names.update(
                name for name, value in record.items()
                if name not in skip and isinstance(value, (int, float))
                and not isinstance(value, bool))
        for name in sorted(names):
            values = metric_series(history, benchmark, name)[-WINDOW:]
            if not values:
                continue
            window_arr = np.asarray(values, dtype=np.float64)
            median = float(np.median(window_arr))
            metrics[name] = {
                "latest": values[-1],
                "median": median,
                "mad": float(np.median(np.abs(window_arr - median))),
                "min": float(window_arr.min()),
                "max": float(window_arr.max()),
                "points": len(values),
            }
        out[benchmark] = metrics
    return {"path": history.path, "bad_lines": history.bad_lines,
            "benchmarks": out}
