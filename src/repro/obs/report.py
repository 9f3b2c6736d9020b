"""Loading, rendering, and diffing run telemetry (manifest + trace pairs).

The analysis side of :mod:`repro.obs`: :func:`load_run` reads a run
directory back into memory, :func:`render_run` draws the per-stage
latency/throughput tree, :func:`stage_table` folds any list of spans into
per-name self time, calls, items and shares, and :func:`diff_runs`
compares two runs —
Δ wall-clock per span path, Δ deterministic metric values (counters and
gauges; a same-seed re-run must show zero), histogram count drift, exit
status, and recovery events. ``scripts/obs_report.py`` is a thin CLI over
these functions; tests drive them directly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .run import MANIFEST_NAME
from .trace import SpanNode, SpanRecord, build_tree, load_trace

__all__ = [
    "LoadedRun",
    "load_run",
    "render_run",
    "stage_table",
    "span_path_totals",
    "metric_deltas",
    "diff_runs",
    "render_diff",
]

#: Counter-name prefixes that identify fault-recovery activity.
RECOVERY_PREFIXES = ("events.divergence_recovery", "events.checkpoint_restore",
                     "guard.divergence")


@dataclass
class LoadedRun:
    """One run's manifest plus its reconstructed span forest."""

    path: str
    manifest: dict
    spans: List[SpanRecord] = field(default_factory=list)
    roots: List[SpanNode] = field(default_factory=list)

    @property
    def run_id(self) -> str:
        return str(self.manifest.get("run_id", "?"))

    @property
    def status(self) -> str:
        return str(self.manifest.get("status", "?"))

    def metrics(self) -> dict:
        return self.manifest.get("metrics", {}) or {}

    def recovery_counters(self) -> Dict[str, float]:
        counters = self.metrics().get("counters", {})
        return {name: value for name, value in counters.items()
                if name.startswith(RECOVERY_PREFIXES)}


def load_run(path: str) -> LoadedRun:
    """Load a run directory (or a manifest path) into a :class:`LoadedRun`.

    The trace file named by the manifest is optional — a run killed before
    its first flush still loads, with an empty span forest.
    """
    if os.path.isdir(path):
        manifest_path = os.path.join(path, MANIFEST_NAME)
    else:
        manifest_path = path
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    directory = os.path.dirname(os.path.abspath(manifest_path))
    trace_path = os.path.join(directory, manifest.get("trace_path") or "trace.jsonl")
    spans: List[SpanRecord] = []
    if os.path.exists(trace_path):
        spans = load_trace(trace_path)
    return LoadedRun(path=directory, manifest=manifest, spans=spans,
                     roots=build_tree(spans))


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _span_line(record: SpanRecord) -> str:
    parts = [f"{record.duration_s() * 1e3:9.1f} ms"]
    items = record.counters.get("items")
    if items and record.duration_s() > 0:
        parts.append(f"{items:.0f} items ({items / record.duration_s():.0f}/s)")
    else:
        extra = " ".join(f"{k}={v:g}" for k, v in sorted(record.counters.items()))
        if extra:
            parts.append(extra)
    attrs = " ".join(f"{k}={v}" for k, v in sorted(record.attrs.items()))
    if attrs:
        parts.append(f"[{attrs}]")
    if record.status != "ok":
        parts.append(f"!{record.status}")
    return "  ".join(parts)


def _render_node(node: SpanNode, prefix: str, is_last: bool,
                 lines: List[str]) -> None:
    connector = "└─ " if is_last else "├─ "
    lines.append(f"{prefix}{connector}{node.name:<24s} {_span_line(node.record)}")
    child_prefix = prefix + ("   " if is_last else "│  ")
    for index, child in enumerate(node.children):
        _render_node(child, child_prefix, index == len(node.children) - 1, lines)


def render_run(run: LoadedRun) -> str:
    """Human-readable per-stage latency/throughput tree for one run."""
    manifest = run.manifest
    lines = [
        f"run {run.run_id}  status={run.status}  "
        f"config={manifest.get('config_digest', '?')}",
        f"seeds: {manifest.get('seeds', {})}",
    ]
    host = manifest.get("host", {})
    if host:
        lines.append(f"host: {host.get('hostname', '?')}  "
                     f"python {host.get('python', '?')}  "
                     f"numpy {host.get('numpy', '?')}")
    if not run.roots:
        lines.append("(no spans recorded)")
    for root in run.roots:
        lines.append(f"{root.name:<27s} {_span_line(root.record)}")
        for index, child in enumerate(root.children):
            _render_node(child, "", index == len(root.children) - 1, lines)
    counters = run.metrics().get("counters", {})
    if counters:
        lines.append("counters:")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name} = {value:g}")
    return "\n".join(lines)


def stage_table(spans: Sequence[SpanRecord]) -> Dict[str, dict]:
    """Per-name ``self_s``, ``calls``, ``items`` and ``share`` of ``spans``.

    Self seconds are a span's duration minus that of its children in
    ``spans``, so the self times of one span tree sum to its root's
    duration and the shares (of the summed self time) sum to one. Spans
    with the same name sum; ``items`` sums their ``items`` counters.
    """
    child_s: Dict[int, float] = {}
    for record in spans:
        if record.parent_id is not None:
            child_s[record.parent_id] = (child_s.get(record.parent_id, 0.0)
                                         + record.duration_s())
    rows: Dict[str, dict] = {}
    for record in sorted(spans, key=lambda r: r.name):
        row = rows.setdefault(record.name,
                              {"self_s": 0.0, "calls": 0, "items": 0.0})
        row["self_s"] += record.duration_s() - child_s.get(record.span_id, 0.0)
        row["calls"] += 1
        row["items"] += record.counters.get("items", 0.0)
    total = sum(row["self_s"] for row in rows.values())
    for row in rows.values():
        row["share"] = row["self_s"] / total if total > 0 else 0.0
    return rows


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------

def span_path_totals(run: LoadedRun) -> Dict[str, Tuple[float, int]]:
    """Aggregate (seconds, calls) per root-to-span name path.

    Paths are slash-joined names (``attack.train/attack.steps``); repeated
    spans with the same path — e.g. one ``eval.render`` per protocol run —
    sum, which is what makes two runs with different per-call jitter
    comparable stage by stage.
    """
    totals: Dict[str, Tuple[float, int]] = {}

    def visit(node: SpanNode, parent_path: str) -> None:
        path = f"{parent_path}/{node.name}" if parent_path else node.name
        seconds, calls = totals.get(path, (0.0, 0))
        totals[path] = (seconds + node.record.duration_s(), calls + 1)
        for child in node.children:
            visit(child, path)

    for root in run.roots:
        visit(root, "")
    return totals


def _is_nan(value) -> bool:
    return isinstance(value, float) and math.isnan(value)


def metric_deltas(a: LoadedRun, b: LoadedRun) -> dict:
    """Instrument-by-instrument comparison of two runs' metric snapshots.

    Counters and gauges are the deterministic surface: for a fixed seed
    they must match exactly, so ``deterministic_equal`` is the headline
    verdict. Histograms compare observation counts only (their sums are
    wall-clock and legitimately differ run to run).
    """
    metrics_a, metrics_b = a.metrics(), b.metrics()
    out = {"counters": {}, "gauges": {}, "histogram_counts": {}}
    for kind in ("counters", "gauges"):
        values_a = metrics_a.get(kind, {})
        values_b = metrics_b.get(kind, {})
        for name in sorted(set(values_a) | set(values_b)):
            va, vb = values_a.get(name), values_b.get(name)
            equal = (va == vb) or (_is_nan(va) and _is_nan(vb))
            out[kind][name] = {
                "a": va, "b": vb,
                "delta": ((vb or 0.0) - (va or 0.0)
                          if not (_is_nan(va) or _is_nan(vb)) else None),
                "equal": equal,
            }
    hists_a = metrics_a.get("histograms", {})
    hists_b = metrics_b.get("histograms", {})
    for name in sorted(set(hists_a) | set(hists_b)):
        count_a = (hists_a.get(name) or {}).get("count", 0)
        count_b = (hists_b.get(name) or {}).get("count", 0)
        out["histogram_counts"][name] = {
            "a": count_a, "b": count_b, "delta": count_b - count_a,
            "equal": count_a == count_b,
        }
    out["deterministic_equal"] = all(
        entry["equal"]
        for kind in ("counters", "gauges")
        for entry in out[kind].values()
    )
    return out


def diff_runs(a: LoadedRun, b: LoadedRun) -> dict:
    """Full two-run comparison: spans, metrics, status, recovery events."""
    totals_a = span_path_totals(a)
    totals_b = span_path_totals(b)
    spans = {}
    for path in sorted(set(totals_a) | set(totals_b)):
        seconds_a, calls_a = totals_a.get(path, (0.0, 0))
        seconds_b, calls_b = totals_b.get(path, (0.0, 0))
        spans[path] = {
            "a_seconds": seconds_a, "b_seconds": seconds_b,
            "delta_seconds": seconds_b - seconds_a,
            "a_calls": calls_a, "b_calls": calls_b,
        }
    return {
        "a": {"run_id": a.run_id, "status": a.status, "path": a.path},
        "b": {"run_id": b.run_id, "status": b.status, "path": b.path},
        "status_equal": a.status == b.status,
        "config_equal": (a.manifest.get("config_digest")
                         == b.manifest.get("config_digest")),
        "spans": spans,
        "metrics": metric_deltas(a, b),
        "recovery": {"a": a.recovery_counters(), "b": b.recovery_counters()},
    }


def render_diff(diff: dict) -> str:
    """Human-readable rendering of a :func:`diff_runs` result."""
    lines = [
        f"A: {diff['a']['run_id']}  status={diff['a']['status']}",
        f"B: {diff['b']['run_id']}  status={diff['b']['status']}",
        f"config digests {'match' if diff['config_equal'] else 'DIFFER'}; "
        f"exit status {'matches' if diff['status_equal'] else 'DIFFERS'}",
        "",
        f"{'span path':<44s} {'A ms':>10s} {'B ms':>10s} {'Δ ms':>10s} {'Δ%':>7s}",
    ]
    for path, entry in diff["spans"].items():
        base = entry["a_seconds"]
        pct = (entry["delta_seconds"] / base * 100.0) if base > 0 else float("inf")
        lines.append(
            f"{path:<44s} {entry['a_seconds'] * 1e3:>10.1f} "
            f"{entry['b_seconds'] * 1e3:>10.1f} "
            f"{entry['delta_seconds'] * 1e3:>+10.1f} "
            f"{pct:>+6.1f}%"
        )
    metrics = diff["metrics"]
    changed = [
        (kind, name, entry)
        for kind in ("counters", "gauges", "histogram_counts")
        for name, entry in metrics[kind].items()
        if not entry["equal"]
    ]
    lines.append("")
    if metrics["deterministic_equal"]:
        lines.append("metrics: zero deltas across all counters and gauges")
    else:
        lines.append("metric deltas:")
    for kind, name, entry in changed:
        lines.append(f"  [{kind}] {name}: {entry['a']} -> {entry['b']}")
    recovery_a, recovery_b = diff["recovery"]["a"], diff["recovery"]["b"]
    if recovery_a or recovery_b:
        lines.append("recovery events:")
        for name in sorted(set(recovery_a) | set(recovery_b)):
            lines.append(f"  {name}: A={recovery_a.get(name, 0):g} "
                         f"B={recovery_b.get(name, 0):g}")
    else:
        lines.append("recovery events: none in either run")
    return "\n".join(lines)
