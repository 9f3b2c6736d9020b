"""Consumer-side exports: speedscope flamegraphs, TTY and HTML dashboards.

The producer half of the obs stack (runs, traces, metrics, live snapshots)
writes files; this module turns those files into things an operator looks
at:

* :func:`trace_to_speedscope` — converts a recorded span trace
  (``trace.jsonl`` / ``serve_trace.jsonl``) into a speedscope-compatible
  "evented" profile, so existing traces open as interactive flamegraphs
  at https://www.speedscope.app with zero new recording machinery.
  :func:`validate_speedscope` shape-checks a document against the file
  format (tests gate on it; the CLI refuses to write an invalid file).
* :func:`gather_dashboard` — reads everything a run directory may hold
  (manifest, ``serve_stats.json``, ``live.json``, ``alerts.jsonl``,
  traces) into one dict, tolerant of any subset being absent: a SIGKILLed
  server leaves snapshots but no final manifest, and the dashboard must
  render exactly that case.
* :func:`render_tty` / :func:`render_html` — the same dashboard as a
  terminal view (unicode sparklines, fixed-width tables; re-rendered in
  a loop by ``scripts/obs_dashboard.py --follow``) and as a dependency-
  free static HTML report (inline SVG sparklines, stat tiles, SLO/alert
  tables; light and dark via ``prefers-color-scheme``).

Everything here is read-only over the run directory — rendering a
dashboard can never perturb the process being observed.
"""

from __future__ import annotations

import html as html_mod
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from .slo import load_alerts
from .trace import SpanNode, SpanRecord, build_tree, load_trace

__all__ = ["trace_to_speedscope", "validate_speedscope", "SPEEDSCOPE_SCHEMA",
           "gather_dashboard", "render_tty", "render_html", "sparkline"]

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


# ----------------------------------------------------------------------
# Speedscope export
# ----------------------------------------------------------------------

def trace_to_speedscope(spans: Sequence[SpanRecord],
                        name: str = "repro trace") -> dict:
    """Convert closed spans into a speedscope "evented" profile.

    Speedscope demands strictly well-nested open/close events in
    non-decreasing time order. Span records already came from a stack
    discipline, but a lost buffer tail can orphan children — so events
    are regenerated by walking the reconstructed tree and clamping every
    child into its parent's interval, which re-establishes nesting no
    matter what the file looked like. Open spans (no ``end_s``) are
    clamped to the latest observed timestamp.
    """
    spans = list(spans)
    if not spans:
        return {
            "$schema": SPEEDSCOPE_SCHEMA,
            "shared": {"frames": []},
            "profiles": [{
                "type": "evented", "name": name, "unit": "seconds",
                "startValue": 0.0, "endValue": 0.0, "events": [],
            }],
            "exporter": "repro.obs.export",
            "name": name,
        }
    max_end = max([s.start_s for s in spans]
                  + [s.end_s for s in spans if s.end_s is not None])

    frames: List[dict] = []
    frame_index: Dict[str, int] = {}

    def frame_for(span_name: str) -> int:
        index = frame_index.get(span_name)
        if index is None:
            index = frame_index[span_name] = len(frames)
            frames.append({"name": span_name})
        return index

    events: List[dict] = []

    def emit(node: SpanNode, lo: float, hi: float) -> None:
        record = node.record
        start = min(max(record.start_s, lo), hi)
        end = record.end_s if record.end_s is not None else hi
        end = min(max(end, start), hi)
        index = frame_for(record.name)
        events.append({"type": "O", "frame": index, "at": start})
        for child in node.children:
            emit(child, start, end)
        events.append({"type": "C", "frame": index, "at": end})

    roots = build_tree(spans)
    start_value = min(s.start_s for s in spans)
    for root in roots:
        emit(root, start_value, max_end)

    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "shared": {"frames": frames},
        "profiles": [{
            "type": "evented",
            "name": name,
            "unit": "seconds",
            "startValue": start_value,
            "endValue": max_end,
            "events": events,
        }],
        "exporter": "repro.obs.export",
        "name": name,
    }


def validate_speedscope(document: dict) -> List[str]:
    """Shape-check a speedscope document; returns a list of problems
    (empty = valid). Checks the invariants the viewer actually relies
    on: schema URL, frame table, evented profiles with well-nested
    events in non-decreasing time order and in-range frame indices.
    """
    problems: List[str] = []
    if document.get("$schema") != SPEEDSCOPE_SCHEMA:
        problems.append("missing or wrong $schema")
    frames = (document.get("shared") or {}).get("frames")
    if not isinstance(frames, list):
        problems.append("shared.frames must be a list")
        frames = []
    for index, frame in enumerate(frames):
        if not isinstance(frame, dict) or "name" not in frame:
            problems.append(f"frame {index} has no name")
    profiles = document.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        problems.append("profiles must be a non-empty list")
        profiles = []
    for p_index, profile in enumerate(profiles):
        label = f"profile {p_index}"
        if profile.get("type") != "evented":
            problems.append(f"{label}: type must be 'evented'")
            continue
        for key in ("name", "unit", "startValue", "endValue", "events"):
            if key not in profile:
                problems.append(f"{label}: missing {key}")
        events = profile.get("events", [])
        stack: List[int] = []
        last_at = None
        for e_index, event in enumerate(events):
            kind = event.get("type")
            frame = event.get("frame")
            at = event.get("at")
            if kind not in ("O", "C"):
                problems.append(f"{label} event {e_index}: bad type {kind!r}")
                continue
            if not isinstance(frame, int) or not 0 <= frame < len(frames):
                problems.append(
                    f"{label} event {e_index}: frame {frame!r} out of range")
                continue
            if last_at is not None and at < last_at:
                problems.append(
                    f"{label} event {e_index}: time goes backwards")
            last_at = at
            if kind == "O":
                stack.append(frame)
            else:
                if not stack or stack[-1] != frame:
                    problems.append(
                        f"{label} event {e_index}: close does not match "
                        f"innermost open")
                    if stack:
                        stack.pop()
                else:
                    stack.pop()
        if stack:
            problems.append(f"{label}: {len(stack)} events left open")
    return problems


# ----------------------------------------------------------------------
# Dashboard data gathering
# ----------------------------------------------------------------------

def _load_json(path: str) -> Optional[dict]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def gather_dashboard(run_dir: str, alerts_tail: int = 20,
                     history_path: Optional[str] = None) -> dict:
    """Collect whatever observability artifacts ``run_dir`` holds.

    Every component is optional — the dict records which were found so
    renderers can show "(absent)" rather than crash on a partial
    directory (the normal state after a SIGKILL).
    """
    from .history import trend_summary  # local: keep import graph shallow

    manifest = _load_json(os.path.join(run_dir, "manifest.json"))
    serve_stats = _load_json(os.path.join(run_dir, "serve_stats.json"))
    live = _load_json(os.path.join(run_dir, "live.json"))
    train_live = _load_json(os.path.join(run_dir, "train_live.json"))
    alerts: List = []
    alerts_path = os.path.join(run_dir, "alerts.jsonl")
    if os.path.exists(alerts_path):
        alerts = load_alerts(alerts_path)
    traces = {}
    for trace_name in ("trace.jsonl", "serve_trace.jsonl", "live_trace.jsonl"):
        path = os.path.join(run_dir, trace_name)
        if os.path.exists(path):
            traces[trace_name] = len(load_trace(path))
    history = None
    if history_path and os.path.exists(history_path):
        history = trend_summary(history_path)
    return {
        "run_dir": os.path.abspath(run_dir),
        "manifest": manifest,
        "serve_stats": serve_stats,
        "live": live,
        "train_live": train_live,
        "alerts": alerts[-alerts_tail:],
        "total_alerts": len(alerts),
        "traces": traces,
        "history": history,
    }


# ----------------------------------------------------------------------
# TTY rendering
# ----------------------------------------------------------------------

def sparkline(values: Sequence[float], width: int = 32) -> str:
    """Unicode sparkline of the last ``width`` values."""
    values = [float(v) for v in values][-width:]
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _SPARK_CHARS[0] * len(values)
    top = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[min(top, int((value - lo) / span * top + 0.5))]
        for value in values)


def _fmt(value, digits: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


#: Curated headline series of the train view, rendered before the rest.
_TRAIN_KEY_SERIES = ("train.loss", "train.grad_norm", "train.steps_per_s",
                     "train.progress", "train.checkpoint_age_s",
                     "proc.rss_mb", "workspace.buffer_bytes")

#: Pipeline order of the serving latency stages (``repro.serve.STAGES``);
#: ``serve_stats.json`` stores them key-sorted.
_SERVE_STAGE_ORDER = ("admit", "queue", "pool", "forward", "postprocess",
                      "delivery")


def _serve_stages(stats: dict) -> List[tuple]:
    """``stats["stages_ms"]`` as ``(stage, entry)`` rows in pipeline order."""
    stages = stats.get("stages_ms") or {}
    rank = {name: index for index, name in enumerate(_SERVE_STAGE_ORDER)}
    return sorted(stages.items(),
                  key=lambda item: rank.get(item[0], len(rank)))


#: Per-pool health fields shown in the worker grid (last value each).
_POOL_HEALTH_KEYS = ("workers_alive", "utilization", "in_flight", "pending",
                     "respawns", "requeues", "timeouts", "worker_deaths")


def _series_last(entry: dict):
    recent = entry.get("recent") or []
    return recent[-1][1] if recent else None


def _pool_health(series: Dict[str, dict]) -> Dict[str, Dict[str, float]]:
    """Group ``train.{name}.pool.*`` series into per-pool health rows."""
    pools: Dict[str, Dict[str, float]] = {}
    for name, entry in series.items():
        if ".pool." not in name or not name.startswith("train."):
            continue
        pool, field = name.rsplit(".pool.", 1)
        last = _series_last(entry)
        if last is not None:
            pools.setdefault(pool[len("train."):], {})[field] = last
    return pools


def _tty_series_rows(lines: List[str], series: dict,
                     names: Sequence[str]) -> None:
    for name in names:
        entry = series[name]
        window = entry.get("window") or {}
        recent = [pair[1] for pair in entry.get("recent", [])]
        lines.append(
            f"  {name:<32s} {sparkline(recent):<32s} "
            f"last={_fmt(window.get('last'), 3)} "
            f"p50={_fmt(window.get('p50'), 3)} "
            f"p99={_fmt(window.get('p99'), 3)}")


def _tty_slo(lines: List[str], slo: dict) -> None:
    if not slo:
        return
    lines.append("SLOs:")
    for rule, state in sorted(slo.items()):
        flag = "VIOLATED" if state.get("violated") else "ok"
        lines.append(
            f"  [{flag:>8s}] {rule}  last={_fmt(state.get('last_value'), 3)}"
            f"  violations={state.get('violations', 0)}")


def _tty_train_section(lines: List[str], train: dict,
                       series_limit: int) -> None:
    lines.append(f"training (tick {train.get('ticks', '?')}, "
                 f"interval {train.get('interval_s', '?')}s):")
    for name, state in sorted((train.get("trainers") or {}).items()):
        total = state.get("total_steps") or 0
        done = state.get("steps_done", 0)
        pct = f"{100.0 * done / total:5.1f}%" if total else "    -"
        flags = []
        if state.get("primary"):
            flags.append("primary")
        if state.get("finished"):
            flags.append("done")
        lines.append(
            f"  {name:<12s} {done:>6d}/{total:<6d} {pct}  "
            f"ckpts={state.get('checkpoints', 0)}  "
            f"recoveries={state.get('recoveries', 0)}"
            + (f"  [{', '.join(flags)}]" if flags else ""))
    series = train.get("series", {})
    headline = [name for name in _TRAIN_KEY_SERIES if name in series]
    _tty_series_rows(lines, series, headline)
    rest = [name for name in sorted(series) if name not in headline]
    _tty_series_rows(lines, series, rest[:max(0, series_limit - len(headline))])
    pools = _pool_health(series)
    if pools:
        lines.append("worker pools:")
        for pool, fields in sorted(pools.items()):
            row = "  ".join(f"{key}={_fmt(fields.get(key))}"
                            for key in _POOL_HEALTH_KEYS if key in fields)
            lines.append(f"  {pool:<12s} {row}")
    _tty_slo(lines, train.get("slo", {}))


def render_tty(dash: dict, series_limit: int = 16) -> str:
    """Fixed-width terminal dashboard of one run directory."""
    lines: List[str] = []
    manifest = dash.get("manifest")
    header = f"run dir: {dash['run_dir']}"
    lines.append(header)
    if manifest:
        lines.append(f"run {manifest.get('run_id', '?')}  "
                     f"status={manifest.get('status', '?')}  "
                     f"config={manifest.get('config_digest', '?')}")
    else:
        lines.append("manifest: (absent)")
    lines.append("=" * max(48, len(header)))

    serve = dash.get("serve_stats")
    if serve:
        lines.append("serve stats (last snapshot):")
        stats = serve.get("stats", serve)
        keys = ("accepted", "ok", "shed", "timeouts", "failed", "cancelled",
                "batches", "degraded_batches", "max_queue_depth",
                "latency_p50_ms", "latency_p99_ms", "mean_batch_occupancy")
        row = "  ".join(f"{key}={_fmt(stats.get(key))}"
                        for key in keys if key in stats)
        lines.append(f"  {row}")
        if "mode" in stats:
            mode_line = (f"  mode={stats['mode']}  "
                         f"degraded={stats.get('degraded')}")
            if "precision" in stats:
                mode_line += f"  precision={stats['precision']}"
            lines.append(mode_line)
        stages = _serve_stages(stats)
        if stages:
            lines.append(f"  {'stage':<12s} {'p50 ms':>8s} {'p99 ms':>8s}")
            for name, entry in stages:
                lines.append(f"  {name:<12s} {_fmt(entry.get('p50'), 3):>8s} "
                             f"{_fmt(entry.get('p99'), 3):>8s}")

    live = dash.get("live")
    train = dash.get("train_live")
    if live:
        lines.append(f"live series (tick {live.get('ticks', '?')}, "
                     f"interval {live.get('interval_s', '?')}s):")
        series = live.get("series", {})
        _tty_series_rows(lines, series, sorted(series)[:series_limit])
        _tty_slo(lines, live.get("slo", {}))
    elif not train:
        lines.append("live telemetry: (absent)")

    if train:
        _tty_train_section(lines, train, series_limit)

    alerts = dash.get("alerts") or []
    lines.append(f"alerts ({dash.get('total_alerts', 0)} total, "
                 f"showing last {len(alerts)}):")
    for alert in alerts:
        lines.append(f"  t={alert.t:9.3f}  {alert.kind:<9s} {alert.rule}  "
                     f"value={alert.value:g}")
    if not alerts:
        lines.append("  (none)")

    traces = dash.get("traces") or {}
    if traces:
        lines.append("traces: " + "  ".join(
            f"{name}={count} spans" for name, count in sorted(traces.items())))

    history = dash.get("history")
    if history:
        lines.append(f"bench history ({history['path']}, "
                     f"{history['bad_lines']} bad lines skipped):")
        for benchmark, metrics in sorted(history["benchmarks"].items()):
            for metric, entry in sorted(metrics.items()):
                lines.append(
                    f"  {benchmark}.{metric:<24s} latest={_fmt(entry['latest'])} "
                    f"median={_fmt(entry['median'])} "
                    f"({entry['points']} points)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# HTML rendering
# ----------------------------------------------------------------------

# Palette roles (validated reference palette: single data series + status
# colors, light and dark selected independently).
_HTML_STYLE = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: #f9f9f7; color: #0b0b0b;
}
.card {
  background: #fcfcfb; border: 1px solid rgba(11,11,11,0.10);
  border-radius: 8px; padding: 16px; margin-bottom: 16px;
}
h1 { font-size: 18px; margin: 0 0 4px 0; }
h2 { font-size: 14px; margin: 0 0 12px 0; color: #52514e; }
.meta { color: #898781; font-size: 12px; margin-bottom: 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: #fcfcfb; border: 1px solid rgba(11,11,11,0.10);
  border-radius: 8px; padding: 12px 16px; min-width: 130px;
}
.tile .label { font-size: 11px; color: #52514e; text-transform: uppercase;
  letter-spacing: 0.04em; }
.tile .value { font-size: 24px; margin-top: 2px; }
.tile .unit { font-size: 12px; color: #898781; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th { text-align: left; color: #52514e; font-weight: 600;
  border-bottom: 1px solid #c3c2b7; padding: 4px 8px; }
td { padding: 4px 8px; border-bottom: 1px solid #e1e0d9;
  font-variant-numeric: tabular-nums; }
td.num { text-align: right; }
.series-name { font-family: ui-monospace, monospace; font-size: 12px; }
.spark { vertical-align: middle; }
.spark polyline { fill: none; stroke: #2a78d6; stroke-width: 2; }
.status { font-weight: 600; }
.status.ok::before { content: "✓ "; }
.status.ok { color: #006300; }
.status.violated::before { content: "✕ "; }
.status.violated { color: #d03b3b; }
.kind.violation { color: #d03b3b; font-weight: 600; }
.kind.recovery { color: #006300; font-weight: 600; }
@media (prefers-color-scheme: dark) {
  body { background: #0d0d0d; color: #ffffff; }
  .card, .tile { background: #1a1a19; border-color: rgba(255,255,255,0.10); }
  h2, .tile .label { color: #c3c2b7; }
  th { border-color: #383835; }
  td { border-color: #2c2c2a; }
  .spark polyline { stroke: #3987e5; }
  .status.ok { color: #0ca30c; }
  .kind.recovery { color: #0ca30c; }
}
"""


def _svg_sparkline(values: Sequence[float], width: int = 140,
                   height: int = 28) -> str:
    values = [float(v) for v in values]
    if len(values) < 2:
        return ""
    lo, hi = min(values), max(values)
    span = hi - lo or 1.0
    step = width / (len(values) - 1)
    points = " ".join(
        f"{index * step:.1f},{height - 2 - (value - lo) / span * (height - 4):.1f}"
        for index, value in enumerate(values))
    return (f'<svg class="spark" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}" role="img" '
            f'aria-label="sparkline"><polyline points="{points}"/></svg>')


def _esc(value) -> str:
    return html_mod.escape(str(value))


def _tile(label: str, value, unit: str = "") -> str:
    unit_html = f'<span class="unit"> {_esc(unit)}</span>' if unit else ""
    return (f'<div class="tile"><div class="label">{_esc(label)}</div>'
            f'<div class="value">{_esc(_fmt(value))}{unit_html}</div></div>')


def _html_series_table(series: dict, names: Sequence[str]) -> List[str]:
    parts = ["<table>",
             "<tr><th>series</th><th>trend</th>"
             '<th class="num">last</th><th class="num">p50</th>'
             '<th class="num">p99</th><th class="num">samples</th></tr>']
    for name in names:
        entry = series[name]
        window = entry.get("window") or {}
        recent = [pair[1] for pair in entry.get("recent", [])]
        parts.append(
            f'<tr><td class="series-name">{_esc(name)}</td>'
            f"<td>{_svg_sparkline(recent)}</td>"
            f'<td class="num">{_esc(_fmt(window.get("last"), 3))}</td>'
            f'<td class="num">{_esc(_fmt(window.get("p50"), 3))}</td>'
            f'<td class="num">{_esc(_fmt(window.get("p99"), 3))}</td>'
            f'<td class="num">{_esc(window.get("count", 0))}</td></tr>')
    parts.append("</table>")
    return parts


def _html_slo_card(slo: dict, heading: str = "SLOs") -> List[str]:
    if not slo:
        return []
    parts = [f'<div class="card"><h2>{_esc(heading)}</h2><table>',
             '<tr><th>rule</th><th>state</th>'
             '<th class="num">last value</th>'
             '<th class="num">violations</th></tr>']
    for rule, state in sorted(slo.items()):
        cls = "violated" if state.get("violated") else "ok"
        label = "violated" if state.get("violated") else "ok"
        parts.append(
            f'<tr><td class="series-name">{_esc(rule)}</td>'
            f'<td><span class="status {cls}">{label}</span></td>'
            f'<td class="num">{_esc(_fmt(state.get("last_value"), 3))}</td>'
            f'<td class="num">{_esc(state.get("violations", 0))}</td>'
            f"</tr>")
    parts.append("</table></div>")
    return parts


def _html_train_cards(train: dict) -> List[str]:
    parts: List[str] = ['<div class="card"><h2>Training — trainers</h2>'
                        '<div class="tiles">']
    for name, state in sorted((train.get("trainers") or {}).items()):
        total = state.get("total_steps") or 0
        done = state.get("steps_done", 0)
        progress = f"{100.0 * done / total:.1f}%" if total else "-"
        suffix = " (done)" if state.get("finished") else ""
        parts.append(_tile(f"{name}{suffix}", f"{done}/{total}",
                           unit=progress))
        parts.append(_tile(f"{name} checkpoints",
                           state.get("checkpoints", 0)))
        if state.get("recoveries"):
            parts.append(_tile(f"{name} recoveries",
                               state.get("recoveries", 0)))
    parts.append("</div></div>")

    series = train.get("series", {})
    if series:
        headline = [name for name in _TRAIN_KEY_SERIES if name in series]
        rest = [name for name in sorted(series) if name not in headline]
        parts.append('<div class="card"><h2>Training — live series</h2>')
        parts.extend(_html_series_table(series, headline + rest))
        parts.append("</div>")

    pools = _pool_health(series)
    if pools:
        parts.append('<div class="card"><h2>Training — worker pools</h2>'
                     "<table><tr><th>pool</th>"
                     + "".join(f'<th class="num">{_esc(key)}</th>'
                               for key in _POOL_HEALTH_KEYS) + "</tr>")
        for pool, fields in sorted(pools.items()):
            parts.append(
                f'<tr><td class="series-name">{_esc(pool)}</td>'
                + "".join(f'<td class="num">{_esc(_fmt(fields.get(key)))}</td>'
                          for key in _POOL_HEALTH_KEYS) + "</tr>")
        parts.append("</table></div>")

    parts.extend(_html_slo_card(train.get("slo", {}), "Training SLOs"))
    return parts


def render_html(dash: dict, title: str = "repro observability") -> str:
    """Self-contained static HTML report for one run directory."""
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head><body>",
        f"<h1>{_esc(title)}</h1>",
    ]
    manifest = dash.get("manifest")
    meta = [f"run dir: {dash['run_dir']}"]
    if manifest:
        meta.append(f"run {manifest.get('run_id', '?')} "
                    f"status={manifest.get('status', '?')} "
                    f"config={manifest.get('config_digest', '?')}")
    parts.append(f'<div class="meta">{_esc("  ·  ".join(meta))}</div>')

    serve = dash.get("serve_stats")
    if serve:
        stats = serve.get("stats", serve)
        parts.append('<div class="card"><h2>Serving — last snapshot</h2>'
                     '<div class="tiles">')
        for label, key, unit in (
                ("p50 latency", "latency_p50_ms", "ms"),
                ("p99 latency", "latency_p99_ms", "ms"),
                ("accepted", "accepted", ""),
                ("ok", "ok", ""),
                ("shed", "shed", ""),
                ("timeouts", "timeouts", ""),
                ("max depth", "max_queue_depth", ""),
                ("batch fill", "mean_batch_occupancy", "")):
            if key in stats:
                parts.append(_tile(label, stats.get(key), unit))
        parts.append("</div>")
        stages = _serve_stages(stats)
        if stages:
            parts.append('<table><tr><th>stage</th><th class="num">p50 ms</th>'
                         '<th class="num">p99 ms</th></tr>')
            for name, entry in stages:
                parts.append(
                    f'<tr><td class="series-name">{_esc(name)}</td>'
                    f'<td class="num">{_esc(_fmt(entry.get("p50"), 3))}</td>'
                    f'<td class="num">{_esc(_fmt(entry.get("p99"), 3))}</td>'
                    "</tr>")
            parts.append("</table>")
        parts.append("</div>")

    live = dash.get("live")
    if live:
        series = live.get("series", {})
        parts.append('<div class="card"><h2>Live series</h2>')
        parts.extend(_html_series_table(series, sorted(series)))
        parts.append("</div>")
        parts.extend(_html_slo_card(live.get("slo", {})))

    train = dash.get("train_live")
    if train:
        parts.extend(_html_train_cards(train))

    alerts = dash.get("alerts") or []
    parts.append(f'<div class="card"><h2>Alerts '
                 f'({dash.get("total_alerts", 0)} total)</h2>')
    if alerts:
        parts.append("<table><tr><th>t</th><th>kind</th><th>rule</th>"
                     '<th class="num">value</th></tr>')
        for alert in alerts:
            parts.append(
                f'<tr><td class="num">{alert.t:.3f}</td>'
                f'<td><span class="kind {_esc(alert.kind)}">'
                f"{_esc(alert.kind)}</span></td>"
                f'<td class="series-name">{_esc(alert.rule)}</td>'
                f'<td class="num">{alert.value:g}</td></tr>')
        parts.append("</table>")
    else:
        parts.append('<div class="meta">none recorded</div>')
    parts.append("</div>")

    history = dash.get("history")
    if history:
        parts.append(f'<div class="card"><h2>Bench history trends '
                     f'({history["bad_lines"]} bad lines skipped)</h2><table>')
        parts.append("<tr><th>benchmark</th><th>metric</th>"
                     '<th class="num">latest</th><th class="num">median</th>'
                     '<th class="num">points</th></tr>')
        for benchmark, metrics in sorted(history["benchmarks"].items()):
            for metric, entry in sorted(metrics.items()):
                parts.append(
                    f'<tr><td class="series-name">{_esc(benchmark)}</td>'
                    f'<td class="series-name">{_esc(metric)}</td>'
                    f'<td class="num">{_esc(_fmt(entry["latest"]))}</td>'
                    f'<td class="num">{_esc(_fmt(entry["median"]))}</td>'
                    f'<td class="num">{entry["points"]}</td></tr>')
        parts.append("</table></div>")

    parts.append("</body></html>")
    return "\n".join(parts)
