"""`repro.obs` — unified run telemetry (DESIGN.md §9).

One run identity ties every telemetry stream together:

* :class:`Run` — run id, config digest, RNG seeds, host info; written as
  an atomic run-manifest JSON at open, checkpoint, and close;
* :class:`Tracer` / :meth:`Run.span` — hierarchical span tracing
  (parent/child, wall-clock, counters, any-type attributes) with a
  buffered JSONL sink, threaded through the attack/GAN/detector trainers,
  :meth:`repro.av.AvPipeline.run`, batched detection, and the eval
  protocol, so one trace covers train → render → eval end to end. Spans
  are the only stage timer (:func:`span_scope`);
* :class:`Metrics` — a counter/gauge/histogram registry that
  :class:`~repro.utils.logging.TrainLog` and the runtime divergence guard
  publish into instead of inventing their own shapes;
* :mod:`.report` — loading, rendering, per-stage self-time tables
  (:func:`stage_table`), and two-run diffing of manifest/trace pairs
  (``scripts/obs_report.py`` is the CLI).

Everything is stdlib + numpy, and every instrumented path takes
``obs=None`` to stay zero-overhead without a run
(``tests/obs/test_free_when_none.py`` holds that contract).
"""

from .export import (
    SPEEDSCOPE_SCHEMA,
    gather_dashboard,
    render_html,
    render_tty,
    sparkline,
    trace_to_speedscope,
    validate_speedscope,
)
from .history import (
    HistoryLoadResult,
    TrendVerdict,
    check_trend,
    detect_regression,
    load_history,
    metric_series,
    trend_summary,
)
from .live import (
    LIVE_SNAPSHOT_NAME,
    TRAIN_SNAPSHOT_NAME,
    LiveConfig,
    LiveTelemetry,
    Rollup,
    Timeseries,
    TrainerState,
    TrainTelemetry,
    load_live_snapshot,
    load_train_snapshot,
    process_stats,
)
from .metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, Metrics
from .report import (
    LoadedRun,
    diff_runs,
    load_run,
    metric_deltas,
    render_diff,
    render_run,
    span_path_totals,
    stage_table,
)
from .run import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA_VERSION,
    REPORT_SCHEMA_VERSION,
    TRACE_NAME,
    Run,
    append_jsonl,
    config_digest,
    host_info,
    load_report,
    span_scope,
    write_json_atomic,
    write_report,
)
from .slo import Alert, SloEngine, SloRule, SloRuleError, load_alerts
from .trace import SpanNode, SpanRecord, Tracer, build_tree, load_trace

__all__ = [
    "Run",
    "span_scope",
    "config_digest",
    "host_info",
    "write_json_atomic",
    "append_jsonl",
    "write_report",
    "load_report",
    "REPORT_SCHEMA_VERSION",
    "MANIFEST_SCHEMA_VERSION",
    "MANIFEST_NAME",
    "TRACE_NAME",
    "Tracer",
    "SpanRecord",
    "SpanNode",
    "load_trace",
    "build_tree",
    "Metrics",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "LoadedRun",
    "load_run",
    "render_run",
    "diff_runs",
    "render_diff",
    "metric_deltas",
    "span_path_totals",
    "stage_table",
    # live telemetry (DESIGN.md §12)
    "Timeseries",
    "Rollup",
    "LiveConfig",
    "LiveTelemetry",
    "TrainerState",
    "TrainTelemetry",
    "LIVE_SNAPSHOT_NAME",
    "TRAIN_SNAPSHOT_NAME",
    "load_live_snapshot",
    "load_train_snapshot",
    "process_stats",
    "SloRule",
    "SloRuleError",
    "SloEngine",
    "Alert",
    "load_alerts",
    # history trends
    "HistoryLoadResult",
    "TrendVerdict",
    "load_history",
    "metric_series",
    "detect_regression",
    "check_trend",
    "trend_summary",
    # exports
    "SPEEDSCOPE_SCHEMA",
    "trace_to_speedscope",
    "validate_speedscope",
    "gather_dashboard",
    "render_tty",
    "render_html",
    "sparkline",
]
