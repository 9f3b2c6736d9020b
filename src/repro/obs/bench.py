"""One bench harness for ``scripts/bench_*.py``: flags, run, gates, report.

Each bench script keeps its measurement — ``run_benchmark(args, obs)``
returns a payload dict naming its ``benchmark`` — and its printout, and
declares its gates as a table of :class:`Gate` rows. This module owns
the rest:

* the shared flags (:func:`parse_args`): ``--output``, ``--history``,
  ``--obs-dir``, ``--check``, and for scripts with live telemetry
  ``--live``, ``--live-interval`` and ``--slo``;
* the :class:`~repro.obs.Run` the measurement traces into, kept under
  ``--obs-dir`` or else in a temporary directory;
* the payload's ``config`` and ``manifest`` stamp (:func:`main`);
* one ``OK``, ``FAIL`` or ``SKIP`` line per row, the report write and
  the ``BENCH_history.jsonl`` line (:func:`repro.obs.history.append_history`).

A row's *phase* says when it binds. ``report`` rows bind on every run;
one ``FAIL`` writes neither report nor history line and exits 1, so no
number is recorded for a run whose semantics changed. ``check`` rows
bind only under ``--check``, which compares instead of overwriting the
report; a ``FAIL`` there exits 1. A gated field missing from the payload,
or for a committed row from the committed report, is a ``FAIL``; so is a
committed report written under another config digest. A row a flag turns
off, or a trend row with too few history points under the run's config
digest, prints ``SKIP`` and why: never ``OK``.

``repro.obs`` does not import this module; only the bench scripts do.
"""

from __future__ import annotations

import argparse
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

from .history import MIN_POINTS, append_history, check_trend, field_value
from .run import Run, load_report, write_report

__all__ = ["Gate", "parse_args", "main", "judge"]

#: Row kinds: ``is``, ``>=`` and ``<=`` bound the field by ``limit``
#: within the run; ``committed`` holds it within a ``limit`` fraction of
#: the committed report's value; ``trend`` holds it inside the history's
#: median/MAD band.
KINDS = ("is", ">=", "<=", "committed", "trend")
PHASES = ("report", "check")
#: The :meth:`Run.manifest` fields a payload's ``manifest`` stamp keeps.
STAMP = ("schema_version", "run_id", "config_digest", "seeds", "host")


@dataclass(frozen=True)
class Gate:
    """One gate row: a dotted payload ``field``, a ``phase`` and a ``kind``.

    ``better`` ("higher" or "lower") is the direction of the
    ``committed`` and ``trend`` kinds. ``skip(args, payload)`` returns the
    reason a flag turns the row off, or None when it binds.
    """

    field: str
    phase: str
    kind: str
    limit: Any = None
    better: str = "higher"
    skip: Optional[Callable[[argparse.Namespace, dict], Optional[str]]] = None

    def __post_init__(self):
        if (self.phase not in PHASES or self.kind not in KINDS
                or self.better not in ("higher", "lower")):
            raise ValueError(f"gate {self.field}: phase {self.phase!r}, "
                             f"kind {self.kind!r}, better {self.better!r}")

    def __str__(self) -> str:
        if self.kind == "committed":
            sign = "-" if self.better == "higher" else "+"
            return f"{self.field} committed {sign}{self.limit:.0%}"
        if self.kind == "trend":
            return f"{self.field} trend"
        return f"{self.field} {self.kind} {self.limit!r}"


def parse_args(parser: argparse.ArgumentParser, argv: Optional[Sequence[str]],
               report: str, slo: Optional[Sequence[str]] = None
               ) -> argparse.Namespace:
    """Add the shared flags to a script's ``parser`` and parse ``argv``.

    ``report`` is the default ``--output``; the default ``--history`` sits
    beside it. ``slo`` (the default rule set) adds ``--live``,
    ``--live-interval`` and ``--slo``; ``--live`` requires ``--obs-dir``.
    """
    parser.add_argument("--output", default=report,
                        help="the report: written unless --check, the "
                             "committed numbers under --check")
    parser.add_argument("--history", default=os.path.join(
                            os.path.dirname(report), "BENCH_history.jsonl"),
                        help="append-only JSONL perf trajectory "
                             "(empty string disables)")
    parser.add_argument("--obs-dir", default=None,
                        help="keep the repro.obs run (manifest.json + "
                             "trace.jsonl) in this directory (default: a "
                             "temporary one)")
    parser.add_argument("--check", action="store_true",
                        help="also bind the check rows (committed report, "
                             "same-run floors, trend bands) and leave the "
                             "report unwritten; exit 1 on any FAIL")
    if slo is not None:
        parser.add_argument("--live", action="store_true",
                            help="attach live telemetry (requires "
                                 "--obs-dir): ring-buffer series, SLO alerts "
                                 "and a live snapshot in the run directory — "
                                 "watch with scripts/obs_dashboard.py --follow")
        parser.add_argument("--live-interval", type=float, default=0.25,
                            help="live sampler tick period (seconds)")
        parser.add_argument("--slo", action="append", default=None,
                            help="SLO rule (repeatable; replaces the default "
                                 f"set), e.g. {slo[0]!r}")
    args = parser.parse_args(argv)
    if slo is not None:
        if args.slo is None:
            args.slo = list(slo)
        if args.live and not args.obs_dir:
            parser.error("--live requires --obs-dir (telemetry files land in "
                         "the run directory)")
    return args


def main(args: argparse.Namespace, *, name: str,
         config: Callable[[argparse.Namespace], dict],
         measure: Callable[[argparse.Namespace, Run], dict],
         show: Callable[[argparse.Namespace, dict], None],
         gates: Sequence[Gate]) -> int:
    """Run one bench end to end and return its exit status.

    ``config(args)`` is the benchmark-relevant subset of the flags (the
    run's config digest), ``measure(args, obs)`` the payload, ``show``
    its printout. Then every row is judged and printed; unless a report
    row failed, the report is written (without ``--check``) and the
    history line appended (with ``--history``).
    """
    settings = config(args)
    with tempfile.TemporaryDirectory(prefix=f"{name}_") as scratch:
        with Run(args.obs_dir or scratch, name=name, config=settings,
                 seeds={"seed": args.seed}) as obs:
            payload = measure(args, obs)
        manifest = obs.manifest()
    payload.update(config=settings,
                   manifest={key: manifest[key] for key in STAMP})
    show(args, payload)

    committed = _committed(args.output) if args.check else (None, None)
    print("gates (report rows bind on every run, check rows under --check):")
    failed = set()
    for gate in gates:
        verdict, detail = judge(gate, args, payload, committed)
        print(f"  {verdict:<4} {gate.phase:<6} {gate}: {detail}")
        if verdict == "FAIL":
            failed.add(gate.phase)
    if "report" in failed:
        print("FAIL: a report row failed — no report or history line written")
        return 1
    status = 1 if failed else 0
    if not args.check:
        write_report(args.output, payload)
        print(f"wrote {os.path.abspath(args.output)}")
    if args.history:
        append_history(args.history, payload, [gate.field for gate in gates],
                       mode="check" if args.check else "write", status=status)
    return status


def judge(gate: Gate, args: argparse.Namespace, payload: dict,
          committed: Tuple[Optional[dict], Optional[str]]) -> Tuple[str, str]:
    """``(verdict, detail)`` of one row: ``OK``, ``FAIL`` or ``SKIP``.

    ``committed`` is ``(report, None)``, or ``(None, why)`` when the
    committed report could not be read.
    """
    if gate.phase == "check" and not args.check:
        return "SKIP", "binds only under --check"
    try:
        reason = gate.skip(args, payload) if gate.skip else None
        if reason:
            return "SKIP", reason
        value = field_value(payload, gate.field)
    except KeyError as missing:
        return "FAIL", f"{missing} missing from the payload"
    if gate.kind == "is":
        return _verdict(value is gate.limit), repr(value)
    if not _finite(value):
        return "FAIL", f"{value!r} is not a finite number"
    if gate.kind in (">=", "<="):
        return _verdict(value >= gate.limit if gate.kind == ">="
                        else value <= gate.limit), f"{value:g}"
    if gate.kind == "committed":
        return _against_committed(gate, value, payload, *committed)
    return _against_trend(gate, value, args, payload)


def _verdict(ok: bool) -> str:
    return "OK" if ok else "FAIL"


def _finite(value: Any) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _committed(path: str) -> Tuple[Optional[dict], Optional[str]]:
    try:
        return load_report(path), None
    except (OSError, ValueError) as exc:
        return None, f"no committed report: {exc}"


def _against_committed(gate: Gate, value: float, payload: dict,
                       report: Optional[dict], error: Optional[str]
                       ) -> Tuple[str, str]:
    if report is None:
        return "FAIL", error
    ours = payload["manifest"]["config_digest"]
    theirs = (report.get("manifest") or {}).get("config_digest")
    if ours != theirs:
        return "FAIL", (f"run config {ours} is not the committed report's "
                        f"{theirs}; compare like with like")
    try:
        base = field_value(report, gate.field)
    except KeyError:
        return "FAIL", "missing from the committed report"
    if not _finite(base):
        return "FAIL", f"committed {base!r} is not a finite number"
    if gate.better == "higher":
        limit = base * (1.0 - gate.limit)
        return _verdict(value >= limit), (
            f"{value:g}, floor {limit:g} (committed {base:g})")
    limit = base * (1.0 + gate.limit)
    return _verdict(value <= limit), (
        f"{value:g}, ceiling {limit:g} (committed {base:g})")


def _against_trend(gate: Gate, value: float, args: argparse.Namespace,
                   payload: dict) -> Tuple[str, str]:
    if not args.history:
        return "SKIP", "history disabled (--history '')"
    if not os.path.exists(args.history):
        return "SKIP", f"no history file at {args.history}"
    digest = payload["manifest"]["config_digest"]
    trend = check_trend(args.history, payload["benchmark"], digest,
                        gate.field, value, direction=gate.better)
    if trend.status == "insufficient":
        return "SKIP", (f"{trend.points} history points under config "
                        f"{digest}, {MIN_POINTS} needed")
    if gate.better == "higher":
        bound = f"floor {trend.median - trend.band:g}"
    else:
        bound = f"ceiling {trend.median + trend.band:g}"
    skipped = (f", {trend.bad_lines} bad lines skipped" if trend.bad_lines
               else "")
    return _verdict(trend.ok), (
        f"{value:g}, {bound} (median {trend.median:g} of {trend.points} "
        f"points{skipped})")
