#!/usr/bin/env python
"""Benchmark the detection hot path and emit ``BENCH_hotpath.json``.

Runs a seeded synthetic video through :class:`repro.av.AvPipeline` three
times:

* **per-frame** — the historical reference loop, one ``step()`` (one
  detector forward) per frame;
* **batched** — ``run(batch_size=N)``, the vectorized hot path;
* **lowered** — the same batched run through the eval-time lowered
  detector (``TinyYolo.lower()``, DESIGN.md §13): BN folded, fused
  epilogues, pre-planned buffers;
* **quant** — the same batched run through the int8-quantized plan
  (``TinyYolo.quantize()``, DESIGN.md §15), calibrated on the first
  frames of the bench video. Unlike the first three phases this one is
  an *accuracy-vs-speed point*: instead of trace identity it records an
  accuracy budget — per-layer activation error vs the lowered fp graph
  plus end-to-end PWC/CWC deltas vs the fp oracle on the seed
  challenge — and refuses to report a speedup when the budget is blown.

The first three traces are asserted behaviourally identical (same
detections, confirmations and planner actions frame by frame) before any
number is reported, so no speedup can come from changed semantics. The
batched, lowered and int8 runs are traced into one :class:`repro.obs.Run`
(under ``--obs-dir``, else a temporary directory) and each reports the
:func:`repro.obs.stage_table` of its ``pipeline.run`` span: self time of
forward / decode / nms / confirm. The JSON report seeds the repo's perf
trajectory; re-run with ``--check`` in CI to fail on a >20% frames/sec
regression against the committed report, on the lowered forward stage
falling under its speedup floor, or on the quantized forward falling
under its own floor vs the lowered forward of the same invocation.

Usage::

    PYTHONPATH=src python scripts/bench_hotpath.py              # write report
    PYTHONPATH=src python scripts/bench_hotpath.py --check      # regression gate
    PYTHONPATH=src python scripts/bench_hotpath.py --layers     # per-layer tables

``--layers`` adds one per-node timing table for each executor —
autodiff, lowered and int8 — printed side by side: self time per graph
node over one run of the bench video, from a timing shim on the
``run_node`` that the graph interpreter calls once per node
(:func:`timed_nodes`).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from contextlib import contextmanager

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.av import AvPipeline  # noqa: E402
from repro.detection import TinyYolo, reduced_config  # noqa: E402
from repro.obs import (  # noqa: E402
    MANIFEST_SCHEMA_VERSION,
    Run,
    append_jsonl,
    build_tree,
    config_digest,
    host_info,
    load_report,
    load_trace,
    stage_table,
    write_report,
)
from repro.eval.protocol import run_challenge  # noqa: E402
from repro.nn.quant import activation_error_stats, calibrate_detector  # noqa: E402
from repro.obs.history import check_trend  # noqa: E402
from repro.scene.video import AttackScenario  # noqa: E402

DEFAULT_REPORT = os.path.join(os.path.dirname(__file__), "..", "BENCH_hotpath.json")
DEFAULT_HISTORY = os.path.join(os.path.dirname(__file__), "..", "BENCH_history.jsonl")
#: --check fails when batched frames/sec drops below this share of the
#: committed number.
REGRESSION_TOLERANCE = 0.20
#: --check fails when the lowered forward stage is not at least this much
#: faster than the non-lowered forward stage *of the same invocation*
#: (same machine, same load — immune to cross-host drift in the
#: committed report).
LOWERED_FORWARD_FLOOR = 1.3
#: --check fails when the int8 forward stage is not at least this much
#: faster than the *lowered* forward stage of the same invocation —
#: quantization must pay for its accuracy loss on top of lowering, not
#: merely match it.
QUANT_FORWARD_FLOOR = 1.15
#: Declared accuracy budget of the quantized path: |PWC(int8) − PWC(fp)|
#: on the seed challenge must stay within this absolute delta, and the
#: CWC majority outcome must match. Enforced at report time — a blown
#: budget refuses to report the speedup at all.
QUANT_PWC_TOLERANCE = 0.05
#: Frames of the bench video used for the calibration pass.
QUANT_CALIBRATION_FRAMES = 16
#: Column heads of the side-by-side stage and node tables.
EXECUTORS = ("autodiff", "lowered", "int8")


def bench_config(args: argparse.Namespace) -> dict:
    """The benchmark-relevant subset of the CLI flags.

    Used for both the report payload and the :class:`repro.obs.Run`
    identity, so the digest in `BENCH_history.jsonl` and the digest in
    the run manifest agree for one invocation (output paths and other
    non-semantic flags are excluded on purpose).
    """
    return {
        "frames": args.frames,
        "batch_size": args.batch_size,
        "input_size": args.input_size,
        "width_multiplier": args.width,
        "conf_threshold": args.conf_threshold,
        "seed": args.seed,
    }


def bench_manifest(config: dict, run_id: str) -> dict:
    """Provenance stamp for one benchmark run (DESIGN.md §9).

    Same fields a :class:`repro.obs.Run` manifest leads with — run id,
    config digest, seeds, host — so `BENCH_hotpath.json` numbers can be
    attributed and compared across machines and commits.
    """
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "run_id": run_id,
        "config_digest": config_digest(config),
        "seeds": {"video": config["seed"], "detector": config["seed"]},
        "host": host_info(),
    }


def build_pipeline(args: argparse.Namespace, lowered: bool = False,
                   precision: str = "fp", calibration=None) -> AvPipeline:
    detector = TinyYolo(
        reduced_config(input_size=args.input_size,
                       width_multiplier=args.width),
        seed=args.seed,
    )
    return AvPipeline(detector, confirm_frames=3,
                      conf_threshold=args.conf_threshold, lowered=lowered,
                      precision=precision, calibration=calibration)


def make_video(args: argparse.Namespace) -> list:
    rng = np.random.default_rng(args.seed)
    return [rng.random((3, args.input_size, args.input_size)).astype(np.float32)
            for _ in range(args.frames)]


def traces_equal(reference, batched, atol: float = 1e-3) -> bool:
    """Behavioural identity: detections, confirmations, planner actions.

    Boxes and scores are compared to within BLAS reassociation noise
    (batched and single-frame GEMMs round differently at ~1e-5 relative);
    every discrete outcome — counts, classes, track ids, planner actions —
    must match exactly.
    """
    if len(reference) != len(batched):
        return False
    for ref, bat in zip(reference, batched):
        if ref.sensor_fault != bat.sensor_fault:
            return False
        if ref.decision.action != bat.decision.action:
            return False
        if len(ref.detections) != len(bat.detections):
            return False
        for a, b in zip(ref.detections, bat.detections):
            if a.class_id != b.class_id:
                return False
            if not np.allclose(a.box_xyxy, b.box_xyxy, atol=atol, rtol=1e-5):
                return False
            if abs(a.score - b.score) > atol:
                return False
        ref_conf = [(c.track_id, c.class_id) for c in ref.confirmed]
        bat_conf = [(c.track_id, c.class_id) for c in bat.confirmed]
        if ref_conf != bat_conf:
            return False
    return True


def run_benchmark(args: argparse.Namespace, obs: Run) -> dict:
    pipeline = build_pipeline(args)
    frames = make_video(args)

    # Warm up caches (decode constants, workspace buffers, BLAS threads).
    pipeline.run(frames[: min(4, len(frames))], batch_size=args.batch_size)

    pipeline.reset()
    start = time.perf_counter()
    reference_traces = [pipeline.step(frame) for frame in frames]
    per_frame_seconds = time.perf_counter() - start
    per_frame_fps = len(frames) / per_frame_seconds

    start = time.perf_counter()
    batched_traces = pipeline.run(frames, batch_size=args.batch_size, obs=obs)
    batched_seconds = time.perf_counter() - start
    batched_fps = len(frames) / batched_seconds

    identical = traces_equal(reference_traces, batched_traces)
    if not identical:
        raise SystemExit(
            "FATAL: batched pipeline traces diverge from the per-frame "
            "reference — refusing to report a speedup for different "
            "semantics")

    # Third phase: the same batched run through the lowered executor. The
    # lowered pipeline shares the reference detector's weights (same seed,
    # same construction) so trace identity is the lowering parity oracle.
    lowered_pipeline = build_pipeline(args, lowered=True)
    lowered_pipeline.run(frames[: min(4, len(frames))],
                         batch_size=args.batch_size)  # warm the plan cache
    start = time.perf_counter()
    lowered_traces = lowered_pipeline.run(frames, batch_size=args.batch_size,
                                          obs=obs)
    lowered_seconds = time.perf_counter() - start
    lowered_fps = len(frames) / lowered_seconds

    lowered_identical = traces_equal(reference_traces, lowered_traces)
    if not lowered_identical:
        raise SystemExit(
            "FATAL: lowered pipeline traces diverge from the per-frame "
            "reference — the lowering parity oracle failed; refusing to "
            "report a speedup for different semantics")

    # Fourth phase: the int8-quantized plan (DESIGN.md §15). Calibrated on
    # the leading frames of the same video, timed against the *lowered*
    # forward of this invocation (quantization must beat the strongest fp
    # baseline, not the eager one), and reported with its accuracy budget
    # instead of trace identity.
    calibration = calibrate_detector(
        lowered_pipeline.infer_model,
        np.stack(frames[:QUANT_CALIBRATION_FRAMES]))
    quant_pipeline = build_pipeline(args, precision="int8",
                                    calibration=calibration)
    quant_pipeline.run(frames[: min(4, len(frames))],
                       batch_size=args.batch_size)  # warm the plan cache
    start = time.perf_counter()
    quant_traces = quant_pipeline.run(frames, batch_size=args.batch_size,
                                      obs=obs)
    quant_seconds = time.perf_counter() - start
    quant_fps = len(frames) / quant_seconds

    # The three timed runs are the trace's last three ``pipeline.run`` trees.
    obs.tracer.flush()
    stages, lowered_stages, quant_stages = (
        stage_table([node.record for node in root.walk()])
        for root in build_tree(load_trace(obs.trace_path))[-3:])
    forward_s, lowered_forward_s, quant_forward_s = (
        table["detect.forward"]["self_s"]
        for table in (stages, lowered_stages, quant_stages))
    forward_speedup = forward_s / lowered_forward_s
    quant_forward_speedup = lowered_forward_s / quant_forward_s
    action_agreement = float(np.mean([
        ref.decision.action == q.decision.action
        for ref, q in zip(reference_traces, quant_traces)]))

    # Accuracy budget, half one: per-layer activation error vs the lowered
    # fp graph on one bench batch.
    layer_errors = activation_error_stats(
        lowered_pipeline.infer_model, quant_pipeline.infer_model,
        np.stack(frames[: args.batch_size]))
    worst_layer = max(layer_errors, key=lambda k: layer_errors[k]["max_rel"])
    # Accuracy budget, half two: end-to-end PWC/CWC vs the fp oracle on
    # the seed challenge (rendered scene, not noise frames).
    scenario = AttackScenario(image_size=args.input_size)
    oracle = run_challenge(quant_pipeline.detector, scenario, "speed/normal",
                           n_runs=1, seed=args.seed, lowered=True)
    quant_result = run_challenge(quant_pipeline.detector, scenario,
                                 "speed/normal", n_runs=1, seed=args.seed,
                                 precision="int8", calibration=calibration)
    pwc_delta = abs(quant_result.pwc - oracle.pwc)
    cwc_match = bool(quant_result.cwc == oracle.cwc)
    if pwc_delta > QUANT_PWC_TOLERANCE or not cwc_match:
        raise SystemExit(
            f"FATAL: quantized accuracy budget blown — |ΔPWC|={pwc_delta:.4f}"
            f" (tolerance {QUANT_PWC_TOLERANCE}), CWC match={cwc_match} — "
            "refusing to report a speedup outside the declared budget")

    config = bench_config(args)
    payload = {
        "benchmark": "av_pipeline_hotpath",
        "config": config,
        "manifest": bench_manifest(config, obs.run_id),
        "per_frame_fps": round(per_frame_fps, 2),
        "batched_fps": round(batched_fps, 2),
        "speedup": round(batched_fps / per_frame_fps, 3),
        "trace_identical": identical,
        "perf": {"stages": stages},
        "lowered": {
            "fps": round(lowered_fps, 2),
            "trace_identical": lowered_identical,
            "forward_seconds": round(lowered_forward_s, 6),
            "baseline_forward_seconds": round(forward_s, 6),
            "forward_speedup": round(forward_speedup, 3),
            "floor": LOWERED_FORWARD_FLOOR,
            "stages": lowered_stages,
        },
        "quant": {
            "fps": round(quant_fps, 2),
            "forward_seconds": round(quant_forward_s, 6),
            "lowered_forward_seconds": round(lowered_forward_s, 6),
            "forward_speedup_vs_lowered": round(quant_forward_speedup, 3),
            "floor": QUANT_FORWARD_FLOOR,
            "stages": quant_stages,
            "calibration": {
                "frames": calibration.frames,
                "percentile": calibration.percentile,
                "digest": calibration.digest()[:12],
            },
            "activation_error": {
                "worst_layer": worst_layer,
                "max_rel": round(layer_errors[worst_layer]["max_rel"], 5),
                "max_abs": round(layer_errors[worst_layer]["max_abs"], 5),
                "per_layer_max_rel": {
                    name: round(err["max_rel"], 5)
                    for name, err in sorted(layer_errors.items())},
            },
            "accuracy": {
                "challenge": "speed/normal",
                "pwc_fp": round(oracle.pwc, 4),
                "pwc_int8": round(quant_result.pwc, 4),
                "pwc_delta": round(pwc_delta, 4),
                "pwc_tolerance": QUANT_PWC_TOLERANCE,
                "cwc_fp": oracle.cwc,
                "cwc_int8": quant_result.cwc,
                "cwc_match": cwc_match,
                "action_agreement": round(action_agreement, 4),
            },
        },
    }

    if args.layers:
        payload["layers"] = node_table(pipeline, frames, args.batch_size)
        payload["lowered"]["layers"] = node_table(
            lowered_pipeline, frames, args.batch_size)
        payload["quant"]["layers"] = node_table(
            quant_pipeline, frames, args.batch_size)
    return payload


@contextmanager
def timed_nodes(detector):
    """Time every graph node a detector's executor runs.

    The graph interpreter calls ``run_node`` once per node: the
    ``TinyYolo``'s own for the autodiff forward, each cached plan's for a
    lowered or int8 detector. A timing shim set on those instances, and
    deleted on exit, sees every node of every forward. Nodes do not nest,
    so each total is self time. Yields ``{node: [seconds, calls]}`` in
    graph order.
    """
    plans = getattr(detector, "_plans", None)
    owners = [detector] if plans is None else list(plans.values())
    totals = {node.name: [0.0, 0] for node in detector.graph.nodes}

    def timed(run_node):
        def run(node, *inputs):
            start = time.perf_counter()
            out = run_node(node, *inputs)
            entry = totals[node.name]
            entry[0] += time.perf_counter() - start
            entry[1] += 1
            return out
        return run

    for owner in owners:
        owner.run_node = timed(owner.run_node)
    try:
        yield totals
    finally:
        for owner in owners:
            del owner.run_node


def node_table(pipeline: AvPipeline, frames: list, batch_size: int) -> list:
    """Per-node self time of one pipeline run over ``frames``, in graph
    order; ``share`` is each node's part of the summed node time."""
    with timed_nodes(pipeline.infer_model) as totals:
        pipeline.run(frames, batch_size=batch_size)
    total = sum(seconds for seconds, _ in totals.values())
    return [{"layer": name, "self_s": round(seconds, 6), "calls": calls,
             "share": seconds / total}
            for name, (seconds, calls) in totals.items()]


def print_tables(title: str, tables: list, per_call: bool = False) -> None:
    """Autodiff, lowered and int8 tables of ``{name: {"self_s", "calls",
    "share"}}`` side by side: each row's ms (per call with ``per_call``)
    and its share of its table."""
    print(title)
    print(f"  {'':>16}" + "".join(f"  {name:>17}" for name in EXECUTORS))
    totals = [0.0] * len(tables)
    for name in tables[0]:
        cells = []
        for index, table in enumerate(tables):
            row = table[name]
            ms = 1e3 * row["self_s"] / (row["calls"] if per_call else 1)
            totals[index] += ms
            cells.append(f"{ms:8.3f} ({row['share']:6.1%})")
        print(f"  {name:>16}" + "".join(f"  {cell:>17}" for cell in cells))
    print(f"  {'total':>16}" + "".join(f"  {total:8.3f}{'':9}"
                                       for total in totals))


def check_regression(report_path: str, payload: dict) -> int:
    committed = load_report(report_path)
    floor = committed["batched_fps"] * (1.0 - REGRESSION_TOLERANCE)
    current = payload["batched_fps"]
    print(f"committed batched fps: {committed['batched_fps']:.2f}  "
          f"current: {current:.2f}  floor (-{REGRESSION_TOLERANCE:.0%}): {floor:.2f}")
    if current < floor:
        print("FAIL: hot-path regression exceeds tolerance")
        return 1
    print("OK: within regression tolerance")
    return 0


def check_lowered_floor(payload: dict) -> int:
    """Lowered-forward gate: measured against the *same invocation's*
    non-lowered forward stage, so the floor holds on any machine."""
    speedup = payload["lowered"]["forward_speedup"]
    print(f"lowered forward speedup: {speedup:.2f}x  "
          f"floor: {LOWERED_FORWARD_FLOOR:.2f}x")
    if speedup < LOWERED_FORWARD_FLOOR:
        print("FAIL: lowered forward stage under its speedup floor")
        return 1
    print("OK: lowered forward above floor")
    return 0


def check_quant_floor(payload: dict) -> int:
    """Quantized-forward gate: measured against the *lowered* forward
    stage of the same invocation, plus the declared accuracy budget
    (already enforced at report time — re-asserted here so a hand-edited
    report cannot sneak past the gate)."""
    quant = payload["quant"]
    speedup = quant["forward_speedup_vs_lowered"]
    accuracy = quant["accuracy"]
    print(f"quant forward speedup vs lowered: {speedup:.2f}x  "
          f"floor: {QUANT_FORWARD_FLOOR:.2f}x")
    print(f"quant accuracy: |ΔPWC|={accuracy['pwc_delta']:.4f} "
          f"(tolerance {accuracy['pwc_tolerance']})  "
          f"CWC match: {accuracy['cwc_match']}")
    if speedup < QUANT_FORWARD_FLOOR:
        print("FAIL: quantized forward under its speedup floor")
        return 1
    if (accuracy["pwc_delta"] > accuracy["pwc_tolerance"]
            or not accuracy["cwc_match"]):
        print("FAIL: quantized accuracy budget blown")
        return 1
    print("OK: quantized forward above floor, accuracy within budget")
    return 0


def check_history_trend(history_path: str, payload: dict) -> int:
    """Second half of the --check gate: the fresh number against the
    robust median/MAD trend of the append-only history (a single
    committed report can itself be a lucky outlier; the trailing window
    cannot)."""
    if not history_path or not os.path.exists(history_path):
        print("trend: no history file — pass")
        return 0
    status = 0
    fields = [("batched_fps", payload["batched_fps"])]
    if "quant" in payload:  # pre-quant payloads have no int8 phase
        fields.append(("quant_fps", payload["quant"]["fps"]))
    for field, value in fields:
        verdict = check_trend(history_path, "av_pipeline_hotpath",
                              field, value, direction="higher")
        print(verdict.describe())
        if not verdict.ok:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=48)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--input-size", type=int, default=64)
    parser.add_argument("--width", type=float, default=0.25)
    parser.add_argument("--conf-threshold", type=float, default=0.001,
                        help="low threshold so NMS/confirmation see real work")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=DEFAULT_REPORT)
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        help="append-only JSONL perf trajectory "
                             "(empty string disables)")
    parser.add_argument("--obs-dir", default=None,
                        help="keep the repro.obs run (manifest.json + "
                             "trace.jsonl) the stage tables are read from "
                             "in this directory (default: a temporary one)")
    parser.add_argument("--layers", action="store_true",
                        help="include per-node timing tables of the "
                             "autodiff, lowered and int8 executors")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed report instead "
                             "of overwriting it; exit 1 on >20%% regression")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_hotpath_") as scratch:
        with Run(args.obs_dir or scratch, name="bench_hotpath",
                 config=bench_config(args), seeds={"seed": args.seed}) as obs:
            payload = run_benchmark(args, obs)
    print(f"per-frame: {payload['per_frame_fps']:.2f} fps   "
          f"batched(x{args.batch_size}): {payload['batched_fps']:.2f} fps   "
          f"speedup: {payload['speedup']:.2f}x   "
          f"trace-identical: {payload['trace_identical']}")
    lowered = payload["lowered"]
    print(f"lowered:   {lowered['fps']:.2f} fps   "
          f"forward speedup: {lowered['forward_speedup']:.2f}x   "
          f"trace-identical: {lowered['trace_identical']}")
    quant = payload["quant"]
    print(f"quant:     {quant['fps']:.2f} fps   "
          f"forward speedup vs lowered: "
          f"{quant['forward_speedup_vs_lowered']:.2f}x   "
          f"|ΔPWC|: {quant['accuracy']['pwc_delta']:.4f}   "
          f"worst layer rel err: {quant['activation_error']['max_rel']:.4f} "
          f"({quant['activation_error']['worst_layer']})")
    print_tables("pipeline stages: self ms (share of the run)",
                 [payload["perf"]["stages"], lowered["stages"],
                  quant["stages"]])
    if args.layers:
        print_tables(f"graph nodes, batch {args.batch_size}: "
                     "ms per forward (share of the forward)",
                     [{row["layer"]: row for row in table}
                      for table in (payload["layers"], lowered["layers"],
                                    quant["layers"])],
                     per_call=True)

    status = 0
    if args.check:
        status = check_regression(args.output, payload)
        status = max(status, check_lowered_floor(payload))
        status = max(status, check_quant_floor(payload))
        status = max(status, check_history_trend(args.history, payload))
    else:
        write_report(args.output, payload)
        print(f"wrote {os.path.abspath(args.output)}")
    if args.history:
        # The append-only trajectory: one line per invocation (including
        # --check gates), so the fps history is machine-readable instead
        # of a single overwritten file.
        append_jsonl(args.history, {
            "unix_time": time.time(),
            "mode": "check" if args.check else "write",
            "status": status,
            "benchmark": "av_pipeline_hotpath",
            "run_id": payload["manifest"]["run_id"],
            "config_digest": payload["manifest"]["config_digest"],
            "per_frame_fps": payload["per_frame_fps"],
            "batched_fps": payload["batched_fps"],
            "speedup": payload["speedup"],
            "lowered_fps": payload["lowered"]["fps"],
            "lowered_forward_speedup": payload["lowered"]["forward_speedup"],
            "quant_fps": payload["quant"]["fps"],
            "quant_forward_speedup": payload["quant"]["forward_speedup_vs_lowered"],
            "quant_pwc_delta": payload["quant"]["accuracy"]["pwc_delta"],
        })
    return status


if __name__ == "__main__":
    raise SystemExit(main())
