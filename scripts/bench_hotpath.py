#!/usr/bin/env python
"""Benchmark the detection hot path and emit ``BENCH_hotpath.json``.

Runs a seeded synthetic video through :class:`repro.av.AvPipeline` four
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
  challenge.

The batched, lowered and int8 runs are traced into one
:class:`repro.obs.Run` (under ``--obs-dir``, else a temporary directory)
and each reports the :func:`repro.obs.stage_table` of its
``pipeline.run`` span: self time of forward / decode / nms / confirm.

Gates (:data:`GATES`, judged by :mod:`repro.obs.bench`): on every run the
batched and lowered traces must equal the per-frame one (same detections,
confirmations and planner actions frame by frame) and int8 must stay in
its accuracy budget, or no report is written, so no speedup can come from
changed semantics. ``--check`` adds batched frames/sec within 20% of the
committed report, the lowered and int8 forward floors against the same
run's autodiff and lowered forwards, and the history trend bands.

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
import time
from contextlib import contextmanager

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.av import AvPipeline  # noqa: E402
from repro.detection import TinyYolo, reduced_config  # noqa: E402
from repro.eval.protocol import run_challenge  # noqa: E402
from repro.nn.quant import activation_error_stats, calibrate_detector  # noqa: E402
from repro.obs import Run, bench, build_tree, load_trace, stage_table  # noqa: E402
from repro.obs.bench import Gate  # noqa: E402
from repro.scene.video import AttackScenario  # noqa: E402

DEFAULT_REPORT = os.path.join(os.path.dirname(__file__), "..", "BENCH_hotpath.json")
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
#: CWC majority outcome must match. A report row: a blown budget writes
#: no report at all.
QUANT_PWC_TOLERANCE = 0.05
#: Frames of the bench video used for the calibration pass.
QUANT_CALIBRATION_FRAMES = 16
#: Column heads of the side-by-side stage and node tables.
EXECUTORS = ("autodiff", "lowered", "int8")

GATES = (
    Gate("trace_identical", "report", "is", True),
    Gate("lowered.trace_identical", "report", "is", True),
    Gate("quant.accuracy.pwc_delta", "report", "<=", QUANT_PWC_TOLERANCE),
    Gate("quant.accuracy.cwc_match", "report", "is", True),
    Gate("batched_fps", "check", "committed", REGRESSION_TOLERANCE),
    Gate("lowered.forward_speedup", "check", ">=", LOWERED_FORWARD_FLOOR),
    Gate("quant.forward_speedup_vs_lowered", "check", ">=",
         QUANT_FORWARD_FLOOR),
    Gate("batched_fps", "check", "trend"),
    Gate("quant.fps", "check", "trend"),
)


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

    payload = {
        "benchmark": "av_pipeline_hotpath",
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


def print_summary(args: argparse.Namespace, payload: dict) -> None:
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=48)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--input-size", type=int, default=64)
    parser.add_argument("--width", type=float, default=0.25)
    parser.add_argument("--conf-threshold", type=float, default=0.001,
                        help="low threshold so NMS/confirmation see real work")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--layers", action="store_true",
                        help="include per-node timing tables of the "
                             "autodiff, lowered and int8 executors")
    args = bench.parse_args(parser, argv, DEFAULT_REPORT)
    return bench.main(args, name="bench_hotpath", config=bench_config,
                      measure=run_benchmark, show=print_summary, gates=GATES)


if __name__ == "__main__":
    raise SystemExit(main())
