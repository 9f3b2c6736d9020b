"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload drive --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:
``throughput_per_s``, ``latency_p50_ms``/``latency_p99_ms``, ``setup_s``
and ``peak_rss_mb``. ``--trace 1`` makes a separate run that times each
``repro`` layer from outside (``layers.py``) over a fixed number of
operations, alternating with as many untraced ones, and reports the
per-layer metrics plus the tracing overhead. Both print a table with sample counts on stderr and
end stdout with ``{"correct", "attempted", "failed", "metrics"}``; a
failed output check exits 1, a missing ``src/repro`` exits 2 without a
result. ``--inject-wrong-output`` corrupts the first output before the
check, to prove the check can fail (``selftest.py``).

``setup_s`` runs from the end of imports to the first timed operation,
warm-up included; set-up is repeated at least ``SETUP_REPEATS`` times,
and until the set-ups took ``SETUP_MIN_S``, and the median reported.
Throughput, latency and ``setup_s`` are scaled to the reference host
speed (``hostspeed.py``); serving also leaves out time the hypervisor
took (``ServeStream.measure``). The table on stderr shows the wall-clock
figures beside them. Every process the run starts has ended when it
exits. Workload details are in ``workloads.py`` and README.md.
"""

from __future__ import annotations

import os
import sys

# Single-threaded BLAS, set before numpy loads so that spawned pool
# workers inherit it: on a 2-vCPU host, threaded BLAS nearly doubled the
# run-to-run spread of frames/s (README.md, Noise).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import atexit  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, "..", "src")

SETUP_REPEATS = 3
#: Short set-ups repeat until they add up to this many seconds (at most
#: ``SETUP_MAX_REPEATS`` times): challenge_eval's 0.25 s set-up spread 15%
#: over five runs at 3 repeats.
SETUP_MIN_S = 3.0
SETUP_MAX_REPEATS = 12
#: Reference-kernel runs (median) on each side of a set-up.
SETUP_KERNEL_RUNS = 3
#: Per-layer metrics read from ``DetectionServer.snapshot()`` and the
#: open-loop generator (0 on workloads that do not serve).
SERVE_LAYER_METRICS = (
    ("serve.server_latency_p50_ms", "ms"),
    ("serve.generator_late_ms", "ms"),
    ("serve.batch_occupancy", "frames"),
    ("serve.batches", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("pool.respawns", "count"),
    ("pool.requeues", "count"),
    ("serve.steal_free_pct", "%"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong-output", action="store_true",
                        help="corrupt the first output before the check")
    return parser.parse_args(argv)


def set_up(cls, ref, references, kernel, tracer=None):
    """Build one workload instance and warm it up.

    Returns (workload, scaled seconds, wall seconds); both leave out the
    workload's ``excluded_s``.
    """
    import hostspeed

    gc.collect()
    before = kernel.sample(SETUP_KERNEL_RUNS)
    start = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        workload = cls(ref, references)
    finally:
        if tracer is not None:
            tracer.restore()
    try:
        workload.warm_up()
    except BaseException:
        workload.close()
        raise
    wall = time.perf_counter() - start - workload.excluded_s
    return workload, wall * hostspeed.scale(before, kernel.sample(SETUP_KERNEL_RUNS)), wall


def stop_children(grace_s: float = 5.0) -> None:
    """Wait for every process this run started; stop any still running.

    Pool workers are joined by ``DetectionServer.close()``; this catches
    any an error path left behind (terminate, then kill).
    """
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(grace_s)
        for stop in (child.terminate, child.kill):
            if child.is_alive():
                stop()
                child.join(grace_s)


def stop_resource_tracker() -> None:
    """End multiprocessing's resource tracker and wait for it.

    The first spawned process starts the tracker, which is built to
    outlive its parent: it exits only once it reads the end of its pipe.
    Registered with ``atexit`` before ``multiprocessing`` is imported, so
    it runs after multiprocessing's own exit handler has released every
    queue and semaphore; closing the pipe then ends the tracker cleanly,
    and no process of the run outlives the run.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def combine(results):
    """Merge ``Workload.measure`` results of several single operations."""
    return {
        "throughput": statistics.median(r["throughput"] for r in results),
        "wall_throughput": statistics.median(r["wall_throughput"] for r in results),
        "latency_groups": [g for r in results for g in r["latency_groups"]],
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "outputs": [o for r in results for o in r["outputs"]],
        "ops": sum(r["ops"] for r in results),
    }


def verdict(workload, outputs, inject: bool):
    if inject and outputs:
        outputs = [workload.corrupt(outputs[0])] + outputs[1:]
    for output in outputs:
        problem = workload.check(output)
        if problem is not None:
            return False, problem
    if not outputs:
        return False, "no output to check"
    return True, "outputs match"


def latency_ms(groups, q):
    """Median over latency groups of each group's ``q``-th percentile."""
    import numpy as np

    return 1e3 * statistics.median(float(np.percentile(g, q)) for g in groups)


def print_table(workload, rows, wall_rows, attempted, failed, correct, note) -> None:
    lines = [f"workload {workload.name} (reference set {workload.ref}; "
             f"throughput counts {workload.unit})"]
    for name, value, unit, samples in rows:
        lines.append(f"  {name:<40} {value:>14.4f} {unit:<8} n={samples}")
    lines.append("  wall clock, unscaled (not part of the result):")
    for name, value, unit in wall_rows:
        lines.append(f"    {name:<38} {value:>14.4f} {unit}")
    lines.append(f"  attempted={attempted} failed={failed} "
                 f"check={'PASS' if correct else 'FAIL'}: {note}")
    print("\n".join(lines), file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: src/repro not found next to the benchmark; run from "
              "a full checkout", file=sys.stderr)
        return 2
    try:
        return run(args)
    finally:
        stop_children()


def run(args) -> int:
    sys.path.insert(0, os.path.abspath(SRC))
    sys.path.insert(0, HERE)
    import fixture
    import hostspeed
    import layers
    import workloads

    references = workloads.load_references()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    ref = args.seed % fixture.REFERENCE_SEEDS
    tracer = layers.LayerTracer() if args.trace else None
    kernel = hostspeed.ReferenceKernel()

    setups, wall_setups = [], []
    workload = None
    while len(setups) < SETUP_REPEATS or (
            sum(wall_setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS):
        if workload is not None:
            workload.close()
        # The first set-up is traced (scene.render, nn.calibrate).
        workload, seconds, wall = set_up(cls, ref, references, kernel,
                                         tracer if not setups else None)
        setups.append(seconds)
        wall_setups.append(wall)
    stolen, start = hostspeed.steal_s(), time.perf_counter()
    try:
        if args.trace:
            # Alternate untraced and traced operations, so host drift and
            # warm-up effects fall on both sides of the overhead ratio.
            ops = max(1, int(args.seconds / 2 / workload.nominal_op_s))
            plain, traced = [], []
            for _ in range(ops):
                plain.append(workload.measure(kernel, args.seconds / 2 / ops, ops=1))
                with tracer:
                    traced.append(workload.measure(kernel, args.seconds / 2 / ops, ops=1))
            untraced, result = combine(plain), combine(traced)
        else:
            result = workload.measure(kernel, args.seconds)
        peak_rss = workload.peak_rss_mb()
    finally:
        workload.close()
    steal_pct = 100.0 * (hostspeed.steal_s() - stolen) / (
        (time.perf_counter() - start) * hostspeed.cpu_count())

    outputs = result["outputs"] + (untraced["outputs"] if args.trace else [])
    correct, note = verdict(workload, outputs, args.inject_wrong_output)
    attempted = result["attempted"] + (untraced["attempted"] if args.trace else 0)
    failed = result["failed"] + (untraced["failed"] if args.trace else 0)
    groups = result["latency_groups"]
    samples = "x".join(str(n) for n in (len(groups), len(groups[0])) if n > 1) or "1"
    if args.trace:
        rows = [(name, value, unit, result["ops"])
                for name, (value, unit) in tracer.metrics().items()]
        rows += [(name, workload.layer.get(name, 0.0), unit, result["attempted"])
                 for name, unit in SERVE_LAYER_METRICS]
        traced, plain = result["throughput"], untraced["throughput"]
        rows += [
            ("trace.untraced_throughput_per_s", plain, "1/s", untraced["ops"]),
            ("trace.traced_throughput_per_s", traced, "1/s", result["ops"]),
            ("trace.overhead_pct", 100.0 * (plain / traced - 1.0) if traced else 0.0,
             "%", result["ops"]),
            ("host.kernel_ms", kernel.median_ms(), "ms", len(kernel.times)),
            ("host.steal_pct", steal_pct, "%", 1),
        ]
        for absent in tracer.absent:
            print(f"layer absent: {absent}", file=sys.stderr)
    else:
        rows = [
            ("throughput_per_s", result["throughput"], "1/s", result["ops"]),
            ("latency_p50_ms", latency_ms(groups, 50), "ms", samples),
            ("latency_p99_ms", latency_ms(groups, 99), "ms", samples),
            ("setup_s", statistics.median(setups), "s", len(setups)),
            ("peak_rss_mb", peak_rss, "MB", 1),
        ]
    wall_rows = [
        ("throughput_per_s", result["wall_throughput"], "1/s"),
        ("setup_s", statistics.median(wall_setups), "s"),
        ("reference kernel (median)", kernel.median_ms(), "ms"),
        ("reference kernel (nominal)", 1e3 * hostspeed.NOMINAL_S, "ms"),
        ("CPU time taken by the hypervisor", steal_pct, "%"),
    ]
    print_table(workload, rows, wall_rows, attempted, failed, correct, note)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    atexit.register(stop_resource_tracker)
    sys.exit(main())
