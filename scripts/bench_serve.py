#!/usr/bin/env python
"""Load-test the detection server and emit ``BENCH_serve.json``.

Drives :class:`repro.serve.DetectionServer` (DESIGN.md §11) through up
to three phases:

* **steady** — N simulated closed-loop clients, one session each,
  streaming frames as fast as their responses return; reports p50/p99
  request latency and sustained frames/sec across all clients.
* **overload** — an open-loop burst of several times ``queue_capacity``
  into a deliberately tiny server; asserts the robustness contract:
  queue depth stays ≤ capacity (bounded by construction) and the
  overflow is *shed* with explicit counts, never queued unboundedly.
* **chaos** (``--chaos``) — the steady workload with a worker SIGKILL'd
  mid-run; asserts every admitted request resolves exactly once and the
  pool respawned the dead slot.

Re-run with ``--check`` in CI to gate a change against the committed
report (generous tolerance: serving numbers on a loaded 1-core box are
noisier than the in-process hot path).

Usage::

    PYTHONPATH=src python scripts/bench_serve.py            # write report
    PYTHONPATH=src python scripts/bench_serve.py --chaos    # + kill a worker
    PYTHONPATH=src python scripts/bench_serve.py --check    # regression gate
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
import uuid

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.detection import TinyYolo, reduced_config  # noqa: E402
from repro.obs import (  # noqa: E402
    MANIFEST_SCHEMA_VERSION,
    Run,
    append_jsonl,
    config_digest,
    host_info,
    load_report,
    write_report,
)
from repro.obs.history import check_trend  # noqa: E402
from repro.obs.live import LiveConfig  # noqa: E402
from repro.serve import DetectionServer, RequestStatus, ServeConfig  # noqa: E402

DEFAULT_REPORT = os.path.join(os.path.dirname(__file__), "..", "BENCH_serve.json")
DEFAULT_HISTORY = os.path.join(os.path.dirname(__file__), "..", "BENCH_history.jsonl")
#: --check tolerance: sustained fps may drop (and p99 latency may grow)
#: by this fraction before the gate fails. Serving involves process
#: scheduling, so the band is wider than bench_hotpath's 20%.
REGRESSION_TOLERANCE = 0.35


def bench_config(args: argparse.Namespace) -> dict:
    """Benchmark-relevant flags only (shared by report + obs manifest)."""
    return {
        "clients": args.clients,
        "frames_per_client": args.frames_per_client,
        "workers": args.workers,
        "max_batch": args.max_batch,
        "batch_window_ms": round(args.batch_window_s * 1e3, 3),
        "queue_capacity": args.queue_capacity,
        "input_size": args.input_size,
        "width_multiplier": args.width,
        "chaos": bool(args.chaos),
        "lowered": True,
        "seed": args.seed,
    }


def bench_manifest(config: dict, run_id: str) -> dict:
    """Provenance stamp for one benchmark run (DESIGN.md §9)."""
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "run_id": run_id,
        "config_digest": config_digest(config),
        "seeds": {"frames": config["seed"], "detector": config["seed"]},
        "host": host_info(),
    }


def build_detector(args: argparse.Namespace) -> TinyYolo:
    detector = TinyYolo(
        reduced_config(input_size=args.input_size,
                       width_multiplier=args.width),
        seed=args.seed,
    )
    detector.eval()
    return detector


def make_frames(args: argparse.Namespace, count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [rng.random((3, args.input_size, args.input_size)).astype(np.float32)
            for _ in range(count)]


def serve_config(args: argparse.Namespace, **overrides) -> ServeConfig:
    fields = dict(
        workers=args.workers,
        max_batch=args.max_batch,
        batch_window_s=args.batch_window_s,
        queue_capacity=args.queue_capacity,
        max_sessions=max(args.clients, 4),
        deadline_s=60.0,
        task_timeout_s=30.0,
        # Serve on the lowered (BN-folded, fused, pre-planned) forward —
        # parity-gated by pytest -m lowered (DESIGN.md §13); closes the
        # ROADMAP item from PR 8.
        lowered=True,
    )
    fields.update(overrides)
    return ServeConfig(**fields)


def _kill_one_worker(server: DetectionServer, wait_s: float = 10.0) -> bool:
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        pids = server.worker_pids()
        if pids:
            os.kill(pids[0], signal.SIGKILL)
            return True
        time.sleep(0.02)
    return False


def run_closed_loop(args: argparse.Namespace, server: DetectionServer,
                    chaos: bool = False) -> dict:
    """N client threads, each submit→await→submit over its own session.

    Returns the phase payload; raises SystemExit if any delivery
    guarantee is violated (a benchmark must not report numbers for a
    server that dropped or duplicated work).
    """
    results = [None] * args.clients
    errors: list = []
    kill_done = threading.Event()

    def client(index: int) -> None:
        frames = make_frames(args, args.frames_per_client,
                             seed=args.seed + 1000 + index)
        try:
            session = server.open_session(f"client-{index}")
            responses = []
            for frame_index, frame in enumerate(frames):
                if (chaos and index == 0
                        and frame_index == args.frames_per_client // 3):
                    kill_done.wait(timeout=15.0)
                responses.append(server.submit(session, frame).result(timeout=120))
            results[index] = responses
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append((index, repr(exc)))

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(args.clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    if chaos:
        if not _kill_one_worker(server):
            raise SystemExit("FATAL: chaos phase found no live worker to kill")
        kill_done.set()
    for thread in threads:
        thread.join(timeout=300)
    wall = time.perf_counter() - start
    if errors:
        raise SystemExit(f"FATAL: client threads errored: {errors}")

    # Exactly-once audit: every client saw each of its seqs once, with a
    # terminal status.
    statuses: dict = {}
    latencies = []
    for index, responses in enumerate(results):
        if responses is None:
            raise SystemExit(f"FATAL: client {index} never completed")
        seqs = sorted(resp.seq for resp in responses)
        if seqs != list(range(args.frames_per_client)):
            raise SystemExit(
                f"FATAL: client {index} responses dropped/duplicated: {seqs}")
        for resp in responses:
            statuses[resp.status] = statuses.get(resp.status, 0) + 1
            if resp.status == RequestStatus.OK:
                latencies.append(resp.latency_s)
    total = args.clients * args.frames_per_client
    if statuses.get(RequestStatus.OK, 0) != total:
        raise SystemExit(
            f"FATAL: expected {total} ok responses, got {statuses}")
    latencies.sort()
    return {
        "clients": args.clients,
        "requests": total,
        "statuses": statuses,
        "wall_seconds": round(wall, 3),
        "sustained_fps": round(total / wall, 2),
        "latency_p50_ms": round(1e3 * float(np.percentile(latencies, 50)), 2),
        "latency_p99_ms": round(1e3 * float(np.percentile(latencies, 99)), 2),
    }


def run_overload(args: argparse.Namespace) -> dict:
    """Open-loop burst into a tiny server: the bounded-shed contract.

    Runs in-process (``workers=0``) so the drain rate — and therefore a
    guaranteed overflow — doesn't depend on pool warm-up timing.
    """
    capacity = 8
    detector = build_detector(args)
    config = serve_config(args, workers=0, queue_capacity=capacity,
                          batch_window_s=0.05, max_sessions=8)
    server = DetectionServer(detector, config)
    burst = capacity * 8
    try:
        session = server.open_session("burst")
        frames = make_frames(args, burst, seed=args.seed + 77)
        futures = [server.submit(session, frame) for frame in frames]
        responses = [future.result(timeout=120) for future in futures]
    finally:
        server.close()
    snap = server.snapshot()
    statuses: dict = {}
    for resp in responses:
        statuses[resp.status] = statuses.get(resp.status, 0) + 1
    if len(responses) != burst:
        raise SystemExit("FATAL: overload phase lost responses")
    if snap["max_queue_depth"] > capacity:
        raise SystemExit(
            f"FATAL: queue depth {snap['max_queue_depth']} exceeded "
            f"capacity {capacity} — admission bound violated")
    if snap["shed"] == 0:
        raise SystemExit(
            "FATAL: overload burst shed nothing — the phase is not "
            "actually overloading the server")
    return {
        "submitted": burst,
        "queue_capacity": capacity,
        "statuses": statuses,
        "shed": snap["shed"],
        "accepted": snap["accepted"],
        "max_queue_depth": snap["max_queue_depth"],
    }


def warm_up(args: argparse.Namespace, server: DetectionServer) -> None:
    """Pay the one-time costs (worker spawn, weight load, plan and
    workspace buffer allocation) outside the measured window."""
    session = server.open_session("warmup")
    frames = make_frames(args, 2 * args.max_batch, seed=args.seed + 31337)
    for future in [server.submit(session, frame) for frame in frames]:
        future.result(timeout=120)
    server.close_session(session)


def run_benchmark(args: argparse.Namespace, obs=None) -> dict:
    detector = build_detector(args)

    live = None
    if obs is not None and args.live:
        live = LiveConfig(interval_s=args.live_interval,
                          rules=tuple(args.slo))
    server = DetectionServer(detector, serve_config(args), obs=obs,
                             live=live)
    try:
        warm_up(args, server)
        steady = run_closed_loop(args, server)
        steady_snap = server.snapshot()
    finally:
        server.close()
    steady["mean_batch_occupancy"] = round(
        steady_snap["mean_batch_occupancy"], 2)
    steady["mode"] = steady_snap["mode"]
    if steady_snap["degraded_batches"]:
        steady["degraded_batches"] = steady_snap["degraded_batches"]

    phases = {"steady": steady, "overload": run_overload(args)}

    if args.chaos:
        server = DetectionServer(detector, serve_config(args))
        try:
            warm_up(args, server)
            chaos = run_closed_loop(args, server, chaos=True)
            chaos_snap = server.snapshot()
        finally:
            server.close()
        pool = chaos_snap.get("pool") or {}
        if not pool.get("respawns"):
            raise SystemExit(
                "FATAL: chaos phase killed a worker but the pool reports "
                "no respawn")
        chaos["worker_deaths"] = pool.get("worker_deaths", 0)
        chaos["respawns"] = pool.get("respawns", 0)
        chaos["degraded_batches"] = chaos_snap["degraded_batches"]
        phases["chaos"] = chaos

    config = bench_config(args)
    run_id = obs.run_id if obs is not None else f"bench-{uuid.uuid4().hex[:12]}"
    return {
        "benchmark": "detection_serve",
        "config": config,
        "manifest": bench_manifest(config, run_id),
        # Top-level mirrors of the steady phase: what --check gates on.
        "sustained_fps": steady["sustained_fps"],
        "latency_p50_ms": steady["latency_p50_ms"],
        "latency_p99_ms": steady["latency_p99_ms"],
        "phases": phases,
    }


def check_regression(report_path: str, payload: dict) -> int:
    committed = load_report(report_path)
    fps_floor = committed["sustained_fps"] * (1.0 - REGRESSION_TOLERANCE)
    p99_ceiling = committed["latency_p99_ms"] * (1.0 + REGRESSION_TOLERANCE)
    fps = payload["sustained_fps"]
    p99 = payload["latency_p99_ms"]
    print(f"committed fps: {committed['sustained_fps']:.2f}  current: "
          f"{fps:.2f}  floor (-{REGRESSION_TOLERANCE:.0%}): {fps_floor:.2f}")
    print(f"committed p99: {committed['latency_p99_ms']:.2f} ms  current: "
          f"{p99:.2f} ms  ceiling (+{REGRESSION_TOLERANCE:.0%}): "
          f"{p99_ceiling:.2f} ms")
    status = 0
    if fps < fps_floor:
        print("FAIL: sustained fps regression exceeds tolerance")
        status = 1
    if p99 > p99_ceiling:
        print("FAIL: p99 latency regression exceeds tolerance")
        status = 1
    if status == 0:
        print("OK: within regression tolerance")
    return status


def check_history_trend(history_path: str, payload: dict) -> int:
    """Second half of the --check gate: both steady-state headline
    numbers against the robust median/MAD band of the append-only
    history — throughput must not fall below it, tail latency must not
    climb above it."""
    if not history_path or not os.path.exists(history_path):
        print("trend: no history file — pass")
        return 0
    status = 0
    for metric, direction in (("sustained_fps", "higher"),
                              ("latency_p99_ms", "lower")):
        verdict = check_trend(history_path, "detection_serve", metric,
                              payload[metric], direction=direction)
        print(verdict.describe())
        if not verdict.ok:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=8,
                        help="simulated concurrent client streams")
    parser.add_argument("--frames-per-client", type=int, default=24)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--batch-window-s", type=float, default=0.004)
    parser.add_argument("--queue-capacity", type=int, default=64)
    parser.add_argument("--input-size", type=int, default=64)
    parser.add_argument("--width", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--chaos", action="store_true",
                        help="also run the worker-SIGKILL phase")
    parser.add_argument("--output", default=DEFAULT_REPORT)
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        help="append-only JSONL perf trajectory "
                             "(empty string disables)")
    parser.add_argument("--obs-dir", default=None,
                        help="also record a repro.obs run under this "
                             "directory")
    parser.add_argument("--live", action="store_true",
                        help="attach live telemetry (requires --obs-dir): "
                             "ring-buffer series, SLO alerts, live.json — "
                             "watch with scripts/obs_dashboard.py --follow")
    parser.add_argument("--live-interval", type=float, default=0.25,
                        help="live sampler tick period (seconds)")
    parser.add_argument("--slo", action="append", default=None,
                        help="SLO rule (repeatable; replaces the default "
                             "set), e.g. 'serve.latency_p99_ms < 120'")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed report instead "
                             "of overwriting it; exit 1 past tolerance")
    args = parser.parse_args(argv)
    if args.slo is None:
        args.slo = ["serve.latency_p99_ms < 500",
                    "serve.shed_rate < 0.05",
                    "serve.respawns_per_min < 2"]
    if args.live and not args.obs_dir:
        parser.error("--live requires --obs-dir (telemetry files land in "
                     "the run directory)")

    if args.obs_dir:
        with Run(args.obs_dir, name="bench_serve",
                 config=bench_config(args), seeds={"seed": args.seed}) as obs:
            payload = run_benchmark(args, obs=obs)
    else:
        payload = run_benchmark(args)

    steady = payload["phases"]["steady"]
    print(f"steady: {steady['requests']} requests over {args.clients} "
          f"clients -> {steady['sustained_fps']:.2f} fps   "
          f"p50 {steady['latency_p50_ms']:.1f} ms   "
          f"p99 {steady['latency_p99_ms']:.1f} ms   mode={steady['mode']}")
    overload = payload["phases"]["overload"]
    print(f"overload: {overload['submitted']} burst into capacity "
          f"{overload['queue_capacity']} -> shed {overload['shed']}, "
          f"max depth {overload['max_queue_depth']}")
    if "chaos" in payload["phases"]:
        chaos = payload["phases"]["chaos"]
        print(f"chaos: worker killed mid-run -> {chaos['statuses']} "
              f"(deaths {chaos['worker_deaths']}, respawns "
              f"{chaos['respawns']})")

    status = 0
    if args.check:
        status = check_regression(args.output, payload)
        status = max(status, check_history_trend(args.history, payload))
    else:
        write_report(args.output, payload)
        print(f"wrote {os.path.abspath(args.output)}")
    if args.history:
        append_jsonl(args.history, {
            "unix_time": time.time(),
            "mode": "check" if args.check else "write",
            "status": status,
            "benchmark": "detection_serve",
            "run_id": payload["manifest"]["run_id"],
            "config_digest": payload["manifest"]["config_digest"],
            "sustained_fps": payload["sustained_fps"],
            "latency_p50_ms": payload["latency_p50_ms"],
            "latency_p99_ms": payload["latency_p99_ms"],
        })
    return status


if __name__ == "__main__":
    raise SystemExit(main())
