#!/usr/bin/env python
"""Benchmark the parallel EOT training engine and emit ``BENCH_train.json``.

Runs the decal-attack trainer twice on a reduced profile:

* **serial** — ``workers=0``, the per-sample engine schedule executed
  in-process (the bit-identity oracle);
* **parallel** — ``workers=N`` (default 4), the same schedule fanned out
  over a persistent spawned worker pool with shared-memory parameter
  broadcast and fixed-tree gradient reduction (DESIGN.md §10).

Two correctness gates run before any number is reported, so a speedup can
never come from changed semantics:

* **bit-identity** — the serial and parallel final patches must be
  byte-equal (the engine's determinism contract); always enforced;
* **resume parity** — a parallel run is crashed mid-loop, resumed from its
  checkpoint, and must still reproduce the uninterrupted patch byte for
  byte (the PR 1 fault-tolerance contract under ``workers > 0``).

The parallel run is traced into a :class:`repro.obs.Run` (under
``--obs-dir``, else a temporary directory), and its
:func:`repro.obs.stage_table` reports where the time went: self time of
every span, engine stages and pool start-up included.

The ≥1.5× speedup target only holds where there are cores to run on, so
the throughput gate is enforced only when ``os.cpu_count() >= workers``;
on smaller machines the numbers are still reported and the identity gates
still bind. Re-run with ``--check`` in CI to fail on a >20% parallel
steps/sec regression against the committed report.

Usage::

    PYTHONPATH=src python scripts/bench_train.py              # write report
    PYTHONPATH=src python scripts/bench_train.py --check      # regression gate
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import repro.attack.trainer as attack_trainer  # noqa: E402
from repro.attack.config import AttackConfig  # noqa: E402
from repro.attack.trainer import train_patch_attack  # noqa: E402
from repro.detection.config import reduced_config  # noqa: E402
from repro.detection.model import TinyYolo  # noqa: E402
from repro.obs import (  # noqa: E402
    MANIFEST_SCHEMA_VERSION,
    Run,
    append_jsonl,
    config_digest,
    host_info,
    load_report,
    load_trace,
    stage_table,
    write_report,
)
from repro.obs.history import check_trend  # noqa: E402
from repro.obs.live import LiveConfig, TrainTelemetry  # noqa: E402
from repro.runtime import RuntimeConfig  # noqa: E402
from repro.scene.video import AttackScenario  # noqa: E402

DEFAULT_REPORT = os.path.join(os.path.dirname(__file__), "..", "BENCH_train.json")
DEFAULT_HISTORY = os.path.join(os.path.dirname(__file__), "..", "BENCH_history.jsonl")
#: --check fails when parallel steps/sec drops below this share of the
#: committed number.
REGRESSION_TOLERANCE = 0.20
#: Throughput target at the default worker count — enforced only where
#: the machine has at least that many cores.
SPEEDUP_TARGET = 1.5


def bench_config(args: argparse.Namespace) -> dict:
    """The benchmark-relevant subset of the CLI flags (see bench_hotpath)."""
    return {
        "steps": args.steps,
        "warmup_steps": args.warmup_steps,
        "workers": args.workers,
        "batch_frames": args.batch_frames,
        "frame_pool": args.frame_pool,
        "k": args.k,
        "n_patches": args.n_patches,
        "gan_batch": args.gan_batch,
        "input_size": args.input_size,
        "width_multiplier": args.width,
        "image_size": args.image_size,
        "seed": args.seed,
    }


def bench_manifest(config: dict, run_id: str) -> dict:
    """Provenance stamp for one benchmark run (DESIGN.md §9)."""
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "run_id": run_id,
        "config_digest": config_digest(config),
        "seeds": {"attack": config["seed"], "detector": config["seed"]},
        "host": host_info(),
    }


def attack_config(args: argparse.Namespace, workers: int) -> AttackConfig:
    return AttackConfig(
        steps=args.steps,
        warmup_steps=args.warmup_steps,
        batch_frames=args.batch_frames,
        frame_pool=args.frame_pool,
        k=args.k,
        n_patches=args.n_patches,
        gan_batch=args.gan_batch,
        seed=args.seed,
        workers=workers,
    )


def run_training(args: argparse.Namespace, workers: int,
                 runtime: RuntimeConfig | None = None, obs=None, live=None):
    """One full training run; returns (AttackResult, wall_seconds).

    Model/scenario/config are rebuilt per call so every run is an
    identical, fully seeded experiment — the wall clock covers warm-up,
    pool spawn and the step loop alike (pool startup is real overhead the
    parallel number must pay for).
    """
    model = TinyYolo(
        reduced_config(input_size=args.input_size, width_multiplier=args.width),
        seed=args.seed,
    )
    scenario = AttackScenario(image_size=args.image_size)
    config = attack_config(args, workers)
    start = time.perf_counter()
    result = train_patch_attack(model, scenario, config, runtime=runtime,
                                obs=obs, live=live)
    return result, time.perf_counter() - start


def resume_parity(args: argparse.Namespace, reference: np.ndarray) -> bool:
    """Crash a parallel run mid-loop, resume it, compare patches byte-wise.

    The crash is injected in the *parent* step loop (``discriminator_loss``
    is called exactly once per attack step there), so the worker pool is
    torn down through the trainer's cleanup path and the resumed run must
    rebuild it from the checkpoint alone.
    """
    work_dir = tempfile.mkdtemp(prefix="bench_train_resume_")
    ckpt = os.path.join(work_dir, "attack.ckpt.npz")
    runtime = RuntimeConfig(checkpoint_path=ckpt,
                            checkpoint_interval=max(2, args.steps // 3),
                            keep_checkpoint=True)
    crash_call = max(2, (2 * args.steps) // 3)
    real_loss = attack_trainer.discriminator_loss
    calls = {"n": 0}

    def crashing_loss(*loss_args, **loss_kwargs):
        calls["n"] += 1
        if calls["n"] == crash_call:
            raise KeyboardInterrupt("bench: simulated mid-run crash")
        return real_loss(*loss_args, **loss_kwargs)

    attack_trainer.discriminator_loss = crashing_loss
    try:
        run_training(args, args.workers, runtime=runtime)
        raise SystemExit("FATAL: injected crash never fired — resume gate "
                         "is not exercising a restart")
    except KeyboardInterrupt:
        pass
    finally:
        attack_trainer.discriminator_loss = real_loss

    resumed, _ = run_training(args, args.workers, runtime=runtime)
    try:
        os.remove(ckpt)
        os.rmdir(work_dir)
    except OSError:
        pass
    return bool(np.array_equal(resumed.patch, reference))


def run_benchmark(args: argparse.Namespace, obs: Run) -> dict:
    serial_result, serial_seconds = run_training(args, 0)

    # Tracing and live train telemetry ride on the *parallel* timed run
    # only — the serial oracle stays uninstrumented, so the bit-identity
    # gate below additionally proves neither perturbs training numerics.
    live = None
    if args.live:
        live = TrainTelemetry(
            directory=obs.directory,
            config=LiveConfig(interval_s=args.live_interval,
                              rules=tuple(args.slo)),
            metrics=obs.metrics)
        live.start()
    try:
        parallel_result, parallel_seconds = run_training(
            args, args.workers, obs=obs, live=live)
    finally:
        if live is not None:
            live.stop()

    identical = bool(np.array_equal(serial_result.patch, parallel_result.patch))
    if not identical:
        raise SystemExit(
            "FATAL: parallel final patch diverges from the workers=0 oracle "
            "— refusing to report a speedup for different numerics")

    if args.skip_resume_gate:
        resume_ok = None
    else:
        resume_ok = resume_parity(args, parallel_result.patch)
        if not resume_ok:
            raise SystemExit(
                "FATAL: checkpoint/resume under workers>0 does not reproduce "
                "the uninterrupted run byte for byte")

    serial_sps = args.steps / serial_seconds
    parallel_sps = args.steps / parallel_seconds
    speedup = parallel_sps / serial_sps
    cpus = os.cpu_count() or 1
    speedup_enforced = cpus >= args.workers
    if speedup_enforced and speedup < SPEEDUP_TARGET:
        raise SystemExit(
            f"FATAL: {speedup:.2f}x at {args.workers} workers on {cpus} CPUs "
            f"is below the {SPEEDUP_TARGET}x target")

    obs.tracer.flush()
    config = bench_config(args)
    return {
        "benchmark": "parallel_train_engine",
        "config": config,
        "manifest": bench_manifest(config, obs.run_id),
        "serial_seconds": round(serial_seconds, 2),
        "parallel_seconds": round(parallel_seconds, 2),
        "serial_steps_per_sec": round(serial_sps, 4),
        "parallel_steps_per_sec": round(parallel_sps, 4),
        "speedup": round(speedup, 3),
        "speedup_gate": {
            "target": SPEEDUP_TARGET,
            "cpus": cpus,
            "enforced": speedup_enforced,
        },
        "bit_identical": identical,
        "resume_parity": resume_ok,
        "perf": {"stages": stage_table(load_trace(obs.trace_path))},
        "live": None if live is None else {
            "ticks": live.ticks,
            "alerts": len(live.engine.alerts),
            "violated_rules": live.engine.violated_rules(),
            "rules": [str(rule) for rule in live.engine.rules],
        },
    }


def check_regression(report_path: str, payload: dict) -> int:
    committed = load_report(report_path)
    floor = committed["parallel_steps_per_sec"] * (1.0 - REGRESSION_TOLERANCE)
    current = payload["parallel_steps_per_sec"]
    print(f"committed parallel steps/sec: "
          f"{committed['parallel_steps_per_sec']:.4f}  current: {current:.4f}  "
          f"floor (-{REGRESSION_TOLERANCE:.0%}): {floor:.4f}")
    if current < floor:
        print("FAIL: training-engine regression exceeds tolerance")
        return 1
    print("OK: within regression tolerance")
    return 0


def check_history_trend(history_path: str, payload: dict) -> int:
    """Second half of the --check gate: judge the fresh parallel
    throughput against the robust median/MAD band of the append-only
    history (insufficient history passes — a young trend cannot veto)."""
    if not history_path or not os.path.exists(history_path):
        print("trend: no history file — pass")
        return 0
    verdict = check_trend(history_path, "parallel_train_engine",
                          "parallel_steps_per_sec",
                          payload["parallel_steps_per_sec"],
                          direction="higher")
    print(verdict.describe())
    return 0 if verdict.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=20)
    parser.add_argument("--warmup-steps", type=int, default=2)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--batch-frames", type=int, default=6)
    parser.add_argument("--frame-pool", type=int, default=12)
    parser.add_argument("--k", type=int, default=20)
    parser.add_argument("--n-patches", type=int, default=2)
    parser.add_argument("--gan-batch", type=int, default=4)
    parser.add_argument("--input-size", type=int, default=64)
    parser.add_argument("--width", type=float, default=0.25)
    parser.add_argument("--image-size", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=DEFAULT_REPORT)
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        help="append-only JSONL perf trajectory "
                             "(empty string disables)")
    parser.add_argument("--obs-dir", default=None,
                        help="keep the repro.obs run (manifest.json + "
                             "trace.jsonl) the stage table is read from "
                             "in this directory (default: a temporary one)")
    parser.add_argument("--skip-resume-gate", action="store_true",
                        help="skip the crash/resume parity run (the two "
                             "timed runs and the bit-identity gate still run)")
    parser.add_argument("--live", action="store_true",
                        help="attach live train telemetry to the parallel "
                             "run (requires --obs-dir): ring-buffer series, "
                             "SLO alerts, train_live.json — watch with "
                             "scripts/obs_dashboard.py --view train --follow")
    parser.add_argument("--live-interval", type=float, default=0.25,
                        help="live sampler tick period (seconds)")
    parser.add_argument("--slo", action="append", default=None,
                        help="SLO rule (repeatable; replaces the default "
                             "set), e.g. 'train.steps_per_s > 0.5 for_ticks 3'")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed report instead "
                             "of overwriting it; exit 1 on >20%% regression")
    args = parser.parse_args(argv)
    if args.slo is None:
        # Stall detection is deliberately generous (0.05 steps/s) so slow
        # shared runners don't alert on healthy-but-leisurely training.
        args.slo = ["train.steps_per_s > 0.05 for_ticks 3",
                    "train.grad_norm < 1e3",
                    "train.checkpoint_age_s < 300"]
    if args.live and not args.obs_dir:
        parser.error("--live requires --obs-dir (telemetry files land in "
                     "the run directory)")

    with tempfile.TemporaryDirectory(prefix="bench_train_") as scratch:
        with Run(args.obs_dir or scratch, name="bench_train",
                 config=bench_config(args), seeds={"seed": args.seed}) as obs:
            payload = run_benchmark(args, obs)
    gate = payload["speedup_gate"]
    print(f"serial(workers=0): {payload['serial_steps_per_sec']:.4f} steps/s   "
          f"parallel(x{args.workers}): "
          f"{payload['parallel_steps_per_sec']:.4f} steps/s   "
          f"speedup: {payload['speedup']:.2f}x "
          f"({'enforced' if gate['enforced'] else 'reported only'} "
          f"on {gate['cpus']} CPUs)")
    print(f"bit-identical: {payload['bit_identical']}   "
          f"resume-parity: {payload['resume_parity']}")
    if payload.get("live"):
        summary = payload["live"]
        print(f"live: {summary['ticks']} ticks, {summary['alerts']} alerts, "
              f"violated={summary['violated_rules'] or 'none'}")
    print("parallel run stages: self ms (share of the run)")
    for name, stage in payload["perf"]["stages"].items():
        print(f"  {name:>24}: {stage['self_s']*1e3:8.1f} ms  "
              f"({stage['share']:5.1%})  {stage['calls']} calls")

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
            "benchmark": "parallel_train_engine",
            "run_id": payload["manifest"]["run_id"],
            "config_digest": payload["manifest"]["config_digest"],
            "serial_steps_per_sec": payload["serial_steps_per_sec"],
            "parallel_steps_per_sec": payload["parallel_steps_per_sec"],
            "speedup": payload["speedup"],
        })
    return status


if __name__ == "__main__":
    raise SystemExit(main())
