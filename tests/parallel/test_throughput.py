"""Genuine-concurrency check — only meaningful where cores exist.

Bit-identity and robustness are asserted unconditionally elsewhere; this
module is the one place a *speedup* is asserted, so it skips (rather than
fails) on single-CPU machines, matching the conditional throughput gate
in ``scripts/bench_train.py``.
"""

import os
import time

import pytest

import numpy as np

from repro.parallel import ArraySpec, WorkerPool, WorkSpec

from ._workers import GRAD_SHAPE, toy_init, toy_work

pytestmark = [
    pytest.mark.parallel,
    pytest.mark.skipif((os.cpu_count() or 1) < 2,
                       reason="speedup assertions need >= 2 CPUs"),
]


def test_two_workers_overlap_slow_tasks():
    delay = 0.3
    tasks = [{"mode": "slow", "sleep": delay, "seed": 1, "step": 0,
              "samples": [i]} for i in range(4)]
    spec = WorkSpec(init_fn=toy_init, work_fn=toy_work,
                    init_payload={"scale": 1.0},
                    param_specs=(ArraySpec("w", GRAD_SHAPE),),
                    grad_specs=(ArraySpec("g", GRAD_SHAPE),),
                    max_samples=4)
    with WorkerPool(spec, workers=2) as pool:
        pool.broadcast({"w": np.ones(GRAD_SHAPE, np.float32)})
        # The pool returns before its spawned workers have imported
        # anything. One untimed task per worker (dispatch hands each idle
        # worker one task) keeps spawn and import out of the timed call.
        pool.run_tasks(tasks[:2])
        start = time.perf_counter()
        pool.run_tasks(tasks)
        elapsed = time.perf_counter() - start
    # Serial floor is 4·delay; two workers must beat it with margin.
    assert elapsed < 3.5 * delay
