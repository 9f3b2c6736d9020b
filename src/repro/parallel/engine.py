"""Deterministic data-parallel evaluator over a :class:`WorkerPool`.

:class:`ParallelEvaluator` is the trainer-facing face of ``repro.parallel``:
it owns a pool (or, for ``workers=0``, an in-process context), turns one
training step into *broadcast → dispatch → collect → reduce*, and pins the
schedule so the result is byte-equal for every worker count:

* each task carries explicit ``sample_indices`` and derives its RNG from
  ``(seed, step, sample_index)`` inside ``work_fn`` — never from worker
  identity or arrival order;
* gradients land in disjoint per-sample slots of the shared gradient slab
  and are copied out positionally (index order, not completion order);
* :meth:`reduce` sums them through the fixed pairwise tree of
  :func:`repro.parallel.reduce.tree_reduce`.

``workers=0`` runs the exact same ``work_fn`` serially in the parent and
reduces through the same tree — the oracle the parallel schedules are
tested bit-identical against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..obs import span_scope
from .pool import PoolCounters, WorkerPool, WorkSpec
from .reduce import tree_reduce

__all__ = ["ParallelEvaluator", "StepOutput", "shard_indices"]


def shard_indices(n: int, n_shards: int) -> List[List[int]]:
    """Split ``range(n)`` into up to ``n_shards`` contiguous chunks.

    Sharding is pure scheduling: per-sample RNG streams and the fixed-tree
    reduction make the numbers identical however the indices are grouped.
    """
    n_shards = max(1, min(n_shards, n))
    base, extra = divmod(n, n_shards)
    shards: List[List[int]] = []
    start = 0
    for shard in range(n_shards):
        size = base + (1 if shard < extra else 0)
        shards.append(list(range(start, start + size)))
        start += size
    return shards


@dataclass
class StepOutput:
    """Per-sample results of one evaluate round, ordered by sample index."""

    grads: Dict[str, List[np.ndarray]] = field(default_factory=dict)
    scalars: List[dict] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return len(self.scalars)


class ParallelEvaluator:
    """Broadcast/dispatch/collect/reduce driver shared by both trainers."""

    def __init__(self, spec: WorkSpec, workers: int, *,
                 task_timeout: float = 120.0, max_task_retries: int = 2,
                 obs=None, name: str = "parallel"):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.spec = spec
        self.workers = workers
        self.obs = obs
        self.name = name
        self._local_ctx: Any = None
        self._pool: Optional[WorkerPool] = None
        if workers >= 1:
            self._pool = WorkerPool(spec, workers, task_timeout=task_timeout,
                                    max_task_retries=max_task_retries)
        self._reported = PoolCounters()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._local_ctx = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def counters(self) -> PoolCounters:
        return self._pool.counters if self._pool is not None else PoolCounters()

    def probe(self) -> dict:
        """Live-telemetry probe (``LiveTelemetry.add_probe`` target).

        Delegates to the worker pool's health counters; the serial
        (``workers=0``) engine reports a minimal constant shape so SLO
        rules over ``pool.workers_alive`` don't false-fire on serial runs.
        """
        if self._pool is not None:
            return self._pool.probe()
        return {"tasks": 0, "workers_alive": 0, "pending": 0,
                "in_flight": 0, "utilization": 0.0, "serial": 1.0}

    # -- stepping ------------------------------------------------------
    def evaluate(self, params: Dict[str, np.ndarray], tasks: Sequence[dict],
                 n_samples: int, grad_keys: Sequence[str]) -> StepOutput:
        """Run ``tasks`` against ``params``; return per-sample grads/scalars.

        ``tasks`` must jointly cover sample indices ``0..n_samples-1``
        exactly once. ``grad_keys`` names which declared gradient arrays
        this round actually uses (e.g. only the discriminator's during a
        D-phase), so unrelated slab slots are never copied.
        """
        if self._pool is None:
            rows = self._evaluate_serial(params, tasks)
        else:
            rows = self._evaluate_pool(params, tasks)

        out = StepOutput(grads={key: [None] * n_samples for key in grad_keys},
                         scalars=[None] * n_samples)
        with span_scope(self.obs, f"{self.name}.collect", items=n_samples):
            for sample_index, grads, scalars in rows:
                if out.scalars[sample_index] is not None:
                    raise RuntimeError(
                        f"sample {sample_index} produced twice in one round")
                out.scalars[sample_index] = scalars
                for key in grad_keys:
                    out.grads[key][sample_index] = grads[key]
        missing = [i for i, s in enumerate(out.scalars) if s is None]
        if missing:
            raise RuntimeError(f"samples never produced: {missing}")
        self._mirror_counters()
        return out

    def _evaluate_serial(self, params, tasks) -> List[tuple]:
        if self._local_ctx is None:
            self._local_ctx = self.spec.init_fn(self.spec.init_payload)
        rows: List[tuple] = []
        with span_scope(self.obs, f"{self.name}.dispatch", items=len(tasks),
                        workers=0):
            for task in tasks:
                rows.extend(self.spec.work_fn(self._local_ctx, params, task))
        return rows

    def _evaluate_pool(self, params, tasks) -> List[tuple]:
        assert self._pool is not None
        with span_scope(self.obs, f"{self.name}.broadcast"):
            self._pool.broadcast(params)
        with span_scope(self.obs, f"{self.name}.dispatch", items=len(tasks),
                        workers=self.workers):
            scalar_rows = self._pool.run_tasks(tasks)
        # Copy each sample's gradients out of the slab *before* the next
        # broadcast can touch it; scalar rows tell us which slots are live.
        rows: List[tuple] = []
        for task_rows in scalar_rows:
            for sample_index, scalars in task_rows:
                grads = {spec.name: self._pool.grad_copy(spec.name, sample_index)
                         for spec in self.spec.grad_specs}
                rows.append((sample_index, grads, scalars))
        return rows

    def reduce(self, per_sample: Sequence[np.ndarray]) -> np.ndarray:
        """Fixed-tree sum of per-sample arrays (see module docstring)."""
        with span_scope(self.obs, f"{self.name}.reduce",
                        items=len(per_sample)):
            return tree_reduce(per_sample)

    def reduce_grads(self, out: StepOutput) -> Dict[str, np.ndarray]:
        """Key-wise fixed-tree reduction of an evaluate round's gradients."""
        with span_scope(self.obs, f"{self.name}.reduce",
                        items=out.n_samples, keys=len(out.grads)):
            return {key: tree_reduce(values)
                    for key, values in out.grads.items()}

    def _mirror_counters(self) -> None:
        if self.obs is None or self._pool is None:
            return
        current = self._pool.counters
        for attr in ("respawns", "requeues", "timeouts", "worker_deaths"):
            delta = getattr(current, attr) - getattr(self._reported, attr)
            if delta:
                self.obs.metrics.counter(f"{self.name}.{attr}").inc(delta)
                setattr(self._reported, attr, getattr(current, attr))
