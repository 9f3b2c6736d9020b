"""Reproduction of *Road Decals as Trojans: Disrupting Autonomous Vehicle
Navigation with Adversarial Patterns* (DSN 2024).

Monochrome, shape-constrained adversarial road decals against YOLOv3-tiny,
built entirely on a from-scratch numpy deep-learning stack:

* :mod:`repro.nn` — autodiff tensors, conv nets, optimizers;
* :mod:`repro.detection` — the YOLOv3-tiny victim detector;
* :mod:`repro.gan` — the shape-constrained patch GAN;
* :mod:`repro.eot` — differentiable Expectation Over Transformation;
* :mod:`repro.patch` — decal shapes, masking, placement, compositing;
* :mod:`repro.scene` — synthetic road world, trajectories, physical model;
* :mod:`repro.attack` — the paper's attack (Eq. 1) and the Sava baseline;
* :mod:`repro.eval` — PWC/CWC metrics and the challenge protocol;
* :mod:`repro.av` — confirmation tracker and rule planner (the AV stack
  behind the paper's CWC argument);
* :mod:`repro.runtime` — fault-tolerant runtime: checkpoint/resume,
  divergence recovery, sensor-fault injection (DESIGN.md §7);
* :mod:`repro.obs` — unified run telemetry: hierarchical span tracing
  (the one stage timer, with per-stage self-time tables), a
  counter/gauge/histogram metrics registry, atomic run manifests tying
  training and evaluation to one run identity, and the versioned
  ``BENCH_*.json`` reports (DESIGN.md §8–9);
* :mod:`repro.experiments` — turnkey experiment harness used by the
  benchmarks that regenerate every table and figure.

Quickstart::

    from repro.experiments import Workbench
    bench = Workbench.reduced(seed=0)
    attack = bench.train_attack()
    results = bench.evaluate(attack, physical=True)

See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
results versus the paper.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
