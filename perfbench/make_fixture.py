"""Build the benchmark's committed inputs.

Two stages, both deterministic from fixed seeds:

* ``train`` fine-tunes the reduced-profile victim (96², width 0.25) and
  trains the paper-default decal against it through
  :class:`repro.experiments.Workbench`, then writes
  ``fixture/detector.npz`` (≈2.2 MB), ``fixture/decal.npz`` (≈32 KB) and
  ``fixture/fixture.json``. It refuses a decal whose physical PWC is 0 on
  every challenge, since then the ``challenge_eval`` check could not fail.
* ``reference`` records, for every reference seed, the outputs the
  workload checks compare against (``fixture/reference.npz``). Re-run it
  whenever a workload's inputs change.

Usage, from the repository root (the ``train`` stage takes ~10 minutes on
2 CPUs)::

    python3 perfbench/make_fixture.py            # both stages
    python3 perfbench/make_fixture.py reference  # references only
"""

from __future__ import annotations

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import json  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, HERE)

import fixture  # noqa: E402


def train_stage() -> None:
    from repro.attack import save_attack
    from repro.eval import DEFAULT_CHALLENGES
    from repro.experiments import Workbench
    from repro.nn import save_module

    os.makedirs(fixture.FIXTURE_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as cache:
        bench = Workbench.reduced(seed=fixture.WORKBENCH_SEED, cache_dir=cache)
        detector = bench.detector()
        attack = bench.train_attack(use_cache=False)
        results = bench.evaluate(attack, physical=True)
    pwc = {name: results[name].pwc for name in DEFAULT_CHALLENGES}
    print("physical PWC per challenge:", pwc)
    if max(pwc.values()) <= 0.0:
        raise SystemExit("decal scores 0% PWC on every challenge; "
                         "the challenge_eval check could not fail")
    scenario = bench.scenario()
    save_module(detector, fixture.DETECTOR_PATH)
    save_attack(attack, fixture.DECAL_PATH)
    config = detector.config
    meta = {
        "workbench": {"profile": bench.profile.name,
                      "seed": fixture.WORKBENCH_SEED},
        "detector": {"input_size": config.input_size,
                     "width_multiplier": config.width_multiplier,
                     "custom_anchors": [list(a) for a in config.custom_anchors]},
        "scenario": {"image_size": scenario.image_size,
                     "style_seed": scenario.style_seed,
                     "sprite_seed": scenario.sprite_seed},
        "workbench_physical_pwc": pwc,
    }
    with open(fixture.META_PATH, "w") as handle:
        json.dump(meta, handle, indent=2)
        handle.write("\n")


def reference_stage() -> None:
    from repro.nn.serialization import save_state

    import workloads

    reference = {}
    for name in workloads.RECORDED:
        for ref in range(fixture.REFERENCE_SEEDS):
            for field, value in workloads.record_reference(name, ref).items():
                reference[workloads.reference_key(name, ref, field)] = value
        print(f"recorded {name}", flush=True)
    save_state(fixture.REFERENCE_PATH, reference)


def main(argv) -> None:
    stages = argv or ["train", "reference"]
    for stage in stages:
        {"train": train_stage, "reference": reference_stage}[stage]()


if __name__ == "__main__":
    main(sys.argv[1:])
