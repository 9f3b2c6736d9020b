"""The committed reduced-profile detector and decal, loaded digest-checked.

Both files are written by ``make_fixture.py`` through ``save_module`` /
``save_attack`` and read back through ``load_module`` / ``load_attack``,
which verify the embedded SHA-256 digest, so a corrupted fixture fails
loudly instead of producing numbers.
"""

from __future__ import annotations

import json
import os

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixture")
DETECTOR_PATH = os.path.join(FIXTURE_DIR, "detector.npz")
DECAL_PATH = os.path.join(FIXTURE_DIR, "decal.npz")
META_PATH = os.path.join(FIXTURE_DIR, "fixture.json")
REFERENCE_PATH = os.path.join(FIXTURE_DIR, "reference.npz")

#: Seed of the ``Workbench.reduced`` run that produced the fixture.
WORKBENCH_SEED = 0
#: ``--seed n`` selects reference input set ``n % REFERENCE_SEEDS``.
REFERENCE_SEEDS = 8


def load_meta() -> dict:
    with open(META_PATH) as handle:
        return json.load(handle)


def load_detector(meta: dict):
    from repro.detection import TinyYolo, reduced_config
    from repro.nn import load_module

    spec = meta["detector"]
    config = reduced_config(
        input_size=spec["input_size"],
        width_multiplier=spec["width_multiplier"],
        custom_anchors=[tuple(a) for a in spec["custom_anchors"]],
    )
    detector = TinyYolo(config, seed=0)
    load_module(detector, DETECTOR_PATH)
    return detector.eval()


def load_decal():
    from repro.attack import load_attack

    return load_attack(DECAL_PATH)


def load_scenario(meta: dict):
    from repro.scene import AttackScenario

    return AttackScenario(**meta["scenario"])
