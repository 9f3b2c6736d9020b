"""``run_challenge`` on the stacked renderer against the per-frame oracle,
under a fault schedule whose windows straddle render-chunk boundaries."""

import numpy as np
import pytest

from repro.detection.config import reduced_config
from repro.detection.model import TinyYolo
from repro.eval import protocol
from repro.eval.protocol import run_challenge
from repro.patch import placement_offsets
from repro.runtime import FaultSchedule
from repro.runtime.faults import FaultEvent
from repro.scene import AttackScenario, DeployedDecals, print_patch
from repro.scene.video import RENDER_CHUNK

from tests.scene import render_oracle as oracle


class WindowedFaults(FaultSchedule):
    """Drop, noise and occlusion each over four frames around the first,
    second and third chunk boundary."""

    def sample(self, n_frames, rng=None):
        windows = (
            (RENDER_CHUNK, FaultEvent("drop")),
            (2 * RENDER_CHUNK, FaultEvent("noise", magnitude=self.noise_sigma)),
            (3 * RENDER_CHUNK, FaultEvent("occlude", magnitude=self.occlusion_fraction)),
        )
        events = [None] * n_frames
        for boundary, event in windows:
            for index in range(boundary - 2, min(boundary + 2, n_frames)):
                events[index] = event
        return events


class Decal:
    """A Deployable that prints its patch from the run's generator."""

    def __init__(self):
        rng = np.random.default_rng(3)
        self.patch = rng.random((3, 12, 12)).astype(np.float32)
        self.alpha = (rng.random((12, 12)) > 0.2).astype(np.float32)

    def deploy(self, physical=False, rng=None):
        rgb = print_patch(self.patch, rng) if physical else self.patch
        return DeployedDecals(rgb, self.alpha, 0.6, placement_offsets(4))


#: Anchors near the victim's projected size, so that an untrained
#: detector at threshold 0 still puts boxes on the victim in some frames.
ANCHORS = [(11.0, 5.0), (5.0, 15.0), (27.0, 5.0), (16.0, 10.0), (9.0, 24.0), (25.0, 16.0)]


@pytest.mark.parametrize("challenge", ["rotation/slight", "speed/slow"])
def test_run_challenge_matches_oracle_renderer(challenge, monkeypatch):
    model = TinyYolo(reduced_config(input_size=96, width_multiplier=0.25,
                                    custom_anchors=ANCHORS), seed=0)

    def evaluate():
        return run_challenge(model, AttackScenario(), challenge, artifact=Decal(),
                             physical=True, n_runs=2, seed=5, conf_threshold=0.0,
                             faults=WindowedFaults())

    got = evaluate()
    with monkeypatch.context() as patched:
        patched.setattr(protocol, "render_run", oracle.render_run)
        want = evaluate()
    assert got.pwc == want.pwc and got.cwc == want.cwc
    classes = [[o.predicted_class for o in run.outcomes] for run in got.runs]
    assert classes == [[o.predicted_class for o in run.outcomes] for run in want.runs]
    coasted = [[o.coasted for o in run.outcomes] for run in got.runs]
    assert coasted == [[o.coasted for o in run.outcomes] for run in want.runs]
    # The comparison bites only if the detector sees something.
    assert any(c is not None for run in classes for c in run)
