"""The stacked EOT step against the per-instance oracle (``eot_oracle``).

The attack step draws every decal instance's θ and every frame's capture
draws first, in the order the per-instance step took them, then warps all
frames × decals instances with one ``grid_sample`` per trick over the
shared ink source and one over the shared alpha source (DESIGN.md §17).
Composites must be byte-identical to the per-instance step's, the
generator must end in the same state, and the patch gradient may differ
only by the order in which the instances' contributions are summed.
"""

import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.trainer import _composite_batch
from repro.eot import ALL_TRICKS, EOTPipeline, TransformParams
from repro.nn import Tensor
from repro.nn import functional as F
from repro.patch import placement_offsets
from repro.scene import AttackScenario
from repro.scene.video import sample_training_frames

from ..nn.test_properties import assert_within_depth_bound
from . import eot_oracle as oracle

#: The θ field each trick draws.
FIELDS = {"resize": "scale", "rotation": "angle_degrees",
          "brightness": "brightness_delta", "gamma": "gamma_value",
          "perspective": "perspective_tilt"}


class ForcedSampler:
    """Draws θ exactly as ``inner`` does, then resets the tricks named by
    the next entry of ``forced`` (cycled) to their identity value."""

    def __init__(self, inner, forced):
        self.inner, self.forced, self.calls = inner, list(forced) or [()], 0

    def sample(self, rng):
        params = self.inner.sample(rng)
        for trick in self.forced[self.calls % len(self.forced)]:
            setattr(params, FIELDS[trick], getattr(TransformParams(), FIELDS[trick]))
        self.calls += 1
        return params


@functools.lru_cache(maxsize=None)
def frame_pool():
    return sample_training_frames(
        AttackScenario(image_size=64), np.random.default_rng(0), 6,
        placement_offsets(4), 1.5, consecutive=False)


def frames_with(decals):
    """One pool frame per entry, keeping its first ``d`` placements."""
    return [dataclasses.replace(frame, placements=frame.placements[:d])
            for frame, d in zip(frame_pool(), decals)]


def run_both(frames, k, tricks, forced, capture, seed):
    """(stacked, oracle, per-instance magnitude) for one step: each is
    the composites, the patch gradient and the generator's final state."""
    patch_data = np.random.default_rng(seed).random((1, 1, k, k), dtype=np.float32)
    upstream = np.random.default_rng(seed + 1).standard_normal(
        (len(frames), 3, 64, 64)).astype(np.float32)

    def run(composite, **kwargs):
        patch = Tensor(patch_data, requires_grad=True)
        rng = np.random.default_rng(seed + 2)
        sampler = ForcedSampler(EOTPipeline.with_tricks(tricks).sampler, forced)
        images, boxes = composite(frames, patch, sampler, rng, capture, **kwargs)
        assert [b.tobytes() for b in boxes] == [f.target_box_xywh.tobytes()
                                                for f in frames]
        images.backward(upstream)
        return images.data, patch.grad, rng.bit_generator.state

    def stacked(frames, patch, sampler, rng, capture):
        return _composite_batch(frames, patch, EOTPipeline(sampler=sampler), rng, capture)

    leaves = []
    magnitude_run = run(oracle.composite_batch, leaves=leaves)
    magnitude = sum(np.abs(ink.grad).astype(np.float64)
                    + np.abs(alpha.grad).astype(np.float64)
                    for ink, alpha in leaves)
    return run(stacked), run(oracle.composite_batch), magnitude, magnitude_run


def assert_step_matches_oracle(frames, k, tricks, forced, capture, seed):
    (got, got_grad, got_state), (want, want_grad, want_state), magnitude, by_leaf = (
        run_both(frames, k, tricks, forced, capture, seed))
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()
    assert got_state == want_state
    assert by_leaf[0].tobytes() == want.tobytes() and by_leaf[2] == want_state
    # Fixed before any value is seen: the oracle stages each instance's
    # ink contribution at the printed patch (B − 1 additions), takes it
    # through the printer response's backward (3 products) and adds it
    # into the patch gradient with the B alpha contributions (B
    # additions): at most 2B + 2 roundings on any term's path. The stacked
    # pass sums each channel's B contributions once (plus one addition
    # when skipped instances take the pass-through branch), then 3
    # products and one addition: at most B + 4 ≤ 2B + 2 for B ≥ 2, and
    # 4 for B = 1, where nothing is skipped in part. Each term is the
    # instance's own contribution, whose magnitude its per-instance leaf
    # gradient gives.
    instances = sum(len(frame.placements) for frame in frames)
    assert_within_depth_bound(got_grad, want_grad.astype(np.float64), magnitude,
                              2 * instances + 2)


trick_sets = st.sets(st.sampled_from(sorted(ALL_TRICKS)))


@st.composite
def step_cases(draw):
    decals = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    forced = draw(st.lists(trick_sets, min_size=sum(decals), max_size=sum(decals)))
    return (decals, draw(st.sampled_from([20, 60])), frozenset(draw(trick_sets)),
            forced, draw(st.sampled_from([0.0, 1.0])), draw(st.integers(0, 10_000)))


class TestStackedStep:
    @given(case=step_cases())
    @settings(max_examples=30, deadline=None)
    def test_step_matches_per_instance_oracle(self, case):
        decals, k, tricks, forced, capture, seed = case
        assert_step_matches_oracle(frames_with(decals), k, tricks, forced, capture, seed)

    @pytest.mark.parametrize("tricks", [
        frozenset(subset) for size in range(len(ALL_TRICKS) + 1)
        for subset in itertools.combinations(sorted(ALL_TRICKS), size)])
    def test_every_trick_subset(self, tricks):
        # Instance 2 skips every trick, instance 4 only the first enabled one.
        first = sorted(tricks)[:1]
        forced = [(), (), tuple(tricks), (), tuple(first)]
        assert_step_matches_oracle(frames_with([3, 2]), 20, tricks, forced, 1.0,
                                   len(tricks))

    def test_draws_come_before_compute(self, monkeypatch):
        """The compute pass never reads the generator: every θ and capture
        draw is taken before the first warp."""
        frames = frames_with([2, 3])
        rng = np.random.default_rng(5)
        real = F.grid_sample
        states = []

        def spy(*args, **kwargs):
            states.append(rng.bit_generator.state)
            return real(*args, **kwargs)

        monkeypatch.setattr(F, "grid_sample", spy)
        _composite_batch(frames, Tensor(np.full((1, 1, 20, 20), 0.3, np.float32)),
                         EOTPipeline.with_tricks(ALL_TRICKS), rng, 1.0)
        assert len(states) == 6  # three geometric tricks, on ink and on alpha
        assert all(state == rng.bit_generator.state for state in states)


class TestOneTheta:
    @given(channels=st.sampled_from([1, 3]), tricks=trick_sets,
           seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_apply_and_apply_geometric_match_oracle(self, channels, tricks, seed):
        """The one-θ calls (the Sava baseline's RGB patch, the figures)
        keep the per-instance chain's values and gradients."""
        rng = np.random.default_rng(seed)
        pipeline = EOTPipeline.with_tricks(frozenset(tricks))
        params = pipeline.sampler.sample(rng)
        patch = rng.random((1, channels, 16, 16), dtype=np.float32)
        alpha = rng.random((1, 1, 16, 16), dtype=np.float32)
        upstream = rng.standard_normal((1, channels, 16, 16)).astype(np.float32)
        got, want = Tensor(patch, requires_grad=True), Tensor(patch, requires_grad=True)
        out, ref = pipeline.apply(got, params), oracle.apply(want, params)
        out.backward(upstream)
        ref.backward(upstream)
        assert out.data.tobytes() == ref.data.tobytes()
        assert got.grad.tobytes() == want.grad.tobytes()
        assert (pipeline.apply_geometric(Tensor(alpha), params).data.tobytes()
                == oracle.apply_geometric(Tensor(alpha), params).data.tobytes())


# ----------------------------------------------------------------------
# F.grid_sample against the valid-mask kernel
# ----------------------------------------------------------------------

@st.composite
def sample_cases(draw):
    instances, channels = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    out_h, out_w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return (instances, channels, h, w, out_h, out_w,
            draw(st.sampled_from([0.0, 1.0, 0.25, -3.0])), draw(st.booleans()),
            draw(st.sampled_from([1.0, 2.5, 4.0])), draw(st.booleans()),
            draw(st.integers(0, 10_000)))


class TestGridSampleDifferential:
    @given(case=sample_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_valid_mask_kernel(self, case):
        instances, channels, h, w, out_h, out_w, pad, shared, reach, snap, seed = case
        rng = np.random.default_rng(seed)
        rows = 1 if shared else instances
        x = (rng.random((rows, channels, h, w), dtype=np.float32) - 0.4) * 3
        grid = rng.uniform(-reach, reach, (instances, out_h, out_w, 2)).astype(np.float32)
        if snap:  # land exactly on pixels: corners at zero weight
            grid[..., 0] = np.round(grid[..., 0] * (w - 1) / 2) * 2 / max(w - 1, 1)
            grid[..., 1] = np.round(grid[..., 1] * (h - 1) / 2) * 2 / max(h - 1, 1)
        upstream = rng.standard_normal((instances, channels, out_h, out_w)).astype(
            np.float32)

        xt = Tensor(x, requires_grad=True)
        out = F.grid_sample(xt, grid, padding_value=pad)
        out.backward(upstream)

        leaf = Tensor(np.repeat(x, instances, axis=0) if shared else x,
                      requires_grad=True)
        want = oracle.grid_sample(leaf, grid, padding_value=pad)
        want.backward(upstream)
        assert out.data.tobytes() == want.data.tobytes()
        want_grad = leaf.grad
        if shared:  # the instances' buffers, summed over instances
            want_grad = want_grad.sum(axis=0, keepdims=True)
        assert xt.grad.tobytes() == want_grad.tobytes()


class TestGridSampleNonFinite:
    """The documented behaviour on NaN, ±inf and −0.0 (DESIGN.md §17)."""

    def sample(self, x, points, pad=0.5):
        grid = np.asarray(points, np.float32).reshape(1, 1, -1, 2)
        with np.errstate(invalid="ignore"):
            return F.grid_sample(Tensor(np.asarray(x, np.float32)[None, None]), grid,
                                 padding_value=pad).data.reshape(-1)

    def test_non_finite_pixel_reaches_only_samples_on_it(self):
        x = np.zeros((3, 3), np.float32)
        x[0, 0] = np.nan
        x[2, 2] = np.inf
        # Far outside (clamped next to the NaN / inf corners in the oracle),
        # on the NaN pixel, half-way to the inf pixel, on a neighbour of it.
        got = self.sample(x, [(-3, -3), (3, 3), (-1, -1), (0.5, 1), (0, 1)])
        assert got[0] == 0.5 and got[1] == 0.5
        assert np.isnan(got[2])
        assert got[3] == np.inf
        # The inf corner is read at zero weight: inf·0 = NaN, as in the oracle.
        assert np.isnan(got[4])
        with np.errstate(invalid="ignore"):
            want = oracle.grid_sample(
                Tensor(x[None, None]), np.asarray([(-3, -3), (3, 3)], np.float32)
                .reshape(1, 1, 2, 2), padding_value=0.5).data.reshape(-1)
        assert np.isnan(want).all()  # the valid mask multiplied them by 0

    def test_negative_zero_pixel_can_stay_negative_zero(self):
        x = np.full((2, 2), -0.0, np.float32)
        got = self.sample(x, [(-1, -1)])
        assert got[0] == 0.0 and np.signbit(got[0])
        want = oracle.grid_sample(Tensor(x[None, None]),
                                  np.full((1, 1, 1, 2), -1, np.float32)).data
        assert want[0, 0, 0, 0] == 0.0 and not np.signbit(want[0, 0, 0, 0])

    def test_non_finite_grid_reads_nan(self):
        x = np.ones((3, 3), np.float32)
        got = self.sample(x, [(np.nan, 0), (np.inf, 0), (-np.inf, 0.5), (0, 0)])
        assert np.isnan(got[:3]).all() and got[3] == 1.0
