"""Autograd engine edge cases: grad modes, dtypes, repeated backward."""

import numpy as np
import pytest

from repro.nn import Tensor, no_grad
from repro.nn import functional as F
from repro.nn import tensor as tensor_module
from repro.nn.tensor import is_grad_enabled, unbroadcast


class TestGradMode:
    def test_no_grad_nests(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_tensor_created_under_no_grad_never_requires(self):
        with no_grad():
            t = Tensor(np.ones(3), requires_grad=True)
        assert not t.requires_grad

    def test_graph_not_recorded_under_no_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert out._backward is None


class TestDtypes:
    def test_integer_arrays_preserved(self):
        t = Tensor(np.asarray([1, 2, 3], dtype=np.int64))
        assert t.dtype == np.int64

    def test_floats_coerced_to_float32(self):
        t = Tensor(np.asarray([1.0, 2.0], dtype=np.float64))
        assert t.dtype == np.float32

    def test_python_scalars_become_float32(self):
        assert Tensor(3).dtype == np.float32
        assert Tensor(3.5).dtype == np.float32

    def test_bool_arrays_preserved(self):
        t = Tensor(np.asarray([True, False]))
        assert t.dtype == np.bool_


class TestBackwardSemantics:
    def test_grad_accumulates_across_backward_calls(self):
        t = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        (t * 2.0).sum().backward()
        first = t.grad.copy()
        (t * 2.0).sum().backward()
        np.testing.assert_allclose(t.grad, 2 * first)

    def test_zero_grad_resets(self):
        t = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        (t * 3.0).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_explicit_upstream_gradient(self):
        t = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        out = t * 4.0
        out.backward(np.asarray([1.0, 2.0, 3.0], dtype=np.float32))
        np.testing.assert_allclose(t.grad, [4.0, 8.0, 12.0])

    def test_item_and_len(self):
        assert Tensor(5.0).item() == pytest.approx(5.0)
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_name_annotation(self):
        t = Tensor(1.0, name="alpha")
        assert t.name == "alpha"


class TestNumpyInterop:
    def test_ndarray_times_tensor_uses_rmul(self):
        t = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        out = np.asarray([2.0, 2.0, 2.0], dtype=np.float32) * t
        assert isinstance(out, Tensor)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 2.0, 2.0])

    def test_ndarray_minus_tensor(self):
        t = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        out = np.zeros(2, dtype=np.float32) - t
        assert isinstance(out, Tensor)
        np.testing.assert_allclose(out.data, [-1.0, -1.0])


def keeping_route(parent, grad, grads):
    """The routing rule under which every interior tensor also kept its
    gradient in ``.grad``."""
    if not parent.requires_grad:
        return
    grad = unbroadcast(np.asarray(grad, dtype=np.float32), parent.data.shape)
    if parent._backward is not None:
        key = id(parent)
        if key in grads:
            grads[key] = grads[key] + grad
        else:
            grads[key] = grad
    parent._accumulate(grad)


def leaf_grads_both_ways(monkeypatch, step):
    """``step()``'s leaf gradients, then again with :func:`keeping_route`
    patched in."""
    got = step()
    with monkeypatch.context() as patched:
        patched.setattr(tensor_module, "_route", keeping_route)
        patched.setattr(F, "_route", keeping_route)
        want = step()
    return got, want


class TestInteriorGradients:
    """Only leaves and the tensor ``backward`` runs from keep ``.grad``;
    interior gradients are staged for one backward and dropped."""

    def test_interior_tensors_keep_no_grad(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = x * 2.0
        z = (y * y).sum()
        z.backward()
        assert y.grad is None
        np.testing.assert_array_equal(x.grad, np.full(3, 8.0))
        assert z.grad == 1.0

    def test_clone_of_an_interior_tensor_passes_the_gradient_on(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        y = x * 2.0
        y.clone().sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))
        assert y.grad is None

    def test_frozen_detector_attack_step_leaf_gradients(self, monkeypatch):
        from repro.attack.trainer import _composite_batch, attack_loss
        from repro.detection import TinyYolo, reduced_config
        from repro.eot import EOTPipeline
        from repro.gan import PatchGenerator
        from repro.patch import placement_offsets
        from repro.scene import AttackScenario
        from repro.scene.video import sample_training_frames

        frames = sample_training_frames(
            AttackScenario(image_size=64), np.random.default_rng(0), 3,
            placement_offsets(2), 1.5, consecutive=False,
            degrade_fraction=0.0)
        model = TinyYolo(reduced_config(input_size=64, width_multiplier=0.25),
                         seed=0).eval()
        for param in model.parameters():
            param.requires_grad = False
        pipeline = EOTPipeline.with_tricks(frozenset({"rotation", "resize"}))
        # One deployment patch, as the trainer composites.
        z = np.random.default_rng(1).normal(size=(1, 32)).astype(np.float32)

        def step():
            generator = PatchGenerator(20)
            patch = generator(Tensor(z))
            leaf = Tensor(np.random.default_rng(2).random(
                (1, 1, 20, 20), dtype=np.float32), requires_grad=True)
            grads = {}
            for name, source in (("generator", patch), ("leaf", leaf)):
                images, boxes = _composite_batch(
                    frames, source, pipeline, np.random.default_rng(3))
                loss = attack_loss(model(images), boxes, model, 1, 0.5)
                loss.backward()
            grads = {name: p.grad for name, p in generator.named_parameters()}
            grads["leaf"] = leaf.grad
            return grads

        got, want = leaf_grads_both_ways(monkeypatch, step)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_gan_step_leaf_gradients(self, monkeypatch):
        from repro.gan import PatchDiscriminator, PatchGenerator
        from repro.gan.losses import (discriminator_loss,
                                      generator_adversarial_loss)

        real = np.random.default_rng(4).random((4, 1, 20, 20),
                                               dtype=np.float32)
        z = np.random.default_rng(5).normal(size=(4, 32)).astype(np.float32)

        def step():
            generator, discriminator = PatchGenerator(20), PatchDiscriminator(20)
            fake = generator(Tensor(z))
            discriminator_loss(discriminator(Tensor(real)),
                               discriminator(fake.detach())).backward()
            generator_adversarial_loss(discriminator(fake)).backward()
            return {f"{prefix}.{name}": p.grad
                    for prefix, module in (("g", generator),
                                           ("d", discriminator))
                    for name, p in module.named_parameters()}

        got, want = leaf_grads_both_ways(monkeypatch, step)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
