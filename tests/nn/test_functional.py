"""Functional ops: forward correctness and finite-difference grad checks."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F


def tensor_of(rng, shape):
    return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)


def closure_arrays(fn, seen=None):
    """Every ndarray reachable through a function's (nested) closures."""
    seen = set() if seen is None else seen
    arrays = []
    if fn is None or id(fn) in seen:
        return arrays
    seen.add(id(fn))
    for cell in fn.__closure__ or ():
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            continue
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, Tensor):
            arrays.append(value.data)
        elif isinstance(value, (tuple, list)):
            arrays.extend(v for v in value if isinstance(v, np.ndarray))
        elif callable(value) and hasattr(value, "__closure__"):
            arrays.extend(closure_arrays(value, seen))
    return arrays


class TestConv2d:
    def test_output_shape(self, rng):
        x = tensor_of(rng, (2, 3, 8, 8))
        w = tensor_of(rng, (5, 3, 3, 3))
        assert F.conv2d(x, w, padding=1).shape == (2, 5, 8, 8)
        assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 5, 4, 4)
        assert F.conv2d(x, w).shape == (2, 5, 6, 6)

    def test_matches_manual_convolution(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 4, 4)).astype(np.float32))
        w = Tensor(rng.normal(size=(1, 1, 2, 2)).astype(np.float32))
        out = F.conv2d(x, w).data
        expected = np.zeros((3, 3), dtype=np.float32)
        for i in range(3):
            for j in range(3):
                expected[i, j] = (x.data[0, 0, i:i + 2, j:j + 2] * w.data[0, 0]).sum()
        np.testing.assert_allclose(out[0, 0], expected, rtol=1e-5)

    def test_incompatible_channels_raise(self, rng):
        x = tensor_of(rng, (1, 3, 6, 6))
        w = tensor_of(rng, (4, 2, 3, 3))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_gradcheck_all_inputs(self, rng, numgrad):
        x = tensor_of(rng, (2, 2, 5, 5))
        w = tensor_of(rng, (3, 2, 3, 3))
        b = tensor_of(rng, (3,))
        (F.conv2d(x, w, b, stride=2, padding=1) ** 2).mean().backward()

        def f():
            return float(
                (F.conv2d(Tensor(x.data), Tensor(w.data), Tensor(b.data),
                          stride=2, padding=1).data ** 2).mean()
            )

        for tensor in (x, w, b):
            np.testing.assert_allclose(tensor.grad, numgrad(f, tensor.data), atol=5e-3)

    def test_backward_closure_does_not_retain_im2col_buffer(self, rng):
        """conv2d's backward used to capture the materialized kernel²-
        expanded im2col buffer until backward ran, pinning K²× the input
        per conv layer. It must close over the raw inputs only and
        recompute the window view on demand."""
        x = tensor_of(rng, (2, 3, 16, 16))
        w = tensor_of(rng, (4, 3, 3, 3))
        out = F.conv2d(x, w, padding=1)
        captured = closure_arrays(out._backward)
        assert captured, "backward should close over its inputs"
        cols_elements = 2 * 3 * 3 * 3 * 16 * 16  # n·c·k·k·oh·ow
        biggest = max(array.size for array in captured)
        assert biggest < cols_elements
        assert biggest <= max(x.data.size, out.data.size, w.data.size)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_stride1_pool_keeps_size(self, rng):
        x = tensor_of(rng, (1, 2, 6, 6))
        assert F.max_pool2d(x, 2, 1).shape == (1, 2, 6, 6)

    def test_unsupported_stride1_shapes_raise(self):
        # Anything stride-1 that is neither the darknet 'same' case nor
        # genuinely 'same'-padded used to silently shrink the feature map.
        x = Tensor(np.zeros((1, 1, 6, 6), dtype=np.float32))
        with pytest.raises(ValueError, match="stride-1"):
            F.max_pool2d(x, 3, 1)
        with pytest.raises(ValueError, match="stride-1"):
            F.max_pool2d(x, 5, 1, padding=1)
        # Supported stride-1 shapes still work and keep (or grow) the map.
        assert F.max_pool2d(x, 2, 1).shape == (1, 1, 6, 6)
        assert F.max_pool2d(x, 3, 1, padding=1).shape == (1, 1, 6, 6)

    def test_float64_input_preserves_dtype(self):
        # Pooling is pure selection: a float64 input used to come back
        # silently downcast to float32. (The Tensor constructor normalizes
        # to float32, so a float64 tensor enters via direct .data
        # assignment — e.g. mixed-precision probes.)
        x = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
        x.data = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = F.max_pool2d(x, 2, 2)
        assert out.data.dtype == np.float64
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])
        # The float32 fast path is unchanged.
        x32 = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        assert F.max_pool2d(x32, 2, 2).data.dtype == np.float32

    def test_max_pool_gradient_routes_to_max(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4),
                   requires_grad=True)
        F.max_pool2d(x, 2, 2).sum().backward()
        expected = np.zeros((4, 4), dtype=np.float32)
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(x.grad[0, 0], expected)

    def test_avg_pool_forward_and_grad(self, rng, numgrad):
        x = tensor_of(rng, (1, 2, 4, 4))
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(
            out.data[0, 0, 0, 0], x.data[0, 0, :2, :2].mean(), rtol=1e-5
        )
        (out ** 2).mean().backward()

        def f():
            return float((F.avg_pool2d(Tensor(x.data), 2).data ** 2).mean())

        np.testing.assert_allclose(x.grad, numgrad(f, x.data), atol=5e-3)


class TestResampling:
    def test_upsample_nearest_repeats(self):
        x = Tensor(np.asarray([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
                   .reshape(1, 1, 2, 2))
        out = F.upsample_nearest(x, 2)
        np.testing.assert_allclose(
            out.data[0, 0],
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]],
        )

    def test_upsample_gradient_sums(self, rng):
        x = tensor_of(rng, (1, 1, 2, 2))
        F.upsample_nearest(x, 3).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 2, 2), 9.0))

    def test_interpolate_identity_when_same_size(self, rng):
        x = tensor_of(rng, (1, 1, 5, 5))
        assert F.interpolate_bilinear(x, (5, 5)) is x

    def test_interpolate_constant_preserved(self):
        x = Tensor(np.full((1, 1, 4, 4), 0.7, dtype=np.float32))
        out = F.interpolate_bilinear(x, (9, 3))
        np.testing.assert_allclose(out.data, 0.7, rtol=1e-5)

    def test_interpolate_gradcheck(self, rng, numgrad):
        x = tensor_of(rng, (1, 1, 5, 5))
        (F.interpolate_bilinear(x, (7, 3)) ** 2).mean().backward()

        def f():
            return float((F.interpolate_bilinear(Tensor(x.data), (7, 3)).data ** 2).mean())

        np.testing.assert_allclose(x.grad, numgrad(f, x.data), atol=5e-3)


class TestGridSample:
    def test_identity_grid_reproduces_input(self, rng):
        x = tensor_of(rng, (1, 2, 6, 6))
        coords = np.linspace(-1, 1, 6, dtype=np.float32)
        gy, gx = np.meshgrid(coords, coords, indexing="ij")
        grid = np.stack([gx, gy], axis=-1)[None]
        out = F.grid_sample(x, grid)
        np.testing.assert_allclose(out.data, x.data, atol=1e-5)

    def test_out_of_range_reads_padding(self, rng):
        x = tensor_of(rng, (1, 1, 4, 4))
        grid = np.full((1, 2, 2, 2), 5.0, dtype=np.float32)
        out = F.grid_sample(x, grid, padding_value=0.25)
        np.testing.assert_allclose(out.data, 0.25)

    def test_bad_grid_shape_raises(self, rng):
        # One source serves any number of grids; otherwise one per grid.
        x = tensor_of(rng, (3, 2, 4, 4))
        for shape in ((2, 3, 3, 2), (3, 3, 3, 3), (3, 3, 3), (3, 2, 3, 3, 2)):
            with pytest.raises(ValueError):
                F.grid_sample(x, np.zeros(shape, dtype=np.float32))

    def test_gradcheck(self, rng, numgrad):
        x = tensor_of(rng, (1, 2, 5, 5))
        grid = rng.uniform(-1.1, 1.1, size=(1, 3, 3, 2)).astype(np.float32)
        (F.grid_sample(x, grid) ** 2).mean().backward()

        def f():
            return float((F.grid_sample(Tensor(x.data), grid).data ** 2).mean())

        np.testing.assert_allclose(x.grad, numgrad(f, x.data), atol=5e-3)


class TestActivations:
    def test_relu_and_leaky_relu(self):
        x = Tensor(np.asarray([-2.0, 3.0], dtype=np.float32), requires_grad=True)
        np.testing.assert_allclose(F.relu(x).data, [0.0, 3.0])
        np.testing.assert_allclose(F.leaky_relu(x, 0.1).data, [-0.2, 3.0])

    def test_leaky_relu_gradient(self):
        x = Tensor(np.asarray([-1.0, 2.0], dtype=np.float32), requires_grad=True)
        F.leaky_relu(x, 0.1).sum().backward()
        np.testing.assert_allclose(x.grad, [0.1, 1.0])

    def test_sigmoid_range_and_gradient(self, rng):
        x = tensor_of(rng, (10,))
        out = F.sigmoid(x)
        assert ((out.data > 0) & (out.data < 1)).all()
        out.sum().backward()
        expected = out.data * (1 - out.data)
        np.testing.assert_allclose(x.grad, expected, rtol=1e-5)

    def test_sigmoid_extreme_inputs_stable(self):
        x = Tensor(np.asarray([-1000.0, 1000.0], dtype=np.float32))
        out = F.sigmoid(x).data
        assert np.isfinite(out).all()

    def test_sigmoid_no_overflow_under_errstate(self):
        """The naive 1/(1+exp(-x)) overflowed for large negative logits;
        the shared stable sigmoid must stay silent with warnings promoted
        to errors (forward and backward)."""
        x = Tensor(np.asarray([-1e4, -100.0, 0.0, 100.0, 1e4],
                              dtype=np.float32), requires_grad=True)
        with np.errstate(over="raise", under="ignore"):
            out = F.sigmoid(x)
            out.sum().backward()
        np.testing.assert_allclose(out.data, [0.0, 0.0, 0.5, 1.0, 1.0],
                                   atol=1e-7)
        assert np.isfinite(x.grad).all()

    def test_stable_sigmoid_matches_naive_in_safe_range(self, rng):
        x = (rng.random(200).astype(np.float32) - 0.5) * 20
        naive = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        np.testing.assert_allclose(F.stable_sigmoid(x), naive,
                                   rtol=1e-5, atol=1e-7)
        assert F.stable_sigmoid(x).dtype == np.float32

    def test_tanh_gradient(self, rng):
        x = tensor_of(rng, (5,))
        out = F.tanh(x)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, 1 - out.data ** 2, rtol=1e-5)

    def test_softmax_sums_to_one(self, rng):
        x = tensor_of(rng, (3, 7))
        out = F.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(3), rtol=1e-5)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = tensor_of(rng, (2, 5))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data + 1e-12), atol=1e-5
        )


class TestLosses:
    def test_cross_entropy_gradcheck(self, rng, numgrad):
        logits = tensor_of(rng, (4, 6))
        targets = rng.integers(0, 6, size=4)
        F.cross_entropy(logits, targets).backward()

        def f():
            return float(F.cross_entropy(Tensor(logits.data), targets).data)

        np.testing.assert_allclose(logits.grad, numgrad(f, logits.data), atol=5e-3)

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = Tensor(np.asarray([[20.0, 0.0, 0.0]], dtype=np.float32))
        loss = F.cross_entropy(logits, np.asarray([0]))
        assert float(loss.data) < 1e-4

    def test_bce_with_logits_matches_reference(self, rng):
        logits = tensor_of(rng, (8,))
        target = (rng.random(8) > 0.5).astype(np.float32)
        loss = F.bce_with_logits(logits, target)
        probs = 1 / (1 + np.exp(-logits.data))
        expected = -(target * np.log(probs) + (1 - target) * np.log(1 - probs)).mean()
        assert float(loss.data) == pytest.approx(expected, rel=1e-4)

    def test_bce_with_logits_gradcheck(self, rng, numgrad):
        logits = tensor_of(rng, (3, 4))
        target = (rng.random((3, 4)) > 0.5).astype(np.float32)
        F.bce_with_logits(logits, target).backward()

        def f():
            return float(F.bce_with_logits(Tensor(logits.data), target).data)

        np.testing.assert_allclose(logits.grad, numgrad(f, logits.data), atol=5e-3)

    def test_binary_cross_entropy_on_probs(self):
        probs = Tensor(np.asarray([0.9, 0.1], dtype=np.float32), requires_grad=True)
        loss = F.binary_cross_entropy(probs, np.asarray([1.0, 0.0]))
        assert float(loss.data) == pytest.approx(-np.log(0.9), rel=1e-3)

    def test_mse_and_l1(self, rng):
        pred = tensor_of(rng, (5,))
        target = rng.normal(size=5).astype(np.float32)
        assert float(F.mse_loss(pred, target).data) == pytest.approx(
            ((pred.data - target) ** 2).mean(), rel=1e-5
        )
        assert float(F.l1_loss(pred, target).data) == pytest.approx(
            np.abs(pred.data - target).mean(), rel=1e-5
        )


class TestBatchNormDropout:
    def test_batch_norm_normalizes_in_training(self, rng):
        from repro.nn import BatchNorm2d

        bn = BatchNorm2d(4)
        x = tensor_of(rng, (8, 4, 5, 5))
        out = bn(x)
        mean = out.data.mean(axis=(0, 2, 3))
        std = out.data.std(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, np.zeros(4), atol=1e-4)
        np.testing.assert_allclose(std, np.ones(4), atol=1e-2)

    def test_batch_norm_uses_running_stats_in_eval(self, rng):
        from repro.nn import BatchNorm2d

        bn = BatchNorm2d(2)
        x = Tensor(rng.normal(2.0, 3.0, size=(16, 2, 4, 4)).astype(np.float32))
        for _ in range(30):
            bn(x)
        bn.eval()
        out = bn(x)
        # Running stats approximate batch stats, so output ~ N(0, 1).
        assert abs(out.data.mean()) < 0.3

    def test_batch_norm_gradcheck(self, rng, numgrad):
        from repro.nn import functional as F2

        x = tensor_of(rng, (3, 2, 4, 4))
        gamma = tensor_of(rng, (2,))
        beta = tensor_of(rng, (2,))
        rm = np.zeros(2, dtype=np.float32)
        rv = np.ones(2, dtype=np.float32)
        (F2.batch_norm(x, gamma, beta, rm.copy(), rv.copy(), training=True) ** 2).mean().backward()

        def f():
            out = F2.batch_norm(
                Tensor(x.data), Tensor(gamma.data), Tensor(beta.data),
                rm.copy(), rv.copy(), training=True,
            )
            return float((out.data ** 2).mean())

        for tensor in (x, gamma, beta):
            np.testing.assert_allclose(tensor.grad, numgrad(f, tensor.data), atol=1e-2)

    def test_dropout_identity_in_eval(self, rng):
        x = tensor_of(rng, (4, 4))
        out = F.dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_preserves_expectation(self, rng):
        x = Tensor(np.ones((200, 200), dtype=np.float32))
        out = F.dropout(x, 0.3, training=True, rng=np.random.default_rng(0))
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)
