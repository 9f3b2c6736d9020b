"""Property-based tests (hypothesis) on the autodiff engine.

These check algebraic laws that must hold for any input — linearity of the
gradient, shape invariants of conv/pool, idempotence of activations — the
kind of invariants unit examples cannot cover exhaustively.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.gan import PatchDiscriminator, PatchGenerator
from repro.gan.losses import discriminator_loss, generator_adversarial_loss
from repro.nn import Tensor, no_grad, stack
from repro.nn import functional as F
from repro.nn.functional import ConvWorkspace
from repro.nn.lowering import FusedConvSpec, _ConvExec
from repro.nn.quant import INT8_QMAX, K_CHUNK, QuantConvSpec, _QuantConvExec
from repro.nn.tensor import (
    _define_backward,
    _is_basic_index,
    _make,
    _route,
    ensure_tensor,
    getitem,
)

small_arrays = st.integers(min_value=2, max_value=6)


def rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


class TestGradientLaws:
    @given(n=small_arrays, seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_sum_gradient_is_ones(self, n, seed):
        t = Tensor(rand((n, n), seed), requires_grad=True)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((n, n)))

    @given(seed=st.integers(0, 1000), scale=st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_gradient_linear_in_upstream(self, seed, scale):
        # backward(c·g) == c · backward(g) for a fixed graph.
        base = rand((4,), seed)
        a = Tensor(base.copy(), requires_grad=True)
        (a * a).backward(np.full(4, 1.0, dtype=np.float32))
        unit = a.grad.copy()
        b = Tensor(base.copy(), requires_grad=True)
        (b * b).backward(np.full(4, scale, dtype=np.float32))
        np.testing.assert_allclose(b.grad, scale * unit, rtol=1e-4, atol=1e-5)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_chain_rule_through_composition(self, seed):
        # d/dx sigmoid(2x).sum() == 2·σ'(2x)
        x = Tensor(rand((5,), seed), requires_grad=True)
        F.sigmoid(x * 2.0).sum().backward()
        s = 1 / (1 + np.exp(-2 * x.data))
        np.testing.assert_allclose(x.grad, 2 * s * (1 - s), rtol=1e-4, atol=1e-5)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_softmax_gradient_sums_to_zero(self, seed):
        # Softmax output sums to 1, so any upstream gradient produces an
        # input gradient summing to ~0 along the softmax axis.
        x = Tensor(rand((3, 6), seed), requires_grad=True)
        upstream = rand((3, 6), seed + 1)
        F.softmax(x, axis=-1).backward(upstream)
        np.testing.assert_allclose(x.grad.sum(axis=-1), np.zeros(3), atol=1e-4)


class TestShapeInvariants:
    @given(n=small_arrays, c=small_arrays, size=st.sampled_from([8, 12, 16]),
           stride=st.sampled_from([1, 2]))
    @settings(max_examples=20, deadline=None)
    def test_conv_output_shape_formula(self, n, c, size, stride):
        x = Tensor(rand((n, c, size, size), 0))
        w = Tensor(rand((4, c, 3, 3), 1))
        out = F.conv2d(x, w, stride=stride, padding=1)
        expected = (size + 2 - 3) // stride + 1
        assert out.shape == (n, 4, expected, expected)

    @given(size=st.sampled_from([8, 10, 14]))
    @settings(max_examples=10, deadline=None)
    def test_pool_then_upsample_shape_roundtrip(self, size):
        x = Tensor(rand((1, 2, size, size), 0))
        down = F.max_pool2d(x, 2, 2)
        up = F.upsample_nearest(down, 2)
        assert up.shape == (1, 2, size // 2 * 2, size // 2 * 2)

    @given(out_h=st.integers(2, 20), out_w=st.integers(2, 20))
    @settings(max_examples=20, deadline=None)
    def test_interpolate_hits_requested_size(self, out_h, out_w):
        x = Tensor(rand((1, 1, 7, 9), 0))
        assert F.interpolate_bilinear(x, (out_h, out_w)).shape == (1, 1, out_h, out_w)


class TestValueInvariants:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_sigmoid_bounded(self, seed):
        x = Tensor(rand((10,), seed) * 100)
        out = F.sigmoid(x).data
        assert ((out >= 0) & (out <= 1)).all()

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_max_pool_never_decreases_max(self, seed):
        x = Tensor(rand((1, 1, 8, 8), seed))
        out = F.max_pool2d(x, 2, 2)
        assert out.data.max() == pytest.approx(x.data.max())

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_interpolate_within_input_range(self, seed):
        x = Tensor(rand((1, 1, 6, 6), seed))
        out = F.interpolate_bilinear(x, (11, 5)).data
        assert out.min() >= x.data.min() - 1e-5
        assert out.max() <= x.data.max() + 1e-5

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_cross_entropy_nonnegative(self, seed):
        logits = Tensor(rand((4, 5), seed))
        targets = np.random.default_rng(seed).integers(0, 5, size=4)
        assert float(F.cross_entropy(logits, targets).data) >= 0.0

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_grid_sample_identity_property(self, seed):
        size = 7
        x = Tensor(rand((1, 2, size, size), seed))
        coords = np.linspace(-1, 1, size, dtype=np.float32)
        gy, gx = np.meshgrid(coords, coords, indexing="ij")
        grid = np.stack([gx, gy], axis=-1)[None]
        out = F.grid_sample(x, grid)
        np.testing.assert_allclose(out.data, x.data, atol=1e-4)


# ----------------------------------------------------------------------
# Differential conv: the three executors against a direct loop
# ----------------------------------------------------------------------

#: float32 unit roundoff. A float32 sum of ``d`` products is within
#: ``d·u·Σ|products|`` of the exact sum (Higham's γ_d bound), whatever the
#: BLAS summation order; the conv checks allow twice that plus two
#: roundings, with ``d`` the reduction depth of the checked quantity
#: (``K = C·k·k`` for the forward), fixed by the shapes before any
#: value is seen.
U32 = 2.0 ** -24


def direct_conv(x, w, stride, padding, grad=None):
    """Naive direct convolution, one output window at a time, in the
    dtype of ``x`` (float64 for the fp oracle, int64 for the int8 MAC
    oracle). With ``grad`` (upstream of ``out``) also returns the x and
    w gradients of ``Σ out·grad``."""
    n, c, h, width = x.shape
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - k) // stride + 1
    ow = (width + 2 * padding - k) // stride + 1
    out = np.zeros((n, w.shape[0], oh, ow), dtype=x.dtype)
    grad_xp, grad_w = np.zeros_like(xp), np.zeros_like(w)
    for i in range(oh):
        for j in range(ow):
            rows = slice(i * stride, i * stride + k)
            cols = slice(j * stride, j * stride + k)
            window = xp[:, :, rows, cols]
            out[:, :, i, j] = np.tensordot(window, w, axes=([1, 2, 3],
                                                            [1, 2, 3]))
            if grad is not None:
                upstream = grad[:, :, i, j]
                grad_xp[:, :, rows, cols] += np.tensordot(upstream, w,
                                                          axes=(1, 0))
                grad_w += np.tensordot(upstream, window, axes=(0, 0))
    if grad is None:
        return out
    grad_x = grad_xp[:, :, padding:padding + h, padding:padding + width]
    return out, grad_x, grad_w


def assert_within_depth_bound(got, exact, magnitude, depth):
    bound = 2 * (depth + 2) * U32 * magnitude
    excess = np.abs(got.astype(np.float64) - exact) - bound
    assert excess.max() <= 0, f"exceeds the depth-{depth} bound by {excess.max()}"


@st.composite
def conv_cases(draw):
    n = draw(st.integers(1, 3))
    c, o = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kernel = draw(st.sampled_from([1, 3]))
    stride = draw(st.sampled_from([1, 2]))
    padding = draw(st.sampled_from([0, 1]))
    assume(h + 2 * padding >= kernel and w + 2 * padding >= kernel)
    return n, c, o, h, w, kernel, stride, padding, draw(st.integers(0, 10_000))


def conv_operands(case):
    n, c, o, h, w, kernel, stride, padding, seed = case
    return (rand((n, c, h, w), seed), rand((o, c, kernel, kernel), seed + 1),
            rand((o,), seed + 2))


class TestConvDifferential:
    """The autodiff, lowered and int8 convs against :func:`direct_conv`."""

    @given(case=conv_cases())
    @settings(max_examples=40, deadline=None)
    def test_autodiff_conv_and_gradients_match_direct_loop(self, case):
        n, c, o, _, _, kernel, stride, padding, seed = case
        x, w, b = conv_operands(case)
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        bt = Tensor(b, requires_grad=True)
        out = F.conv2d(xt, wt, bt, stride=stride, padding=padding)
        upstream = rand(out.shape, seed + 3)
        out.backward(upstream)

        x64, w64, g64 = (a.astype(np.float64) for a in (x, w, upstream))
        exact, grad_x, grad_w = direct_conv(x64, w64, stride, padding, g64)
        out_mag, grad_x_mag, grad_w_mag = direct_conv(
            np.abs(x64), np.abs(w64), stride, padding, np.abs(g64))
        positions = n * out.shape[2] * out.shape[3]
        assert_within_depth_bound(out.data, exact + b[:, None, None],
                                  out_mag + np.abs(b)[:, None, None],
                                  c * kernel * kernel)
        assert_within_depth_bound(xt.grad, grad_x, grad_x_mag,
                                  o * kernel * kernel)
        assert_within_depth_bound(wt.grad, grad_w, grad_w_mag, positions)
        assert_within_depth_bound(bt.grad, g64.sum(axis=(0, 2, 3)),
                                  np.abs(g64).sum(axis=(0, 2, 3)), positions)

    @given(case=conv_cases(), slope=st.sampled_from([None, 0.1]))
    @settings(max_examples=30, deadline=None)
    def test_lowered_conv_matches_direct_loop(self, case, slope):
        _, c, _, _, _, kernel, stride, padding, _ = case
        x, w, b = conv_operands(case)
        spec = FusedConvSpec("conv", w, b, stride, padding, slope)
        got = _ConvExec(spec, x.shape, ConvWorkspace(debug=True)).run(x)
        exact = direct_conv(x.astype(np.float64), w.astype(np.float64),
                            stride, padding) + b[:, None, None]
        if slope is not None:
            exact = np.maximum(exact, slope * exact)
        out_mag = direct_conv(np.abs(x).astype(np.float64),
                              np.abs(w).astype(np.float64), stride, padding)
        assert_within_depth_bound(got, exact,
                                  out_mag + np.abs(b)[:, None, None],
                                  c * kernel * kernel)

    @staticmethod
    def assert_int8_matches_mac_oracle(x, w, b, stride, padding):
        # Calibrated below the input's peak so some inputs saturate.
        spec = QuantConvSpec(FusedConvSpec("conv", w, b, stride, padding, 0.1),
                             act_amax=0.75 * float(np.abs(x).max()))
        got = _QuantConvExec(spec, x.shape, ConvWorkspace(debug=True)).run(x)
        xq = np.clip(np.rint(x * spec.inv_a_scale), -INT8_QMAX, INT8_QMAX)
        wq = np.concatenate(spec.weight_chunks, axis=1).reshape(w.shape)
        acc = direct_conv(xq.astype(np.int64), wq.astype(np.int64),
                          stride, padding)
        exact = acc.astype(np.int32).astype(np.float32)
        exact *= spec.dequant_col
        exact += spec.bias_col
        exact = np.maximum(exact, exact * np.float32(spec.slope))
        assert got.tobytes() == exact.tobytes()

    @given(case=conv_cases())
    @settings(max_examples=30, deadline=None)
    def test_int8_conv_is_byte_equal_to_int64_mac_oracle(self, case):
        stride, padding = case[6:8]
        self.assert_int8_matches_mac_oracle(*conv_operands(case), stride,
                                            padding)

    def test_int8_conv_above_one_k_chunk(self):
        # C·k·k = 120·9 = 1080 > K_CHUNK: two row slices of the columns,
        # reduced in int32.
        x, w, b = rand((2, 120, 5, 5), 0), rand((3, 120, 3, 3), 1), rand((3,), 2)
        assert 120 * 9 > K_CHUNK
        self.assert_int8_matches_mac_oracle(x, w, b, 1, 1)


# ----------------------------------------------------------------------
# Differential pool / leaky ReLU / batch-norm: the value-only ops against
# the versions that kept argmax indices, masks and x̂ for the backward
# ----------------------------------------------------------------------

def oracle_max_pool2d(x, kernel=2, stride=None, padding=0):
    """Windowed argmax + ``take_along_axis`` pool; backward scatters with
    ``np.add.at`` at the argmax."""
    x = ensure_tensor(x)
    stride = stride or kernel
    data = x.data
    n, c, h, w = data.shape
    pad_spec = None
    if stride == 1 and kernel == 2 and padding == 0:
        pad_spec = ((0, 0), (0, 0), (0, 1), (0, 1))
    elif padding:
        pad_spec = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    if pad_spec is not None:
        data = np.pad(data, pad_spec, constant_values=-np.inf)
    ph, pw = data.shape[2], data.shape[3]
    out_h = (ph - kernel) // stride + 1
    out_w = (pw - kernel) // stride + 1
    strides = data.strides
    windows = np.lib.stride_tricks.as_strided(
        data, shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(strides[0], strides[1], strides[2] * stride,
                 strides[3] * stride, strides[2], strides[3]),
        writeable=False)
    flat = windows.reshape(n, c, out_h, out_w, kernel * kernel)
    arg = flat.argmax(axis=-1)
    value = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    out = _make(value, (x,))
    if out.data.dtype != value.dtype:
        out.data = value

    def backward(grad, staged):
        grad = np.asarray(grad, dtype=np.float32)
        grad_padded = np.zeros((n, c, ph, pw), dtype=np.float32)
        ky, kx = np.divmod(arg, kernel)
        oy = np.arange(out_h)[None, None, :, None] * stride
        ox = np.arange(out_w)[None, None, None, :] * stride
        ni = np.arange(n)[:, None, None, None]
        ci = np.arange(c)[None, :, None, None]
        np.add.at(grad_padded, (ni, ci, oy + ky, ox + kx), grad)
        if pad_spec is not None:
            top, bottom = pad_spec[2]
            left, right = pad_spec[3]
            grad_padded = grad_padded[
                :, :, top: ph - bottom or None, left: pw - right or None]
        _route(x, grad_padded, staged)

    _define_backward(out, backward)
    return out


def oracle_leaky_relu(x, slope=0.1):
    """``where(x > 0, x, slope·x)``, the mask kept for the backward."""
    x = ensure_tensor(x)
    mask = x.data > 0
    out = _make(np.where(mask, x.data, slope * x.data), (x,))

    def backward(grad, staged):
        grad = np.asarray(grad, dtype=np.float32)
        _route(x, np.where(mask, grad, slope * grad), staged)

    _define_backward(out, backward)
    return out


def oracle_batch_norm(x, gamma, beta, running_mean, running_var, training,
                      momentum=0.1, eps=1e-5, batch_stats=None):
    """Out-of-place batch-norm that keeps x̂ for the backward."""
    x = ensure_tensor(x)
    axes = (0, 2, 3)
    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        n_elems = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
        unbiased = var * n_elems / max(n_elems - 1, 1)
        running_mean *= 1 - momentum
        running_mean += momentum * mean
        running_var *= 1 - momentum
        running_var += momentum * unbiased
        if batch_stats is not None:
            batch_stats[:] = (mean, unbiased)
    else:
        mean = running_mean
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
    value = (gamma.data.reshape(1, -1, 1, 1) * x_hat
             + beta.data.reshape(1, -1, 1, 1))
    out = _make(value.astype(np.float32), (x, gamma, beta))

    def backward(grad, staged):
        grad = np.asarray(grad, dtype=np.float32)
        if gamma.requires_grad:
            _route(gamma, (grad * x_hat).sum(axis=axes), staged)
        if beta.requires_grad:
            _route(beta, grad.sum(axis=axes), staged)
        if x.requires_grad:
            g = grad * gamma.data.reshape(1, -1, 1, 1)
            if training:
                m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
                sum_g = g.sum(axis=axes, keepdims=True)
                sum_gx = (g * x_hat).sum(axis=axes, keepdims=True)
                grad_x = (inv_std.reshape(1, -1, 1, 1)
                          * (g - sum_g / m - x_hat * sum_gx / m))
            else:
                grad_x = g * inv_std.reshape(1, -1, 1, 1)
            _route(x, grad_x, staged)

    _define_backward(out, backward)
    return out


ORACLES = {"max_pool2d": oracle_max_pool2d, "leaky_relu": oracle_leaky_relu,
           "batch_norm": oracle_batch_norm}

SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0])


def assert_same_bits(got, want, what=""):
    """Equal dtype, shape and values, NaN positions and zero signs."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert np.array_equal(got, want, equal_nan=True), what
    nan = np.isnan(want)
    assert np.array_equal(np.signbit(got)[~nan], np.signbit(want)[~nan]), what


def special_values(rng, shape, dtype, rate):
    """Small integers (so ties occur) with NaN, ±inf and −0.0 mixed in."""
    values = rng.integers(-3, 4, size=shape).astype(dtype)
    mask = rng.random(shape) < rate
    values[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    return values


def leaf(data):
    """A gradient-tracked leaf holding ``data`` in its own dtype (the
    constructor would cast a float64 array to float32)."""
    tensor = Tensor(np.zeros(data.shape, np.float32), requires_grad=True)
    tensor.data = data
    return tensor


@st.composite
def op_inputs(draw):
    """(x, upstream seed): NCHW inputs with ties and special values."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 8)),
             draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rate = draw(st.sampled_from([0.0, 0.05, 0.3]))
    seed = draw(st.integers(0, 10_000))
    return special_values(np.random.default_rng(seed), shape, dtype, rate), seed


def upstream_for(shape, seed, rate=0.0):
    """Non-integer upstream gradients (so summation order shows), some
    −0.0, with NaN and ±inf mixed in at ``rate``."""
    upstream = rand(shape, seed + 1)
    rng = np.random.default_rng(seed + 2)
    upstream[rng.random(shape) < 0.1] = -0.0
    mask = rng.random(shape) < rate
    upstream[mask] = rng.choice(SPECIALS[:3], size=int(mask.sum()))
    return upstream


def run_op(op, x, seed, *args, rate=0.0, **kwargs):
    tensor = leaf(x)
    out = op(tensor, *args, **kwargs)
    out.backward(upstream_for(out.shape, seed, rate))
    return out.data, tensor.grad


#: Share of upstream gradients drawn as NaN or ±inf.
upstream_rates = st.sampled_from([0.0, 0.05, 0.3])


pools = st.sampled_from([(2, 2, 0), (2, 1, 0), (3, 2, 0), (3, 1, 1)])


def pool_fits(x, pool):
    """Whether a ``(kernel, stride, padding)`` pool has a window on ``x``;
    the darknet 'same' pool (2, 1, 0) pads one −inf row and column."""
    kernel, _, padding = pool
    added = 1 if pool == (2, 1, 0) else 2 * padding
    return min(x.shape[2:]) + added >= kernel


class TestValueOnlyOpsDifferential:
    """``F.max_pool2d``, ``F.leaky_relu`` and ``F.batch_norm`` against the
    oracles above: values and every gradient bit-identical."""

    @given(case=op_inputs(), pool=pools, rate=upstream_rates)
    @settings(max_examples=150, deadline=None)
    def test_max_pool_matches_argmax_pool(self, case, pool, rate):
        x, seed = case
        assume(pool_fits(x, pool))
        got = run_op(F.max_pool2d, x, seed, *pool, rate=rate)
        want = run_op(oracle_max_pool2d, x, seed, *pool, rate=rate)
        assert_same_bits(got[0], want[0], "value")
        assert_same_bits(got[1], want[1], "grad")

    @given(case=op_inputs(), slope=st.sampled_from([0.1, 0.2, 1.0]),
           rate=upstream_rates)
    @settings(max_examples=100, deadline=None)
    def test_leaky_relu_matches_mask_form(self, case, slope, rate):
        """The oracle's backward is the ``np.where`` form the branch-free
        ``max(x > 0, slope)`` factor replaced."""
        x, seed = case
        got = run_op(F.leaky_relu, x, seed, slope, rate=rate)
        want = run_op(oracle_leaky_relu, x, seed, slope, rate=rate)
        assert_same_bits(got[0], want[0], "value")
        assert_same_bits(got[1], want[1], "grad")

    # Slope 0 too: 0·inf is NaN, so max(x, 0·x) would be NaN at +inf,
    # where the mask form gives +inf.
    @pytest.mark.parametrize("slope", [0.0, -0.1, 1.5])
    def test_leaky_relu_rejects_slopes_outside_the_max_form(self, slope):
        with pytest.raises(ValueError, match="slope"):
            F.leaky_relu(Tensor(np.ones((1, 1, 2, 2), np.float32)), slope)

    @given(case=op_inputs(), training=st.booleans(),
           gamma_grad=st.booleans(), rate=upstream_rates)
    @settings(max_examples=100, deadline=None)
    def test_batch_norm_matches_x_hat_form(self, case, training, gamma_grad,
                                           rate):
        """The oracle's backward is the allocating form the in-place
        backward replaced, and its forward takes ``ndarray.var``."""
        x, seed = case
        c = x.shape[1]
        rng = np.random.default_rng(seed + 3)
        params = (rand((c,), seed + 4), rand((c,), seed + 5),
                  rng.normal(size=c).astype(np.float32),
                  (0.5 + rng.random(c)).astype(np.float32))
        interleaved = rand(x.shape, seed + 6)

        def run(op):
            gamma = Tensor(params[0].copy(), requires_grad=gamma_grad)
            beta = Tensor(params[1].copy(), requires_grad=True)
            running_mean, running_var = params[2].copy(), params[3].copy()
            tensor = leaf(x)
            out = op(tensor, gamma, beta, running_mean, running_var, training)
            # A training-mode forward of the same layer between this
            # forward and its backward moves the running statistics.
            op(Tensor(interleaved), gamma, beta, running_mean, running_var,
               True)
            out.backward(upstream_for(out.shape, seed, rate))
            return {"value": out.data, "x": tensor.grad, "gamma": gamma.grad,
                    "beta": beta.grad, "running_mean": running_mean,
                    "running_var": running_var}

        got, want = run(F.batch_norm), run(oracle_batch_norm)
        for name in want:
            if want[name] is None:
                assert got[name] is None, name
            else:
                assert_same_bits(got[name], want[name], name)


def with_oracle_ops(monkeypatch, fn):
    """``fn()`` with the oracle pool, leaky ReLU and batch-norm patched
    into :mod:`repro.nn.functional`."""
    with monkeypatch.context() as patched:
        for name, oracle in ORACLES.items():
            patched.setattr(F, name, oracle)
        return fn()


class TestValueOnlyOpsModules:
    """Whole modules with the new ops against the same run with the
    oracle ops patched in."""

    def test_detector_heads_under_no_grad(self, make_model, monkeypatch):
        model = make_model(input_size=96, width=0.25)
        x = Tensor(np.random.default_rng(0).random((3, 3, 96, 96),
                                                   dtype=np.float32))

        def heads():
            with no_grad():
                return [head.data for head in model(x)]

        want = with_oracle_ops(monkeypatch, heads)
        for got_head, want_head in zip(heads(), want):
            assert_same_bits(got_head, want_head)

    def test_detector_input_gradient(self, make_model, monkeypatch):
        model = make_model(input_size=96, width=0.25)
        for param in model.parameters():
            param.requires_grad = False
        image = np.random.default_rng(1).random((2, 3, 96, 96),
                                                dtype=np.float32)

        def input_grad():
            x = Tensor(image, requires_grad=True)
            coarse, fine = model(x)
            loss = ((coarse * rand(coarse.shape, 2)).sum()
                    + (fine * rand(fine.shape, 3)).sum())
            loss.backward()
            return x.grad

        assert_same_bits(input_grad(), with_oracle_ops(monkeypatch, input_grad))

    def test_gan_training_step_parameter_gradients(self, monkeypatch):
        real = np.random.default_rng(4).random((6, 1, 60, 60),
                                               dtype=np.float32)
        z = np.random.default_rng(5).normal(size=(6, 32)).astype(np.float32)

        def step():
            generator, discriminator = PatchGenerator(60), PatchDiscriminator(60)
            fake = generator(Tensor(z))
            loss = (discriminator_loss(discriminator(Tensor(real)),
                                       discriminator(fake))
                    + generator_adversarial_loss(discriminator(fake)))
            loss.backward()
            grads = {f"g.{name}": p.grad
                     for name, p in generator.named_parameters()}
            grads.update({f"d.{name}": p.grad
                          for name, p in discriminator.named_parameters()})
            grads.update({f"g.{name}": buf
                          for name, buf in generator.named_buffers()})
            return grads

        got, want = step(), with_oracle_ops(monkeypatch, step)
        assert got.keys() == want.keys()
        for name in want:
            assert_same_bits(got[name], want[name], name)


# ----------------------------------------------------------------------
# Differential backwards: the branch-free and in-place backward closures
# against the forms they replaced
# ----------------------------------------------------------------------

def where_max_pool2d(x, kernel=2, stride=None, padding=0):
    """``F.max_pool2d``'s values with the backward that found the first
    max through ``np.copyto(where=)`` and scattered through ``np.where``."""
    stride = stride or kernel
    out = F.max_pool2d(x, kernel, stride, padding)
    h, w = x.shape[2:]
    if stride == 1 and kernel == 2 and padding == 0:
        pad_spec = ((0, 0), (0, 0), (0, 1), (0, 1))
    else:
        pad_spec = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    top = pad_spec[2][0]

    def backward(grad, staged):
        data = np.pad(x.data, pad_spec, constant_values=-np.inf)
        value = out.data
        out_h, out_w = value.shape[2:]
        grad = np.asarray(grad, dtype=np.float32)
        windows = range(kernel * kernel)
        first = np.full(value.shape, kernel * kernel, np.intp)
        for index in reversed(windows):
            view = F._window(data, *divmod(index, kernel), stride, out_h, out_w)
            np.copyto(first, index, where=(view == value) | np.isnan(view))
        grad_padded = np.zeros(data.shape, dtype=np.float32)
        for index in reversed(windows):
            view = F._window(grad_padded, *divmod(index, kernel), stride,
                             out_h, out_w)
            view += np.where(first == index, grad, 0.0)
        _route(x, grad_padded[:, :, top:top + h, top:top + w], staged)

    _define_backward(out, backward)
    return out


def add_at_getitem(a, index):
    """``getitem`` whose backward scatters every index with ``np.add.at``."""
    out = _make(a.data[index], (a,))

    def backward(grad, staged):
        full = np.zeros_like(a.data)
        np.add.at(full, index, grad)
        _route(a, full, staged)

    _define_backward(out, backward)
    return out


def add_at_interpolate_bilinear(x, size):
    """``F.interpolate_bilinear``'s values with the backward that scattered
    each corner through a 4-D ``np.add.at`` of row and column index maps."""
    out = F.interpolate_bilinear(x, size)
    n, c, h, w = x.shape
    out_h, out_w = size
    ys = np.clip((np.arange(out_h, dtype=np.float32) + 0.5) * (h / out_h)
                 - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w, dtype=np.float32) + 0.5) * (w / out_w)
                 - 0.5, 0, w - 1)
    y0, x0 = np.floor(ys).astype(np.int64), np.floor(xs).astype(np.int64)
    y1, x1 = np.minimum(y0 + 1, h - 1), np.minimum(x0 + 1, w - 1)
    wy, wx = (ys - y0).astype(np.float32), (xs - x0).astype(np.float32)

    def backward(grad, staged):
        grad = np.asarray(grad, dtype=np.float32)
        grad_x = np.zeros_like(x.data)
        iy0 = y0[:, None].repeat(out_w, axis=1)
        iy1 = y1[:, None].repeat(out_w, axis=1)
        ix0 = x0[None, :].repeat(out_h, axis=0)
        ix1 = x1[None, :].repeat(out_h, axis=0)
        for weight_map, iy, ix in (
                ((1 - wy)[:, None] * (1 - wx)[None, :], iy0, ix0),
                ((1 - wy)[:, None] * wx[None, :], iy0, ix1),
                (wy[:, None] * (1 - wx)[None, :], iy1, ix0),
                (wy[:, None] * wx[None, :], iy1, ix1)):
            np.add.at(grad_x, (slice(None), slice(None), iy, ix),
                      grad * weight_map[None, None])
        _route(x, grad_x, staged)

    _define_backward(out, backward)
    return out


@st.composite
def index_cases(draw):
    """(shape, index, basic): a basic index (slices with positive or
    negative steps, ints, Ellipsis, None) or an advanced or mixed one
    whose integer array repeats a position."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    kind = draw(st.sampled_from(["basic", "advanced", "mixed"]))
    if kind == "basic":
        items = []
        for size in shape[:draw(st.integers(0, len(shape)))]:
            if draw(st.booleans()):
                position = draw(st.integers(-size, size - 1))
                items.append(draw(st.sampled_from([int, np.int64]))(position))
            else:
                bounds = st.one_of(st.none(), st.integers(-size - 1, size))
                items.append(slice(draw(bounds), draw(bounds),
                                   draw(st.sampled_from([None, 1, 2, -1, -2]))))
        if draw(st.booleans()):
            at = (draw(st.integers(0, len(items)))
                  if len(items) == len(shape) else len(items))
            items.insert(at, Ellipsis)
        for _ in range(draw(st.integers(0, 2))):
            items.insert(draw(st.integers(0, len(items))), None)
        index = items[0] if len(items) == 1 and draw(st.booleans()) else tuple(items)
        return shape, index, True
    axis = draw(st.integers(0, len(shape) - 1))
    size = shape[axis]
    positions = draw(st.lists(st.integers(-size, size - 1), min_size=1,
                              max_size=5))
    positions.insert(draw(st.integers(0, len(positions))), positions[0])
    lead = ((slice(None),) if kind == "advanced"
            else (slice(None, None, -1),)) * axis
    index = lead + (np.array(positions),)
    if kind == "mixed" and draw(st.booleans()):
        index += (Ellipsis,)
    return shape, index, False


class TestBackwardRewritesDifferential:
    """The rewritten backward closures against the forms they replaced
    (the leaky-ReLU and batch-norm ones are the oracles of
    :class:`TestValueOnlyOpsDifferential`): every gradient bit-identical,
    with NaN, ±inf and −0.0 in the inputs and the upstream gradients."""

    @given(case=op_inputs(), pool=pools, rate=upstream_rates)
    @settings(max_examples=150, deadline=None)
    def test_max_pool_matches_copyto_where_backward(self, case, pool, rate):
        x, seed = case
        assume(pool_fits(x, pool))
        got = run_op(F.max_pool2d, x, seed, *pool, rate=rate)
        want = run_op(where_max_pool2d, x, seed, *pool, rate=rate)
        assert_same_bits(got[1], want[1], "grad")

    @given(case=index_cases(), dtype=st.sampled_from([np.float32, np.float64]),
           rate=upstream_rates, seed=st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_getitem_matches_add_at_backward(self, case, dtype, rate, seed):
        shape, index, basic = case
        assert _is_basic_index(index) == basic
        x = rand(shape, seed).astype(dtype)
        got = run_op(getitem, x, seed, index, rate=rate)
        want = run_op(add_at_getitem, x, seed, index, rate=rate)
        assert_same_bits(got[0], want[0], "value")
        assert_same_bits(got[1], want[1], "grad")

    @given(case=op_inputs(), size=st.tuples(st.integers(1, 19),
                                            st.integers(1, 19)),
           rate=upstream_rates)
    @settings(max_examples=100, deadline=None)
    def test_bilinear_matches_4d_add_at_backward(self, case, size, rate):
        """Resizes both up and down (the input is 1–9 pixels a side)."""
        x, seed = case
        assume(size != x.shape[2:])
        got = run_op(F.interpolate_bilinear, x, seed, size, rate=rate)
        want = run_op(add_at_interpolate_bilinear, x, seed, size, rate=rate)
        assert_same_bits(got[1], want[1], "grad")


# ----------------------------------------------------------------------
# Differential sub-pixel fold: upsample_conv2d against upsample + conv
# ----------------------------------------------------------------------

@st.composite
def upsample_conv_cases(draw):
    n = draw(st.integers(1, 3))
    c, o = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return n, c, o, h, w, draw(st.integers(0, 10_000))


def upsample2(a):
    return a.repeat(2, axis=2).repeat(2, axis=3)


def reference_patch(gen, z):
    """``PatchGenerator.forward`` with each block run on the upsampled map."""
    x = gen.project(z).reshape((z.shape[0], gen.base_channels, gen.coarse,
                                gen.coarse))
    for block in (gen.block1, gen.block2):
        x = block(F.upsample_nearest(x, 2))
    x = F.sigmoid(gen.to_image(x))
    if x.shape[-1] != gen.patch_size:
        x = F.interpolate_bilinear(x, (gen.patch_size, gen.patch_size))
    return x


class TestUpsampleConvDifferential:
    """:func:`F.upsample_conv2d` against a conv of the upsampled input."""

    #: Added to each checked quantity's conv reduction depth: the fold
    #: into phase kernels and its transpose in the backward are 0/1
    #: contractions of at most 4·9 = 36 terms.
    FOLD_DEPTH = 36

    @given(case=upsample_conv_cases())
    @settings(max_examples=40, deadline=None)
    def test_fold_and_gradients_match_direct_conv_of_upsampled_input(self, case):
        n, c, o, h, w, seed = case
        x, weight = rand((n, c, h, w), seed), rand((o, c, 3, 3), seed + 1)
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(weight, requires_grad=True)
        out = F.upsample_conv2d(xt, wt)
        assert out.shape == (n, o, 2 * h, 2 * w)
        upstream = rand(out.shape, seed + 2)
        out.backward(upstream)

        x64, w64, g64 = (a.astype(np.float64) for a in (x, weight, upstream))
        exact, grad_up, grad_w = direct_conv(upsample2(x64), w64, 1, 1, g64)
        out_mag, grad_up_mag, grad_w_mag = direct_conv(
            upsample2(np.abs(x64)), np.abs(w64), 1, 1, np.abs(g64))

        def down(a):  # upsample_nearest's adjoint
            return a.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))

        assert_within_depth_bound(out.data, exact, out_mag,
                                  9 * c + self.FOLD_DEPTH)
        # The phase conv has 4·O output channels.
        assert_within_depth_bound(xt.grad, down(grad_up), down(grad_up_mag),
                                  36 * o + self.FOLD_DEPTH)
        assert_within_depth_bound(wt.grad, grad_w, grad_w_mag,
                                  n * h * w + self.FOLD_DEPTH)

    @given(case=upsample_conv_cases())
    @settings(max_examples=40, deadline=None)
    def test_shuffle_is_byte_equal_to_transpose_form(self, case):
        n, c, o, h, w, seed = case
        x, weight = rand((n, c, h, w), seed), rand((o, c, 3, 3), seed + 1)
        upstream = rand((n, o, 2 * h, 2 * w), seed + 2)

        def transpose_shuffle(y):
            # Phase (a, b) is the (H, W) window at offset (a, b) of its
            # (H+1)×(W+1) map.
            phases = y.reshape(n, o, 2, 2, h + 1, w + 1)
            windows = stack([stack([phases[:, :, a, b, a:a + h, b:b + w]
                                    for b in range(2)], axis=2)
                             for a in range(2)], axis=2)
            return windows.transpose(0, 1, 4, 2, 5, 3).reshape(
                n, o, 2 * h, 2 * w)

        def run():
            xt = Tensor(x, requires_grad=True)
            out = F.upsample_conv2d(xt, Tensor(weight))
            out.backward(upstream)
            return out.data, xt.grad

        got, got_grad = run()
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(F, "pixel_shuffle2", transpose_shuffle)
            want, want_grad = run()
        assert np.array_equal(got, want)
        assert np.array_equal(got_grad, want_grad)

    def test_rejects_kernels_other_than_3x3(self):
        with pytest.raises(ValueError, match="3×3"):
            F.upsample_conv2d(Tensor(rand((1, 2, 4, 4), 0)),
                              Tensor(rand((3, 2, 1, 1), 1)))

    @pytest.mark.parametrize("k", [20, 40, 60, 80])
    @pytest.mark.parametrize("batch", [1, 13])
    def test_generator_matches_upsample_then_conv(self, k, batch, monkeypatch):
        gen = PatchGenerator(k, seed=k)
        z = Tensor(gen.sample_latent(batch, np.random.default_rng(batch)))
        upstream = rand((batch, 1, k, k), k + batch)

        def run(forward):
            gen.zero_grad()
            patch = forward(z)
            patch.backward(upstream)
            return patch.data, {name: p.grad.copy()
                                for name, p in gen.named_parameters()}

        with monkeypatch.context() as patched:
            # The generator must not build the upsampled map anywhere.
            patched.setattr(F, "upsample_nearest", None)
            patch, grads = run(gen)
        ref_patch, ref_grads = run(lambda latent: reference_patch(gen, latent))

        np.testing.assert_allclose(patch, ref_patch, rtol=0, atol=1e-5)
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            scale = np.abs(ref_grads[name]).max()
            np.testing.assert_allclose(grad, ref_grads[name], rtol=0,
                                       atol=1e-4 * scale, err_msg=name)
