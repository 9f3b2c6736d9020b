"""Differentiable neural-network operations used across the reproduction.

Everything here operates on :class:`repro.nn.tensor.Tensor` in NCHW layout
(batch, channels, height, width) and records backward closures so attack
gradients can flow from the YOLOv3-tiny loss through EOT warps back into the
GAN generator.

Convolutions use an im2col formulation: :func:`im2col` copies the k²
strided slices of the padded input into a column matrix, the convolution
becomes a single GEMM against it, and the backward pass is two GEMMs plus
the corresponding :func:`col2im` scatter. The autodiff :func:`conv2d` and
the lowered and int8 plan executors (:mod:`repro.nn.lowering`,
:mod:`repro.nn.quant`) all run this one kernel, gathering into the
workspace's shared column scratch. They share the max-pool
(:func:`pool_maxima`) and leaky-ReLU (:func:`leaky_max`) kernels too. A
forward computes only its values; each backward derives what it needs
from the saved input. This keeps the whole stack pure numpy while
remaining fast enough for the reduced-scale profiles used by the tests
and benchmarks (see DESIGN.md §5).
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from .tensor import (
    Tensor,
    _define_backward,
    _make,
    _route,
    clip,
    ensure_tensor,
    exp,
    log,
)

__all__ = [
    "stable_sigmoid",
    "ConvWorkspace",
    "conv_workspace",
    "clear_conv_workspace",
    "conv_workspace_totals",
    "im2col",
    "col2im",
    "conv2d",
    "pool_maxima",
    "max_pool2d",
    "avg_pool2d",
    "upsample_nearest",
    "upsample_conv2d",
    "pixel_shuffle2",
    "interpolate_bilinear",
    "grid_sample",
    "linear",
    "relu",
    "leaky_max",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "bce_with_logits",
    "binary_cross_entropy",
    "mse_loss",
    "l1_loss",
    "batch_norm",
    "update_running_stats",
    "dropout",
]


# ----------------------------------------------------------------------
# Numerically stable sigmoid (plain numpy, no autograd)
# ----------------------------------------------------------------------

def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic on a raw numpy array.

    ``1/(1+exp(-x))`` overflows for large negative ``x`` (an untrained or
    freshly fine-tuned head emits logits well past float32's exp range).
    Clamping to ±60 is exact in float32: σ(60) already rounds to 1.0.
    Shared by :func:`sigmoid`, :func:`bce_with_logits` and the inference
    decode path so every sigmoid in the stack has the same numerics.
    """
    x = np.asarray(x)
    return (1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))).astype(
        np.float32, copy=False
    )


# ----------------------------------------------------------------------
# Conv workspace: reusable pad buffers + one shared column scratch
# ----------------------------------------------------------------------

class ConvWorkspace:
    """Per-thread scratch-buffer cache for the conv path.

    BENCH_hotpath.json attributes ~81% of wall time to conv forwards, and
    a meaningful slice of that is allocator traffic: every call pads the
    input and gathers its K²-times-larger im2col columns. Pad buffers are
    reused across calls, keyed by exact shape/dtype, with a bounded LRU
    so pathological shape churn cannot grow it without limit. The columns
    of every conv, at every shape, share **one** scratch
    (:meth:`scratch`) grown to the largest request: a compiled detector
    holds a plan per batch size, and a column buffer per layer and shape
    would pile up across them.

    Aliasing rule (load-bearing): only buffers that are **consumed
    synchronously** inside one forward/backward call may live here — the
    pad buffer (read by the gather), the column scratch (read by the GEMM
    right after the gather, never captured by a closure) and the backward
    ``grad_cols`` GEMM output (read by :func:`col2im` before the closure
    returns). Anything routed into the autograd graph via ``_route`` is
    staged *by reference* (``tensor._route``), so graph-visible arrays
    must stay per-call allocations — which is why :func:`col2im` still
    allocates its output.

    A single instance is not safe for concurrent use (two threads padding
    into the same cached buffer corrupt each other's windows mid-forward),
    so :func:`conv_workspace` hands out one instance *per thread* via
    ``threading.local`` — each trainer process, ``repro.parallel`` worker,
    and server thread gets its own cache with zero locking on the hot
    path. Invalidate the calling thread's instance explicitly with
    :func:`clear_conv_workspace` (e.g. after a memory-pressure event or
    in tests that count allocations).

    Memory is bounded on two axes: ``max_buffers`` caps the *count* and
    ``max_bytes`` caps the *total size* — a handful of huge pads (one
    full-scale 416² batch pad is tens of MiB) would otherwise stay pinned
    behind the count cap forever. Eviction is LRU on both axes; a single
    buffer or scratch request larger than the whole byte budget is handed
    out but never cached. ``buffer_bytes`` counts the scratch too.

    ``debug=True`` arms the in-flight guards: :meth:`pad` marks its
    buffer checked out until :meth:`pad_release` and :meth:`scratch`
    until :meth:`scratch_release`, and a second request that would alias
    a still-checked-out buffer raises instead of silently overwriting it
    (the documented consume-synchronously rule). The guard is for tests
    and the compiled executors' validation mode; with ``debug=False``
    the release methods skip all tracking.
    """

    def __init__(self, max_buffers: int = 64,
                 max_bytes: int = 256 * 1024 * 1024,
                 debug: bool = False):
        self.max_buffers = max_buffers
        self.max_bytes = max_bytes
        self.debug = debug
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._bytes = 0
        self._buffers: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._scratch = np.empty(0, np.float32)
        # Debug-mode in-flight tracking: pad key set + id(buffer) → key,
        # and whether the scratch is checked out.
        self._in_flight_keys: set = set()
        self._in_flight_ids: dict = {}
        self._scratch_out = False
        with _REGISTRY_LOCK:
            _WORKSPACE_REGISTRY.add(self)

    def buffer(self, key: tuple, shape: Tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """A reusable zero-initialized-at-birth array for ``key``.

        Contents persist between calls — callers must overwrite every
        element they read (or rely on the documented pad-border
        invariant below).
        """
        buf = self._buffers.get(key)
        if buf is not None:
            self._buffers.move_to_end(key)
            self.hits += 1
            return buf
        self.misses += 1
        buf = np.zeros(shape, dtype=dtype)
        if buf.nbytes > self.max_bytes:
            # Oversized for the whole budget: hand it out, cache nothing.
            return buf
        self._buffers[key] = buf
        self._bytes += buf.nbytes
        while len(self._buffers) > 1 and (
                len(self._buffers) > self.max_buffers
                or self._bytes > self.max_bytes):
            _, evicted = self._buffers.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.evictions += 1
        return buf

    def pad(self, tag: str, x: np.ndarray, padding: int) -> np.ndarray:
        """Zero-padded copy of ``x`` through a reusable buffer.

        The borders are written exactly once (at allocation, by
        ``np.zeros``) and never touched again — only the interior is
        overwritten per call, which is what makes reuse cheaper than
        ``np.pad``'s full fresh allocation.
        """
        if padding == 0:
            return x
        n, c, h, w = x.shape
        shape = (n, c, h + 2 * padding, w + 2 * padding)
        if not self.enabled:
            out = np.zeros(shape, dtype=x.dtype)
            out[:, :, padding:-padding, padding:-padding] = x
            return out
        key = ("pad", tag, shape, np.dtype(x.dtype).str)
        buf = self.buffer(key, shape, x.dtype)
        if self.debug:
            if key in self._in_flight_keys:
                raise RuntimeError(
                    f"ConvWorkspace aliasing violation: pad {key!r} requested "
                    f"while a previous pad of the same tag/shape is still in "
                    f"flight — release it with pad_release() before padding "
                    f"again (consume-synchronously rule)")
            self._in_flight_keys.add(key)
            self._in_flight_ids[id(buf)] = key
        buf[:, :, padding:-padding, padding:-padding] = x
        return buf

    def pad_release(self, buf: np.ndarray) -> None:
        """Mark a :meth:`pad` buffer consumed (debug-mode guard only).

        A no-op unless ``debug`` is set; safe to call with arrays that
        never came from :meth:`pad` (e.g. the zero-padding passthrough).
        """
        if not self.debug:
            return
        key = self._in_flight_ids.pop(id(buf), None)
        if key is not None:
            self._in_flight_keys.discard(key)

    def scratch(self, shape: Tuple[int, ...]) -> np.ndarray:
        """A C-contiguous float32 array of ``shape`` over the shared scratch.

        One flat buffer serves every request of every shape: it grows to
        the largest request and is reused until :meth:`clear`. Contents
        are stale — callers overwrite every element they read. A request
        larger than ``max_bytes`` gets a fresh array, never cached.
        """
        size = math.prod(shape)
        if not self.enabled or 4 * size > self.max_bytes:
            return np.empty(shape, np.float32)
        if self.debug:
            if self._scratch_out:
                raise RuntimeError(
                    "ConvWorkspace aliasing violation: column scratch "
                    "requested while it is still checked out — release it "
                    "with scratch_release() first (consume-synchronously "
                    "rule)")
            self._scratch_out = True
        if size > self._scratch.size:
            self.misses += 1
            self._scratch = np.empty(size, np.float32)
        else:
            self.hits += 1
        return self._scratch[:size].reshape(shape)

    def scratch_release(self, buf: np.ndarray) -> None:
        """Mark a :meth:`scratch` array consumed (debug-mode guard only);
        safe to call with arrays that never came from :meth:`scratch`."""
        if self.debug and buf.base is self._scratch:
            self._scratch_out = False

    def columns(self, x: np.ndarray, kernel: int, stride: int,
                padding: int) -> Tuple[np.ndarray, int, int]:
        """:func:`im2col` of ``x`` through the pad cache into the scratch.

        Returns ``(cols, out_h, out_w)``; pass ``cols`` to
        :meth:`scratch_release` once the GEMM has read it. A 1×1
        stride-1 unpadded conv gathers nothing: its columns are ``x``
        itself, reshaped.
        """
        n, c, h, w = x.shape
        if kernel == 1 and stride == 1 and padding == 0:
            return x.reshape(n, c, h * w), h, w
        padded = self.pad("conv", x, padding)
        out_h = (h + 2 * padding - kernel) // stride + 1
        out_w = (w + 2 * padding - kernel) // stride + 1
        cols = self.scratch((n, c * kernel * kernel, out_h * out_w))
        im2col(padded, kernel, stride, out=cols)
        self.pad_release(padded)
        return cols, out_h, out_w

    def clear(self) -> None:
        """Drop every cached buffer and the scratch (explicit invalidation)."""
        self._buffers.clear()
        self._scratch = np.empty(0, np.float32)
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._in_flight_keys.clear()
        self._in_flight_ids.clear()
        self._scratch_out = False

    def stats(self) -> dict:
        return {
            "buffers": len(self._buffers),
            "buffer_bytes": int(self._bytes + self._scratch.nbytes),
            "max_bytes": int(self.max_bytes),
            "evictions": self.evictions,
            "hits": self.hits,
            "misses": self.misses,
        }


_WORKSPACE_TLS = threading.local()
#: Every live workspace across all threads (weakly held), so process-wide
#: memory probes can aggregate buffer bytes without owning the instances.
_REGISTRY_LOCK = threading.Lock()
_WORKSPACE_REGISTRY: "weakref.WeakSet[ConvWorkspace]" = weakref.WeakSet()


def conv_workspace() -> ConvWorkspace:
    """The calling thread's conv scratch workspace (see
    :class:`ConvWorkspace`). Lazily created per thread so concurrent
    forwards (e.g. a serving scheduler next to a trainer) never share
    scratch buffers."""
    workspace = getattr(_WORKSPACE_TLS, "workspace", None)
    if workspace is None:
        workspace = ConvWorkspace()
        _WORKSPACE_TLS.workspace = workspace
    return workspace


def clear_conv_workspace() -> None:
    """Explicitly invalidate the calling thread's conv workspace cache."""
    conv_workspace().clear()


def conv_workspace_totals() -> dict:
    """Aggregate stats over every live workspace in this process.

    Live-telemetry probe target (``LiveTelemetry.add_probe``): flat
    scalars summing buffer count, bytes (column scratch included) and
    hit/miss/eviction counters across all threads' workspaces (including any
    lowered-detector plan caches). Counter reads race benignly with the
    owning threads — probes want a cheap order-of-magnitude snapshot,
    not a barrier.
    """
    with _REGISTRY_LOCK:
        workspaces = list(_WORKSPACE_REGISTRY)
    totals = {"workspaces": len(workspaces), "buffers": 0, "buffer_bytes": 0,
              "hits": 0, "misses": 0, "evictions": 0}
    for ws in workspaces:
        try:
            stats = ws.stats()
        except RuntimeError:  # dict mutated mid-iteration on another thread
            continue
        for key in ("buffers", "buffer_bytes", "hits", "misses", "evictions"):
            totals[key] += stats[key]
    return totals


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------

def im2col(
    x: np.ndarray, kernel: int, stride: int, out: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, int, int]:
    """Gather the sliding ``kernel``×``kernel`` windows of a padded NCHW
    array into columns.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(N, C * kernel * kernel, out_h * out_w)`` with rows in ``(c, ky,
    kx)`` order — an ``(O, C, k, k)`` weight reshaped to ``(O, C·k·k)``
    is its GEMM partner. The k² strided slices of ``x`` are copied into
    ``out``, which must be C-contiguous (a :meth:`ConvWorkspace.scratch`
    view), or into a fresh array when ``out`` is ``None``.
    """
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    if out is None:
        out = np.empty((n, c * kernel * kernel, out_h * out_w), x.dtype)
    windows = out.reshape(n, c, kernel, kernel, out_h, out_w)
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            windows[:, :, ky, kx] = x[:, :, ky:y_max:stride, kx:x_max:stride]
    return out, out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Scatter-add column gradients back to the input layout (im2col adjoint)."""
    n, c, h, w = x_shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols = cols.reshape(n, c, kernel, kernel, out_h, out_w)
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            padded[:, :, ky:y_max:stride, kx:x_max:stride] += cols[:, :, ky, kx]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


# ----------------------------------------------------------------------
# Convolution / pooling / resampling
# ----------------------------------------------------------------------

def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution (cross-correlation) in NCHW layout.

    ``weight`` has shape ``(out_channels, in_channels, k, k)``. The
    forward is the workspace's column gather plus one GEMM; backward
    computes the weight and input gradients as GEMMs in the same column
    layout.
    """
    x, weight = ensure_tensor(x), ensure_tensor(weight)
    n, c, h, w = x.data.shape
    out_c, in_c, kernel, kernel2 = weight.data.shape
    if in_c != c or kernel != kernel2:
        raise ValueError(
            f"conv2d weight {weight.data.shape} incompatible with input {x.data.shape}"
        )
    ws = conv_workspace()
    cols, out_h, out_w = ws.columns(x.data, kernel, stride, padding)
    result = np.matmul(weight.data.reshape(out_c, -1), cols)
    ws.scratch_release(cols)
    result = result.reshape(n, out_c, out_h, out_w)
    if bias is not None:
        result += bias.data.reshape(1, -1, 1, 1)
    parents = (x, weight) + ((bias,) if bias is not None else ())
    out = _make(result, parents)

    def backward(grad, staged):
        grad = np.asarray(grad, dtype=np.float32).reshape(n, out_c, out_h * out_w)
        if weight.requires_grad:
            # Gathered again rather than closed over: the columns are K²×
            # the input and live in the shared scratch, which later convs
            # overwrite.
            cols = ws.columns(x.data, kernel, stride, padding)[0]
            grad_w = np.matmul(grad, cols.transpose(0, 2, 1)).sum(axis=0)
            ws.scratch_release(cols)
            _route(weight, grad_w.reshape(weight.data.shape), staged)
        if x.requires_grad:
            grad_cols = np.matmul(
                weight.data.reshape(out_c, -1).T, grad,
                out=ws.scratch((n, c * kernel * kernel, out_h * out_w)))
            # col2im reads grad_cols synchronously and allocates its own
            # output — the array handed to _route must never be a cached
            # buffer (interior grads are staged by reference).
            _route(x, col2im(grad_cols, x.data.shape, kernel, stride,
                             padding, out_h, out_w), staged)
            ws.scratch_release(grad_cols)
        if bias is not None and bias.requires_grad:
            _route(bias, grad.sum(axis=(0, 2)), staged)

    _define_backward(out, backward)
    return out


def _window(x: np.ndarray, i: int, j: int, stride: int, out_h: int,
            out_w: int) -> np.ndarray:
    """Strided view of the element at offset (i, j) of every pool window."""
    return x[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride]


def pool_maxima(x: np.ndarray, kernel: int, stride: int,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Max over every ``kernel``×``kernel`` window of a padded NCHW array:
    k² strided-slice ``maximum`` passes into ``out`` (fresh when ``None``),
    the kernel of the autodiff :func:`max_pool2d` and of the compiled
    plans' pool. The running max is the *second* operand, which
    ``np.maximum`` returns on a tie, so the first window position wins as
    in ``argmax`` (the sign of a ±0 max). NaN propagates.
    """
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    if out is None:
        out = np.empty((n, c, out_h, out_w), x.dtype)
    np.copyto(out, _window(x, 0, 0, stride, out_h, out_w))
    for i in range(kernel):
        for j in range(kernel):
            if i or j:
                np.maximum(_window(x, i, j, stride, out_h, out_w), out,
                           out=out)
    return out


def max_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None, padding: int = 0) -> Tensor:
    """Max pooling. YOLOv3-tiny uses both stride-2 pools and a final
    stride-1 kernel-2 pool (which needs asymmetric right/bottom padding).
    The backward sends each output's gradient to the first window position
    whose input equals the max (or is NaN), found again from the input.

    The backward has no data-dependent branch (DESIGN.md §8): the first
    position is an ``np.minimum`` over per-offset candidates (the offset
    where the input matches, k² where it does not), and each offset's
    share of the gradient is the upstream gradient's bits ANDed with an
    all-ones or all-zeros mask, i.e. the gradient or +0.0.
    """
    x = ensure_tensor(x)
    stride = stride or kernel
    h, w = x.data.shape[2], x.data.shape[3]
    pad_spec = None
    if stride == 1 and kernel == 2 and padding == 0:
        # Darknet-style "same" pooling: pad one pixel on the bottom/right
        # with -inf so output size equals input size.
        pad_spec = ((0, 0), (0, 0), (0, 1), (0, 1))
    elif stride == 1 and 2 * padding < kernel - 1:
        # Every other under-padded stride-1 config would silently shrink
        # the feature map — the darknet "same" trick is implemented for
        # kernel 2 only, so reject instead of returning the wrong size.
        raise ValueError(
            f"max_pool2d: stride-1 pooling with kernel={kernel}, "
            f"padding={padding} shrinks the feature map; only the darknet "
            f"'same' special case (kernel=2, padding=0) or an explicit "
            f"padding >= (kernel-1)/2 keeps the spatial size")
    elif padding:
        pad_spec = ((0, 0), (0, 0), (padding, padding), (padding, padding))

    def padded() -> np.ndarray:
        if pad_spec is None:
            return x.data
        return np.pad(x.data, pad_spec, constant_values=-np.inf)

    value = pool_maxima(padded(), kernel, stride)
    out_h, out_w = value.shape[2], value.shape[3]
    out = _make(value, (x,))
    if out.data.dtype != value.dtype:
        # _make normalizes float arrays to float32; pooling is a pure
        # selection, so a float64 input must come back float64.
        out.data = value

    def backward(grad, staged):
        data = padded()
        bits = np.asarray(grad, dtype=np.float32).view(np.uint32)
        # The first window position (row-major) equal to the max, with a
        # NaN counting as equal: the position argmax would pick.
        windows = kernel * kernel
        offset = np.min_scalar_type(windows).type
        first = np.full(value.shape, windows, offset)
        match = np.empty(value.shape, bool)
        for index in range(windows):
            view = _window(data, *divmod(index, kernel), stride, out_h, out_w)
            np.equal(view, value, out=match)
            match |= np.isnan(view)
            np.minimum(first, offset(windows)
                       - match.view(np.uint8) * offset(windows - index),
                       out=first)
        # Reversed offsets add each input's contributions in increasing
        # output order, so overlapping (stride-1) windows sum in the same
        # order as a scatter-add over the outputs. An output's gradient
        # reaches only its first position; the others add +0.0.
        grad_padded = np.zeros(data.shape, dtype=np.float32)
        share = np.empty(value.shape, np.uint32)
        for index in reversed(range(windows)):
            np.equal(first, index, out=match)
            np.negative(match, out=share, dtype=np.uint32)
            share &= bits
            view = _window(grad_padded, *divmod(index, kernel), stride,
                           out_h, out_w)
            view += share.view(np.float32)
        if pad_spec is not None:
            top, left = pad_spec[2][0], pad_spec[3][0]
            grad_padded = grad_padded[:, :, top:top + h, left:left + w]
        _route(x, grad_padded, staged)

    _define_backward(out, backward)
    return out


def avg_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Average pooling (used by the discriminator's downsampling path)."""
    x = ensure_tensor(x)
    stride = stride or kernel
    cols, out_h, out_w = im2col(x.data, kernel, stride)
    n, c = x.data.shape[:2]
    cols = cols.reshape(n, c, kernel * kernel, out_h * out_w)
    out = _make(cols.mean(axis=2).reshape(n, c, out_h, out_w), (x,))

    def backward(grad, staged):
        grad = np.asarray(grad, dtype=np.float32) / (kernel * kernel)
        grad_cols = np.repeat(
            grad.reshape(n, c, 1, out_h * out_w), kernel * kernel, axis=2
        ).reshape(n, c * kernel * kernel, out_h * out_w)
        _route(x, col2im(grad_cols, x.data.shape, kernel, stride, 0, out_h, out_w), staged)

    _define_backward(out, backward)
    return out


def upsample_nearest(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour upsampling (the YOLO route path). The GAN
    generator's upsample + conv blocks use :func:`upsample_conv2d`,
    which never builds the upsampled map."""
    x = ensure_tensor(x)
    out = _make(
        x.data.repeat(scale, axis=2).repeat(scale, axis=3), (x,)
    )
    n, c, h, w = x.data.shape

    def backward(grad, staged):
        grad = np.asarray(grad, dtype=np.float32)
        grad = grad.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5))
        _route(x, grad, staged)

    _define_backward(out, backward)
    return out


def _subpixel_taps() -> np.ndarray:
    """The ``(4, 9, 4)`` 0/1 map from a 3×3 kernel to its four 2×2 phase
    kernels: entry ``[(a, b), (ky, kx), (ey, ex)]`` is 1 when, in output
    phase (a, b), tap (ky, kx) reads offset (ey, ex) of the phase's 2×2
    window.

    Fine output row ``2i + a`` reads upsampled rows ``2i + a + ky − 1``,
    i.e. coarse rows ``i + (a + ky − 1) // 2``: phase 0 reads coarse rows
    (i − 1, i) with taps (w₀, w₁+w₂), phase 1 rows (i, i + 1) with taps
    (w₀+w₁, w₂). On the pad-1 coarse map that is the 2×2 window starting
    at row ``i + a``, and tap ky lands on ``ey = (a + ky + 1) // 2 − a``.
    Columns follow the same rule. The other 5 of the 3×3 taps are always
    zero, so they are not computed at all.
    """
    taps = np.zeros((2, 3, 2), np.float32)  # (a, ky, ey)
    for a in range(2):
        for ky in range(3):
            taps[a, ky, (a + ky + 1) // 2 - a] = 1.0
    return (taps[:, None, :, None, :, None]
            * taps[None, :, None, :, None, :]).reshape(4, 9, 4)


_SUBPIXEL_TAPS = _subpixel_taps()


def upsample_conv2d(x: Tensor, weight: Tensor) -> Tensor:
    """``conv2d(upsample_nearest(x, 2), weight, padding=1)`` for a 3×3
    ``weight``, computed on the coarse map.

    Each of the four output phases (row parity a, column parity b) is a
    2×2 conv of the pad-1 coarse map with a kernel whose taps are sums of
    ``weight`` taps (:func:`_subpixel_taps`). One pad-1 :func:`conv2d`
    with the 4·O phase kernels computes every phase on the
    ``(H+1)×(W+1)`` window grid, and :func:`pixel_shuffle2` reads phase
    (a, b) at window offset (a, b). Exact up to float32 rounding of the
    summed taps. The GEMMs do 4/9 of the upsampled conv's multiply-adds
    (plus the one extra window row and column), the column gather and its
    backward scatter cover a quarter of the pixels, and no upsampled map
    is built. Built from autodiff ops, so the backward comes for free.
    """
    x, weight = ensure_tensor(x), ensure_tensor(weight)
    out_c, in_c, kh, kw = weight.shape
    if (kh, kw) != (3, 3):
        raise ValueError(f"upsample_conv2d needs a 3×3 kernel, got {weight.shape}")
    # (O, 1, C, 9) @ (4, 9, 4) -> (O, 4, C, 4): output channel o·4 + 2a + b.
    phases = weight.reshape(out_c, 1, in_c, 9) @ _SUBPIXEL_TAPS
    return pixel_shuffle2(conv2d(x, phases.reshape(4 * out_c, in_c, 2, 2), padding=1))


def pixel_shuffle2(y: Tensor) -> Tensor:
    """Interleave ``(N, 4·O, H+1, W+1)`` phase window maps into
    ``(N, O, 2H, 2W)``: pixel ``(2i + a, 2j + b)`` of channel o is window
    ``(i + a, j + b)`` of channel ``o·4 + 2a + b``.

    Four strided-slice copies each way; a reshape → 6-D transpose →
    reshape chain moves the same bytes about 3× slower, because its inner
    loop runs over the length-2 column phase. The backward leaves the
    window row and column each phase does not read at zero.
    """
    y = ensure_tensor(y)
    n, channels, h1, w1 = y.shape
    h, w, out_c = h1 - 1, w1 - 1, channels // 4
    value = np.empty((n, out_c, 2 * h, 2 * w), dtype=y.data.dtype)
    phases = y.data.reshape(n, out_c, 4, h1, w1)
    for a in range(2):
        for b in range(2):
            value[:, :, a::2, b::2] = phases[:, :, 2 * a + b, a:a + h, b:b + w]
    out = _make(value, (y,))

    def backward(grad, staged):
        grad = np.asarray(grad)
        grad_y = np.zeros((n, out_c, 4, h1, w1), dtype=grad.dtype)
        for a in range(2):
            for b in range(2):
                grad_y[:, :, 2 * a + b, a:a + h, b:b + w] = grad[:, :, a::2, b::2]
        _route(y, grad_y.reshape(n, channels, h1, w1), staged)

    _define_backward(out, backward)
    return out


def interpolate_bilinear(x: Tensor, size: Tuple[int, int]) -> Tensor:
    """Differentiable bilinear resize of an NCHW tensor to ``size``.

    This is the EOT *resize* trick: patch gradients must survive the resize
    so the generator learns scale-robust patterns.
    """
    x = ensure_tensor(x)
    n, c, h, w = x.data.shape
    out_h, out_w = size
    if (out_h, out_w) == (h, w):
        return x
    # align_corners=False convention (matches torch default).
    ys = (np.arange(out_h, dtype=np.float32) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float32) + 0.5) * (w / out_w) - 0.5
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0).astype(np.float32)
    wx = (xs - x0).astype(np.float32)

    def gather(iy, ix):
        return x.data[:, :, iy[:, None], ix[None, :]]

    top = gather(y0, x0) * (1 - wx)[None, None, None, :] + gather(y0, x1) * wx[None, None, None, :]
    bottom = gather(y1, x0) * (1 - wx)[None, None, None, :] + gather(y1, x1) * wx[None, None, None, :]
    value = top * (1 - wy)[None, None, :, None] + bottom * wy[None, None, :, None]
    out = _make(value.astype(np.float32), (x,))

    def backward(grad, staged):
        # Each corner scatters with one flat np.add.at over every plane,
        # pixels in row-major order within a plane and corners in the
        # order 00, 01, 10, 11: the order the per-plane scatter used.
        grad = np.asarray(grad, dtype=np.float32)
        grad_x = np.zeros(x.data.shape, x.data.dtype)
        planes = (np.arange(n * c, dtype=np.intp) * (h * w))[:, None]
        for weight_map, rows, cols in (
            ((1 - wy)[:, None] * (1 - wx)[None, :], y0, x0),
            ((1 - wy)[:, None] * wx[None, :], y0, x1),
            (wy[:, None] * (1 - wx)[None, :], y1, x0),
            (wy[:, None] * wx[None, :], y1, x1),
        ):
            index = (rows[:, None] * w + cols[None, :]).reshape(1, -1) + planes
            np.add.at(grad_x.reshape(-1), index.reshape(-1),
                      (grad * weight_map[None, None]).reshape(-1))
        _route(x, grad_x, staged)

    _define_backward(out, backward)
    return out


def grid_sample(x: Tensor, grid: np.ndarray, padding_value: float = 0.0) -> Tensor:
    """Sample ``x`` at normalized grid locations with bilinear interpolation.

    ``grid`` holds one ``(out_h, out_w, 2)`` map of (x, y) coordinates in
    ``[-1, 1]`` (the torch convention) per output instance: ``(B, out_h,
    out_w, 2)``. ``x`` is ``(B, C, H, W)``, instance b sampling source b,
    or ``(1, C, H, W)``, one source that every instance samples.
    Out-of-range samples read ``padding_value``. Gradients flow to ``x``
    only; the EOT grids are sampled transformation parameters, never
    learned (documented substitution).

    Each corner is gathered through one flat index into the source padded
    by one pixel of ``padding_value``; an out-of-range corner is clamped
    onto that border, so it reads the padding itself. The backward
    scatters each corner's contributions with a flat ``np.add.at`` into
    one buffer per instance, corners in the order 00, 01, 10, 11 and
    pixels in row-major order, and a shared source receives the sum of
    its instances' buffers.

    Non-finite input (DESIGN.md §17): a NaN or ±inf source pixel reaches
    only the samples with a corner on it (an inf read at zero weight
    gives NaN, inf·0), never an out-of-range sample; a −0.0 source pixel
    can come out as −0.0. A non-finite grid coordinate reads the border
    at NaN weight, so its sample is NaN.
    """
    x = ensure_tensor(x)
    n, c, h, w = x.data.shape
    grid = np.asarray(grid, dtype=np.float32)
    b = grid.shape[0]
    if grid.ndim != 4 or grid.shape[-1] != 2 or n not in (1, b):
        raise ValueError(f"grid shape {grid.shape} incompatible with input {x.data.shape}")
    out_h, out_w = grid.shape[1], grid.shape[2]
    hp, wp = h + 2, w + 2
    plane = hp * wp
    source = np.full((n, c, hp, wp), padding_value, np.float32)
    source[:, :, 1:-1, 1:-1] = x.data

    gx = ((grid[..., 0] + 1) * 0.5 * (w - 1)).reshape(b, 1, out_h * out_w)
    gy = ((grid[..., 1] + 1) * 0.5 * (h - 1)).reshape(b, 1, out_h * out_w)
    fx, fy = np.floor(gx), np.floor(gy)
    wx, wy = gx - fx, gy - fy
    # Padded coordinates of each corner pair, clamped onto the border
    # (fmax/fmin send NaN there too).
    col0, col1, row0, row1 = (
        np.fmin(np.fmax(f + shift, 0), limit).astype(np.intp)
        for f, shift, limit in ((fx, 1, w + 1), (fx, 2, w + 1),
                                (fy, 1, h + 1), (fy, 2, h + 1)))
    row0 *= wp
    row1 *= wp
    corners = ((row0 + col0, (1 - wy) * (1 - wx)),
               (row0 + col1, (1 - wy) * wx),
               (row1 + col0, wy * (1 - wx)),
               (row1 + col1, wy * wx))
    # Plane offsets: source planes for the gather, one plane per instance
    # and channel for the backward's buffer.
    out_planes = (np.arange(b * c, dtype=np.intp) * plane).reshape(b, c, 1)
    src_planes = out_planes if n == b else out_planes[:1]
    flat = source.reshape(-1)
    value = None
    for index, weight in corners:
        term = np.take(flat, index + src_planes) * weight
        value = term if value is None else value + term
    out = _make(value.reshape(b, c, out_h, out_w), (x,))

    def backward(grad, staged):
        grad = np.asarray(grad, dtype=np.float32).reshape(b, c, out_h * out_w)
        buffer = np.zeros(b * c * plane, np.float32)
        for index, weight in corners:
            np.add.at(buffer, (index + out_planes).reshape(-1),
                      (grad * weight).reshape(-1))
        grad_x = buffer.reshape(b, c, hp, wp)[:, :, 1:-1, 1:-1]
        if n == b:
            grad_x = np.ascontiguousarray(grad_x)
        else:
            grad_x = grad_x.sum(axis=0, keepdims=True)
        _route(x, grad_x, staged)

    _define_backward(out, backward)
    return out


# ----------------------------------------------------------------------
# Dense / activations
# ----------------------------------------------------------------------

def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with ``weight`` shaped (out, in)."""
    x, weight = ensure_tensor(x), ensure_tensor(weight)
    result = x.data @ weight.data.T
    if bias is not None:
        result = result + bias.data
    parents = (x, weight) + ((bias,) if bias is not None else ())
    out = _make(result, parents)

    def backward(grad, staged):
        grad = np.asarray(grad, dtype=np.float32)
        _route(x, grad @ weight.data, staged)
        if weight.requires_grad:
            _route(weight, grad.reshape(-1, grad.shape[-1]).T @ x.data.reshape(-1, x.data.shape[-1]), staged)
        if bias is not None and bias.requires_grad:
            _route(bias, grad.reshape(-1, grad.shape[-1]).sum(axis=0), staged)

    _define_backward(out, backward)
    return out


def relu(x: Tensor) -> Tensor:
    x = ensure_tensor(x)
    mask = x.data > 0
    out = _make(x.data * mask, (x,))

    def backward(grad, staged):
        _route(x, np.asarray(grad) * mask, staged)

    _define_backward(out, backward)
    return out


def leaky_max(y: np.ndarray, slope: float, out: Optional[np.ndarray] = None,
              scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Leaky ReLU as ``max(y, slope·y)`` into ``out`` (``slope·y`` goes to
    ``scratch``; both default to one fresh array), the kernel of the
    autodiff :func:`leaky_relu` and of the compiled plans' conv epilogue.

    Bit-equal to ``where(y > 0, y, slope·y)`` only for 0 < slope ≤ 1 (at
    slope 0, ``0·inf`` is NaN), so other slopes raise ``ValueError``.
    ``slope`` multiplies as given: a Python float keeps float64 products
    float64.
    """
    if not 0.0 < slope <= 1.0:
        raise ValueError(f"leaky_max needs 0 < slope <= 1, got {slope}")
    scaled = np.multiply(y, slope, out=scratch)
    return np.maximum(y, scaled, out=scaled if out is None else out)


def leaky_relu(x: Tensor, slope: float = 0.1) -> Tensor:
    """Leaky ReLU with darknet's default slope of 0.1 (:func:`leaky_max`,
    so 0 < slope ≤ 1).

    The backward multiplies the gradient by ``max(x > 0, slope)`` in
    float32: 1 or the slope, with no data-dependent branch (DESIGN.md
    §8). ``grad·1`` is ``grad`` bit for bit, so this equals ``where(x >
    0, grad, slope·grad)``.
    """
    x = ensure_tensor(x)
    out = _make(leaky_max(x.data, slope), (x,))

    def backward(grad, staged):
        factor = np.maximum(x.data > 0, slope, dtype=np.float32)
        _route(x, np.multiply(np.asarray(grad, dtype=np.float32), factor,
                              out=factor), staged)

    _define_backward(out, backward)
    return out


def sigmoid(x: Tensor) -> Tensor:
    x = ensure_tensor(x)
    value = stable_sigmoid(x.data)
    out = _make(value, (x,))

    def backward(grad, staged):
        _route(x, np.asarray(grad) * value * (1 - value), staged)

    _define_backward(out, backward)
    return out


def tanh(x: Tensor) -> Tensor:
    x = ensure_tensor(x)
    value = np.tanh(x.data)
    out = _make(value, (x,))

    def backward(grad, staged):
        _route(x, np.asarray(grad) * (1 - value * value), staged)

    _define_backward(out, backward)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = ensure_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    value = e / e.sum(axis=axis, keepdims=True)
    out = _make(value.astype(np.float32), (x,))

    def backward(grad, staged):
        grad = np.asarray(grad, dtype=np.float32)
        dot = (grad * value).sum(axis=axis, keepdims=True)
        _route(x, value * (grad - dot), staged)

    _define_backward(out, backward)
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = ensure_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    value = shifted - log_z
    out = _make(value.astype(np.float32), (x,))
    soft = np.exp(value)

    def backward(grad, staged):
        grad = np.asarray(grad, dtype=np.float32)
        _route(x, grad - soft * grad.sum(axis=axis, keepdims=True), staged)

    _define_backward(out, backward)
    return out


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------

def cross_entropy(logits: Tensor, target: np.ndarray, axis: int = -1) -> Tensor:
    """Mean cross-entropy of integer class targets against logits.

    This is the :math:`\\ell` of the paper's Eq. 2 — the attack drives the
    detector's class logits toward the attacker's target class ``t``.
    """
    logits = ensure_tensor(logits)
    target = np.asarray(target)
    log_probs = log_softmax(logits, axis=axis)
    if axis != -1 and axis != logits.data.ndim - 1:
        raise ValueError("cross_entropy currently supports the last axis only")
    flat = log_probs.reshape((-1, logits.data.shape[-1]))
    index = (np.arange(flat.data.shape[0]), target.reshape(-1))
    picked = flat[index]
    return -picked.mean()


def bce_with_logits(logits: Tensor, target, weight=None) -> Tensor:
    """Numerically stable binary cross-entropy on logits (mean-reduced)."""
    logits = ensure_tensor(logits)
    target = np.asarray(target, dtype=np.float32)
    x = logits.data
    value = np.maximum(x, 0) - x * target + np.log1p(np.exp(-np.abs(x)))
    if weight is not None:
        weight = np.asarray(weight, dtype=np.float32)
        value = value * weight
    out = _make(np.asarray(value.mean(), dtype=np.float32), (logits,))
    count = value.size

    def backward(grad, staged):
        grad = np.asarray(grad, dtype=np.float32)
        sig = stable_sigmoid(x)
        local = (sig - target) / count
        if weight is not None:
            local = local * weight
        _route(logits, grad * local, staged)

    _define_backward(out, backward)
    return out


def binary_cross_entropy(probs: Tensor, target, eps: float = 1e-7) -> Tensor:
    """BCE on probabilities (used by the GAN loss in Eq. 1)."""
    probs = ensure_tensor(probs)
    target = np.asarray(target, dtype=np.float32)
    p = clip(probs, eps, 1.0 - eps)
    loss = -(target * log(p) + (1.0 - target) * log(1.0 - p))
    return loss.mean()


def mse_loss(prediction: Tensor, target) -> Tensor:
    prediction = ensure_tensor(prediction)
    target = np.asarray(target, dtype=np.float32) if not isinstance(target, Tensor) else target
    diff = prediction - target
    return (diff * diff).mean()


def l1_loss(prediction: Tensor, target) -> Tensor:
    prediction = ensure_tensor(prediction)
    target = np.asarray(target, dtype=np.float32) if not isinstance(target, Tensor) else target
    return (prediction - target).abs().mean()


# ----------------------------------------------------------------------
# Normalization / regularization
# ----------------------------------------------------------------------

def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
    batch_stats: Optional[list] = None,
) -> Tensor:
    """Batch normalization over an NCHW tensor's (N, H, W) axes.

    When ``training`` is true, batch statistics are used and the running
    buffers are updated in place; at inference the running buffers are used,
    matching darknet/torch semantics. A training-mode forward stores its
    batch mean and unbiased variance, the operands of that update, in a
    ``batch_stats`` list, so :func:`repro.nn.replay_running_update` can
    apply the same update again.

    The forward normalizes in one buffer, in place, as
    ``((x − μ)·(1/σ))·γ + β``; in training mode the batch variance is
    the mean square of that centred buffer, the sum, subtract, square,
    sum, divide ``ndarray.var`` computes. The backward recomputes x̂ from
    ``x`` and this forward's μ and 1/σ (eval mode copies the running
    mean, which a later training-mode forward updates in place), only
    when γ needs a gradient or batch statistics were used. It then works
    in place in x̂, one product buffer and ``g = grad·γ``, in the
    out-of-place formula's order of operations and dtypes: with a float64
    input, ``g − Σg/m`` is float32 and the rest float64 (DESIGN.md §8).
    """
    x = ensure_tensor(x)
    axes = (0, 2, 3)
    count = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
    mean = x.data.mean(axis=axes) if training else running_mean.copy()
    value = x.data - mean.reshape(1, -1, 1, 1)
    if training:
        var = np.square(value).sum(axis=axes)
        np.true_divide(var, np.intp(count), out=var, casting="unsafe")
        unbiased = var * count / max(count - 1, 1)
        update_running_stats(running_mean, running_var, mean, unbiased, momentum)
        if batch_stats is not None:
            batch_stats[:] = (mean, unbiased)
    else:
        var = running_var
    mean = mean.reshape(1, -1, 1, 1)
    inv_std = (1.0 / np.sqrt(var + eps)).reshape(1, -1, 1, 1)
    value *= inv_std
    value *= gamma.data.reshape(1, -1, 1, 1)
    value += beta.data.reshape(1, -1, 1, 1)
    out = _make(value, (x, gamma, beta))

    def backward(grad, staged):
        grad = np.asarray(grad, dtype=np.float32)
        product = None
        if gamma.requires_grad or training:
            x_hat = x.data - mean
            x_hat *= inv_std
        if gamma.requires_grad:
            product = np.multiply(grad, x_hat)
            _route(gamma, product.sum(axis=axes), staged)
        if beta.requires_grad:
            _route(beta, grad.sum(axis=axes), staged)
        if x.requires_grad:
            g = grad * gamma.data.reshape(1, -1, 1, 1)
            if training:
                # inv_std · (g − Σg/m − x̂·Σ(g·x̂)/m), evaluated into x̂.
                sum_g = g.sum(axis=axes, keepdims=True)
                sum_gx = np.multiply(g, x_hat, out=product).sum(
                    axis=axes, keepdims=True)
                g -= sum_g / count
                x_hat *= sum_gx
                x_hat /= count
                grad_x = np.subtract(g, x_hat, out=x_hat)
                np.multiply(inv_std, grad_x, out=grad_x)
            else:
                grad_x = np.multiply(g, inv_std, out=g)
            _route(x, grad_x, staged)

    _define_backward(out, backward)
    return out


def update_running_stats(running_mean: np.ndarray, running_var: np.ndarray,
                         mean: np.ndarray, unbiased: np.ndarray,
                         momentum: float) -> None:
    """A training-mode :func:`batch_norm`'s running update, in place:
    ``r ← (1 − m)·r + m·s`` for the mean and the unbiased variance."""
    running_mean *= 1 - momentum
    running_mean += momentum * mean
    running_var *= 1 - momentum
    running_var += momentum * unbiased


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity at inference."""
    if not training or rate <= 0.0:
        return ensure_tensor(x)
    x = ensure_tensor(x)
    keep = 1.0 - rate
    mask = (rng.random(x.data.shape) < keep).astype(np.float32) / keep
    out = _make(x.data * mask, (x,))

    def backward(grad, staged):
        _route(x, np.asarray(grad) * mask, staged)

    _define_backward(out, backward)
    return out
