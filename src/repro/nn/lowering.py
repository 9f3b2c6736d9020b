"""Eval-time graph lowering for the frozen YOLOv3-tiny detector.

The inference hot path spends ~81% of its wall time in ``forward``
(``BENCH_hotpath.json``). For a *frozen* detector — eval mode, running
batch-norm statistics, no gradients — most of the per-layer work the
training graph does is pure overhead: batch-norm is an affine map that
can be folded into the conv weights, the leaky-ReLU is a two-op epilogue
that never needs its own graph node, and every buffer can be sized once
instead of per call.

:class:`LoweredDetector` (built by ``TinyYolo.lower()``) runs a one-shot
compile pass over an eval-mode detector:

* **BN folding** — each ``ConvBlock``'s batch-norm is folded into the
  conv weights/bias (:func:`fold_conv_bn`): ``w' = w·γ/√(σ²+ε)``,
  ``b' = β − μ·γ/√(σ²+ε)``. One GEMM replaces GEMM + 4 normalization
  passes. Folding reassociates float32 products, so lowered activations
  match the reference within :data:`LOWERING_ATOL` per layer rather than
  bit-exactly (the parity oracle checks both this and end-to-end
  detection-trace identity).
* **Fused epilogue** — bias add and leaky-ReLU run in place on the conv
  output buffer (``max(y, slope·y)``), no intermediate tensors.
* **Plan cache** — the lowered graph owns a private
  :class:`~repro.nn.functional.ConvWorkspace` and compiles one
  :class:`_Plan` per input batch shape: one executor per node of the
  source model's :class:`~repro.nn.graph.Graph`, output buffers
  pre-sized once. Every conv is the shared im2col gather into the
  workspace's column scratch plus one GEMM
  (``ConvWorkspace.columns``); 1×1 convs skip the gather and multiply
  their input directly. Re-running the same shape does zero allocation.
  Pads and columns go through the workspace so the debug-mode in-flight
  guard can prove the executor never aliases a live buffer.

The result is a :class:`LoweredDetector` with the same ``forward``
contract as :class:`~repro.detection.model.TinyYolo` — ``(coarse, fine)``
head tensors — accepted everywhere a detector flows today
(``batched_detections``, ``AvPipeline``, the eval protocol, the serving
backends). It is strictly inference-only: it refuses gradient-tracked
inputs and cannot be put back into training mode.
"""

from __future__ import annotations

from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

import numpy as np

from .functional import ConvWorkspace, leaky_max, pool_maxima
from .graph import INPUT, Graph, Node
from .tensor import Tensor, is_grad_enabled, no_grad

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .layers import BatchNorm2d, Conv2d, ConvBlock

__all__ = [
    "LOWERING_ATOL",
    "fold_conv_bn",
    "FusedConvSpec",
    "LoweredDetector",
    "layer_parity",
]

#: Documented per-layer tolerance of the lowering parity oracle.
#:
#: BN folding computes ``(w·s)·x + b`` where eval-mode batch-norm computes
#: ``s·(w·x) + b`` — the same real-valued function, associated differently
#: in float32. With feature magnitudes O(1–10) and ≤ 9·C products per
#: output, the reassociation error stays well below 1e-4 absolute at every
#: layer (measured ~1e-6..1e-5 on the bench scenario); discrete outcomes
#: (detection counts, classes, NMS order, planner actions) are required to
#: match exactly on top of this.
LOWERING_ATOL = 1e-4


# ----------------------------------------------------------------------
# Folding
# ----------------------------------------------------------------------

def fold_conv_bn(conv: "Conv2d", bn: "BatchNorm2d") -> Tuple[np.ndarray, np.ndarray]:
    """Fold eval-mode batch-norm into conv weights and bias.

    Eval-mode BN is the per-channel affine ``y = γ·(x−μ)/√(σ²+ε) + β``
    over the conv output ``x = w∗input (+ b)``. Returns ``(weight, bias)``
    with ``weight' = w·scale`` and ``bias' = (b−μ)·scale + β`` where
    ``scale = γ/√(σ²+ε)`` — so ``weight'∗input + bias'`` equals the
    original conv→BN composition on the running statistics.
    """
    scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
    weight = (conv.weight.data * scale[:, None, None, None]).astype(np.float32)
    bias = conv.bias.data if conv.bias is not None else 0.0
    bias = ((bias - bn.running_mean) * scale + bn.beta.data).astype(np.float32)
    return weight, bias


class FusedConvSpec:
    """One lowered conv layer: folded weights + fused epilogue.

    ``slope`` is the leaky-ReLU slope of the fused activation, or ``None``
    for a linear head conv. Shape-independent — per-shape buffers live in
    the :class:`_Plan` entries built from this spec.
    """

    __slots__ = ("name", "weight", "weight_2d", "bias_col", "kernel",
                 "stride", "padding", "out_channels", "slope")

    def __init__(self, name: str, weight: np.ndarray, bias: np.ndarray,
                 stride: int, padding: int, slope: Optional[float]):
        self.name = name
        self.weight = np.ascontiguousarray(weight, dtype=np.float32)
        self.out_channels, _, self.kernel, _ = weight.shape
        #: (O, C) matrix for the 1×1 direct-GEMM fast path.
        self.weight_2d = self.weight.reshape(self.out_channels, -1)
        #: Bias pre-shaped for in-place broadcast onto an (N, O, H, W) buffer.
        self.bias_col = np.ascontiguousarray(
            bias, dtype=np.float32).reshape(1, -1, 1, 1)
        self.stride = stride
        self.padding = padding
        self.slope = slope

    @classmethod
    def from_block(cls, name: str, block: "ConvBlock") -> "FusedConvSpec":
        weight, bias = fold_conv_bn(block.conv, block.bn)
        return cls(name, weight, bias, block.conv.stride,
                   block.conv.padding, block.act.slope)

    @classmethod
    def from_conv(cls, name: str, conv: "Conv2d") -> "FusedConvSpec":
        bias = (conv.bias.data if conv.bias is not None
                else np.zeros(conv.weight.data.shape[0], dtype=np.float32))
        return cls(name, conv.weight.data, bias, conv.stride,
                   conv.padding, slope=None)


# ----------------------------------------------------------------------
# Per-shape executors (plan entries)
# ----------------------------------------------------------------------

class _ConvExec:
    """One fused conv at one input shape: im2col → GEMM → epilogue.

    The output buffers are pre-sized through the plan's workspace at
    build time and the columns go through its shared scratch, so ``run``
    allocates nothing once the scratch has grown to the largest layer.
    """

    __slots__ = ("spec", "ws", "out", "tmp")

    def __init__(self, spec, in_shape: Tuple[int, ...],
                 ws: ConvWorkspace):
        self.spec = spec
        self.ws = ws
        n, _, h, w = in_shape
        k, p, s = spec.kernel, spec.padding, spec.stride
        out_shape = (n, spec.out_channels, (h + 2 * p - k) // s + 1,
                     (w + 2 * p - k) // s + 1)
        self.out = ws.buffer(("conv.out", spec.name, out_shape), out_shape)
        self.tmp = (ws.buffer(("conv.tmp", spec.name, out_shape), out_shape)
                    if spec.slope is not None else None)

    def run(self, x: np.ndarray) -> np.ndarray:
        spec = self.spec
        cols = self.ws.columns(x, spec.kernel, spec.stride, spec.padding)[0]
        np.matmul(spec.weight_2d, cols,
                  out=self.out.reshape(cols.shape[0], spec.out_channels, -1))
        self.ws.scratch_release(cols)
        return self.epilogue()

    def epilogue(self) -> np.ndarray:
        """Bias add and leaky ReLU (:func:`leaky_max`, the autodiff
        ``leaky_relu``'s kernel), in place on the output buffer."""
        out, spec = self.out, self.spec
        out += spec.bias_col
        if spec.slope is not None:
            leaky_max(out, spec.slope, out=out, scratch=self.tmp)
        return out


class _PoolExec:
    """Stride-2 (or darknet stride-1 'same') max pool into a pre-sized
    buffer.

    Runs :func:`pool_maxima`, the kernel of the autodiff ``max_pool2d``:
    k² shifted-slice ``maximum`` passes (a tuple-axis ``max`` over the
    strided 6-D window view is ~10× slower: it loses the contiguous inner
    loop).
    """

    __slots__ = ("kernel", "stride", "out", "padbuf")

    def __init__(self, node: Node, ws: ConvWorkspace,
                 in_shape: Tuple[int, ...]):
        kernel, stride = node.args
        self.kernel, self.stride = kernel, stride
        n, c, h, w = in_shape
        self.padbuf = None
        if stride == 1:
            if kernel != 2:
                raise ValueError("lowered same-pool supports kernel=2 only")
            # Darknet 'same' pool: one -inf pixel on the bottom/right.
            # Borders are written once here and never touched again.
            self.padbuf = ws.buffer(("lowered.pool_pad", node.name,
                                     (n, c, h + 1, w + 1)), (n, c, h + 1, w + 1))
            self.padbuf[:, :, h, :] = -np.inf
            self.padbuf[:, :, :, w] = -np.inf
            out_shape = (n, c, h, w)
        else:
            out_shape = (n, c, (h - kernel) // stride + 1,
                         (w - kernel) // stride + 1)
        self.out = ws.buffer(("lowered.pool_out", node.name, out_shape),
                             out_shape)

    def run(self, x: np.ndarray) -> np.ndarray:
        if self.padbuf is not None:
            self.padbuf[:, :, :x.shape[2], :x.shape[3]] = x
            x = self.padbuf
        return pool_maxima(x, self.kernel, self.stride, out=self.out)


class _UpsampleExec:
    """Nearest-neighbour upsample via broadcast assignment."""

    __slots__ = ("out", "scale")

    def __init__(self, node: Node, ws: ConvWorkspace,
                 in_shape: Tuple[int, ...]):
        n, c, h, w = in_shape
        (self.scale,) = node.args
        out_shape = (n, c, h * self.scale, w * self.scale)
        self.out = ws.buffer(("lowered.up", node.name, out_shape), out_shape)

    def run(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        s = self.scale
        self.out.reshape(n, c, h, s, w, s)[...] = x[:, :, :, None, :, None]
        return self.out


class _ConcatExec:
    """Channel concatenation into a pre-sized buffer."""

    __slots__ = ("out", "offsets")

    def __init__(self, node: Node, ws: ConvWorkspace,
                 *in_shapes: Tuple[int, ...]):
        n, _, h, w = in_shapes[0]
        self.offsets = (0, *accumulate(shape[1] for shape in in_shapes))
        out_shape = (n, self.offsets[-1], h, w)
        self.out = ws.buffer(("lowered.cat", node.name, out_shape), out_shape)

    def run(self, *parts: np.ndarray) -> np.ndarray:
        for start, stop, part in zip(self.offsets, self.offsets[1:], parts):
            self.out[:, start:stop] = part
        return self.out


#: Executor class of each unweighted op.
_SHAPE_EXECS = {"pool": _PoolExec, "upsample": _UpsampleExec,
                "concat": _ConcatExec}


class _Plan:
    """Compiled execution plan of a detector graph for one input shape.

    One pre-sized executor per graph node, run by the graph interpreter.
    ``conv_exec`` is the executor class of the ``conv`` nodes — the int8
    plans of :mod:`repro.nn.quant` pass their own; ``head`` nodes always
    run the fp :class:`_ConvExec`.
    """

    def __init__(self, graph: Graph, specs: Dict[str, FusedConvSpec],
                 in_shape: Tuple[int, ...], ws: ConvWorkspace, conv_exec):
        self.graph = graph
        self.execs = {}
        shapes = {INPUT: in_shape}
        for node in graph.nodes:
            inputs = [shapes[name] for name in node.inputs]
            if node.op == "conv":
                exec_ = conv_exec(specs[node.name], inputs[0], ws)
            elif node.op == "head":
                exec_ = _ConvExec(specs[node.name], inputs[0], ws)
            else:
                exec_ = _SHAPE_EXECS[node.op](node, ws, *inputs)
            self.execs[node.name] = exec_
            shapes[node.name] = exec_.out.shape

    def run_node(self, node: Node, *inputs: np.ndarray) -> np.ndarray:
        return self.execs[node.name].run(*inputs)

    def run(self, x: np.ndarray,
            hook: Optional[Callable] = None) -> Tuple[np.ndarray, ...]:
        """Execute the plan; returns the head output buffers. ``hook(name,
        input, output)`` observes every conv and head (the parity oracle
        records outputs, calibration records inputs); ``None`` costs
        nothing on the hot path."""
        return self.graph.run(x, self.run_node, hook)


# ----------------------------------------------------------------------
# Public surface
# ----------------------------------------------------------------------

class CompiledDetector:
    """Shared machinery of the compiled (inference-only) detector views.

    Both plan families — the lowered fp executor (:class:`LoweredDetector`)
    and the int8 executor (:class:`repro.nn.quant.QuantizedDetector`) —
    are the source model's graph table, a spec per weighted node and a
    per-shape :class:`_Plan` cache over a private
    :class:`~repro.nn.functional.ConvWorkspace`. Subclasses set ``kind``
    (error messages) and ``conv_exec`` (the executor class of ``conv``
    nodes).

    Same ``forward`` contract as the source model — call with an NCHW
    tensor (or array), get ``(coarse, fine)`` raw head tensors — plus the
    same ``config`` attribute, so it drops into ``batched_detections``,
    :class:`~repro.av.pipeline.AvPipeline`, the eval protocol and the
    serving backends unchanged. Weights are folded copies: later mutation
    of the source model does **not** propagate (re-compile after loading
    a new checkpoint).
    """

    kind = "compiled"
    #: Executor class of the ``conv`` nodes, handed to :class:`_Plan`.
    conv_exec = None  # subclasses set

    def __init__(self, model, debug: bool = False):
        if model.training:
            raise RuntimeError(
                f"{self.kind} compilation requires an eval-mode detector: "
                "BN folding bakes in the running statistics, which training "
                "mode would neither use nor keep fixed — call model.eval() "
                "first")
        self.config = model.config
        self.graph = model.graph
        self.training = False
        # Private plan cache: count-unbounded within byte budget (one plan
        # per distinct batch shape; a detector sees few), sized so the
        # full-profile plan fits.
        self.workspace = ConvWorkspace(max_buffers=512, debug=debug)
        self.specs: Dict[str, FusedConvSpec] = {}
        for node in self.graph.nodes:
            if node.op == "conv":
                self.specs[node.name] = FusedConvSpec.from_block(
                    node.name, getattr(model, node.name))
            elif node.op == "head":
                self.specs[node.name] = FusedConvSpec.from_conv(
                    node.name, getattr(model, node.name))
        self._plans: Dict[Tuple[int, ...], _Plan] = {}

    # -- Module-surface compatibility ----------------------------------
    def eval(self) -> "CompiledDetector":
        return self

    def train(self, mode: bool = True) -> "CompiledDetector":
        if mode:
            raise RuntimeError(f"a {type(self).__name__} is inference-only; "
                               "train the source TinyYolo instead")
        return self

    # -- execution ------------------------------------------------------
    def _plan_for(self, shape: Tuple[int, ...]) -> _Plan:
        plan = self._plans.get(shape)
        if plan is None:
            plan = self._plans[shape] = _Plan(
                self.graph, self.specs, shape, self.workspace, self.conv_exec)
        return plan

    def forward_arrays(self, data: np.ndarray, hook: Optional[Callable] = None
                       ) -> Tuple[np.ndarray, ...]:
        """Raw-array forward: ``(coarse, fine)`` numpy head outputs.

        The returned arrays are *copies* of the plan buffers, safe to hold
        across subsequent forwards. ``hook(name, input, output)`` observes
        every conv and head node; the arrays it sees are plan buffers,
        valid until this plan runs again.
        """
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.ndim != 4 or data.shape[1] != 3:
            raise ValueError(f"expected NCHW 3-channel input, got {data.shape}")
        if (data.shape[-1] != self.config.input_size
                or data.shape[-2] != self.config.input_size):
            raise ValueError(
                f"input spatial size {data.shape[-2:]} != configured "
                f"{self.config.input_size}")
        heads = self._plan_for(data.shape).run(data, hook)
        return tuple(head.copy() for head in heads)

    def forward(self, x) -> Tuple[Tensor, ...]:
        """Run the compiled detector; same contract as ``TinyYolo.forward``.

        Raises if asked to participate in a gradient graph — the compiled
        executor records no backward closures, so silently returning
        detached tensors would break an attack loop that expects
        gradients to flow.
        """
        if isinstance(x, Tensor):
            if x.requires_grad and is_grad_enabled():
                raise RuntimeError(
                    f"{type(self).__name__} is inference-only: input "
                    "requires grad — use the unlowered TinyYolo for "
                    "attack/training forwards (or wrap in no_grad())")
            data = x.data
        else:
            data = np.asarray(x)
        return tuple(Tensor(head) for head in self.forward_arrays(data))

    __call__ = forward


class LoweredDetector(CompiledDetector):
    """Inference-lowered view of a frozen :class:`TinyYolo`.

    BN folded into the conv weights, fused bias/leaky-ReLU epilogues,
    per-shape fp32 plans. ``debug=True`` arms the plan workspace's
    in-flight pad guard (the aliasing oracle); leave it off on hot paths.
    """

    kind = "lowered"
    conv_exec = _ConvExec


def _record_outputs(into: dict) -> Callable:
    """A graph hook storing each weighted node's output in ``into``."""
    def hook(name, _input, output):
        into[name] = output
    return hook


def layer_parity(model, lowered: LoweredDetector,
                 x: np.ndarray) -> Dict[str, float]:
    """Per-layer max |Δ| between the lowered executor and the reference.

    Runs the source model's graph with its eval-mode autodiff ops and the
    lowered plan on the same input, observing both through the graph
    hook, and returns ``{node_name: max_abs_delta}`` for every weighted
    node (convs and heads). The parity oracle asserts every value ≤
    :data:`LOWERING_ATOL`.
    """
    if model.training:
        raise RuntimeError("layer_parity needs the reference in eval mode")
    x = np.ascontiguousarray(x, dtype=np.float32)
    captured: Dict[str, np.ndarray] = {}
    reference: Dict[str, Tensor] = {}
    lowered.forward_arrays(x, hook=_record_outputs(captured))
    with no_grad():
        model.graph.run(Tensor(x), model.run_node, _record_outputs(reference))
    return {name: float(np.max(np.abs(captured[name] - reference[name].data)))
            for name in reference}
