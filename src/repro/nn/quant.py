"""Post-training int8 quantization for the frozen detector (DESIGN.md §15).

After PR 8's lowering pass the forward is one fused GEMM per layer; the
remaining lever the ROADMAP names is precision: run those GEMMs on int8
operands with int32 accumulation and dequantize in the epilogue. Unlike
lowering — which is gated on *bit-identical* detection traces — the
quantized path is reported as a separate **accuracy-vs-speed point**: the
bench phase records per-layer activation error and end-to-end PWC/CWC
deltas against the fp oracle and asserts they stay inside a declared
budget, not that they vanish.

Scheme (symmetric, no zero points):

* **Activations** — per-tensor scale ``a = amax/127`` from a calibration
  pass: :func:`calibrate_detector` runs N representative frames through
  the *lowered fp* graph and records each weighted node's input range
  through the plan ``hook`` (max, or an optional percentile clip).
  Runtime values outside the calibrated range saturate at ±127.
* **Weights** — per-output-channel scale ``w[oc] = amax_oc/127`` over the
  BN-folded weights, so folding and quantization compose.
* **Layers** — every ``conv`` node of the graph table runs int8; the
  ``head`` nodes stay fp (they are 1×1 and cheap, and head error moves
  boxes directly).

Exact int8 GEMM on a BLAS-only substrate
----------------------------------------
NumPy has no fast integer GEMM — ``matmul`` on int8/int32 runs 20–100×
slower than BLAS sgemm here. Instead the int8 operands are held as exact
small integers *in float32* and multiplied with sgemm: every product is
an integer ≤ 127², and a partial sum of at most :data:`K_CHUNK` = 1024
such terms is bounded by ``1024·127² < 2²⁴``, the float32 exact-integer
range — so each chunk's sgemm result is the exact integer answer
regardless of BLAS summation order. Chunks are then reduced in a true
int32 accumulator. The composition is bit-identical to a pure int32 MAC
loop and deterministic across runs, while the inner loops stay BLAS. The
int32 accumulator itself cannot overflow by construction: the reduction
depth ``K = C·k²`` is asserted ≤ :data:`MAX_REDUCE_K` = ⌊(2³¹−1)/127²⌋
at spec build time.

The executors plug into the lowering plan machinery unchanged:
:class:`QuantizedDetector` subclasses
:class:`~repro.nn.lowering.CompiledDetector` and names its own ``conv``
executor for the shared :class:`~repro.nn.lowering._Plan` — the graph
table and its interpreter, heads, pools, upsample, concat, plan caching
and the pre-sized-buffer workspace are the same code the fp path runs.
The int8 ``conv`` executor is the fp one with a quantized GEMM: the same
im2col gather into the same column scratch, the same epilogue. That
GEMM is the same float32 sgemm on integer-valued operands, plus a
quantize and a dequantize pass, so where sgemm is the only fast matrix
multiply the int8 plan is no faster than the lowered fp plan.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from .functional import ConvWorkspace
from .lowering import (CompiledDetector, FusedConvSpec, _ConvExec,
                       _record_outputs)
from .serialization import state_digest

__all__ = [
    "INT8_QMAX",
    "K_CHUNK",
    "MAX_REDUCE_K",
    "QuantizationError",
    "ActivationObserver",
    "CalibrationResult",
    "calibrate_detector",
    "QuantConvSpec",
    "QuantizedDetector",
    "resolve_inference_model",
    "activation_error_stats",
    "quant_runtime_totals",
]

#: Symmetric int8 quantization range: values map to [-127, 127] (−128 is
#: never produced, keeping negation closed and the scheme zero-point-free).
INT8_QMAX = 127

#: Reduction-axis chunk for the exact-integer sgemm. ``K_CHUNK·127²`` must
#: stay below 2²⁴ (float32 exact-integer range) so every partial sum inside
#: a chunk's sgemm is exactly representable: 1024·16129 = 16 516 096 < 2²⁴.
K_CHUNK = 1024

#: Largest supported reduction depth ``K = C·k²``. The int32 accumulator
#: holds ``|acc| ≤ K·127²``; overflow is impossible iff ``K·127² ≤ 2³¹−1``.
MAX_REDUCE_K = (2 ** 31 - 1) // (INT8_QMAX * INT8_QMAX)


class QuantizationError(RuntimeError):
    """Quantization cannot proceed (missing calibration, bad ranges,
    unsupported shapes)."""


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------

class ActivationObserver:
    """Running per-layer input-range recorder (a plan ``hook``).

    ``percentile=100`` records the exact running max of ``|x|``; lower
    values clip each batch's range to that percentile of ``|x|`` before
    taking the running max, discarding extreme outliers at the cost of
    saturating them at inference time.
    """

    def __init__(self, percentile: float = 100.0):
        if not 0.0 < percentile <= 100.0:
            raise QuantizationError(
                f"calibration percentile must be in (0, 100], got {percentile}")
        self.percentile = float(percentile)
        self.ranges: Dict[str, float] = {}

    def __call__(self, name: str, value: np.ndarray,
                 output: np.ndarray) -> None:
        mag = np.abs(value)
        if self.percentile >= 100.0:
            amax = float(np.max(mag))
        else:
            amax = float(np.percentile(mag, self.percentile))
        if not np.isfinite(amax):
            raise QuantizationError(
                f"non-finite activation range at layer {name!r} during "
                "calibration — the detector is producing NaN/inf")
        # Record on first sight even when amax == 0 (all-zero input): the
        # layer must appear in the result so the spec's zero-range guard —
        # not a missing-range error — handles it.
        if name not in self.ranges or amax > self.ranges[name]:
            self.ranges[name] = amax


class CalibrationResult:
    """Per-layer activation ranges plus the metadata that produced them.

    Picklable (plain dict/float fields) so serving workers can re-quantize
    after the weight broadcast, and serializable as a digest-stable state
    dict via :meth:`to_state`/:meth:`from_state` (``repro.nn.serialization``
    compatible — ``save_state(path, result.to_state())`` round-trips).
    """

    def __init__(self, ranges: Dict[str, float], frames: int,
                 percentile: float):
        self.ranges = {name: float(amax) for name, amax in ranges.items()}
        self.frames = int(frames)
        self.percentile = float(percentile)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CalibrationResult)
                and self.ranges == other.ranges
                and self.frames == other.frames
                and self.percentile == other.percentile)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CalibrationResult(layers={len(self.ranges)}, "
                f"frames={self.frames}, percentile={self.percentile})")

    def to_state(self) -> Dict[str, np.ndarray]:
        """Flat array state dict (float64 ranges → exact round-trip)."""
        state: Dict[str, np.ndarray] = {
            "meta:frames": np.asarray(self.frames, dtype=np.int64),
            "meta:percentile": np.asarray(self.percentile, dtype=np.float64),
        }
        for name in sorted(self.ranges):
            state[f"range:{name}"] = np.asarray(self.ranges[name],
                                                dtype=np.float64)
        return state

    @classmethod
    def from_state(cls, state: Dict[str, np.ndarray]) -> "CalibrationResult":
        try:
            frames = int(state["meta:frames"])
            percentile = float(state["meta:percentile"])
        except KeyError as err:
            raise QuantizationError(
                f"calibration state is missing {err.args[0]!r}") from err
        ranges = {key[len("range:"):]: float(state[key])
                  for key in state if key.startswith("range:")}
        return cls(ranges, frames, percentile)

    def digest(self) -> str:
        """SHA-256 over the canonical state payload (serialization digest)."""
        return state_digest(self.to_state())


def calibrate_detector(model, frames: np.ndarray, *,
                       percentile: float = 100.0,
                       batch_size: int = 8) -> CalibrationResult:
    """Record per-layer activation ranges from representative frames.

    ``model`` is an eval-mode :class:`~repro.detection.model.TinyYolo`
    (lowered internally) or an already-compiled detector; ``frames`` is an
    ``(N, 3, H, W)`` array (a single CHW frame is promoted). The frames
    run through the **lowered fp** graph — ranges describe the float
    activations the int8 path will approximate.
    """
    data = np.ascontiguousarray(frames, dtype=np.float32)
    if data.ndim == 3:
        data = data[None]
    if data.ndim != 4 or data.shape[0] == 0:
        raise QuantizationError(
            f"calibration frames must be a non-empty (N, 3, H, W) array, "
            f"got shape {data.shape}")
    lowered = model if isinstance(model, CompiledDetector) else model.lower()
    observer = ActivationObserver(percentile)
    if batch_size < 1:
        raise QuantizationError(f"batch_size must be ≥ 1, got {batch_size}")
    for start in range(0, len(data), batch_size):
        lowered.forward_arrays(data[start:start + batch_size], hook=observer)
    return CalibrationResult(observer.ranges, frames=len(data),
                             percentile=percentile)


# ----------------------------------------------------------------------
# Quantized specs and executors
# ----------------------------------------------------------------------

def _chunk_bounds(k_total: int) -> List[Tuple[int, int]]:
    return [(k0, min(k0 + K_CHUNK, k_total))
            for k0 in range(0, k_total, K_CHUNK)]


class QuantConvSpec:
    """One int8 conv layer: quantized folded weights + dequant epilogue.

    Built from the fp :class:`~repro.nn.lowering.FusedConvSpec` (BN already
    folded) plus the layer's calibrated activation range. Weight values
    are stored as exact small integers in float32 (sgemm operands, see
    module docstring), pre-split into contiguous ≤ :data:`K_CHUNK` slabs
    along the reduction axis. ``runs``/``gemm_chunks`` are live-probe
    counters incremented by the executor.
    """

    __slots__ = ("name", "weight_chunks", "w_scale", "a_scale", "inv_a_scale",
                 "dequant_col", "bias_col", "kernel", "stride", "padding",
                 "out_channels", "slope", "k_total", "runs", "gemm_chunks")

    def __init__(self, fused: FusedConvSpec, act_amax: float):
        self.name = fused.name
        if not np.isfinite(act_amax) or act_amax < 0:
            raise QuantizationError(
                f"layer {fused.name!r}: calibrated activation range must be "
                f"finite and ≥ 0, got {act_amax}")
        # Zero-range guard: an all-zero (or never-activated) input tensor
        # quantizes exactly at any positive scale — use 1.0, never 0/NaN.
        amax = float(act_amax) if act_amax > 0 else 1.0
        self.a_scale = amax / INT8_QMAX
        self.inv_a_scale = INT8_QMAX / amax

        weight_2d = fused.weight_2d
        if not np.all(np.isfinite(weight_2d)):
            raise QuantizationError(
                f"layer {fused.name!r}: folded weights contain non-finite "
                "values; cannot quantize")
        w_amax = np.max(np.abs(weight_2d), axis=1)
        # Same guard per output channel: a dead (all-zero) filter keeps a
        # unit scale and quantizes to all zeros.
        w_amax = np.where(w_amax > 0, w_amax, 1.0)
        self.w_scale = (w_amax / INT8_QMAX).astype(np.float32)
        quantized = np.rint(weight_2d / self.w_scale[:, None])
        np.clip(quantized, -INT8_QMAX, INT8_QMAX, out=quantized)
        quantized = quantized.astype(np.float32)

        self.k_total = int(weight_2d.shape[1])
        if self.k_total > MAX_REDUCE_K:
            raise QuantizationError(
                f"layer {fused.name!r}: reduction depth K={self.k_total} "
                f"exceeds MAX_REDUCE_K={MAX_REDUCE_K}; int32 accumulation "
                "could overflow")
        self.weight_chunks = [np.ascontiguousarray(quantized[:, k0:k1])
                              for k0, k1 in _chunk_bounds(self.k_total)]
        self.out_channels = fused.out_channels
        # acc·(w_scale·a_scale) per output channel, broadcast onto NOHW.
        self.dequant_col = np.ascontiguousarray(
            (self.w_scale * np.float32(self.a_scale))
            .reshape(1, -1, 1, 1), dtype=np.float32)
        self.bias_col = fused.bias_col
        self.kernel = fused.kernel
        self.stride = fused.stride
        self.padding = fused.padding
        self.slope = fused.slope
        self.runs = 0
        self.gemm_chunks = 0


class _QuantConvExec(_ConvExec):
    """One int8 conv at one input shape: quantize → im2col → sgemm → dequant.

    Pipeline per call, the fp :class:`~repro.nn.lowering._ConvExec` with
    a quantized GEMM:

    1. quantize the float input into a pre-sized float32 buffer as exact
       integers (``rint(x/a_scale)`` clipped to ±127 — saturating),
    2. pad it and gather its columns into the workspace scratch, the same
       im2col the fp executors run (quantized zero *is* 0: padding
       commutes with quantization); 1×1 convs multiply the quantized
       buffer directly,
    3. per ≤1024-row slice of the columns: sgemm against the pre-split
       integer weight slab (exact, see module docstring), reducing
       chunks in an int32 accumulator,
    4. fused epilogue: ``out = acc·(w_scale·a_scale) + bias`` then leaky
       ReLU, all in place on the float32 output buffer.
    """

    __slots__ = ("qf", "acc", "parti")

    def __init__(self, spec: QuantConvSpec, in_shape: Tuple[int, ...],
                 ws: ConvWorkspace):
        super().__init__(spec, in_shape, ws)
        self.qf = ws.buffer(("quant.qf", spec.name, in_shape), in_shape)
        if len(spec.weight_chunks) > 1:
            n, o, oh, ow = self.out.shape
            acc_shape = (n, o, oh * ow)
            self.acc = ws.buffer(("quant.acc", spec.name, acc_shape),
                                 acc_shape, dtype=np.int32)
            self.parti = ws.buffer(("quant.parti", spec.name, acc_shape),
                                   acc_shape, dtype=np.int32)
        else:
            self.acc = self.parti = None

    def run(self, x: np.ndarray) -> np.ndarray:
        spec = self.spec
        # 1. Quantize (saturating round-to-nearest-even, deterministic).
        qf = self.qf
        np.multiply(x, spec.inv_a_scale, out=qf)
        np.rint(qf, out=qf)
        np.clip(qf, -float(INT8_QMAX), float(INT8_QMAX), out=qf)
        # 2. im2col of the integer-valued input.
        cols = self.ws.columns(qf, spec.kernel, spec.stride, spec.padding)[0]
        # 3. Chunked exact-integer sgemm with int32 reduction.
        out3 = self.out.reshape(cols.shape[0], spec.out_channels, -1)
        chunks = spec.weight_chunks
        if len(chunks) == 1:
            np.matmul(chunks[0], cols, out=out3)
        else:
            for index, slab in enumerate(chunks):
                k0 = index * K_CHUNK
                np.matmul(slab, cols[:, k0:k0 + slab.shape[1]], out=out3)
                if index == 0:
                    np.copyto(self.acc, out3, casting="unsafe")
                else:
                    np.copyto(self.parti, out3, casting="unsafe")
                    self.acc += self.parti
            np.copyto(out3, self.acc, casting="unsafe")
        self.ws.scratch_release(cols)
        # 4. Fused dequant + bias + leaky epilogue, in place.
        self.out *= spec.dequant_col
        spec.runs += 1
        spec.gemm_chunks += len(chunks)
        return self.epilogue()


# ----------------------------------------------------------------------
# The quantized detector
# ----------------------------------------------------------------------

#: Every live quantized detector (weakly held) for the process-wide probe.
_QUANT_LOCK = threading.Lock()
_QUANT_REGISTRY: "weakref.WeakSet[QuantizedDetector]" = weakref.WeakSet()


class QuantizedDetector(CompiledDetector):
    """Int8-quantized view of a frozen :class:`TinyYolo`.

    The graph's ``conv`` nodes run the int8 executor; its ``head`` nodes
    stay fp. Shares the plan cache / workspace / graph machinery with
    :class:`~repro.nn.lowering.LoweredDetector` through
    :class:`~repro.nn.lowering.CompiledDetector` — the only difference is
    the ``conv`` executor family and the quantized specs.
    """

    kind = "int8"
    conv_exec = _QuantConvExec

    def __init__(self, model, calibration: CalibrationResult,
                 debug: bool = False):
        if not isinstance(calibration, CalibrationResult):
            raise QuantizationError(
                "precision='int8' requires a CalibrationResult — run "
                "calibrate_detector(model, frames) (or TinyYolo.quantize("
                "calibration_frames)) first; got "
                f"{type(calibration).__name__}")
        missing = [name for name in model.graph.names("conv")
                   if name not in calibration.ranges]
        if missing:
            raise QuantizationError(
                f"calibration is missing activation ranges for {missing}; "
                "it was recorded against a different graph")
        super().__init__(model, debug=debug)
        self.calibration = calibration
        for name in self.graph.names("conv"):
            self.specs[name] = QuantConvSpec(self.specs[name],
                                             calibration.ranges[name])
        with _QUANT_LOCK:
            _QUANT_REGISTRY.add(self)

    # -- serialization ---------------------------------------------------
    def quant_state(self) -> Dict[str, np.ndarray]:
        """Digest-stable quantized state: calibration payload + per-layer
        weight scales (``repro.nn.serialization.save_state`` compatible)."""
        state = self.calibration.to_state()
        for name in self.graph.names("conv"):
            state[f"w_scale:{name}"] = np.ascontiguousarray(
                self.specs[name].w_scale)
        return state

    def quant_digest(self) -> str:
        return state_digest(self.quant_state())

    # -- probes ----------------------------------------------------------
    def stats(self) -> dict:
        specs = [self.specs[name] for name in self.graph.names("conv")]
        ranges = [spec.a_scale * INT8_QMAX for spec in specs]
        return {
            "plans": len(self._plans),
            "layers_int8": len(specs),
            "epilogue_runs": sum(spec.runs for spec in specs),
            "gemm_chunks": sum(spec.gemm_chunks for spec in specs),
            "act_range_min": float(min(ranges)),
            "act_range_max": float(max(ranges)),
            "act_range_mean": float(sum(ranges) / len(ranges)),
        }


def resolve_inference_model(model, precision: str = "fp",
                            lowered: bool = False,
                            calibration: Optional[CalibrationResult] = None,
                            debug: bool = False):
    """Map the ``(precision, lowered)`` knobs onto an inference model.

    The single decision point shared by :class:`~repro.av.pipeline
    .AvPipeline`, the eval protocol and the serving backends:
    ``precision="int8"`` compiles a quantized plan (requires
    ``calibration``; ``lowered`` is implied), ``precision="fp"`` returns
    the lowered graph when ``lowered`` else the model itself.
    """
    if precision == "int8":
        if calibration is None:
            raise QuantizationError(
                "precision='int8' requires calibration: pass a "
                "CalibrationResult (from calibrate_detector(model, frames)) "
                "— quantizing without calibrated activation ranges would "
                "silently fabricate scales")
        return QuantizedDetector(model, calibration, debug=debug)
    if precision != "fp":
        raise ValueError(
            f"precision must be 'fp' or 'int8', got {precision!r}")
    return model.lower(debug=debug) if lowered else model


def quant_runtime_totals() -> dict:
    """Aggregate quantization stats over every live quantized detector.

    Live-telemetry probe target (``LiveTelemetry.add_probe("quant", ...)``)
    mirroring :func:`~repro.nn.functional.conv_workspace_totals`: flat
    scalars over all :class:`QuantizedDetector` instances in the process.
    Counter reads race benignly with the owning threads.
    """
    with _QUANT_LOCK:
        detectors = list(_QUANT_REGISTRY)
    totals = {"detectors": len(detectors), "plans": 0, "layers_int8": 0,
              "epilogue_runs": 0, "gemm_chunks": 0,
              "act_range_min": 0.0, "act_range_max": 0.0,
              "act_range_mean": 0.0}
    means = []
    for detector in detectors:
        try:
            stats = detector.stats()
        except (RuntimeError, ValueError):  # racing teardown
            continue
        for key in ("plans", "layers_int8", "epilogue_runs", "gemm_chunks"):
            totals[key] += stats[key]
        totals["act_range_min"] = (stats["act_range_min"] if not means else
                                   min(totals["act_range_min"],
                                       stats["act_range_min"]))
        totals["act_range_max"] = max(totals["act_range_max"],
                                      stats["act_range_max"])
        means.append(stats["act_range_mean"])
    if means:
        totals["act_range_mean"] = float(sum(means) / len(means))
    return totals


# ----------------------------------------------------------------------
# Accuracy reporting
# ----------------------------------------------------------------------

def activation_error_stats(reference, quantized, frames: np.ndarray,
                           batch_size: int = 8) -> Dict[str, Dict[str, float]]:
    """Per-layer activation error of the int8 path vs the fp reference.

    Runs both compiled detectors on the same frames, recording every
    weighted node's output through the plan hook, and returns
    ``{layer: {max_abs, mean_abs, max_rel}}`` where ``max_rel``
    normalizes by the reference layer's absolute peak. This is the
    per-layer half of the accuracy budget the bench phase records (the
    other half is end-to-end PWC/CWC deltas).
    """
    data = np.ascontiguousarray(frames, dtype=np.float32)
    if data.ndim == 3:
        data = data[None]
    stats: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, int] = {}
    for start in range(0, len(data), batch_size):
        batch = data[start:start + batch_size]
        ref_capture: Dict[str, np.ndarray] = {}
        q_capture: Dict[str, np.ndarray] = {}
        reference.forward_arrays(batch, hook=_record_outputs(ref_capture))
        quantized.forward_arrays(batch, hook=_record_outputs(q_capture))
        for name, ref in ref_capture.items():
            delta = np.abs(q_capture[name] - ref)
            peak = float(np.max(np.abs(ref)))
            entry = stats.setdefault(name, {"max_abs": 0.0, "mean_abs": 0.0,
                                            "max_rel": 0.0})
            entry["max_abs"] = max(entry["max_abs"], float(np.max(delta)))
            entry["mean_abs"] += float(np.mean(delta))
            if peak > 0:
                entry["max_rel"] = max(entry["max_rel"],
                                       float(np.max(delta)) / peak)
            counts[name] = counts.get(name, 0) + 1
    for name, entry in stats.items():
        entry["mean_abs"] /= counts[name]
    return stats
