"""Int8 quantization: calibration, exact GEMM, guards, round-trips.

Pins the DESIGN.md §15 contract: the quantized executor is an
accuracy-vs-speed point with *deterministic* numerics — same calibration
frames produce byte-identical scales and detections, the chunked sgemm
reduction is bit-equal to an int64 integer oracle (the "exact integers in
float32" argument, verified at the maximum supported reduction depth),
degenerate inputs can never produce zero/NaN scales, and quantizing
without calibration fails loudly everywhere the knob exists.
"""

import numpy as np
import pytest

from repro.av import AvPipeline
from repro.detection import TinyYolo, reduced_config
from repro.nn import (
    CalibrationResult,
    QuantizationError,
    QuantizedDetector,
    Tensor,
    activation_error_stats,
    calibrate_detector,
    quant_runtime_totals,
    resolve_inference_model,
    save_module,
)
from repro.nn.functional import ConvWorkspace
from repro.nn.lowering import FusedConvSpec
from repro.nn.quant import (
    INT8_QMAX,
    K_CHUNK,
    MAX_REDUCE_K,
    ActivationObserver,
    _QuantConvExec,
    QuantConvSpec,
)
from repro.nn.serialization import load_state, save_state

pytestmark = pytest.mark.quant

def make_frames(n=8, input_size=64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 3, input_size, input_size)).astype(np.float32)


@pytest.fixture
def quantized_pair(make_model):
    model = make_model()
    calibration = calibrate_detector(model, make_frames())
    return model, QuantizedDetector(model, calibration)


# ----------------------------------------------------------------------
# Calibration determinism (satellite 4)
# ----------------------------------------------------------------------

class TestCalibrationDeterminism:
    def test_same_frames_give_byte_identical_scales(self, make_model):
        frames = make_frames()
        results = []
        for _ in range(2):
            model = make_model()
            calibration = calibrate_detector(model, frames)
            quantized = QuantizedDetector(model, calibration)
            results.append((calibration, quantized))
        (cal_a, q_a), (cal_b, q_b) = results
        assert cal_a.ranges == cal_b.ranges
        assert cal_a == cal_b
        assert cal_a.digest() == cal_b.digest()
        for name in model.graph.names("conv"):
            assert (q_a.specs[name].w_scale.tobytes()
                    == q_b.specs[name].w_scale.tobytes())
        assert q_a.quant_digest() == q_b.quant_digest()

    def test_same_calibration_gives_identical_detections(self, make_model):
        frames = make_frames()
        x = make_frames(n=4, seed=9)
        outputs = []
        for _ in range(2):
            model = make_model()
            quantized = model.quantize(frames)
            outputs.append(quantized.forward_arrays(x))
        for a, b in zip(*outputs):
            np.testing.assert_array_equal(a, b)

    def test_repeated_forwards_reuse_buffers_deterministically(self, quantized_pair):
        _, quantized = quantized_pair
        x = make_frames(n=3, seed=4)
        first = [a.copy() for a in quantized.forward_arrays(x)]
        quantized.forward_arrays(np.zeros_like(x))  # dirty the buffers
        second = quantized.forward_arrays(x)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_batch_size_does_not_change_calibration(self, make_model):
        model = make_model()
        frames = make_frames(n=8)
        a = calibrate_detector(model, frames, batch_size=8)
        b = calibrate_detector(model, frames, batch_size=2)
        # Plan buffers differ per batch shape but the recorded maxima are
        # the same real values (max is batch-associative; the lowered
        # forward itself is shape-deterministic per frame only up to BLAS
        # batching, so compare ranges loosely but scales' finiteness hard).
        for name in a.ranges:
            assert abs(a.ranges[name] - b.ranges[name]) <= 1e-4 * (
                1.0 + a.ranges[name])


# ----------------------------------------------------------------------
# Exactness of the chunked GEMM (tentpole numerics)
# ----------------------------------------------------------------------

def exact_reference(spec, x):
    """Int64 integer oracle for one quantized conv (k=1 layout)."""
    xq = np.clip(np.rint(x * spec.inv_a_scale), -INT8_QMAX, INT8_QMAX)
    xq = xq.astype(np.int64)
    weight = np.concatenate([c.astype(np.int64) for c in spec.weight_chunks],
                            axis=1)
    n, c, h, w = x.shape
    acc = np.einsum("ok,nkp->nop", weight, xq.reshape(n, c, h * w))
    assert np.all(np.abs(acc) <= np.int64(2) ** 31 - 1)
    out = acc.astype(np.int32).astype(np.float32).reshape(
        n, spec.out_channels, h, w)
    out *= spec.dequant_col
    out += spec.bias_col
    if spec.slope is not None:
        out = np.maximum(out, out * np.float32(spec.slope))
    return out


def one_by_one_spec(out_channels, in_channels, seed=0, slope=0.1):
    rng = np.random.default_rng(seed)
    weight = rng.normal(0, 0.1, (out_channels, in_channels, 1, 1)).astype(
        np.float32)
    bias = rng.normal(0, 0.1, out_channels).astype(np.float32)
    return FusedConvSpec("t", weight, bias, stride=1, padding=0, slope=slope)


class TestExactChunkedGemm:
    @pytest.mark.parametrize("k_total", [64, K_CHUNK, K_CHUNK + 1,
                                         3 * K_CHUNK + 17])
    def test_chunked_sgemm_matches_int64_oracle(self, k_total):
        spec = QuantConvSpec(one_by_one_spec(5, k_total), act_amax=3.0)
        assert len(spec.weight_chunks) == -(-k_total // K_CHUNK)
        ws = ConvWorkspace()
        x = (np.random.default_rng(1).normal(0, 1.5, (2, k_total, 3, 3))
             .astype(np.float32))
        exec_ = _QuantConvExec(spec, x.shape, ws)
        np.testing.assert_array_equal(exec_.run(x), exact_reference(spec, x))

    def test_exact_at_max_reduction_depth(self):
        """The asserted overflow bound, exercised at the boundary: the
        largest supported K must still reduce exactly (vs int64)."""
        spec = QuantConvSpec(one_by_one_spec(1, MAX_REDUCE_K), act_amax=4.0)
        ws = ConvWorkspace()
        x = (np.random.default_rng(2).normal(0, 2.0, (1, MAX_REDUCE_K, 1, 1))
             .astype(np.float32))
        exec_ = _QuantConvExec(spec, x.shape, ws)
        np.testing.assert_array_equal(exec_.run(x), exact_reference(spec, x))

    def test_reduction_depth_above_bound_refuses(self):
        with pytest.raises(QuantizationError, match="MAX_REDUCE_K"):
            QuantConvSpec(one_by_one_spec(1, MAX_REDUCE_K + 1), act_amax=1.0)

    def test_chunk_width_respects_float32_exact_range(self):
        # The exactness argument needs K_CHUNK·127² < 2²⁴.
        assert K_CHUNK * INT8_QMAX * INT8_QMAX < 2 ** 24
        assert MAX_REDUCE_K * INT8_QMAX * INT8_QMAX <= 2 ** 31 - 1


# ----------------------------------------------------------------------
# Edge-case guards (satellite 3)
# ----------------------------------------------------------------------

class TestScaleGuards:
    def test_all_zero_activations_keep_positive_scales(self, make_model):
        model = make_model()
        calibration = calibrate_detector(
            model, np.zeros((2, 3, 64, 64), np.float32))
        quantized = QuantizedDetector(model, calibration)
        for name in model.graph.names("conv"):
            spec = quantized.specs[name]
            assert spec.a_scale > 0 and np.isfinite(spec.a_scale)
            assert np.all(spec.w_scale > 0)
            assert np.all(np.isfinite(spec.dequant_col))
        coarse, fine = quantized.forward_arrays(
            np.zeros((1, 3, 64, 64), np.float32))
        assert np.all(np.isfinite(coarse)) and np.all(np.isfinite(fine))

    def test_constant_activation_channels_stay_finite(self, make_model):
        model = make_model()
        frames = np.full((2, 3, 64, 64), 0.5, np.float32)
        quantized = model.quantize(frames)
        coarse, fine = quantized.forward_arrays(frames[:1])
        assert np.all(np.isfinite(coarse)) and np.all(np.isfinite(fine))

    def test_dead_filter_gets_unit_scale_not_nan(self):
        fused = one_by_one_spec(3, 8)
        fused.weight[1] = 0.0
        fused.weight_2d[1] = 0.0
        spec = QuantConvSpec(fused, act_amax=1.0)
        assert spec.w_scale[1] == pytest.approx(1.0 / INT8_QMAX)
        assert np.all(np.isfinite(spec.w_scale))
        assert np.all(spec.weight_chunks[0][1] == 0.0)

    def test_nonfinite_activation_range_refuses(self):
        with pytest.raises(QuantizationError, match="finite"):
            QuantConvSpec(one_by_one_spec(2, 4), act_amax=float("nan"))

    def test_nonfinite_weights_refuse(self):
        fused = one_by_one_spec(2, 4)
        fused.weight_2d[0, 0] = np.inf
        with pytest.raises(QuantizationError, match="non-finite"):
            QuantConvSpec(fused, act_amax=1.0)

    def test_out_of_range_activations_saturate(self):
        spec = QuantConvSpec(one_by_one_spec(2, 4, slope=None), act_amax=1.0)
        ws = ConvWorkspace()
        exec_ = _QuantConvExec(spec, (1, 4, 1, 1), ws)
        # 100× beyond the calibrated range must clip to ±127, not wrap.
        wild = np.array([[[[100.0]], [[-100.0]], [[0.5]], [[0.0]]]],
                        np.float32)
        np.testing.assert_array_equal(exec_.run(wild.copy()),
                                      exact_reference(spec, wild))


class TestMissingCalibrationErrors:
    def test_quantize_without_anything_raises(self, make_model):
        with pytest.raises(QuantizationError, match="calibration"):
            make_model().quantize()

    def test_resolve_int8_without_calibration_raises(self, make_model):
        with pytest.raises(QuantizationError, match="requires calibration"):
            resolve_inference_model(make_model(), precision="int8")

    def test_resolve_rejects_unknown_precision(self, make_model):
        with pytest.raises(ValueError, match="precision"):
            resolve_inference_model(make_model(), precision="int4")

    def test_pipeline_int8_without_calibration_raises(self, make_model):
        with pytest.raises(QuantizationError, match="requires calibration"):
            AvPipeline(make_model(), precision="int8")

    def test_calibration_from_different_graph_raises(self, make_model):
        partial = CalibrationResult({"conv1": 1.0}, frames=2, percentile=100.0)
        with pytest.raises(QuantizationError, match="missing activation"):
            QuantizedDetector(make_model(), partial)

    def test_training_mode_model_refuses_to_quantize(self, make_model):
        model = make_model()
        calibration = calibrate_detector(model, make_frames(n=2))
        model.train()
        with pytest.raises(RuntimeError, match="eval"):
            QuantizedDetector(model, calibration)

    def test_observer_rejects_bad_percentile(self):
        with pytest.raises(QuantizationError, match="percentile"):
            ActivationObserver(percentile=0.0)

    def test_empty_calibration_frames_raise(self, make_model):
        with pytest.raises(QuantizationError, match="non-empty"):
            calibrate_detector(make_model(),
                               np.zeros((0, 3, 64, 64), np.float32))


# ----------------------------------------------------------------------
# Inference-only guards (shared CompiledDetector contract)
# ----------------------------------------------------------------------

class TestInferenceOnly:
    def test_train_mode_raises(self, quantized_pair):
        _, quantized = quantized_pair
        with pytest.raises(RuntimeError, match="inference-only"):
            quantized.train()

    def test_grad_tracked_input_raises(self, quantized_pair):
        _, quantized = quantized_pair
        x = Tensor(np.zeros((1, 3, 64, 64), np.float32), requires_grad=True)
        with pytest.raises(RuntimeError, match="inference-only"):
            quantized(x)


# ----------------------------------------------------------------------
# Checkpoint + state round-trips (satellite 2)
# ----------------------------------------------------------------------

class TestRoundTrips:
    def test_load_quantize_detect_from_checkpoint(self, make_model, tmp_path):
        model = make_model()
        frames = make_frames()
        path = str(tmp_path / "det.npz")
        save_module(model, path)

        from repro.nn import load_module
        reloaded = TinyYolo(reduced_config(input_size=64,
                                           width_multiplier=0.25), seed=7)
        load_module(reloaded, path)
        reloaded.eval()
        quantized = reloaded.quantize(frames)
        reference = model.quantize(frames)
        x = make_frames(n=2, seed=5)
        for a, b in zip(quantized.forward_arrays(x),
                        reference.forward_arrays(x)):
            np.testing.assert_array_equal(a, b)

    def test_calibration_state_round_trip_is_digest_stable(self, make_model, tmp_path):
        model = make_model()
        calibration = calibrate_detector(model, make_frames())
        path = str(tmp_path / "calib.npz")
        saved_digest = save_state(path, calibration.to_state())
        restored = CalibrationResult.from_state(load_state(path))
        assert restored == calibration
        assert restored.digest() == calibration.digest() == saved_digest
        # Quantizing from the restored ranges reproduces the detector.
        a = QuantizedDetector(model, calibration)
        b = QuantizedDetector(model, restored)
        assert a.quant_digest() == b.quant_digest()

    def test_quant_state_serializes_via_serialization(self, quantized_pair, tmp_path):
        _, quantized = quantized_pair
        path = str(tmp_path / "quant.npz")
        save_state(path, quantized.quant_state())
        restored = load_state(path)
        assert CalibrationResult.from_state(restored).ranges \
            == quantized.calibration.ranges
        for name in quantized.graph.names("conv"):
            np.testing.assert_array_equal(restored[f"w_scale:{name}"],
                                          quantized.specs[name].w_scale)

    def test_calibration_state_missing_meta_raises(self):
        with pytest.raises(QuantizationError, match="meta:frames"):
            CalibrationResult.from_state({"range:conv1": np.float64(1.0)})


# ----------------------------------------------------------------------
# Accuracy budget + pipeline/eval integration
# ----------------------------------------------------------------------

class TestAccuracyAndIntegration:
    def test_per_layer_relative_error_is_small(self, quantized_pair):
        model, quantized = quantized_pair
        errors = activation_error_stats(model.lower(), quantized,
                                        make_frames(n=4, seed=3))
        assert set(errors) == set(model.graph.names("conv")
                                  + model.graph.names("head"))
        for name, entry in errors.items():
            assert entry["max_rel"] < 0.15, (name, entry)

    def test_quantized_pipeline_runs_and_is_deterministic(self, make_model):
        model = make_model()
        calibration = calibrate_detector(model, make_frames())
        frames = [f for f in make_frames(n=6, seed=11)]
        runs = []
        for _ in range(2):
            pipeline = AvPipeline(model, conf_threshold=0.001,
                                  precision="int8", calibration=calibration)
            assert isinstance(pipeline.infer_model, QuantizedDetector)
            traces = pipeline.run(frames, batch_size=3)
            runs.append([
                (len(t.detections), t.decision.action,
                 tuple(d.class_id for d in t.detections)) for t in traces])
        assert runs[0] == runs[1]

    def test_percentile_clip_tightens_ranges(self, make_model):
        model = make_model()
        frames = make_frames()
        full = calibrate_detector(model, frames, percentile=100.0)
        clipped = calibrate_detector(model, frames, percentile=99.0)
        assert all(clipped.ranges[k] <= full.ranges[k] + 1e-7
                   for k in full.ranges)
        assert any(clipped.ranges[k] < full.ranges[k] for k in full.ranges)

    def test_run_challenge_precision_knob(self, make_model):
        from repro.eval.protocol import run_challenge
        from repro.scene.video import AttackScenario
        model = make_model()
        calibration = calibrate_detector(model, make_frames(n=4))
        scenario = AttackScenario(image_size=64)
        oracle = run_challenge(model, scenario, "speed/normal", n_runs=1,
                               lowered=True)
        quant = run_challenge(model, scenario, "speed/normal", n_runs=1,
                              precision="int8", calibration=calibration)
        # PWC is in percent; the tight accuracy budget lives in the bench
        # phase — here we pin that the knob is wired and sane.
        assert abs(quant.pwc - oracle.pwc) <= 10.0
        with pytest.raises(QuantizationError, match="requires calibration"):
            run_challenge(model, scenario, "speed/normal", n_runs=1,
                          precision="int8")


# ----------------------------------------------------------------------
# Live probe (satellite 1)
# ----------------------------------------------------------------------

class TestQuantProbe:
    def test_probe_counts_epilogues_and_plans(self, make_model):
        before = quant_runtime_totals()
        quantized = make_model().quantize(make_frames())
        quantized.forward_arrays(make_frames(n=2, seed=6))
        quantized.forward_arrays(make_frames(n=2, seed=7))
        after = quant_runtime_totals()
        assert after["detectors"] >= before["detectors"] + 1
        assert after["epilogue_runs"] >= before["epilogue_runs"] + 2 * len(
            quantized.graph.names("conv"))
        assert after["gemm_chunks"] >= after["epilogue_runs"]
        assert after["act_range_max"] > 0
        assert all(isinstance(v, (int, float)) for v in after.values())

    def test_stats_shape(self, quantized_pair):
        _, quantized = quantized_pair
        stats = quantized.stats()
        assert stats["layers_int8"] == len(quantized.graph.names("conv"))
        assert stats["act_range_min"] > 0
        assert stats["act_range_min"] <= stats["act_range_mean"] \
            <= stats["act_range_max"]

    def test_live_telemetry_accepts_probe(self):
        from repro.obs.live import LiveTelemetry
        live = LiveTelemetry()
        live.add_probe("quant", quant_runtime_totals)
        sample = live.sample_once()
        assert any(key.startswith("quant.") for key in sample)
