"""One graph table, three executors: a variant that changes only
``TinyYolo.graph`` runs through the autodiff, lowered and int8 paths."""

import numpy as np
import pytest

from repro.detection import TinyYolo
from repro.nn import LOWERING_ATOL, activation_error_stats, layer_parity
from repro.nn.graph import Graph

pytestmark = [pytest.mark.lowered, pytest.mark.quant]


class ShallowCoarseYolo(TinyYolo):
    """The coarse head reads ``conv8`` directly; ``conv9`` is gone."""

    graph = Graph(
        node._replace(inputs=("conv8",)) if node.name == "head_coarse"
        else node
        for node in TinyYolo.graph.nodes if node.name != "conv9")


@pytest.mark.parametrize("input_size", [32, 64])
def test_variant_runs_through_all_three_executors(make_model, input_size):
    model = make_model(input_size=input_size, model_class=ShallowCoarseYolo)
    assert not hasattr(model, "conv9")
    weighted = set(model.graph.names("conv") + model.graph.names("head"))
    rng = np.random.default_rng(0)
    x = rng.random((3, 3, input_size, input_size)).astype(np.float32)

    lowered = model.lower(debug=True)
    deltas = layer_parity(model, lowered, x)  # autodiff vs lowered
    assert set(deltas) == weighted
    assert max(deltas.values()) <= LOWERING_ATOL, deltas

    frames = rng.random((4, 3, input_size, input_size)).astype(np.float32)
    quantized = model.quantize(frames)
    assert set(quantized.calibration.ranges) == weighted
    first = [head.copy() for head in quantized.forward_arrays(x)]
    quantized.forward_arrays(np.zeros_like(x))  # dirty the buffers
    for a, b in zip(first, quantized.forward_arrays(x)):
        assert a.tobytes() == b.tobytes()
    errors = activation_error_stats(lowered, quantized, frames)
    assert set(errors) == weighted
    assert max(entry["max_rel"] for entry in errors.values()) < 0.15, errors
