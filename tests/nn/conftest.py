"""Shared detector fixture for the lowered and int8 executor suites."""

import numpy as np
import pytest

from repro.detection import TinyYolo, reduced_config


@pytest.fixture
def make_model():
    """Factory for an eval-mode detector with *non-trivial* BN statistics.

    Fresh models have running_mean=0 / running_var=1, which makes BN
    folding — and the fold→quantize composition — nearly a no-op; parity
    against that would prove nothing. Randomized statistics exercise the
    actual fold arithmetic. ``model_class`` selects a graph variant.
    """
    def make(input_size=64, width=0.25, seed=0, stats_seed=1,
             model_class=TinyYolo):
        model = model_class(reduced_config(input_size=input_size,
                                           width_multiplier=width), seed=seed)
        rng = np.random.default_rng(stats_seed)
        for name in model.graph.names("conv"):
            bn = getattr(model, name).bn
            bn.running_mean[:] = rng.normal(
                0, 0.05, bn.running_mean.shape).astype(np.float32)
            bn.running_var[:] = (
                1.0 + rng.random(bn.running_var.shape) * 0.5).astype(np.float32)
        return model.eval()
    return make
