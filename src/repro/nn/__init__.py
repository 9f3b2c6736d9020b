"""`repro.nn` — a from-scratch numpy deep-learning stack.

This package substitutes for PyTorch in the paper's pipeline (see DESIGN.md
§2): reverse-mode autodiff tensors, convolutional layers, optimizers and the
differentiable image-warping ops needed by EOT.
"""

from . import functional
from .init import dcgan_normal, he_normal, normal_, uniform_, xavier_uniform
from .layers import (
    BatchNorm2d,
    Conv2d,
    ConvBlock,
    Dropout,
    Flatten,
    LeakyReLU,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    Upsample,
    replay_running_update,
)
from .lowering import (
    LOWERING_ATOL,
    LoweredDetector,
    fold_conv_bn,
    layer_parity,
)
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .quant import (
    CalibrationResult,
    QuantizationError,
    QuantizedDetector,
    activation_error_stats,
    calibrate_detector,
    quant_runtime_totals,
    resolve_inference_model,
)
from .serialization import load_module, save_module
from .tensor import Tensor, concatenate, ensure_tensor, no_grad, stack

__all__ = [
    "functional",
    "Tensor",
    "no_grad",
    "ensure_tensor",
    "concatenate",
    "stack",
    "Parameter",
    "Module",
    "Sequential",
    "Conv2d",
    "ConvBlock",
    "Linear",
    "BatchNorm2d",
    "replay_running_update",
    "LeakyReLU",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "MaxPool2d",
    "Upsample",
    "Flatten",
    "Dropout",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "save_module",
    "load_module",
    "LOWERING_ATOL",
    "LoweredDetector",
    "fold_conv_bn",
    "layer_parity",
    "CalibrationResult",
    "QuantizationError",
    "QuantizedDetector",
    "activation_error_stats",
    "calibrate_detector",
    "quant_runtime_totals",
    "resolve_inference_model",
    "he_normal",
    "xavier_uniform",
    "normal_",
    "uniform_",
    "dcgan_normal",
]
