"""Layer/module abstractions over the functional ops.

Mirrors the torch ``nn.Module`` ergonomics at a much smaller scale: modules
own named parameters and buffers, compose hierarchically, and expose
``parameters()`` / ``state_dict()`` for optimization and checkpointing.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from .init import he_normal, normal_, uniform_
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "Conv2d",
    "ConvBlock",
    "Linear",
    "BatchNorm2d",
    "LeakyReLU",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "MaxPool2d",
    "Upsample",
    "Flatten",
    "Dropout",
]


class Parameter(Tensor):
    """A tensor registered as a learnable parameter of a module."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter`, buffers (via :meth:`register_buffer`)
    and child modules as attributes; this class discovers them automatically.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # -- attribute plumbing ------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-learnable state (e.g. batch-norm running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ---------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        seen = set()
        for _, p in self.named_parameters():
            if id(p) not in seen:
                seen.add(id(p))
                params.append(p)
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix + child_name + ".")

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix + child_name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    # -- train / eval ------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    @contextmanager
    def frozen(self) -> Iterator["Module"]:
        """Turn ``requires_grad`` off on every parameter for the block,
        then give each back its previous flag, also when the block raises.

        Gradients still flow *through* the module to its inputs; a
        backward just computes no weight gradients for it (the attack's
        victim detector, the discriminator in a generator step).
        """
        params = self.parameters()
        previous = [param.requires_grad for param in params]
        for param in params:
            param.requires_grad = False
        try:
            yield self
        finally:
            for param, flag in zip(params, previous):
                param.requires_grad = flag

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: p.data for name, p in self.named_parameters()}
        state.update({"buffer:" + name: b for name, b in self.named_buffers()})
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        for key, value in state.items():
            if key.startswith("buffer:"):
                name = key[len("buffer:"):]
                if name not in own_buffers:
                    raise KeyError(f"unexpected buffer {name!r} in state dict")
                target = own_buffers[name]
                if target.shape != value.shape:
                    raise ValueError(f"buffer {name!r}: shape {value.shape} != {target.shape}")
                target[...] = value
            else:
                if key not in own_params:
                    raise KeyError(f"unexpected parameter {key!r} in state dict")
                param = own_params[key]
                if param.data.shape != value.shape:
                    raise ValueError(f"param {key!r}: shape {value.shape} != {param.data.shape}")
                param.data = value.astype(param.data.dtype).copy()

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())

    # -- call --------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self._modules[str(i)] = layer

    def append(self, layer: Module) -> None:
        self._modules[str(len(self.layers))] = layer
        self.layers.append(layer)

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class Conv2d(Module):
    """2-D convolution layer (NCHW)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            he_normal(rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in)
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class Linear(Module):
    """Fully connected layer."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        bound = 1.0 / math.sqrt(in_features)
        self.weight = Parameter(uniform_(rng, (out_features, in_features), -bound, bound))
        self.bias = Parameter(uniform_(rng, (out_features,), -bound, bound)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    """Batch normalization over channels of an NCHW tensor."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features, dtype=np.float32))
        self.beta = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )


class LeakyReLU(Module):
    def __init__(self, slope: float = 0.1):
        super().__init__()
        self.slope = slope

    def forward(self, x: Tensor) -> Tensor:
        return F.leaky_relu(x, self.slope)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class Upsample(Module):
    def __init__(self, scale: int = 2):
        super().__init__()
        self.scale = scale

    def forward(self, x: Tensor) -> Tensor:
        return F.upsample_nearest(x, self.scale)


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape((x.shape[0], -1))


class Dropout(Module):
    def __init__(self, rate: float = 0.5, seed: int = 0):
        super().__init__()
        self.rate = rate
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self.training, self._rng)


class ConvBlock(Module):
    """darknet-style conv + batch-norm + leaky-ReLU block."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        padding = kernel_size // 2
        self.conv = Conv2d(
            in_channels, out_channels, kernel_size, stride=stride,
            padding=padding, bias=False, rng=rng,
        )
        self.bn = BatchNorm2d(out_channels)
        self.act = LeakyReLU(0.1)

    def forward(self, x: Tensor) -> Tensor:
        return self.act(self.bn(self.conv(x)))
