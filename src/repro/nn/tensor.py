"""Reverse-mode automatic differentiation on top of numpy arrays.

This module provides the :class:`Tensor` class, the foundation of the whole
reproduction: the YOLOv3-tiny detector, the GAN and the differentiable EOT
pipeline are all built from these tensors so that attack gradients can flow
from the detector's loss back into the patch generator, exactly as the paper
requires.

The design is deliberately small and explicit:

* a ``Tensor`` wraps a ``float32`` (or integer) numpy array;
* every differentiable operation records a backward closure and its parent
  tensors;
* :meth:`Tensor.backward` runs a topological sweep over the recorded graph.

Gradient accumulation matches the usual deep-learning convention: gradients
add across multiple uses of the same tensor, and ``zero_grad`` (on modules or
optimizers) resets them between steps.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording.

    Used by inference paths (e.g. running the detector on evaluation videos)
    where building the autograd graph would only waste memory.
    """

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._previous = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _grad_enabled


def _as_array(value: ArrayLike, dtype=np.float32) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype == dtype:
            return value
        return value.astype(dtype)
    return np.asarray(value, dtype=dtype)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting replicates values along new or size-1 axes during the
    forward pass; the corresponding backward pass must therefore *sum* the
    incoming gradient over those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that broadcasting added.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float32`` unless an integer dtype
        is passed explicitly via a pre-built numpy array.
    requires_grad:
        Whether gradients flow to this tensor during :meth:`backward`.
        Leaves (tensors no op produced) and the tensor ``backward`` runs
        from accumulate them into :attr:`grad`; an interior tensor's
        gradient lives only for the backward that computes it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name", "_staged")

    # Make numpy defer to our reflected operators (ndarray * Tensor must
    # call Tensor.__rmul__, not broadcast over the Tensor object).
    __array_ufunc__ = None

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        if isinstance(data, np.ndarray) and data.dtype.kind in "iub":
            self.data = data
        else:
            self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        """Return a differentiable copy of this tensor."""
        out = _make(self.data.copy(), (self,))
        _define_backward(out, lambda grad, staged: _route(self, grad, staged))
        return out

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = unbroadcast(np.asarray(grad, dtype=np.float32), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        grad = _as_array(grad)

        order = self._topological_order()
        grads = {id(self): grad}
        self._accumulate(grad)
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None or node._backward is None:
                continue
            node._backward_into(node_grad, grads)

    def _backward_into(self, grad: np.ndarray, grads: dict) -> None:
        # The backward closure accumulates directly into parent .grad for
        # leaves and stages gradients for interior nodes via the shared dict
        # (interior nodes keep no .grad).
        self._staged = grads  # type: ignore[attr-defined]
        try:
            self._backward(grad)  # type: ignore[misc]
        finally:
            del self._staged  # type: ignore[attr-defined]

    def _topological_order(self) -> List["Tensor"]:
        order: List[Tensor] = []
        seen = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        order.reverse()
        return order

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Operator overloads (implementations live in this module to avoid a
    # circular import with functional.py; functional re-exports them).
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return sub(self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return sub(ensure_tensor(other), self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return div(self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return div(ensure_tensor(other), self)

    def __neg__(self) -> "Tensor":
        return mul(self, -1.0)

    def __pow__(self, exponent: float) -> "Tensor":
        return power(self, exponent)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __getitem__(self, index) -> "Tensor":
        return getitem(self, index)

    # Convenience methods mirroring the functional API -------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes or None)

    def exp(self) -> "Tensor":
        return exp(self)

    def log(self) -> "Tensor":
        return log(self)

    def clip(self, low: float, high: float) -> "Tensor":
        return clip(self, low, high)

    def abs(self) -> "Tensor":
        return absolute(self)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_max(self, axis=axis, keepdims=keepdims)


def ensure_tensor(value: ArrayLike) -> Tensor:
    """Coerce arrays and scalars to (non-differentiable) tensors."""
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents: Iterable[Tensor]) -> Tensor:
    """Create an interior graph node whose grad requirement is inherited."""
    parents = tuple(parents)
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
    return out


def _route(parent: Tensor, grad: np.ndarray, grads: dict) -> None:
    """Send ``grad`` to ``parent``: stage it if the parent is interior,
    accumulate it into ``.grad`` if the parent is a leaf."""
    if not parent.requires_grad:
        return
    if parent._backward is None:
        parent._accumulate(grad)
        return
    grad = unbroadcast(np.asarray(grad, dtype=np.float32), parent.data.shape)
    key = id(parent)
    if key in grads:
        grads[key] = grads[key] + grad
    else:
        grads[key] = grad


def _define_backward(out: Tensor, fn: Callable[[np.ndarray, dict], None]) -> None:
    if not out.requires_grad:
        return

    def backward(grad: np.ndarray) -> None:
        fn(grad, out._staged)  # type: ignore[attr-defined]

    out._backward = backward


# ----------------------------------------------------------------------
# Elementwise arithmetic
# ----------------------------------------------------------------------

def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = _make(a.data + b.data, (a, b))

    def backward(grad, staged):
        _route(a, grad, staged)
        _route(b, grad, staged)

    _define_backward(out, backward)
    return out


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = _make(a.data - b.data, (a, b))

    def backward(grad, staged):
        _route(a, grad, staged)
        if b.requires_grad:
            _route(b, -grad, staged)

    _define_backward(out, backward)
    return out


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = _make(a.data * b.data, (a, b))

    def backward(grad, staged):
        if a.requires_grad:
            _route(a, grad * b.data, staged)
        if b.requires_grad:
            _route(b, grad * a.data, staged)

    _define_backward(out, backward)
    return out


def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = _make(a.data / b.data, (a, b))

    def backward(grad, staged):
        if a.requires_grad:
            _route(a, grad / b.data, staged)
        if b.requires_grad:
            _route(b, -grad * a.data / (b.data * b.data), staged)

    _define_backward(out, backward)
    return out


def power(a: ArrayLike, exponent: float) -> Tensor:
    a = ensure_tensor(a)
    out = _make(a.data ** exponent, (a,))

    def backward(grad, staged):
        _route(a, grad * exponent * a.data ** (exponent - 1), staged)

    _define_backward(out, backward)
    return out


def exp(a: ArrayLike) -> Tensor:
    a = ensure_tensor(a)
    value = np.exp(a.data)
    out = _make(value, (a,))

    def backward(grad, staged):
        _route(a, grad * value, staged)

    _define_backward(out, backward)
    return out


def log(a: ArrayLike, eps: float = 1e-12) -> Tensor:
    a = ensure_tensor(a)
    out = _make(np.log(a.data + eps), (a,))

    def backward(grad, staged):
        _route(a, grad / (a.data + eps), staged)

    _define_backward(out, backward)
    return out


def sqrt(a: ArrayLike) -> Tensor:
    a = ensure_tensor(a)
    value = np.sqrt(a.data)
    out = _make(value, (a,))

    def backward(grad, staged):
        _route(a, grad * 0.5 / np.maximum(value, 1e-12), staged)

    _define_backward(out, backward)
    return out


def absolute(a: ArrayLike) -> Tensor:
    a = ensure_tensor(a)
    out = _make(np.abs(a.data), (a,))

    def backward(grad, staged):
        _route(a, grad * np.sign(a.data), staged)

    _define_backward(out, backward)
    return out


def clip(a: ArrayLike, low: float, high: float) -> Tensor:
    """Clamp values; gradient is passed through inside the active range."""
    a = ensure_tensor(a)
    out = _make(np.clip(a.data, low, high), (a,))
    mask = (a.data >= low) & (a.data <= high)

    def backward(grad, staged):
        _route(a, grad * mask, staged)

    _define_backward(out, backward)
    return out


def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = _make(np.maximum(a.data, b.data), (a, b))
    a_wins = a.data >= b.data

    def backward(grad, staged):
        _route(a, grad * a_wins, staged)
        _route(b, grad * (~a_wins), staged)

    _define_backward(out, backward)
    return out


def minimum(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = _make(np.minimum(a.data, b.data), (a, b))
    a_wins = a.data <= b.data

    def backward(grad, staged):
        _route(a, grad * a_wins, staged)
        _route(b, grad * (~a_wins), staged)

    _define_backward(out, backward)
    return out


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """``a`` where ``condition`` holds, else ``b`` (numpy broadcasting)."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    out = _make(np.where(condition, a.data, b.data), (a, b))

    def backward(grad, staged):
        _route(a, np.where(condition, grad, np.float32(0)), staged)
        _route(b, np.where(condition, np.float32(0), grad), staged)

    _define_backward(out, backward)
    return out


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------

def tensor_sum(a: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    a = ensure_tensor(a)
    out = _make(a.data.sum(axis=axis, keepdims=keepdims), (a,))

    def backward(grad, staged):
        grad = np.asarray(grad, dtype=np.float32)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.data.ndim for ax in axes):
                grad = np.expand_dims(grad, ax)
        _route(a, np.broadcast_to(grad, a.data.shape), staged)

    _define_backward(out, backward)
    return out


def tensor_mean(a: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    a = ensure_tensor(a)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / float(count))


def tensor_max(a: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    a = ensure_tensor(a)
    value = a.data.max(axis=axis, keepdims=True)
    out_value = value if keepdims or axis is None and keepdims else a.data.max(
        axis=axis, keepdims=keepdims
    )
    out = _make(out_value, (a,))
    # Ties split gradient equally, matching numpy-style subgradient choices.
    mask = (a.data == value).astype(np.float32)
    mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)

    def backward(grad, staged):
        grad = np.asarray(grad, dtype=np.float32)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.data.ndim for ax in axes):
                grad = np.expand_dims(grad, ax)
        _route(a, mask * grad, staged)

    _define_backward(out, backward)
    return out


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------

def reshape(a: ArrayLike, shape: Tuple[int, ...]) -> Tensor:
    a = ensure_tensor(a)
    out = _make(a.data.reshape(shape), (a,))

    def backward(grad, staged):
        _route(a, np.asarray(grad).reshape(a.data.shape), staged)

    _define_backward(out, backward)
    return out


def transpose(a: ArrayLike, axes: Optional[Tuple[int, ...]] = None) -> Tensor:
    a = ensure_tensor(a)
    out = _make(a.data.transpose(axes), (a,))
    if axes is None:
        inverse = None
    else:
        inverse = tuple(np.argsort(axes))

    def backward(grad, staged):
        _route(a, np.asarray(grad).transpose(inverse), staged)

    _define_backward(out, backward)
    return out


def _is_basic_index(index) -> bool:
    """Whether ``index`` is numpy basic indexing (ints, slices, Ellipsis,
    None), which selects each element at most once. A bool, an array or a
    list is advanced indexing and can repeat positions."""
    for item in index if isinstance(index, tuple) else (index,):
        if not (item is None or item is Ellipsis or isinstance(item, slice)
                or (isinstance(item, (int, np.integer))
                    and not isinstance(item, bool))):
            return False
    return True


def getitem(a: Tensor, index) -> Tensor:
    a = ensure_tensor(a)
    out = _make(a.data[index], (a,))

    def backward(grad, staged):
        full = np.zeros_like(a.data)
        if _is_basic_index(index):
            # A view: no position repeats, so an in-place add is the
            # scatter-add, bit for bit.
            full[index] += grad
        else:
            np.add.at(full, index, grad)
        _route(a, full, staged)

    _define_backward(out, backward)
    return out


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]
    out = _make(np.concatenate([t.data for t in tensors], axis=axis), tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad, staged):
        grad = np.asarray(grad)
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            _route(tensor, grad[tuple(slicer)], staged)

    _define_backward(out, backward)
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]
    out = _make(np.stack([t.data for t in tensors], axis=axis), tensors)

    def backward(grad, staged):
        grad = np.asarray(grad)
        for i, tensor in enumerate(tensors):
            _route(tensor, np.take(grad, i, axis=axis), staged)

    _define_backward(out, backward)
    return out


def pad2d(a: Tensor, padding: Tuple[int, int, int, int], value: float = 0.0) -> Tensor:
    """Pad the last two axes of an NCHW tensor by (top, bottom, left, right)."""
    a = ensure_tensor(a)
    top, bottom, left, right = padding
    pad_width = [(0, 0)] * (a.data.ndim - 2) + [(top, bottom), (left, right)]
    out = _make(np.pad(a.data, pad_width, constant_values=value), (a,))

    def backward(grad, staged):
        grad = np.asarray(grad)
        slicer = [slice(None)] * (a.data.ndim - 2)
        slicer += [
            slice(top, grad.shape[-2] - bottom or None),
            slice(left, grad.shape[-1] - right or None),
        ]
        _route(a, grad[tuple(slicer)], staged)

    _define_backward(out, backward)
    return out


# ----------------------------------------------------------------------
# Linear algebra
# ----------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = _make(a.data @ b.data, (a, b))

    def backward(grad, staged):
        grad = np.asarray(grad, dtype=np.float32)
        if a.requires_grad:
            if b.data.ndim == 1:
                _route(a, np.outer(grad, b.data) if a.data.ndim == 2 else grad * b.data, staged)
            else:
                _route(a, grad @ np.swapaxes(b.data, -1, -2), staged)
        if b.requires_grad:
            if a.data.ndim == 1:
                _route(b, np.outer(a.data, grad), staged)
            else:
                _route(b, np.swapaxes(a.data, -1, -2) @ grad, staged)

    _define_backward(out, backward)
    return out


__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "ensure_tensor",
    "unbroadcast",
    "add",
    "sub",
    "mul",
    "div",
    "power",
    "exp",
    "log",
    "sqrt",
    "absolute",
    "clip",
    "maximum",
    "minimum",
    "where",
    "tensor_sum",
    "tensor_mean",
    "tensor_max",
    "reshape",
    "transpose",
    "getitem",
    "concatenate",
    "stack",
    "pad2d",
    "matmul",
]
