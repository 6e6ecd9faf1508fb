"""Minimal reverse-mode automatic differentiation over numpy arrays.

This is the library's substitute for TensorFlow: a :class:`Tensor`
records the operations applied to it and :meth:`Tensor.backward`
propagates gradients through the recorded graph in reverse topological
order.  Broadcasting is handled by summing gradients back over the
broadcast axes, and every op used by the neural baselines has a
hand-written, finite-difference-tested backward rule.

Supported ops: ``+ - * / @``, ``neg``, ``exp``, ``log``, ``relu``,
``sigmoid``, ``tanh``, ``square``, ``sum``, ``mean``, ``reshape``,
``concat``, ``take_rows`` (embedding lookup), ``softplus``.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable

import numpy as np

from repro.utils.exceptions import DataError

# Per thread, so evaluation workers entering and leaving ``no_grad`` at
# once cannot leave another thread (or the trainer) with recording off.
_grad_mode = threading.local()

#: Largest exponent fed to ``np.exp`` — just under float64's ~709.78
#: overflow point, so ``exp`` saturates at ~8.2e307 instead of emitting
#: a RuntimeWarning and an ``inf`` that poisons the whole graph.
_EXP_MAX = 709.0


def grad_enabled() -> bool:
    """Whether tensors made on this thread record the graph."""
    return getattr(_grad_mode, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph recording (inference mode) on this thread."""
    previous = grad_enabled()
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(axis for axis, dim in enumerate(shape) if dim == 1 and grad.shape[axis] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an optional gradient tape.

    Parameters
    ----------
    data:
        Array-like value (stored as ``float64``).
    requires_grad:
        Whether gradients should accumulate into ``.grad``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and grad_enabled()
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # -- graph construction helpers -------------------------------------
    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        parents = tuple(parents)
        out = cls(data)
        if grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    # -- properties -------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(grad):
            self._accumulate(_unbroadcast(grad, self.data.shape))
            other._accumulate(_unbroadcast(grad, other.data.shape))

        return self._from_op(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            self._accumulate(-grad)

        return self._from_op(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(grad):
            self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return self._from_op(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(grad):
            self._accumulate(_unbroadcast(grad / other.data, self.data.shape))
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data**2), other.data.shape)
            )

        return self._from_op(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other) / self

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise DataError("matmul supports 2-D tensors only")
        out_data = self.data @ other.data

        def backward(grad):
            self._accumulate(grad @ other.data.T)
            other._accumulate(self.data.T @ grad)

        return self._from_op(out_data, (self, other), backward)

    # -- elementwise nonlinearities -----------------------------------------
    def exp(self) -> "Tensor":
        # Saturate instead of overflowing: exp is the one op whose input
        # is genuinely unbounded (logits), and a single inf here turns
        # every downstream gradient into nan (REP004).
        out_data = np.exp(np.minimum(self.data, _EXP_MAX))

        def backward(grad):
            self._accumulate(grad * out_data)

        return self._from_op(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad):
            self._accumulate(grad / self.data)

        return self._from_op(np.log(self.data), (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad):
            self._accumulate(grad * mask)

        return self._from_op(self.data * mask, (self,), backward)

    def sigmoid(self) -> "Tensor":
        positive = self.data >= 0
        out_data = np.empty_like(self.data)
        out_data[positive] = 1.0 / (1.0 + np.exp(-self.data[positive]))
        exp_x = np.exp(self.data[~positive])
        out_data[~positive] = exp_x / (1.0 + exp_x)

        def backward(grad):
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._from_op(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            self._accumulate(grad * (1.0 - out_data**2))

        return self._from_op(out_data, (self,), backward)

    def square(self) -> "Tensor":
        def backward(grad):
            self._accumulate(grad * 2.0 * self.data)

        return self._from_op(self.data**2, (self,), backward)

    def softplus(self) -> "Tensor":
        """``log(1 + exp(x))`` computed stably (used by BCE-with-logits)."""
        out_data = np.maximum(self.data, 0.0) + np.log1p(np.exp(-np.abs(self.data)))
        sig = 1.0 / (1.0 + np.exp(-np.clip(self.data, -500, 500)))

        def backward(grad):
            self._accumulate(grad * sig)

        return self._from_op(out_data, (self,), backward)

    # -- reductions and shape ops ---------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            grad = np.asarray(grad)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape).copy())

        return self._from_op(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape

        def backward(grad):
            self._accumulate(grad.reshape(original))

        return self._from_op(self.data.reshape(shape), (self,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Row gather (embedding lookup); backward scatter-adds."""
        indices = np.asarray(indices, dtype=np.int64)
        out_data = self.data[indices]

        def backward(grad):
            if self.requires_grad:
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                np.add.at(self.grad, indices, grad)

        return self._from_op(out_data, (self,), backward)

    @staticmethod
    def concat(tensors: list["Tensor"], axis: int = 1) -> "Tensor":
        tensors = [Tensor._lift(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad):
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                t._accumulate(grad[tuple(slicer)])

        return Tensor._from_op(out_data, tensors, backward)

    # -- backprop ----------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise DataError("called backward() on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise DataError("backward() without a gradient requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)

        # Reverse topological order over the graph.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"
