"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and records a backward closure per op,
micrograd-style but array-valued. The op set is exactly what the fixed
network family and its losses need; this is not a general framework.
Gradients are exact (no numerical approximation anywhere on the tape).
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    # Keep numpy from consuming `ndarray <op> Tensor` elementwise; the
    # reflected operators below must win.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._prev: tuple = ()
        self._backward = None

    # -- graph construction helpers -------------------------------------

    @staticmethod
    def _lift(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    @staticmethod
    def _node(data, parents) -> "Tensor":
        out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
        if out.requires_grad:
            out._prev = tuple(parents)
        return out

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        out = self._node(self.data + other.data, (self, other))

        def backward(g):
            if self.requires_grad:
                self.grad += _unbroadcast(g, self.data.shape)
            if other.requires_grad:
                other.grad += _unbroadcast(g, other.data.shape)

        out._backward = backward
        return out

    def __mul__(self, other):
        other = self._lift(other)
        out = self._node(self.data * other.data, (self, other))

        def backward(g):
            if self.requires_grad:
                self.grad += _unbroadcast(g * other.data, self.data.shape)
            if other.requires_grad:
                other.grad += _unbroadcast(g * self.data, other.data.shape)

        out._backward = backward
        return out

    def __truediv__(self, other):
        other = self._lift(other)
        out = self._node(self.data / other.data, (self, other))

        def backward(g):
            if self.requires_grad:
                self.grad += _unbroadcast(g / other.data, self.data.shape)
            if other.requires_grad:
                other.grad += _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape)

        out._backward = backward
        return out

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self._node(self.data ** exponent, (self,))

        def backward(g):
            if self.requires_grad:
                self.grad += g * exponent * self.data ** (exponent - 1)

        out._backward = backward
        return out

    def __matmul__(self, other):
        other = self._lift(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError("matmul requires 2-D operands")
        out = self._node(self.data @ other.data, (self, other))

        def backward(g):
            if self.requires_grad:
                self.grad += g @ other.data.T
            if other.requires_grad:
                other.grad += self.data.T @ g

        out._backward = backward
        return out

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __radd__(self, other):
        return self + other

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __rmul__(self, other):
        return self * other

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __rmatmul__(self, other):
        return self._lift(other) @ self

    def __getitem__(self, idx):
        out = self._node(self.data[idx], (self,))

        def backward(g):
            if self.requires_grad:
                np.add.at(self.grad, idx, g)

        out._backward = backward
        return out

    # -- elementwise nonlinearities ---------------------------------------

    def exp(self):
        e = np.exp(self.data)
        out = self._node(e, (self,))

        def backward(g):
            if self.requires_grad:
                self.grad += g * e

        out._backward = backward
        return out

    def log(self):
        out = self._node(np.log(self.data), (self,))

        def backward(g):
            if self.requires_grad:
                self.grad += g / self.data

        out._backward = backward
        return out

    def sqrt(self):
        r = np.sqrt(self.data)
        out = self._node(r, (self,))

        def backward(g):
            if self.requires_grad:
                self.grad += g * 0.5 / r

        out._backward = backward
        return out

    def relu(self):
        mask = self.data > 0
        out = self._node(np.maximum(self.data, 0.0), (self,))  # NaN stays NaN

        def backward(g):
            if self.requires_grad:
                self.grad += g * mask

        out._backward = backward
        return out

    # -- reductions and reshaping -----------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out = self._node(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def backward(g):
            if not self.requires_grad:
                return
            if axis is None:
                self.grad += np.broadcast_to(g, self.data.shape)
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                self.grad += np.broadcast_to(gg, self.data.shape)

        out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        out = self._node(self.data.reshape(*shape), (self,))

        def backward(g):
            if self.requires_grad:
                self.grad += g.reshape(self.data.shape)

        out._backward = backward
        return out

    @property
    def T(self):
        out = self._node(self.data.T, (self,))

        def backward(g):
            if self.requires_grad:
                self.grad += g.T

        out._backward = backward
        return out

    # -- backward pass -----------------------------------------------------

    def backward(self):
        if self.data.shape != ():
            raise ValueError("backward() requires a scalar root")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in seen:
                    stack.append((parent, False))
        for node in order:
            node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def logsumexp(t: Tensor, axis: int = 1) -> Tensor:
    """Row-wise log-sum-exp. The max shift is a detached constant, which
    leaves both the value and the gradient exact."""
    shift = np.max(t.data, axis=axis, keepdims=True)
    return (t - shift).exp().sum(axis=axis, keepdims=True).log() + shift


def normalize_rows(t: Tensor) -> Tensor:
    """Unit-normalize each row; rows must be nonzero."""
    norms_sq = (t * t).sum(axis=1, keepdims=True)
    if np.any(norms_sq.data < 1e-60):
        raise ValueError("degenerate vector: cannot normalize a zero row")
    return t / norms_sq.sqrt()
