"""Reverse-mode automatic differentiation over dense float64 arrays.

A `Tape` records every operation in creation order, which is already a
topological order of the computation graph. `backward` walks the recorded
backward closures once in reverse, accumulating gradients into every tensor
that requires them.

The tape holds only the six operations that training records: `affine`,
`leaky_relu`, `dropout` and `l2_normalize` for the models, and `scale` and
`add` to combine the student's losses. `affine` and the two training losses
(`losses.elastic_arcface`, `losses.kd_mse`) are each one node whose backward
repeats, float for float, the chain of primitives it replaces; that
primitive chain (`matmul`, `clamp`, `arccos`, `logsumexp_rows`, ...) is the
test oracle and lives in `tests/tape_oracle.py`, built on `Tape._emit` and
`_accumulate`.

All randomness (dropout) is drawn from a caller-supplied
`numpy.random.Generator`, so replaying a graph with the same seed is
bit-identical. The tape is for training only; inference is plain numpy
(`models.forward`).
"""
from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, DegenerateEmbeddingError, DimensionError

EPS_NORM = 1e-12     # row norms at or below this are degenerate
EPS_COS = 1e-7       # cosine clamp margin before arccos
PI = math.pi


class DiffTensor:
    """Dense float64 array participating in a tape's gradient computation."""

    __slots__ = ("tape", "node_id", "values", "grad", "requires_grad")

    def __init__(self, tape: "Tape", node_id: int, values: np.ndarray,
                 requires_grad: bool):
        self.tape = tape
        self.node_id = node_id
        self.values = values
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def __repr__(self) -> str:
        return f"DiffTensor(shape={self.values.shape}, node={self.node_id})"


class Tape:
    """Ordered record of operations; nodes are appended after their inputs.

    `nodes[i]` is the backward closure of `tensors[i]` (None for a leaf or a
    tensor that needs no gradient). Each tensor refers back to its tape, so
    a caller that is done with a tape empties both lists to let reference
    counting free the recorded arrays."""

    def __init__(self) -> None:
        self.nodes: list[Optional[Callable[[np.ndarray], None]]] = []
        self.tensors: list[DiffTensor] = []

    def _emit(self, values: np.ndarray,
              inputs: tuple[DiffTensor, ...],
              backward: Optional[Callable[[np.ndarray], None]],
              requires_grad: Optional[bool] = None) -> DiffTensor:
        if requires_grad is None:
            requires_grad = any(t.requires_grad for t in inputs)
        out = DiffTensor(self, len(self.nodes), values, requires_grad)
        self.nodes.append(backward if requires_grad else None)
        self.tensors.append(out)
        return out

    def param(self, values: np.ndarray) -> DiffTensor:
        """Leaf tensor that will receive gradients (shares the caller's array)."""
        arr = np.asarray(values, dtype=np.float64)
        return self._emit(arr, (), None, requires_grad=True)

    def constant(self, values) -> DiffTensor:
        """Leaf tensor excluded from gradient computation."""
        arr = np.asarray(values, dtype=np.float64)
        return self._emit(arr, (), None, requires_grad=False)

    def backward(self, loss: DiffTensor) -> None:
        """Populate `.grad` for every tensor reachable from `loss`.

        `loss` must be a scalar recorded on this tape; its own gradient is
        seeded with 1. Each node is visited exactly once, in reverse order.
        """
        if loss.tape is not self:
            raise ContractError("loss was recorded on a different tape")
        if loss.values.shape != ():
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.values.shape}")
        _accumulate(loss, np.ones((), dtype=np.float64))
        for node_id in range(loss.node_id, -1, -1):
            backward = self.nodes[node_id]
            grad = self.tensors[node_id].grad
            if backward is not None and grad is not None:
                backward(grad)


def _accumulate(t: DiffTensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # a copy: `add` hands the same array to both of its operands
        t.grad = g.copy()
    else:
        t.grad += g


def _same_tape(*tensors: DiffTensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ContractError("operands recorded on different tapes")
    return tape


def _check_matmul(a: DiffTensor, b: DiffTensor) -> None:
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise DimensionError("matmul expects 2-D operands")
    if a.values.shape[1] != b.values.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions differ: {a.values.shape} x {b.values.shape}")


def affine(x: DiffTensor, w: DiffTensor, b: DiffTensor) -> DiffTensor:
    """x @ w + b with a 1-D bias, recorded as one node.

    Values and gradients are bit-identical to the oracle chain
    `bias_add(matmul(x, w), b)`."""
    tape = _same_tape(x, w, b)
    _check_matmul(x, w)
    if b.values.ndim != 1 or b.values.shape[0] != w.values.shape[1]:
        raise DimensionError(
            f"bias shape {b.values.shape} does not fit {w.values.shape[1]} columns")
    out_values = x.values @ w.values
    out_values += b.values

    def bwd(g: np.ndarray) -> None:
        _accumulate(b, g.sum(axis=0))
        if x.requires_grad:
            _accumulate(x, g @ w.values.T)
        if w.requires_grad:
            _accumulate(w, x.values.T @ g)

    return tape._emit(out_values, (x, w, b), bwd)


def add(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    """Elementwise addition of same-shape tensors."""
    tape = _same_tape(a, b)
    if a.values.shape != b.values.shape:
        raise DimensionError(f"add shapes differ: {a.values.shape} vs {b.values.shape}")

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return tape._emit(a.values + b.values, (a, b), bwd)


def scale(a: DiffTensor, c: float) -> DiffTensor:
    """Multiply by a python scalar constant."""
    c = float(c)

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g * c)

    return a.tape._emit(a.values * c, (a,), bwd)


def leaky_relu(a: DiffTensor, slope: float) -> DiffTensor:
    """max(x, slope*x); the subgradient at 0 takes the positive branch."""
    if not 0.0 <= slope < 1.0:
        raise ContractError(f"leaky_relu slope must be in [0, 1), got {slope}")
    factor = np.where(a.values >= 0.0, 1.0, slope)
    out_values = a.values * factor

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g * factor)

    return a.tape._emit(out_values, (a,), bwd)


def dropout(a: DiffTensor, p: float,
            rng: Optional[np.random.Generator] = None) -> DiffTensor:
    """Inverted dropout: survivors scaled by 1/(1-p); the identity at p = 0.

    Dropout exists only on the training tape; inference skips it."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        def bwd_id(g: np.ndarray) -> None:
            _accumulate(a, g)
        return a.tape._emit(a.values.copy(), (a,), bwd_id)
    if rng is None:
        raise ContractError("dropout with p > 0 requires an rng")
    keep = (rng.random(a.values.shape) >= p) / (1.0 - p)

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g * keep)

    return a.tape._emit(a.values * keep, (a,), bwd)


def l2_normalize(a: DiffTensor) -> DiffTensor:
    """Scale each row of a 2-D tensor to unit L2 norm."""
    if a.values.ndim != 2:
        raise DimensionError("l2_normalize expects a 2-D tensor")
    norms = np.linalg.norm(a.values, axis=1, keepdims=True)
    if np.any(norms <= EPS_NORM):
        raise DegenerateEmbeddingError(
            f"row norm at or below {EPS_NORM}; cannot normalize")
    out_values = a.values / norms

    def bwd(g: np.ndarray) -> None:
        # d(x/r)/dx applied to g: (g - y * <g, y>_row) / r
        inner = np.sum(g * out_values, axis=1, keepdims=True)
        _accumulate(a, (g - out_values * inner) / norms)

    return a.tape._emit(out_values, (a,), bwd)
