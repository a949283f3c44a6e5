"""The reverse-mode primitive tape: the bitwise oracle of the hand-written
backward passes.

A `Tape` records every operation in creation order, which is already a
topological order of the computation graph. `backward` walks the recorded
backward closures once in reverse, accumulating gradients into every tensor
that requires them. Each op records one node and its backward closure feeds
`_accumulate`; the tests check every op against finite differences.

`backbone_graph` and `adaptor_graph` record the models' training forward,
and `elastic_arcface`, `kd_mse` and `student_loss` the training losses, one
node per primitive. The production code (`mstkd.autodiff.forward` and
`backward`, the array losses of `mstkd.losses`) must give the same values
and gradients, bit for bit.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from mstkd.autodiff import EPS_COS, EPS_NORM, PI
from mstkd.errors import ContractError, DivergenceError
from mstkd.losses import _check_labels


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
    tensor that needs no gradient)."""

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
        raise ContractError("matmul expects 2-D operands")
    if a.values.shape[1] != b.values.shape[0]:
        raise ContractError(
            f"matmul inner dimensions differ: {a.values.shape} x {b.values.shape}")


def matmul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    """Matrix product of two 2-D tensors."""
    tape = _same_tape(a, b)
    _check_matmul(a, b)
    out_values = a.values @ b.values

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g @ b.values.T)
        if b.requires_grad:
            _accumulate(b, a.values.T @ g)

    return tape._emit(out_values, (a, b), bwd)


def bias_add(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    """A 1-D bias added to each row of a 2-D tensor."""
    tape = _same_tape(a, b)
    if a.values.ndim != 2 or b.values.shape != (a.values.shape[1],):
        raise ContractError(f"bias shape {b.values.shape} does not fit rows "
                             f"of {a.values.shape}")

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g.sum(axis=0))

    return tape._emit(a.values + b.values, (a, b), bwd)


def transpose(a: DiffTensor) -> DiffTensor:
    if a.values.ndim != 2:
        raise ContractError("transpose expects a 2-D tensor")

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g.T)

    return a.tape._emit(a.values.T.copy(), (a,), bwd)


def sub(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    tape = _same_tape(a, b)
    if a.values.shape != b.values.shape:
        raise ContractError(f"sub shapes differ: {a.values.shape} vs {b.values.shape}")

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, -g)

    return tape._emit(a.values - b.values, (a, b), bwd)


def mul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    """Elementwise (Hadamard) product of same-shape tensors."""
    tape = _same_tape(a, b)
    if a.values.shape != b.values.shape:
        raise ContractError(f"mul shapes differ: {a.values.shape} vs {b.values.shape}")

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g * b.values)
        _accumulate(b, g * a.values)

    return tape._emit(a.values * b.values, (a, b), bwd)


def clamp(a: DiffTensor, lo: float, hi: float) -> DiffTensor:
    """Clip values to [lo, hi]; gradient is zero outside the open interval."""
    out_values = np.clip(a.values, lo, hi)
    inside = (a.values > lo) & (a.values < hi)

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g * inside)

    return a.tape._emit(out_values, (a,), bwd)


def arccos(a: DiffTensor) -> DiffTensor:
    """Elementwise arccos; inputs must lie in [-1, 1] (clamp first)."""
    if np.any(np.abs(a.values) > 1.0):
        raise ContractError("arccos input outside [-1, 1]")
    out_values = np.arccos(a.values)

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, -g / np.sqrt(1.0 - a.values * a.values))

    return a.tape._emit(out_values, (a,), bwd)


def cos(a: DiffTensor) -> DiffTensor:
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, -g * np.sin(a.values))

    return a.tape._emit(np.cos(a.values), (a,), bwd)


def logsumexp_rows(a: DiffTensor) -> DiffTensor:
    """Row-wise log(sum(exp(x))) of a 2-D tensor, computed stably."""
    if a.values.ndim != 2:
        raise ContractError("logsumexp_rows expects a 2-D tensor")
    m = a.values.max(axis=1, keepdims=True)
    expx = np.exp(a.values - m)
    sums = expx.sum(axis=1, keepdims=True)
    out_values = (m + np.log(sums)).reshape(-1)
    softmax = expx / sums

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, softmax * g[:, None])

    return a.tape._emit(out_values, (a,), bwd)


def pick(a: DiffTensor, idx: np.ndarray) -> DiffTensor:
    """Select one column per row: out[i] = a[i, idx[i]]."""
    if a.values.ndim != 2:
        raise ContractError("pick expects a 2-D tensor")
    idx = np.asarray(idx)
    if idx.shape != (a.values.shape[0],):
        raise ContractError("pick needs one index per row")
    if np.any(idx < 0) or np.any(idx >= a.values.shape[1]):
        raise ContractError("pick index out of range")
    rows = np.arange(a.values.shape[0])
    out_values = a.values[rows, idx].copy()

    def bwd(g: np.ndarray) -> None:
        full = np.zeros_like(a.values)
        full[rows, idx] = g
        _accumulate(a, full)

    return a.tape._emit(out_values, (a,), bwd)


def scatter_replace(a: DiffTensor, idx: np.ndarray, v: DiffTensor) -> DiffTensor:
    """Copy of `a` with out[i, idx[i]] = v[i]; gradients split accordingly."""
    tape = _same_tape(a, v)
    idx = np.asarray(idx)
    if a.values.ndim != 2 or v.values.shape != (a.values.shape[0],):
        raise ContractError("scatter_replace expects matrix plus one value per row")
    if np.any(idx < 0) or np.any(idx >= a.values.shape[1]):
        raise ContractError("scatter_replace index out of range")
    rows = np.arange(a.values.shape[0])
    out_values = a.values.copy()
    out_values[rows, idx] = v.values

    def bwd(g: np.ndarray) -> None:
        ga = g.copy()
        ga[rows, idx] = 0.0
        _accumulate(a, ga)
        _accumulate(v, g[rows, idx])

    return tape._emit(out_values, (a, v), bwd)


def sum_all(a: DiffTensor) -> DiffTensor:
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, np.full_like(a.values, float(g)))

    return a.tape._emit(np.asarray(a.values.sum()), (a,), bwd)


def mean_all(a: DiffTensor) -> DiffTensor:
    n = a.values.size

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, np.full_like(a.values, float(g) / n))

    return a.tape._emit(np.asarray(a.values.mean()), (a,), bwd)


def add(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    """Elementwise addition of same-shape tensors."""
    tape = _same_tape(a, b)
    if a.values.shape != b.values.shape:
        raise ContractError(f"add shapes differ: {a.values.shape} vs {b.values.shape}")

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
    """Inverted dropout: survivors scaled by 1/(1-p); the identity at p = 0."""
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
        raise ContractError("l2_normalize expects a 2-D tensor")
    norms = np.linalg.norm(a.values, axis=1, keepdims=True)
    if np.any(norms <= EPS_NORM):
        raise DivergenceError(
            f"row norm at or below {EPS_NORM}; cannot normalize")
    out_values = a.values / norms

    def bwd(g: np.ndarray) -> None:
        # d(x/r)/dx applied to g: (g - y * <g, y>_row) / r
        inner = np.sum(g * out_values, axis=1, keepdims=True)
        _accumulate(a, (g - out_values * inner) / norms)

    return a.tape._emit(out_values, (a,), bwd)


def softmax_ce(logits: DiffTensor, labels: np.ndarray) -> DiffTensor:
    """Mean over the batch of -log softmax(logits)[label]."""
    if logits.values.ndim != 2:
        raise ContractError("softmax_ce expects a [batch, classes] matrix")
    if not np.all(np.isfinite(logits.values)):
        raise ContractError("softmax_ce requires finite logits")
    labels = _check_labels(labels, logits.values.shape[1], logits.values.shape[0])
    return mean_all(sub(logsumexp_rows(logits), pick(logits, labels)))


# --- the models and losses of training, recorded one primitive at a time ---

def affine(x: DiffTensor, w: DiffTensor, b: DiffTensor) -> DiffTensor:
    return bias_add(matmul(x, w), b)


def stack_graph(tape: Tape, ptens: dict[str, DiffTensor], prefix: str,
                slope: float, x_values: np.ndarray, dropout_p: float = 0.0,
                rng: Optional[np.random.Generator] = None) -> DiffTensor:
    """The `prefix.{i}` affine layers, dropout (at p > 0) and leaky-relu
    between them, then row normalization."""
    h = affine(tape.constant(x_values), ptens[f"{prefix}.0.W"],
               ptens[f"{prefix}.0.b"])
    i = 1
    while f"{prefix}.{i}.W" in ptens:
        if dropout_p:
            h = dropout(h, dropout_p, rng)
        h = leaky_relu(h, slope)
        h = affine(h, ptens[f"{prefix}.{i}.W"], ptens[f"{prefix}.{i}.b"])
        i += 1
    return l2_normalize(h)


def backbone_graph(tape: Tape, ptens: dict[str, DiffTensor], cfg,
                   x_values: np.ndarray) -> DiffTensor:
    """The backbone's training forward; returns the unit-norm embedding."""
    return stack_graph(tape, ptens, "backbone", cfg.slope, x_values)


def adaptor_graph(tape: Tape, ptens: dict[str, DiffTensor], a,
                  fused_values: np.ndarray,
                  rng: Optional[np.random.Generator] = None) -> DiffTensor:
    """The adaptor's training forward; DLDPO drops before the activation."""
    p = a.dropout_p if a.kind == "DLDPO" else 0.0
    return stack_graph(tape, ptens, "adaptor", a.slope, fused_values, p, rng)


def elastic_arcface(emb: DiffTensor, w: DiffTensor, labels: np.ndarray, cfg,
                    margins: np.ndarray) -> DiffTensor:
    """The angular-margin loss at the given per-sample margins."""
    tape = emb.tape
    cosines = clamp(matmul(emb, transpose(l2_normalize(w))),
                    -1.0 + EPS_COS, 1.0 - EPS_COS)
    theta = arccos(pick(cosines, labels))
    shifted = clamp(add(theta, tape.constant(margins)), 0.0, PI)
    logits = scatter_replace(cosines, labels, cos(shifted))
    return softmax_ce(scale(logits, cfg.s), labels)


def kd_mse(target: np.ndarray, emb: DiffTensor) -> DiffTensor:
    diff = sub(emb.tape.constant(target), emb)
    return mean_all(mul(diff, diff))


def student_loss(classification: Optional[DiffTensor], kd: DiffTensor,
                 lam: float) -> DiffTensor:
    """classification + lam*kd, or lam*kd alone without classification."""
    weighted = scale(kd, lam)
    return weighted if classification is None else add(classification, weighted)
