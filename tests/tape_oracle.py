"""The primitive tape ops, kept as the test oracle.

Training records only `affine`, `leaky_relu`, `dropout`, `l2_normalize`,
`scale` and `add` (`mstkd.autodiff`). The fused nodes (`affine`,
`losses.elastic_arcface`, `losses.kd_mse`) each replace a chain of the
primitives below (`affine` is `bias_add(matmul(x, w), b)`), and
`test_fused_nodes` checks them against that chain bit for bit. Each op records one node on a `mstkd.autodiff.Tape` through
`Tape._emit`, and its backward closure feeds `_accumulate`, exactly as the
production ops do; the tests check these ops against finite differences.
"""

import numpy as np

from mstkd.autodiff import DiffTensor, _accumulate, _check_matmul, _same_tape
from mstkd.errors import ContractError, DimensionError
from mstkd.losses import _check_labels


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
        raise DimensionError(f"bias shape {b.values.shape} does not fit rows "
                             f"of {a.values.shape}")

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g.sum(axis=0))

    return tape._emit(a.values + b.values, (a, b), bwd)


def transpose(a: DiffTensor) -> DiffTensor:
    if a.values.ndim != 2:
        raise DimensionError("transpose expects a 2-D tensor")

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g.T)

    return a.tape._emit(a.values.T.copy(), (a,), bwd)


def sub(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    tape = _same_tape(a, b)
    if a.values.shape != b.values.shape:
        raise DimensionError(f"sub shapes differ: {a.values.shape} vs {b.values.shape}")

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, -g)

    return tape._emit(a.values - b.values, (a, b), bwd)


def mul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    """Elementwise (Hadamard) product of same-shape tensors."""
    tape = _same_tape(a, b)
    if a.values.shape != b.values.shape:
        raise DimensionError(f"mul shapes differ: {a.values.shape} vs {b.values.shape}")

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
        raise DimensionError("logsumexp_rows expects a 2-D tensor")
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
        raise DimensionError("pick expects a 2-D tensor")
    idx = np.asarray(idx)
    if idx.shape != (a.values.shape[0],):
        raise DimensionError("pick needs one index per row")
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
        raise DimensionError("scatter_replace expects matrix plus one value per row")
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


def softmax_ce(logits: DiffTensor, labels: np.ndarray) -> DiffTensor:
    """Mean over the batch of -log softmax(logits)[label]."""
    if logits.values.ndim != 2:
        raise DimensionError("softmax_ce expects a [batch, classes] matrix")
    if not np.all(np.isfinite(logits.values)):
        raise ContractError("softmax_ce requires finite logits")
    labels = _check_labels(labels, logits.values.shape[1], logits.values.shape[0])
    return mean_all(sub(logsumexp_rows(logits), pick(logits, labels)))
