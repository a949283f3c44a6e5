"""The layer stack every model shares, with its hand-written reverse pass.

A stack is the `prefix.{i}` affine layers of a parameter dict, a leaky-relu
between each two of them (after inverted dropout, when training a DLDPO
adaptor), and each output row scaled to unit L2 norm. `forward` runs it in
plain numpy; inference keeps nothing, and a training call also returns the
`Saved` arrays that `backward` needs to turn the loss gradient at the unit
output into the gradient of every layer's parameters.

`backward` repeats, float for float and in the same order, the backward
pass of the reverse-mode primitive tape kept as the test oracle
(`tests/tape_oracle.py`), so its gradients are bit-identical to the tape's.
All randomness (dropout) is drawn from a caller-supplied
`numpy.random.Generator`, so a replayed training step is bit-identical.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import ContractError, DivergenceError

EPS_NORM = 1e-12     # row norms <= this, or non-finite, are degenerate
EPS_COS = 1e-7       # cosine clamp margin before arccos
PI = math.pi
_BLOCK_ROWS = 256    # rows per inference activation block


class Saved(NamedTuple):
    """What a training forward keeps for `backward`, per layer i."""
    inputs: list        # the input of affine layer i
    factors: list       # before layer i >= 1: the activation's factor, 1
                        # where the pre-activation is >= 0 and slope
                        # elsewhere; kept because at slope 0 the output
                        # cannot tell the sign
    keep: list          # inverted-dropout mask before layer i >= 1, or None
    unit: np.ndarray    # the unit-norm output
    norms: np.ndarray   # its row norms before scaling


def _leaky_relu_rows(h: np.ndarray, slope: float) -> None:
    """Multiply `h` in place by the training path's factor, a block of
    `_BLOCK_ROWS` rows at a time: the same floats without a full-size factor
    array. A masked multiply (`where=h < 0.0`) gives them too, about 6x
    slower at 128 to 5,920 rows of width 128."""
    for start in range(0, len(h), _BLOCK_ROWS):
        block = h[start:start + _BLOCK_ROWS]
        block *= np.maximum(block >= 0.0, slope)


def forward(params: dict[str, np.ndarray], prefix: str, slope: float,
            x: np.ndarray, train: bool = False, dropout_p: float = 0.0,
            rng: Optional[np.random.Generator] = None):
    """The unit-norm output of the `prefix` stack on the rows of `x`.

    A training call returns `(unit, saved)` and, when `dropout_p` > 0, draws
    a mask `(rng.random(shape) >= p) / (1 - p)` before each activation;
    inference returns the unit rows alone, never drops, and keeps no factor:
    it activates a block of rows at a time (`_leaky_relu_rows`). Each layer
    works in place on its one output array."""
    x = np.asarray(x, dtype=np.float64)
    width = params[f"{prefix}.0.W"].shape[0]
    if x.ndim != 2 or x.shape[1] != width:
        raise ContractError(
            f"batch width {x.shape} does not match input width {width}")
    if not 0.0 <= slope < 1.0:
        raise ContractError(f"leaky-relu slope must be in [0, 1), got {slope}")
    if train and dropout_p and rng is None:
        raise ContractError("dropout with p > 0 requires an rng")
    inputs, factors, keep = [x], [], []
    h = x @ params[f"{prefix}.0.W"]
    h += params[f"{prefix}.0.b"]
    i = 1
    while f"{prefix}.{i}.W" in params:
        if train:
            mask = None
            if dropout_p:
                mask = (rng.random(h.shape) >= dropout_p) / (1.0 - dropout_p)
                h *= mask
            # max(True, slope) is 1.0 and max(False, slope) is slope, as the
            # slope lies in [0, 1); unlike np.where, this does not branch
            factor = np.maximum(h >= 0.0, slope)
            h *= factor
            inputs.append(h)
            factors.append(factor)
            keep.append(mask)
        else:
            _leaky_relu_rows(h, slope)
        h = h @ params[f"{prefix}.{i}.W"]
        h += params[f"{prefix}.{i}.b"]
        i += 1
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    if np.any(norms <= EPS_NORM) or not np.isfinite(norms).all():
        raise DivergenceError(
            f"row norm at or below {EPS_NORM} or not finite; cannot normalize")
    h /= norms
    return (h, Saved(inputs, factors, keep, h, norms)) if train else h


def backward(params: dict[str, np.ndarray], prefix: str, saved: Saved,
             g: np.ndarray, out: Optional[dict[str, np.ndarray]] = None,
             ) -> dict[str, np.ndarray]:
    """The gradient of every `prefix.{i}` parameter, given `g`, the loss
    gradient at the unit output of the training forward that kept `saved`,
    each written into its array of `out` when given; returns `out` or a dict."""
    # d(x/r)/dx applied to g: (g - y * <g, y>_row) / r
    inner = np.sum(g * saved.unit, axis=1, keepdims=True)
    g = (g - saved.unit * inner) / saved.norms
    grads = {} if out is None else out
    for i in range(len(saved.inputs) - 1, -1, -1):
        b, w = f"{prefix}.{i}.b", f"{prefix}.{i}.W"
        grads[b] = np.sum(g, axis=0, out=grads.get(b))
        grads[w] = np.matmul(saved.inputs[i].T, g, out=grads.get(w))
        if i:
            g = g @ params[f"{prefix}.{i}.W"].T
            g *= saved.factors[i - 1]
            if saved.keep[i - 1] is not None:
                g *= saved.keep[i - 1]
    return grads
