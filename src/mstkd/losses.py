"""The two training objectives, ElasticArcFace and the embedding mimicry MSE,
and the student objective that combines them.

Each loss takes plain arrays and returns its batch-mean value together with
the gradient of that value with respect to its inputs; the angular-margin
loss takes its cross-entropy through the log-sum-exp path for stability. It
follows the elastic formulation: cosines are clamped, converted to angles,
shifted by a per-sample margin drawn from Normal(m, sigma^2) (exactly m when
sigma is 0), and mapped back through cos before scaling.

`EafConfig` admits only finite `s`, `m` and `sigma`, so finite unit-norm
embeddings always give finite logits; a non-finite embedding yields a
non-finite loss, which the training loop's divergence rule stops on.

The gradients repeat the float operations of the equivalent chain of
reverse-mode primitives in the same order and on the same array layouts,
so values and gradients are bit-identical to that chain. The chain, with
the softmax cross-entropy it ends in, is the test oracle
(`tests/tape_oracle.py`).

The angular-margin loss allocates one batch x classes array: the cosines,
the logits, the softmax and the logit gradient each overwrite it in place,
with the same floats in the same order as separate arrays would hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import EPS_COS, EPS_NORM, PI
from .errors import ConfigError, ContractError, DivergenceError

UNIT_NORM_TOL = 1e-8


@dataclass
class EafConfig:
    s: float = 64.0
    m: float = 0.5
    sigma: float = 0.05

    def validate(self) -> None:
        if not (0 < self.s < math.inf and 0 <= self.m < math.inf
                and 0 <= self.sigma < math.inf):
            raise ConfigError("EafConfig requires s > 0, m >= 0, sigma >= 0, "
                              "all finite")


def _check_labels(labels: np.ndarray, n_classes: int, batch: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (batch,):
        raise ContractError("labels must provide one class index per row")
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ContractError("label out of range")
    return labels


def elastic_arcface(emb: np.ndarray, class_weights: np.ndarray,
                    labels: np.ndarray, cfg: EafConfig,
                    rng: Optional[np.random.Generator] = None,
                    out: Optional[np.ndarray] = None,
                    ) -> tuple[float, np.ndarray, np.ndarray]:
    """Angular-margin cross-entropy with a per-sample Gaussian margin.

    The target-class cosine is clamped, turned into an angle, shifted by a
    margin drawn from Normal(m, sigma^2) (fixed at m when sigma is 0), and
    mapped back; the shifted angle is clipped to [0, pi] so a larger margin
    can never make the target logit more favorable. All logits are scaled
    by s before the cross-entropy. Returns the loss and its gradients with
    respect to the embeddings and the class weights; the latter is written
    into `out` when given.
    """
    cfg.validate()
    w = class_weights
    if emb.ndim != 2 or w.ndim != 2:
        raise ContractError("elastic_arcface expects 2-D embeddings and weights")
    if emb.shape[1] != w.shape[1]:
        raise ContractError("embedding and class-weight dimensions differ")
    norms = np.linalg.norm(emb, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        raise ContractError("embeddings must be unit-norm rows")
    batch = emb.shape[0]
    labels = _check_labels(labels, w.shape[0], batch)

    if cfg.sigma > 0.0:
        if rng is None:
            raise ContractError("elastic_arcface with sigma > 0 requires an rng")
        margins = rng.normal(cfg.m, cfg.sigma, size=batch)
    else:
        margins = np.full(batch, cfg.m)

    # cosine logits against the row-normalized header
    w_norms = np.linalg.norm(w, axis=1, keepdims=True)
    if np.any(w_norms <= EPS_NORM):
        raise DivergenceError(
            f"row norm at or below {EPS_NORM}; cannot normalize")
    wn = w / w_norms
    wn_t = wn.T.copy()
    lo, hi = -1.0 + EPS_COS, 1.0 - EPS_COS
    # the one batch x classes buffer: cosines, logits, softmax, gradient
    raw = emb @ wn_t
    cos_inside = (raw > lo) & (raw < hi)
    np.clip(raw, lo, hi, out=raw)
    # the target logit: cos(clip(arccos(cosine) + margin, 0, pi))
    rows = np.arange(batch)
    target_cos = raw[rows, labels]
    shifted = np.arccos(target_cos) + margins
    angle_inside = (shifted > 0.0) & (shifted < PI)
    shifted = np.clip(shifted, 0.0, PI)
    raw[rows, labels] = np.cos(shifted)
    raw *= float(cfg.s)
    # softmax cross-entropy
    top = raw.max(axis=1, keepdims=True)
    target_logit = raw[rows, labels]
    raw -= top
    np.exp(raw, out=raw)
    sums = raw.sum(axis=1, keepdims=True)
    per_row = (top + np.log(sums)).reshape(-1) - target_logit
    raw /= sums

    # the backward pass, in the same buffer; at a target, softmax * g_row
    # - g_row is the float the one-hot's -g_row + softmax * g_row gives
    g_row = 1.0 / batch
    raw *= g_row
    raw[rows, labels] -= g_row
    raw *= float(cfg.s)
    g_cos = -raw[rows, labels] * np.sin(shifted) * angle_inside
    g_target = -g_cos / np.sqrt(1.0 - target_cos * target_cos)
    # 0.0 + g stores a -0.0 target gradient as +0.0, as the tape does
    raw[rows, labels] = 0.0 + g_target
    g_raw = np.multiply(raw, cos_inside, out=raw)
    g_emb = g_raw @ wn_t.T
    g_wn = (emb.T @ g_raw).T.copy()
    del raw, g_raw, cos_inside   # before the header gradient's temporaries
    inner = np.sum(g_wn * wn, axis=1, keepdims=True)
    return (float(per_row.mean()), g_emb,
            np.divide(g_wn - wn * inner, w_norms, out=out))


def kd_mse(target: np.ndarray, student_emb: np.ndarray,
           weight: float = 1.0) -> tuple[float, np.ndarray]:
    """Mean squared error between the mimicry target and the student embedding.

    Equals the batch mean of (1/D) * sum_d (target - emb)^2. Returns the
    loss and the gradient of `weight` times it with respect to the student
    embedding; the target is a constant and gets none.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != student_emb.shape:
        raise ContractError(
            f"kd_mse shapes differ: {target.shape} vs {student_emb.shape}")
    diff = target - student_emb
    squares = diff * diff
    g_each = float(weight) / squares.size
    g_diff = g_each * diff
    g_diff += g_each * diff   # d(diff * diff): one term per factor
    return float(squares.mean()), -g_diff


def student_loss(eaf: Optional[tuple[float, np.ndarray]],
                 kd: tuple[float, np.ndarray],
                 lam: float) -> tuple[float, np.ndarray]:
    """Combined student objective: classification + lam*kd (eaf_kd), or
    lam*kd alone when no classification term is given (a_kd).

    `eaf` is the (loss, embedding gradient) of `elastic_arcface` and `kd`
    that of `kd_mse` at weight `lam`. Returns the objective and its gradient
    at the embedding, the classification gradient plus the mimicry one."""
    weighted = kd[0] * float(lam)
    if eaf is None:
        return weighted, kd[1]
    return eaf[0] + weighted, eaf[1] + kd[1]
