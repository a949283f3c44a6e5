"""The two training objectives, ElasticArcFace and the embedding mimicry MSE,
and the student objective that combines them.

All losses return scalar `DiffTensor`s reduced by the batch mean; the
angular-margin loss takes its cross-entropy through the log-sum-exp path for
stability. It follows the elastic formulation: cosines are clamped,
converted to angles, shifted by a per-sample margin drawn from
Normal(m, sigma^2) (exactly m when sigma is 0), and mapped back through cos
before scaling.

`EafConfig` admits only finite `s`, `m` and `sigma`, so finite unit-norm
embeddings always give finite logits; a non-finite embedding yields a
non-finite loss, which the training loop's divergence rule stops on.

`elastic_arcface` and `kd_mse` each record one tape node. Their backward
passes repeat the float operations of the equivalent chain of autodiff
primitives in the same order and on the same array layouts, so values and
gradients are bit-identical to that chain. The chain, with the softmax
cross-entropy it ends in, is the test oracle (`tests/tape_oracle.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import DiffTensor
from .errors import ContractError, DegenerateEmbeddingError, DimensionError

UNIT_NORM_TOL = 1e-8


@dataclass
class EafConfig:
    s: float = 64.0
    m: float = 0.5
    sigma: float = 0.05

    def validate(self) -> None:
        if not (0 < self.s < math.inf and 0 <= self.m < math.inf
                and 0 <= self.sigma < math.inf):
            raise ContractError("EafConfig requires s > 0, m >= 0, sigma >= 0, "
                                "all finite")


def _check_labels(labels: np.ndarray, n_classes: int, batch: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (batch,):
        raise ContractError("labels must provide one class index per row")
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ContractError("label out of range")
    return labels


def elastic_arcface(embeddings: DiffTensor, class_weights: DiffTensor,
                    labels: np.ndarray, cfg: EafConfig,
                    rng: Optional[np.random.Generator] = None) -> DiffTensor:
    """Angular-margin cross-entropy with a per-sample Gaussian margin.

    The target-class cosine is clamped, turned into an angle, shifted by a
    margin drawn from Normal(m, sigma^2) (fixed at m when sigma is 0), and
    mapped back; the shifted angle is clipped to [0, pi] so a larger margin
    can never make the target logit more favorable. All logits are scaled
    by s before the cross-entropy.
    """
    cfg.validate()
    emb, w = embeddings.values, class_weights.values
    if emb.ndim != 2 or w.ndim != 2:
        raise DimensionError("elastic_arcface expects 2-D embeddings and weights")
    if emb.shape[1] != w.shape[1]:
        raise DimensionError("embedding and class-weight dimensions differ")
    norms = np.linalg.norm(emb, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        raise ContractError("embeddings must be unit-norm rows")
    batch = emb.shape[0]
    labels = _check_labels(labels, w.shape[0], batch)
    tape = ad._same_tape(embeddings, class_weights)

    if cfg.sigma > 0.0:
        if rng is None:
            raise ContractError("elastic_arcface with sigma > 0 requires an rng")
        margins = rng.normal(cfg.m, cfg.sigma, size=batch)
    else:
        margins = np.full(batch, cfg.m)

    # cosine logits against the row-normalized header
    w_norms = np.linalg.norm(w, axis=1, keepdims=True)
    if np.any(w_norms <= ad.EPS_NORM):
        raise DegenerateEmbeddingError(
            f"row norm at or below {ad.EPS_NORM}; cannot normalize")
    wn = w / w_norms
    wn_t = wn.T.copy()
    lo, hi = -1.0 + ad.EPS_COS, 1.0 - ad.EPS_COS
    raw = emb @ wn_t
    cos_inside = (raw > lo) & (raw < hi)
    cosines = np.clip(raw, lo, hi)
    # the target logit: cos(clip(arccos(cosine) + margin, 0, pi))
    rows = np.arange(batch)
    target_cos = cosines[rows, labels]
    shifted = np.arccos(target_cos) + margins
    angle_inside = (shifted > 0.0) & (shifted < ad.PI)
    shifted = np.clip(shifted, 0.0, ad.PI)
    logits = cosines.copy()
    logits[rows, labels] = np.cos(shifted)
    logits *= float(cfg.s)
    # softmax cross-entropy
    top = logits.max(axis=1, keepdims=True)
    expx = np.exp(logits - top)
    sums = expx.sum(axis=1, keepdims=True)
    per_row = (top + np.log(sums)).reshape(-1) - logits[rows, labels]
    softmax = expx / sums

    def bwd(g: np.ndarray) -> None:
        g_row = float(g) / batch
        g_logits = np.zeros_like(logits)
        g_logits[rows, labels] = -g_row
        g_logits += softmax * g_row
        g_logits *= float(cfg.s)
        g_cos = -g_logits[rows, labels] * np.sin(shifted) * angle_inside
        g_target = -g_cos / np.sqrt(1.0 - target_cos * target_cos)
        g_logits[rows, labels] = 0.0
        g_logits[rows, labels] += g_target
        g_raw = g_logits * cos_inside
        if embeddings.requires_grad:
            ad._accumulate(embeddings, g_raw @ wn_t.T)
        if class_weights.requires_grad:
            g_wn = (emb.T @ g_raw).T.copy()
            inner = np.sum(g_wn * wn, axis=1, keepdims=True)
            ad._accumulate(class_weights, (g_wn - wn * inner) / w_norms)

    return tape._emit(np.asarray(per_row.mean()), (embeddings, class_weights), bwd)


def kd_mse(target, student_emb: DiffTensor) -> DiffTensor:
    """Mean squared error between the mimicry target and the student embedding.

    The target is treated as a constant: no gradient reaches whatever
    produced it. Equals the batch mean of (1/D) * sum_d (target - emb)^2.
    """
    values = target.values if isinstance(target, DiffTensor) else np.asarray(target)
    if values.shape != student_emb.values.shape:
        raise DimensionError(
            f"kd_mse shapes differ: {values.shape} vs {student_emb.values.shape}")
    diff = np.asarray(values, dtype=np.float64) - student_emb.values
    squares = diff * diff

    def bwd(g: np.ndarray) -> None:
        g_each = float(g) / squares.size
        g_diff = g_each * diff
        g_diff += g_each * diff   # d(diff * diff): one term per factor
        ad._accumulate(student_emb, -g_diff)

    return student_emb.tape._emit(np.asarray(squares.mean()), (student_emb,), bwd)


def student_loss(classification: Optional[DiffTensor], kd: DiffTensor,
                 lam: float) -> DiffTensor:
    """Combined student objective: classification + lam*kd (eaf_kd), or
    lam*kd alone when no classification term is given (a_kd)."""
    weighted = ad.scale(kd, lam)
    return weighted if classification is None else ad.add(classification, weighted)
