"""The elastic angular-margin loss and the combined student objective.

Shows the margin-free reduction to plain softmax cross-entropy (checked
against a plain-numpy log-sum-exp of the scaled cosines), how the
loss tightens as the margin grows, the per-sample Gaussian margin draw,
the lambda-weighted combination with the mimicry MSE, and the losses'
hand-written gradients against central finite differences.
"""

import numpy as np

from mstkd import EafConfig
from mstkd import elastic_arcface, kd_mse, student_loss

rng = np.random.default_rng(3)
batch, dim, classes = 6, 16, 10
emb = rng.normal(size=(batch, dim))
emb /= np.linalg.norm(emb, axis=1, keepdims=True)
weights = rng.normal(size=(classes, dim))
labels = rng.integers(0, classes, size=batch)

# with m=0 and sigma=0 the margin vanishes and only the scale remains
no_margin, _, _ = elastic_arcface(emb, weights, labels, EafConfig(m=0.0, sigma=0.0))
wn = weights / np.linalg.norm(weights, axis=1, keepdims=True)
logits = 64.0 * (emb @ wn.T)
top = logits.max(axis=1, keepdims=True)
lse = (top + np.log(np.exp(logits - top).sum(axis=1, keepdims=True))).ravel()
plain = float(np.mean(lse - logits[np.arange(batch), labels]))
print(f"margin-free angular loss  {no_margin:.12f}")
print(f"softmax on scaled cosines {plain:.12f}")
assert abs(no_margin - plain) < 1e-12

print("\nloss grows monotonically with the margin (sigma=0):")
for m in (0.0, 0.25, 0.5, 0.75):
    loss, _, _ = elastic_arcface(emb, weights, labels, EafConfig(m=m, sigma=0.0))
    print(f"  m={m:4.2f}: {loss:8.4f}")

print("\nsigma > 0 draws one margin per sample from Normal(0.5, 0.05^2):")
for seed in (10, 10, 11):
    loss, _, _ = elastic_arcface(emb, weights, labels, EafConfig(),
                                 rng=np.random.default_rng(seed))
    print(f"  margin seed {seed}: loss {loss:.6f}")
print("(same seed, same loss; sigma=0 pins the margin at its mean)")

# the combined student objective: classification + lambda * mimicry
target = rng.normal(size=(batch, dim))
target /= np.linalg.norm(target, axis=1, keepdims=True)
cfg = EafConfig(sigma=0.0)
eaf, g_eaf, g_w = elastic_arcface(emb, weights, labels, cfg)
kd = kd_mse(target, emb, 10000.0)
combined, g_emb = student_loss((eaf, g_eaf), kd, 10000.0)
print(f"\nclassification term {eaf:.4f} + 10000 * mimicry {kd[0]:.6f} = "
      f"{combined:.4f}")
kd_only, _ = student_loss(None, kd, 10000.0)
print(f"label-free variant: 10000 * mimicry = {kd_only:.4f}")

# each loss returns its gradients; the student's embedding gradient is the
# classification one plus lambda times the mimicry one. Finite differences
# perturb the embedding off the unit sphere, so they differentiate the
# losses written out in numpy, where only the header is normalized.
def objective(e, w):
    wn = w / np.linalg.norm(w, axis=1, keepdims=True)
    cos = np.clip(e @ wn.T, -1.0 + 1e-7, 1.0 - 1e-7)
    rows = np.arange(batch)
    logit = cos.copy()
    logit[rows, labels] = np.cos(np.clip(np.arccos(cos[rows, labels]) + cfg.m,
                                         0.0, np.pi))
    logit *= cfg.s
    top = logit.max(axis=1, keepdims=True)
    lse = (top + np.log(np.exp(logit - top).sum(axis=1, keepdims=True))).ravel()
    return (float(np.mean(lse - logit[rows, labels]))
            + 10000.0 * float(np.mean((target - e) ** 2)))


print("\nthe combined objective's gradients against central finite differences:")
eps = 1e-6
checks = (("embeddings", emb, g_emb, lambda e: objective(e, weights)),
          ("header", weights, g_w, lambda w: objective(emb, w)))
for name, array, analytic, f in checks:
    numeric = np.zeros_like(array)
    for idx in np.ndindex(array.shape):
        plus, minus = array.copy(), array.copy()
        plus[idx] += eps
        minus[idx] -= eps
        numeric[idx] = (f(plus) - f(minus)) / (2 * eps)
    worst = np.abs(analytic - numeric).max() / np.abs(numeric).max()
    print(f"  {name:10s} max relative |backward - finite differences| = {worst:.1e}")
    assert worst < 1e-5, name
