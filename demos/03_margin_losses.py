"""The elastic angular-margin loss and the combined student objective.

Shows the margin-free reduction to plain softmax cross-entropy (checked
against a plain-numpy log-sum-exp of the scaled cosines), how the
loss tightens as the margin grows, the per-sample Gaussian margin draw,
and the lambda-weighted combination with the mimicry MSE.
"""

import numpy as np

from mstkd import autodiff as ad
from mstkd import EafConfig
from mstkd import elastic_arcface, kd_mse, student_loss

rng = np.random.default_rng(3)
batch, dim, classes = 6, 16, 10
emb = rng.normal(size=(batch, dim))
emb /= np.linalg.norm(emb, axis=1, keepdims=True)
weights = rng.normal(size=(classes, dim))
labels = rng.integers(0, classes, size=batch)

# with m=0 and sigma=0 the margin vanishes and only the scale remains
tape = ad.Tape()
no_margin = elastic_arcface(tape.param(emb), tape.param(weights), labels,
                            EafConfig(m=0.0, sigma=0.0))
wn = weights / np.linalg.norm(weights, axis=1, keepdims=True)
logits = 64.0 * (emb @ wn.T)
top = logits.max(axis=1, keepdims=True)
lse = (top + np.log(np.exp(logits - top).sum(axis=1, keepdims=True))).ravel()
plain = float(np.mean(lse - logits[np.arange(batch), labels]))
print(f"margin-free angular loss  {float(no_margin.values):.12f}")
print(f"softmax on scaled cosines {plain:.12f}")
assert abs(float(no_margin.values) - plain) < 1e-12

print("\nloss grows monotonically with the margin (sigma=0):")
for m in (0.0, 0.25, 0.5, 0.75):
    tape = ad.Tape()
    loss = elastic_arcface(tape.param(emb), tape.param(weights), labels,
                           EafConfig(m=m, sigma=0.0))
    print(f"  m={m:4.2f}: {float(loss.values):8.4f}")

print("\nsigma > 0 draws one margin per sample from Normal(0.5, 0.05^2):")
for seed in (10, 10, 11):
    tape = ad.Tape()
    loss = elastic_arcface(tape.param(emb), tape.param(weights), labels,
                           EafConfig(), rng=np.random.default_rng(seed))
    print(f"  margin seed {seed}: loss {float(loss.values):.6f}")
print("(same seed, same loss; sigma=0 pins the margin at its mean)")

# the combined student objective: classification + lambda * mimicry
target = rng.normal(size=(batch, dim))
target /= np.linalg.norm(target, axis=1, keepdims=True)
tape = ad.Tape()
e = tape.param(emb)
w = tape.param(weights)
eaf = elastic_arcface(e, w, labels, EafConfig(sigma=0.0))
kd = kd_mse(target, e)
combined = student_loss(eaf, kd, 10000.0)
print(f"\nclassification term {float(eaf.values):.4f} + 10000 * "
      f"mimicry {float(kd.values):.6f} = {float(combined.values):.4f}")
kd_only = student_loss(None, kd, 10000.0)
print(f"label-free variant: 10000 * mimicry = {float(kd_only.values):.4f}")
