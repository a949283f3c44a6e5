"""A tour of the reverse-mode tape, on the ops that training records.

Builds a tiny student by hand (affine, leaky ReLU, affine, row
normalization), scores it with the mimicry MSE against a fixed unit-norm
target, runs one backward pass, and checks the gradients against central
finite differences.
"""

import numpy as np

from mstkd import autodiff as ad
from mstkd import kd_mse

rng = np.random.default_rng(0)

# parameters, a batch of four 3-vectors and the unit-norm rows to mimic
w1, b1 = rng.normal(size=(3, 5)), rng.normal(size=5)
w2, b2 = rng.normal(size=(5, 2)), rng.normal(size=2)
x = rng.normal(size=(4, 3))
target = rng.normal(size=(4, 2))
target /= np.linalg.norm(target, axis=1, keepdims=True)

tape = ad.Tape()
tw1, tb1, tw2, tb2 = (tape.param(p) for p in (w1, b1, w2, b2))
h = ad.leaky_relu(ad.affine(tape.constant(x), tw1, tb1), 0.01)
emb = ad.l2_normalize(ad.affine(h, tw2, tb2))
loss = kd_mse(target, emb)

print(f"forward value: {float(loss.values):.6f} (mean squared distance to the target)")
print(f"tape recorded {len(tape.nodes)} nodes, in topological order by construction:")
print("  4 parameters, the input, affine, leaky_relu, affine, l2_normalize, kd_mse")

tape.backward(loss)
print(f"d(loss)/d(loss) seeded to {float(loss.grad)}; the constant input gets no "
      f"gradient: {tape.tensors[4].grad}")


def loss_fn(w1, b1, w2, b2):
    hh = x @ w1 + b1
    hh = np.where(hh >= 0, hh, 0.01 * hh)
    e = hh @ w2 + b2
    e = e / np.linalg.norm(e, axis=1, keepdims=True)
    return float(np.mean((target - e) ** 2))


eps = 1e-6
print("\nevery gradient entry against central finite differences:")
params = [w1, b1, w2, b2]
for k, (name, tensor) in enumerate(zip(("w1", "b1", "w2", "b2"), (tw1, tb1, tw2, tb2))):
    numeric = np.zeros_like(params[k])
    for idx in np.ndindex(params[k].shape):
        plus = [p.copy() for p in params]
        minus = [p.copy() for p in params]
        plus[k][idx] += eps
        minus[k][idx] -= eps
        numeric[idx] = (loss_fn(*plus) - loss_fn(*minus)) / (2 * eps)
    worst = np.abs(tensor.grad - numeric).max()
    print(f"  {name} {str(params[k].shape):7s} max |tape - finite differences| = {worst:.1e}")
    assert worst < 1e-7, name
