"""The hand-written backward pass of the layer stack, against finite
differences.

Builds a tiny student by hand (affine, leaky ReLU, affine, row
normalization), scores it with the mimicry MSE against a fixed unit-norm
target, runs the training forward and the backward, and checks every
parameter gradient against central finite differences.
"""

import numpy as np

from mstkd import backward, forward, kd_mse

rng = np.random.default_rng(0)

# parameters, a batch of four 3-vectors and the unit-norm rows to mimic
params = {"net.0.W": rng.normal(size=(3, 5)), "net.0.b": rng.normal(size=5),
          "net.1.W": rng.normal(size=(5, 2)), "net.1.b": rng.normal(size=2)}
x = rng.normal(size=(4, 3))
target = rng.normal(size=(4, 2))
target /= np.linalg.norm(target, axis=1, keepdims=True)

emb, saved = forward(params, "net", 0.01, x, train=True)
loss, g_emb = kd_mse(target, emb)
print(f"forward value: {loss:.6f} (mean squared distance to the target)")
print(f"the training forward kept the input of each of its {len(saved.inputs)} "
      "layers, the hidden layer's activation factors and the row norms")
assert np.array_equal(emb, forward(params, "net", 0.01, x))  # = inference

grads = backward(params, "net", saved, g_emb)
print(f"backward: one gradient per parameter, {sorted(grads)}")


def loss_fn(p):
    hh = x @ p["net.0.W"] + p["net.0.b"]
    hh = np.where(hh >= 0, hh, 0.01 * hh)
    e = hh @ p["net.1.W"] + p["net.1.b"]
    e = e / np.linalg.norm(e, axis=1, keepdims=True)
    return float(np.mean((target - e) ** 2))


eps = 1e-6
print("\nevery gradient entry against central finite differences:")
for name, value in params.items():
    numeric = np.zeros_like(value)
    for idx in np.ndindex(value.shape):
        plus = {n: p.copy() for n, p in params.items()}
        minus = {n: p.copy() for n, p in params.items()}
        plus[name][idx] += eps
        minus[name][idx] -= eps
        numeric[idx] = (loss_fn(plus) - loss_fn(minus)) / (2 * eps)
    worst = np.abs(grads[name] - numeric).max()
    print(f"  {name} {str(value.shape):7s} max |backward - finite differences| "
          f"= {worst:.1e}")
    assert worst < 1e-7, name
