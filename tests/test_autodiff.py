"""The primitive tape of `tape_oracle` against finite differences and its
own invariants: the oracle the hand-written backward passes are held to."""

import numpy as np
import pytest

from mstkd.errors import ContractError, DivergenceError

from gradcheck import assert_grads_close, numeric_grad
import tape_oracle as oracle


def test_matmul_identity():
    tape = oracle.Tape()
    x = tape.param(np.array([[1.0, 2.0], [3.0, 4.0]]))
    eye = tape.constant(np.eye(2))
    out = oracle.matmul(eye, x)
    assert np.array_equal(out.values, x.values)


def test_matmul_hand_case():
    tape = oracle.Tape()
    a = tape.param(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = tape.param(np.array([[1.0], [1.0]]))
    out = oracle.matmul(a, b)
    assert np.array_equal(out.values, np.array([[3.0], [7.0]]))


def test_matmul_shape_mismatch():
    tape = oracle.Tape()
    a = tape.param(np.zeros((2, 3)))
    b = tape.param(np.zeros((2, 3)))
    with pytest.raises(ContractError, match="matmul inner dimensions differ"):
        oracle.matmul(a, b)


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 2))
    c0 = rng.normal(size=(3, 2))  # fixed projection to a scalar

    def f(a, b):
        return float(np.sum((a @ b) * c0))

    tape = oracle.Tape()
    a = tape.param(a0)
    b = tape.param(b0)
    loss = oracle.sum_all(oracle.mul(oracle.matmul(a, b), tape.constant(c0)))
    tape.backward(loss)
    na, nb = numeric_grad(f, [a0.copy(), b0.copy()])
    assert_grads_close(a.grad, na, rel_tol=1e-6)
    assert_grads_close(b.grad, nb, rel_tol=1e-6)


def test_l2_normalize_rows():
    tape = oracle.Tape()
    x = tape.param(np.array([[3.0, 4.0], [0.6, 0.8]]))
    out = oracle.l2_normalize(x)
    assert np.allclose(out.values[0], [0.6, 0.8])
    assert np.allclose(out.values[1], [0.6, 0.8])  # already unit: unchanged
    assert np.all(np.abs(np.linalg.norm(out.values, axis=1) - 1.0) < 1e-10)


def test_l2_normalize_degenerate_row():
    tape = oracle.Tape()
    x = tape.param(np.array([[0.0, 0.0]]))
    with pytest.raises(DivergenceError, match="row norm at or below"):
        oracle.l2_normalize(x)


def test_l2_normalize_gradient():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(5, 8))
    w = rng.normal(size=(5, 8))

    def f(x):
        y = x / np.linalg.norm(x, axis=1, keepdims=True)
        return float(np.sum(y * w))

    tape = oracle.Tape()
    x = tape.param(x0)
    loss = oracle.sum_all(oracle.mul(oracle.l2_normalize(x), tape.constant(w)))
    tape.backward(loss)
    (nx,) = numeric_grad(f, [x0.copy()])
    assert_grads_close(x.grad, nx, rel_tol=1e-6)


def test_leaky_relu_values():
    tape = oracle.Tape()
    x = tape.param(np.array([-1.0, 0.0, 2.0]))
    out = oracle.leaky_relu(x, 0.01)
    assert np.allclose(out.values, [-0.01, 0.0, 2.0])
    relu = oracle.leaky_relu(x, 0.0)
    assert np.allclose(relu.values, [0.0, 0.0, 2.0])


def test_leaky_relu_gradient_away_from_kink():
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=(4, 5))
    x0[np.abs(x0) < 0.1] = 0.5  # keep clear of the kink
    w = rng.normal(size=(4, 5))

    def f(x):
        return float(np.sum(np.where(x >= 0, x, 0.01 * x) * w))

    tape = oracle.Tape()
    x = tape.param(x0)
    loss = oracle.sum_all(oracle.mul(oracle.leaky_relu(x, 0.01), tape.constant(w)))
    tape.backward(loss)
    (nx,) = numeric_grad(f, [x0.copy()])
    assert_grads_close(x.grad, nx, rel_tol=1e-6)


def test_dropout_identity_cases():
    tape = oracle.Tape()
    x = tape.param(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(oracle.dropout(x, 0.0, np.random.default_rng(0)).values,
                          x.values)


def test_dropout_mean_preserved():
    rng = np.random.default_rng(3)
    tape = oracle.Tape()
    x = tape.param(np.full((100_000,), 1.0))
    out = oracle.dropout(x, 0.2, rng)
    assert abs(out.values.mean() - 1.0) < 0.02


def test_dropout_deterministic_given_seed():
    tape1, tape2 = oracle.Tape(), oracle.Tape()
    vals = np.random.default_rng(9).normal(size=(50, 20))
    a = oracle.dropout(tape1.param(vals.copy()), 0.3, np.random.default_rng(7))
    b = oracle.dropout(tape2.param(vals.copy()), 0.3, np.random.default_rng(7))
    assert np.array_equal(a.values, b.values)


def test_backward_sum_gives_ones():
    tape = oracle.Tape()
    x = tape.param(np.array([1.0, 2.0, 3.0]))
    loss = oracle.sum_all(x)
    tape.backward(loss)
    assert np.array_equal(x.grad, np.ones(3))
    assert loss.grad == 1.0


def test_backward_square_gives_two_x():
    tape = oracle.Tape()
    x = tape.param(np.array([1.5, -2.0]))
    loss = oracle.sum_all(oracle.mul(x, x))
    tape.backward(loss)
    assert np.allclose(x.grad, 2.0 * x.values)


def test_backward_requires_scalar():
    tape = oracle.Tape()
    x = tape.param(np.ones((2, 2)))
    with pytest.raises(ContractError):
        tape.backward(oracle.mul(x, x))


def test_backward_linearity():
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=(3, 3))
    a_coef, b_coef = 2.5, -1.25

    def grads(combined):
        tape = oracle.Tape()
        x = tape.param(x0.copy())
        l1 = oracle.mean_all(oracle.mul(x, x))
        l2 = oracle.sum_all(oracle.leaky_relu(x, 0.01))
        if combined:
            loss = oracle.add(oracle.scale(l1, a_coef), oracle.scale(l2, b_coef))
        else:
            return l1, l2, tape, x
        tape.backward(loss)
        return x.grad

    tape = oracle.Tape()
    x = tape.param(x0.copy())
    tape.backward(oracle.mean_all(oracle.mul(x, x)))
    g1 = x.grad.copy()
    tape = oracle.Tape()
    x = tape.param(x0.copy())
    tape.backward(oracle.sum_all(oracle.leaky_relu(x, 0.01)))
    g2 = x.grad.copy()

    assert np.all(np.abs(grads(True) - (a_coef * g1 + b_coef * g2)) < 1e-10)


def test_replay_is_bit_identical():
    vals = np.random.default_rng(5).normal(size=(8, 4))

    def run():
        tape = oracle.Tape()
        x = tape.param(vals.copy())
        h = oracle.dropout(oracle.leaky_relu(x, 0.01), 0.2, np.random.default_rng(11))
        loss = oracle.mean_all(oracle.mul(h, h))
        tape.backward(loss)
        return loss.values.copy(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


def test_bias_add_gradient():
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=(4, 3))
    b0 = rng.normal(size=(3,))
    w = rng.normal(size=(4, 3))

    def f(x, b):
        return float(np.sum((x + b) * w))

    tape = oracle.Tape()
    x = tape.param(x0)
    b = tape.param(b0)
    loss = oracle.sum_all(oracle.mul(oracle.bias_add(x, b), tape.constant(w)))
    tape.backward(loss)
    nx, nb = numeric_grad(f, [x0.copy(), b0.copy()])
    assert_grads_close(x.grad, nx, rel_tol=1e-6)
    assert_grads_close(b.grad, nb, rel_tol=1e-6)


def test_logsumexp_pick_scatter_gradients():
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(5, 6))
    idx = rng.integers(0, 6, size=5)

    def f(x):
        m = x.max(axis=1, keepdims=True)
        lse = (m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))).reshape(-1)
        return float(np.mean(lse - x[np.arange(5), idx]))

    tape = oracle.Tape()
    x = tape.param(x0)
    loss = oracle.mean_all(oracle.sub(oracle.logsumexp_rows(x), oracle.pick(x, idx)))
    tape.backward(loss)
    (nx,) = numeric_grad(f, [x0.copy()])
    assert_grads_close(x.grad, nx)


def test_scatter_replace_values_and_grads():
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=(3, 4))
    v0 = rng.normal(size=(3,))
    idx = np.array([1, 0, 3])
    w = rng.normal(size=(3, 4))

    def f(x, v):
        y = x.copy()
        y[np.arange(3), idx] = v
        return float(np.sum(y * w))

    tape = oracle.Tape()
    x = tape.param(x0)
    v = tape.param(v0)
    out = oracle.scatter_replace(x, idx, v)
    expected = x0.copy()
    expected[np.arange(3), idx] = v0
    assert np.array_equal(out.values, expected)
    tape.backward(oracle.sum_all(oracle.mul(out, tape.constant(w))))
    nx, nv = numeric_grad(f, [x0.copy(), v0.copy()])
    assert_grads_close(x.grad, nx, rel_tol=1e-6)
    assert_grads_close(v.grad, nv, rel_tol=1e-6)


def test_cos_arccos_clamp_gradients():
    rng = np.random.default_rng(9)
    x0 = rng.uniform(-0.95, 0.95, size=(6,))

    def f(x):
        return float(np.sum(np.cos(np.arccos(np.clip(x, -0.999, 0.999)) + 0.4)))

    tape = oracle.Tape()
    x = tape.param(x0)
    theta = oracle.arccos(oracle.clamp(x, -0.999, 0.999))
    loss = oracle.sum_all(oracle.cos(oracle.add(theta, tape.constant(np.full(6, 0.4)))))
    tape.backward(loss)
    (nx,) = numeric_grad(f, [x0.copy()])
    assert_grads_close(x.grad, nx)


def test_arccos_rejects_out_of_domain():
    tape = oracle.Tape()
    x = tape.param(np.array([1.5]))
    with pytest.raises(ContractError):
        oracle.arccos(x)


def test_constant_leaves_receive_no_grad():
    tape = oracle.Tape()
    x = tape.param(np.ones(3))
    c = tape.constant(np.ones(3))
    tape.backward(oracle.sum_all(oracle.mul(x, c)))
    assert c.grad is None
    assert x.grad is not None


def test_random_op_compositions_match_finite_differences():
    """100 random small graphs across the op set (module-level invariant)."""
    rng = np.random.default_rng(42)
    for _ in range(100):
        m, k, n = rng.integers(2, 5, size=3)
        x0 = rng.normal(size=(m, k))
        w0 = rng.normal(size=(k, n))
        b0 = rng.normal(size=(n,))
        x0[np.abs(x0) < 0.05] += 0.1  # dodge the relu kink

        def f(x, w, b):
            h = x @ w + b
            h = np.where(h >= 0, h, 0.01 * h)
            y = h / np.linalg.norm(h, axis=1, keepdims=True)
            m_ = y.max(axis=1, keepdims=True)
            lse = (m_ + np.log(np.exp(y - m_).sum(axis=1, keepdims=True))).reshape(-1)
            return float(np.mean(lse))

        tape = oracle.Tape()
        x = tape.param(x0.copy())
        w = tape.param(w0.copy())
        b = tape.param(b0.copy())
        h = oracle.leaky_relu(oracle.affine(x, w, b), 0.01)
        loss = oracle.mean_all(oracle.logsumexp_rows(oracle.l2_normalize(h)))
        tape.backward(loss)
        nx, nw, nb = numeric_grad(f, [x0.copy(), w0.copy(), b0.copy()])
        assert_grads_close(x.grad, nx)
        assert_grads_close(w.grad, nw)
        assert_grads_close(b.grad, nb)


def test_tape_nodes_are_topologically_ordered():
    tape = oracle.Tape()
    x = tape.param(np.ones((2, 2)))
    c = tape.constant(np.ones((2, 2)))
    y = oracle.mul(x, c)
    z = oracle.sum_all(y)
    for position, t in enumerate(tape.tensors):
        assert t.node_id == position
    assert x.node_id < y.node_id and c.node_id < y.node_id < z.node_id
    assert len(tape.nodes) == len(tape.tensors) == 4
    assert z.node_id == len(tape.nodes) - 1
