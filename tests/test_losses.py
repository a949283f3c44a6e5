import math
import tracemalloc

import numpy as np
import pytest

from mstkd import autodiff as ad
from mstkd import losses
from mstkd.errors import ContractError
from mstkd.losses import EafConfig

from gradcheck import assert_grads_close, numeric_grad
import tape_oracle as oracle


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def through_unit_rows(raw, objective):
    """`objective(emb)` at the unit rows emb = raw / |raw|, and its gradient
    at `raw`, through the production layer stack: `raw` is the weight of one
    affine layer fed the identity, so that layer's output is `raw` exactly
    and its weight gradient is the gradient at `raw`. `objective` returns
    (value, gradient at emb, *rest); this returns (value, gradient at raw,
    *rest)."""
    params = {"raw.0.W": raw, "raw.0.b": np.zeros(raw.shape[1])}
    emb, saved = ad.forward(params, "raw", 0.0, np.eye(len(raw)), train=True)
    value, g_emb, *rest = objective(emb)
    return (value, ad.backward(params, "raw", saved, g_emb)["raw.0.W"], *rest)


def naive_softmax_ce(logits, labels):
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    return float(np.mean(-np.log(p[np.arange(len(labels)), labels])))


def eaf_oracle(emb, w, labels, cfg, margins):
    """Plain-numpy evaluation of the elastic angular-margin loss."""
    wn = w / np.linalg.norm(w, axis=1, keepdims=True)
    cosines = np.clip(emb @ wn.T, -1.0 + 1e-7, 1.0 - 1e-7)
    rows = np.arange(len(labels))
    theta = np.arccos(cosines[rows, labels])
    logits = cosines.copy()
    logits[rows, labels] = np.cos(np.clip(theta + margins, 0.0, np.pi))
    logits *= cfg.s
    m = logits.max(axis=1, keepdims=True)
    lse = (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))).reshape(-1)
    return float(np.mean(lse - logits[rows, labels]))


def test_softmax_ce_uniform_logits():
    tape = oracle.Tape()
    logits = tape.param(np.zeros((3, 7000)))
    loss = oracle.softmax_ce(logits, np.array([0, 1, 6999]))
    assert abs(float(loss.values) - math.log(7000)) < 1e-9
    assert abs(float(loss.values) - 8.8537) < 1e-3


def test_softmax_ce_confident_logit():
    tape = oracle.Tape()
    logits = tape.param(np.array([[100.0, 0.0]]))
    loss = oracle.softmax_ce(logits, np.array([0]))
    assert float(loss.values) < 1e-10


def test_softmax_ce_matches_probability_space_oracle():
    rng = np.random.default_rng(0)
    logits0 = rng.normal(size=(8, 10))
    labels = rng.integers(0, 10, size=8)
    tape = oracle.Tape()
    loss = oracle.softmax_ce(tape.param(logits0), labels)
    assert abs(float(loss.values) - naive_softmax_ce(logits0, labels)) < 1e-10


def test_softmax_ce_label_out_of_range():
    tape = oracle.Tape()
    with pytest.raises(ContractError):
        oracle.softmax_ce(tape.param(np.zeros((2, 3))), np.array([0, 3]))


def test_softmax_ce_gradient():
    rng = np.random.default_rng(1)
    logits0 = rng.normal(size=(4, 6))
    labels = rng.integers(0, 6, size=4)

    def f(x):
        return naive_softmax_ce(x, labels)

    tape = oracle.Tape()
    logits = tape.param(logits0)
    tape.backward(oracle.softmax_ce(logits, labels))
    (n,) = numeric_grad(f, [logits0.copy()])
    assert_grads_close(logits.grad, n)


def test_eaf_reduces_to_softmax_ce_when_margin_vanishes():
    rng = np.random.default_rng(2)
    cfg = EafConfig(s=64.0, m=0.0, sigma=0.0)
    for _ in range(50):
        emb0 = unit_rows(rng, 6, 8)
        w0 = rng.normal(size=(9, 8))
        labels = rng.integers(0, 9, size=6)
        eaf, _, _ = losses.elastic_arcface(emb0, w0, labels, cfg)
        wn = w0 / np.linalg.norm(w0, axis=1, keepdims=True)
        tape = oracle.Tape()
        plain = oracle.softmax_ce(
            oracle.scale(tape.param(emb0 @ wn.T), 64.0), labels)
        assert abs(eaf - float(plain.values)) < 1e-12


def test_eaf_single_class_is_zero():
    emb = unit_rows(np.random.default_rng(3), 4, 5)
    w = np.random.default_rng(4).normal(size=(1, 5))
    loss, _, _ = losses.elastic_arcface(emb, w, np.zeros(4, dtype=int),
                                        EafConfig(sigma=0.0))
    assert loss == 0.0


def test_eaf_hand_case():
    emb = np.array([[1.0, 0.0]])
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    cfg = EafConfig(s=64.0, m=0.5, sigma=0.0)
    loss, _, _ = losses.elastic_arcface(emb, w, np.array([0]), cfg)
    # target logit ~= 64*cos(0.5) ~= 56.16, other 0 -> loss ~= exp(-56.16),
    # which underflows to 0 in float64
    assert 0.0 <= loss < 1e-20


def test_eaf_matches_numpy_oracle_with_drawn_margins():
    rng = np.random.default_rng(5)
    cfg = EafConfig(s=64.0, m=0.5, sigma=0.05)
    emb0 = unit_rows(rng, 7, 6)
    w0 = rng.normal(size=(11, 6))
    labels = rng.integers(0, 11, size=7)
    loss, _, _ = losses.elastic_arcface(emb0, w0, labels, cfg,
                                        rng=np.random.default_rng(99))
    margins = np.random.default_rng(99).normal(cfg.m, cfg.sigma, size=7)
    assert abs(loss - eaf_oracle(emb0, w0, labels, cfg, margins)) < 1e-12


def test_eaf_zero_sigma_uses_fixed_margin_and_is_deterministic():
    rng = np.random.default_rng(6)
    cfg = EafConfig(s=64.0, m=0.5, sigma=0.0)
    emb0 = unit_rows(rng, 5, 4)
    w0 = rng.normal(size=(8, 4))
    labels = rng.integers(0, 8, size=5)

    def run():
        return losses.elastic_arcface(emb0, w0, labels, cfg)[0]

    assert run() == run()
    assert run() == pytest.approx(
        eaf_oracle(emb0, w0, labels, cfg, np.full(5, 0.5)), abs=1e-12)


def test_eaf_margin_monotonicity():
    rng = np.random.default_rng(7)
    emb0 = unit_rows(rng, 10, 6)
    w0 = rng.normal(size=(12, 6))
    labels = rng.integers(0, 12, size=10)
    prev = -np.inf
    for m in np.linspace(0.0, 1.0, 11):
        loss, _, _ = losses.elastic_arcface(emb0, w0, labels,
                                            EafConfig(m=float(m), sigma=0.0))
        assert loss >= prev - 1e-12
        prev = loss


def test_eaf_rejects_non_unit_embeddings():
    with pytest.raises(ContractError):
        losses.elastic_arcface(np.array([[2.0, 0.0]]), np.eye(2), np.array([0]),
                               EafConfig())


def test_eaf_train_sigma_requires_rng():
    emb = unit_rows(np.random.default_rng(0), 2, 3)
    with pytest.raises(ContractError):
        losses.elastic_arcface(emb, np.eye(3), np.array([0, 1]),
                               EafConfig(sigma=0.05))


def test_eaf_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    cfg = EafConfig(s=64.0, m=0.5, sigma=0.0)
    raw0 = rng.normal(size=(4, 5))
    w0 = rng.normal(size=(7, 5))
    labels = rng.integers(0, 7, size=4)

    def f(raw, w):
        emb = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        return eaf_oracle(emb, w, labels, cfg, np.full(4, cfg.m))

    _, g_raw, g_w = through_unit_rows(
        raw0, lambda emb: losses.elastic_arcface(emb, w0, labels, cfg))
    nr, nw = numeric_grad(f, [raw0.copy(), w0.copy()])
    assert_grads_close(g_raw, nr)
    assert_grads_close(g_w, nw)


def test_eaf_works_in_one_batch_by_class_buffer():
    """One call at 128 x 200 holds under three batch x classes arrays at
    its peak, leaves its inputs alone and returns a fresh gradient."""
    batch, classes = 128, 200
    rng = np.random.default_rng(21)
    emb, w = unit_rows(rng, batch, 32), rng.normal(size=(classes, 32))
    labels = rng.integers(0, classes, size=batch)
    emb0, w0 = emb.copy(), w.copy()
    margin_rng = np.random.default_rng(22)
    tracemalloc.start()
    try:
        _, g_emb, _ = losses.elastic_arcface(emb, w, labels, EafConfig(),
                                             margin_rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * batch * classes * 8
    assert emb.tobytes() == emb0.tobytes() and w.tobytes() == w0.tobytes()
    assert not np.shares_memory(g_emb, emb)
    assert not np.shares_memory(g_emb, w)


def test_kd_mse_zero_and_hand_case():
    target = np.array([[1.0, 0.0]])
    assert losses.kd_mse(target, np.array([[1.0, 0.0]]))[0] == 0.0
    assert losses.kd_mse(target, np.array([[0.0, 1.0]]))[0] == 1.0


def test_kd_mse_matches_double_loop():
    rng = np.random.default_rng(9)
    a = unit_rows(rng, 4, 512)
    b = unit_rows(rng, 4, 512)
    loss, _ = losses.kd_mse(a, b)
    total = 0.0
    for i in range(4):
        acc = 0.0
        for d in range(512):
            acc += (a[i, d] - b[i, d]) ** 2
        total += acc / 512
    assert abs(loss - total / 4) < 1e-12


def test_kd_mse_blocks_target_gradient():
    rng = np.random.default_rng(10)
    target = unit_rows(rng, 3, 4)
    before = target.copy()
    out = losses.kd_mse(target, unit_rows(rng, 3, 4))
    assert len(out) == 2 and out[1].shape == target.shape   # one gradient
    assert target.tobytes() == before.tobytes()


def test_kd_mse_shape_mismatch():
    with pytest.raises(ContractError, match="kd_mse shapes differ"):
        losses.kd_mse(np.zeros((2, 3)), np.zeros((2, 4)))


def test_kd_mse_gradient():
    rng = np.random.default_rng(11)
    t0 = unit_rows(rng, 3, 6)
    b0 = rng.normal(size=(3, 6))

    def f(b):
        e = b / np.linalg.norm(b, axis=1, keepdims=True)
        return float(np.mean((t0 - e) ** 2))

    _, g_b = through_unit_rows(b0, lambda emb: losses.kd_mse(t0, emb))
    (nb,) = numeric_grad(f, [b0.copy()])
    assert_grads_close(g_b, nb)


def test_student_loss_arithmetic():
    g_eaf, g_kd = np.array([1.0, -2.0]), np.array([0.5, 0.25])
    combined, g = losses.student_loss((2.0, g_eaf), (1e-4, g_kd), 10000.0)
    assert combined == pytest.approx(3.0, abs=1e-12)
    assert np.array_equal(g, [1.5, -1.75])
    assert np.array_equal(g_eaf, [1.0, -2.0])   # the inputs are left alone
    kd_only, g = losses.student_loss(None, (0.0, g_kd), 10000.0)
    assert kd_only == 0.0 and g is g_kd


def test_student_loss_gradient_is_linear_combination():
    rng = np.random.default_rng(12)
    raw0 = rng.normal(size=(3, 4))
    w0 = rng.normal(size=(5, 4))
    target = unit_rows(rng, 3, 4)
    labels = rng.integers(0, 5, size=3)
    cfg = EafConfig(sigma=0.0)
    lam = 10000.0

    def build(which):
        def objective(emb):
            eaf = losses.elastic_arcface(emb, w0, labels, cfg)[:2]
            if which == "eaf":
                return eaf
            if which == "kd":
                return losses.kd_mse(target, emb)
            return losses.student_loss(eaf, losses.kd_mse(target, emb, lam), lam)
        return through_unit_rows(raw0, objective)[1]

    combined = build("both")
    expected = build("eaf") + lam * build("kd")
    assert np.all(np.abs(combined - expected) < 1e-10)
