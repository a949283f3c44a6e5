import math

import numpy as np
import pytest

from mstkd import autodiff as ad
from mstkd import losses
from mstkd.errors import ContractError, DimensionError
from mstkd.losses import EafConfig

from gradcheck import assert_grads_close, numeric_grad
import tape_oracle as oracle


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


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
    tape = ad.Tape()
    logits = tape.param(np.zeros((3, 7000)))
    loss = oracle.softmax_ce(logits, np.array([0, 1, 6999]))
    assert abs(float(loss.values) - math.log(7000)) < 1e-9
    assert abs(float(loss.values) - 8.8537) < 1e-3


def test_softmax_ce_confident_logit():
    tape = ad.Tape()
    logits = tape.param(np.array([[100.0, 0.0]]))
    loss = oracle.softmax_ce(logits, np.array([0]))
    assert float(loss.values) < 1e-10


def test_softmax_ce_matches_probability_space_oracle():
    rng = np.random.default_rng(0)
    logits0 = rng.normal(size=(8, 10))
    labels = rng.integers(0, 10, size=8)
    tape = ad.Tape()
    loss = oracle.softmax_ce(tape.param(logits0), labels)
    assert abs(float(loss.values) - naive_softmax_ce(logits0, labels)) < 1e-10


def test_softmax_ce_label_out_of_range():
    tape = ad.Tape()
    with pytest.raises(ContractError):
        oracle.softmax_ce(tape.param(np.zeros((2, 3))), np.array([0, 3]))


def test_softmax_ce_gradient():
    rng = np.random.default_rng(1)
    logits0 = rng.normal(size=(4, 6))
    labels = rng.integers(0, 6, size=4)

    def f(x):
        return naive_softmax_ce(x, labels)

    tape = ad.Tape()
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
        tape = ad.Tape()
        eaf = losses.elastic_arcface(tape.param(emb0), tape.param(w0), labels, cfg)
        wn = w0 / np.linalg.norm(w0, axis=1, keepdims=True)
        tape2 = ad.Tape()
        plain = oracle.softmax_ce(
            ad.scale(tape2.param(emb0 @ wn.T), 64.0), labels)
        assert abs(float(eaf.values) - float(plain.values)) < 1e-12


def test_eaf_single_class_is_zero():
    tape = ad.Tape()
    emb = tape.param(unit_rows(np.random.default_rng(3), 4, 5))
    w = tape.param(np.random.default_rng(4).normal(size=(1, 5)))
    loss = losses.elastic_arcface(emb, w, np.zeros(4, dtype=int),
                                  EafConfig(sigma=0.0))
    assert float(loss.values) == 0.0


def test_eaf_hand_case():
    tape = ad.Tape()
    emb = tape.param(np.array([[1.0, 0.0]]))
    w = tape.param(np.array([[1.0, 0.0], [0.0, 1.0]]))
    cfg = EafConfig(s=64.0, m=0.5, sigma=0.0)
    loss = losses.elastic_arcface(emb, w, np.array([0]), cfg)
    # target logit ~= 64*cos(0.5) ~= 56.16, other 0 -> loss ~= exp(-56.16),
    # which underflows to 0 in float64
    assert 0.0 <= float(loss.values) < 1e-20


def test_eaf_matches_numpy_oracle_with_drawn_margins():
    rng = np.random.default_rng(5)
    cfg = EafConfig(s=64.0, m=0.5, sigma=0.05)
    emb0 = unit_rows(rng, 7, 6)
    w0 = rng.normal(size=(11, 6))
    labels = rng.integers(0, 11, size=7)
    tape = ad.Tape()
    loss = losses.elastic_arcface(tape.param(emb0), tape.param(w0), labels, cfg,
                                  rng=np.random.default_rng(99))
    margins = np.random.default_rng(99).normal(cfg.m, cfg.sigma, size=7)
    assert abs(float(loss.values) - eaf_oracle(emb0, w0, labels, cfg, margins)) < 1e-12


def test_eaf_zero_sigma_uses_fixed_margin_and_is_deterministic():
    rng = np.random.default_rng(6)
    cfg = EafConfig(s=64.0, m=0.5, sigma=0.0)
    emb0 = unit_rows(rng, 5, 4)
    w0 = rng.normal(size=(8, 4))
    labels = rng.integers(0, 8, size=5)

    def run():
        tape = ad.Tape()
        return float(losses.elastic_arcface(tape.param(emb0), tape.param(w0),
                                            labels, cfg).values)

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
        tape = ad.Tape()
        loss = losses.elastic_arcface(tape.param(emb0), tape.param(w0), labels,
                                      EafConfig(m=float(m), sigma=0.0))
        assert float(loss.values) >= prev - 1e-12
        prev = float(loss.values)


def test_eaf_rejects_non_unit_embeddings():
    tape = ad.Tape()
    emb = tape.param(np.array([[2.0, 0.0]]))
    w = tape.param(np.eye(2))
    with pytest.raises(ContractError):
        losses.elastic_arcface(emb, w, np.array([0]), EafConfig())


def test_eaf_train_sigma_requires_rng():
    tape = ad.Tape()
    emb = tape.param(unit_rows(np.random.default_rng(0), 2, 3))
    w = tape.param(np.eye(3))
    with pytest.raises(ContractError):
        losses.elastic_arcface(emb, w, np.array([0, 1]), EafConfig(sigma=0.05))


def test_eaf_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    cfg = EafConfig(s=64.0, m=0.5, sigma=0.0)
    raw0 = rng.normal(size=(4, 5))
    w0 = rng.normal(size=(7, 5))
    labels = rng.integers(0, 7, size=4)

    def f(raw, w):
        emb = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        return eaf_oracle(emb, w, labels, cfg, np.full(4, cfg.m))

    tape = ad.Tape()
    raw = tape.param(raw0)
    w = tape.param(w0)
    loss = losses.elastic_arcface(ad.l2_normalize(raw), w, labels, cfg)
    tape.backward(loss)
    nr, nw = numeric_grad(f, [raw0.copy(), w0.copy()])
    assert_grads_close(raw.grad, nr)
    assert_grads_close(w.grad, nw)


def test_kd_mse_zero_and_hand_case():
    tape = ad.Tape()
    e = tape.param(np.array([[1.0, 0.0]]))
    assert float(losses.kd_mse(np.array([[1.0, 0.0]]), e).values) == 0.0
    tape = ad.Tape()
    e = tape.param(np.array([[0.0, 1.0]]))
    assert float(losses.kd_mse(np.array([[1.0, 0.0]]), e).values) == 1.0


def test_kd_mse_matches_double_loop():
    rng = np.random.default_rng(9)
    a = unit_rows(rng, 4, 512)
    b = unit_rows(rng, 4, 512)
    tape = ad.Tape()
    loss = losses.kd_mse(a, tape.param(b))
    total = 0.0
    for i in range(4):
        acc = 0.0
        for d in range(512):
            acc += (a[i, d] - b[i, d]) ** 2
        total += acc / 512
    assert abs(float(loss.values) - total / 4) < 1e-12


def test_kd_mse_blocks_target_gradient():
    rng = np.random.default_rng(10)
    tape = ad.Tape()
    target = tape.param(unit_rows(rng, 3, 4))
    student = tape.param(unit_rows(rng, 3, 4))
    tape.backward(losses.kd_mse(target, student))
    assert target.grad is None
    assert student.grad is not None


def test_kd_mse_shape_mismatch():
    tape = ad.Tape()
    with pytest.raises(DimensionError):
        losses.kd_mse(np.zeros((2, 3)), tape.param(np.zeros((2, 4))))


def test_kd_mse_gradient():
    rng = np.random.default_rng(11)
    t0 = unit_rows(rng, 3, 6)
    b0 = rng.normal(size=(3, 6))

    def f(b):
        e = b / np.linalg.norm(b, axis=1, keepdims=True)
        return float(np.mean((t0 - e) ** 2))

    tape = ad.Tape()
    b = tape.param(b0)
    tape.backward(losses.kd_mse(t0, ad.l2_normalize(b)))
    (nb,) = numeric_grad(f, [b0.copy()])
    assert_grads_close(b.grad, nb)


def test_student_loss_arithmetic():
    tape = ad.Tape()
    eaf = tape.param(np.asarray(2.0))
    kd = tape.param(np.asarray(1e-4))
    combined = losses.student_loss(eaf, kd, 10000.0)
    assert float(combined.values) == pytest.approx(3.0, abs=1e-12)
    tape = ad.Tape()
    kd0 = tape.param(np.asarray(0.0))
    assert float(losses.student_loss(None, kd0, 10000.0).values) == 0.0


def test_student_loss_gradient_is_linear_combination():
    rng = np.random.default_rng(12)
    raw0 = rng.normal(size=(3, 4))
    w0 = rng.normal(size=(5, 4))
    target = unit_rows(rng, 3, 4)
    labels = rng.integers(0, 5, size=3)
    cfg = EafConfig(sigma=0.0)
    lam = 10000.0

    def build(which):
        tape = ad.Tape()
        raw = tape.param(raw0.copy())
        w = tape.param(w0.copy())
        emb = ad.l2_normalize(raw)
        eaf = losses.elastic_arcface(emb, w, labels, cfg)
        kd = losses.kd_mse(target, emb)
        if which == "eaf":
            tape.backward(eaf)
        elif which == "kd":
            tape.backward(kd)
        else:
            tape.backward(losses.student_loss(eaf, kd, lam))
        return raw.grad.copy()

    combined = build("both")
    expected = build("eaf") + lam * build("kd")
    assert np.all(np.abs(combined - expected) < 1e-10)
