"""The one-node `affine`, `elastic_arcface` and `kd_mse` against the chains of
autodiff primitives they replace.

The chains below are the oracle: each is the loss or layer written with the
primitives of `tape_oracle` (and the production `add`, `scale` and
`l2_normalize`), one tape node per operation. The fused nodes must give the same
value and the same gradient for every input, bit for bit.
"""

import numpy as np
import pytest

from mstkd import autodiff as ad
from mstkd import losses
from mstkd.errors import ContractError, DegenerateEmbeddingError
from mstkd.losses import EafConfig

import tape_oracle as oracle


def chain_affine(x, w, b):
    return oracle.bias_add(oracle.matmul(x, w), b)


def chain_elastic_arcface(emb, w, labels, cfg, margins):
    tape = emb.tape
    cosines = oracle.clamp(oracle.matmul(emb, oracle.transpose(ad.l2_normalize(w))),
                           -1.0 + ad.EPS_COS, 1.0 - ad.EPS_COS)
    theta = oracle.arccos(oracle.pick(cosines, labels))
    shifted = oracle.clamp(ad.add(theta, tape.constant(margins)), 0.0, ad.PI)
    logits = oracle.scatter_replace(cosines, labels, oracle.cos(shifted))
    return oracle.softmax_ce(ad.scale(logits, cfg.s), labels)


def chain_kd_mse(target, emb):
    values = target.values if isinstance(target, ad.DiffTensor) else target
    diff = oracle.sub(emb.tape.constant(values), emb)
    return oracle.mean_all(oracle.mul(diff, diff))


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def edge_case_batch(rng, n=12, d=6, k=9):
    """Embeddings, header and labels with cosines at both clamp bounds."""
    w = rng.normal(size=(k, d))
    wn = w / np.linalg.norm(w, axis=1, keepdims=True)
    labels = rng.integers(0, k, size=n)
    emb = unit_rows(rng, n, d)
    emb[:4] = wn[labels[:4]]      # target cosine ~ +1: clamped, angle ~ 0
    emb[4:7] = -wn[labels[4:7]]   # target cosine ~ -1: clamped, angle ~ pi
    return emb, w, labels


def run_both(build_fused, build_chain, arrays, grad_mask):
    """Record each side on its own tape and return (values, grads) pairs."""
    out = []
    for build in (build_fused, build_chain):
        tape = ad.Tape()
        leaves = [tape.param(a.copy()) if g else tape.constant(a.copy())
                  for a, g in zip(arrays, grad_mask)]
        loss = build(tape, *leaves)
        tape.backward(loss)
        out.append((loss.values, [t.grad for t in leaves]))
    return out


@pytest.mark.parametrize("x_grad", [True, False])
def test_affine_equals_matmul_add_bitwise(x_grad):
    rng = np.random.default_rng(0)
    x, w, b = rng.normal(size=(7, 5)), rng.normal(size=(5, 4)), rng.normal(size=4)
    probe = rng.normal(size=(7, 4))

    def build(layer):
        def f(tape, xt, wt, bt):
            h = ad.leaky_relu(layer(xt, wt, bt), 0.1)
            return oracle.sum_all(oracle.mul(h, tape.constant(probe)))
        return f

    (v1, g1), (v2, g2) = run_both(build(ad.affine), build(chain_affine),
                                  [x, w, b], [x_grad, True, True])
    assert_bitwise(v1, v2)
    assert (g1[0] is None) == (not x_grad)
    for a, c in zip(g1, g2):
        if a is not None or c is not None:
            assert_bitwise(a, c)


@pytest.mark.parametrize("as_tensor", [False, True])
def test_kd_mse_equals_chain_bitwise(as_tensor):
    rng = np.random.default_rng(2)
    target, raw = unit_rows(rng, 9, 8), rng.normal(size=(9, 8))

    def build(loss_fn):
        def f(tape, rawt):
            t = tape.constant(target) if as_tensor else target
            return ad.scale(loss_fn(t, ad.l2_normalize(rawt)), 10000.0)
        return f

    (v1, (g1,)), (v2, (g2,)) = run_both(build(losses.kd_mse), build(chain_kd_mse),
                                        [raw], [True])
    assert_bitwise(v1, v2)
    assert_bitwise(g1, g2)


# "train" configs draw one margin per sample; "eval" configs (sigma = 0) fix
# every margin at m
@pytest.mark.parametrize("cfg", [
    pytest.param(EafConfig(s=64.0, m=0.5, sigma=0.05), id="train-cfg0"),
    # some drawn margins fall below 0
    pytest.param(EafConfig(s=64.0, m=0.0, sigma=0.5), id="train-cfg1"),
    pytest.param(EafConfig(s=64.0, m=0.5, sigma=0.0), id="eval-cfg2"),
    pytest.param(EafConfig(s=30.0, m=0.0, sigma=0.0), id="eval-cfg3"),
])
@pytest.mark.parametrize("header_grad", [True, False])
def test_elastic_arcface_equals_chain_bitwise(cfg, header_grad):
    emb, w, labels = edge_case_batch(np.random.default_rng(3))
    n = len(labels)
    drawn = cfg.sigma > 0.0
    if drawn:
        margins = np.random.default_rng(17).normal(cfg.m, cfg.sigma, size=n)
    else:
        margins = np.full(n, cfg.m)

    def fused(tape, e, h):
        return losses.elastic_arcface(e, h, labels, cfg,
                                      rng=np.random.default_rng(17))

    def chain(tape, e, h):
        return chain_elastic_arcface(e, h, labels, cfg, margins)

    (v1, g1), (v2, g2) = run_both(fused, chain, [emb, w], [True, header_grad])
    assert_bitwise(v1, v2)
    assert_bitwise(g1[0], g2[0])
    if header_grad:
        assert_bitwise(g1[1], g2[1])
    else:
        assert g1[1] is None and g2[1] is None

    # the batch covers both clamp bounds of the cosine (clamped rows have no
    # cosine gradient at the target); a positive margin clips the shifted
    # angle at pi, and with m = 0 a drawn margin below 0 clips it at 0
    cos = emb @ (w / np.linalg.norm(w, axis=1, keepdims=True)).T
    target = cos[np.arange(n), labels]
    assert np.any(target >= 1.0 - ad.EPS_COS) and np.any(target <= -1.0 + ad.EPS_COS)
    shifted = np.arccos(np.clip(target, -1.0 + ad.EPS_COS, 1.0 - ad.EPS_COS)) + margins
    if cfg.m > 0.0 or drawn:
        assert np.any(shifted > ad.PI)
    if cfg.m == 0.0 and drawn:
        assert np.any(shifted < 0.0)


def test_student_objective_equals_chain_bitwise():
    """Both losses on one embedding, as in an eaf_kd student step: the
    embedding's two gradients are summed in the same order."""
    rng = np.random.default_rng(4)
    emb, w, labels = edge_case_batch(rng)
    raw = emb * rng.uniform(0.5, 2.0, size=(len(labels), 1))
    target = unit_rows(rng, *emb.shape)
    cfg = EafConfig(s=64.0, m=0.5, sigma=0.05)
    margins = np.random.default_rng(5).normal(cfg.m, cfg.sigma, size=len(labels))

    def build(eaf_fn, kd_fn):
        def f(tape, rawt, h):
            e = ad.l2_normalize(rawt)
            kd = kd_fn(target, e)
            eaf = eaf_fn(e, h)
            return losses.student_loss(eaf, kd, 10000.0)
        return f

    fused = build(lambda e, h: losses.elastic_arcface(
        e, h, labels, cfg, rng=np.random.default_rng(5)), losses.kd_mse)
    chain = build(lambda e, h: chain_elastic_arcface(e, h, labels, cfg, margins),
                  chain_kd_mse)
    (v1, g1), (v2, g2) = run_both(fused, chain, [raw, w], [True, True])
    assert_bitwise(v1, v2)
    for a, c in zip(g1, g2):
        assert_bitwise(a, c)


def test_elastic_arcface_keeps_its_checks():
    rng = np.random.default_rng(7)
    tape = ad.Tape()
    e = tape.param(unit_rows(rng, 2, 3))
    with pytest.raises(DegenerateEmbeddingError):
        losses.elastic_arcface(e, tape.param(np.zeros((2, 3))), np.array([0, 1]),
                               EafConfig(sigma=0.0))
    with pytest.raises(ContractError):
        losses.elastic_arcface(e, tape.param(rng.normal(size=(2, 3))),
                               np.array([0, 2]), EafConfig(sigma=0.0))
    with pytest.raises(ContractError):   # a non-finite scale
        losses.elastic_arcface(e, tape.param(rng.normal(size=(2, 3))),
                               np.array([0, 1]), EafConfig(s=np.inf, sigma=0.0))
    with pytest.raises(ContractError):
        losses.elastic_arcface(e, ad.Tape().param(rng.normal(size=(2, 3))),
                               np.array([0, 1]), EafConfig(sigma=0.0))
