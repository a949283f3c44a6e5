"""The hand-written backward passes against the primitive tape they replace.

The tape of `tape_oracle` records each layer and loss one primitive per
node. The production layer stack (`autodiff.forward`, `autodiff.backward`)
and the array losses (`losses.elastic_arcface`, `losses.kd_mse`,
`losses.student_loss`) must give the same values and the same gradients
for every input, bit for bit, and so must every step of a seeded training
run.
"""

import numpy as np
import pytest

from mstkd import autodiff as ad
from mstkd import data, losses, models, training
from mstkd.errors import ConfigError, ContractError, DivergenceError
from mstkd.losses import EafConfig

import tape_oracle as oracle


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
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


def on_tape(build, arrays, grad_mask):
    """Record `build(tape, *leaves)` on a fresh tape and run its backward;
    returns the loss value and each leaf's gradient (None for constants)."""
    tape = oracle.Tape()
    leaves = [tape.param(a.copy()) if g else tape.constant(a.copy())
              for a, g in zip(arrays, grad_mask)]
    loss = build(tape, *leaves)
    tape.backward(loss)
    return loss.values, [t.grad for t in leaves]


@pytest.mark.parametrize("hidden", [True, False])
def test_affine_equals_matmul_add_bitwise(hidden):
    """The stack's affine layers (two around a leaky-relu, or one) against
    `bias_add(matmul(x, w), b)` on the tape, under a fixed projection."""
    rng = np.random.default_rng(0)
    dims = (5, 4, 3) if hidden else (5, 3)
    params = {}
    for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
        params[f"s.{i}.W"] = rng.normal(size=(din, dout))
        params[f"s.{i}.b"] = rng.normal(size=dout)
    x, probe = rng.normal(size=(7, 5)), rng.normal(size=(7, 3))

    unit, saved = ad.forward(params, "s", 0.1, x, train=True)
    grads = ad.backward(params, "s", saved, probe.copy())

    tape = oracle.Tape()
    ptens = {n: tape.param(p.copy()) for n, p in params.items()}
    out = oracle.stack_graph(tape, ptens, "s", 0.1, x)
    tape.backward(oracle.sum_all(oracle.mul(out, tape.constant(probe))))
    assert_bitwise(unit, out.values)
    assert grads.keys() == ptens.keys()
    for name, t in ptens.items():
        assert_bitwise(grads[name], t.grad)


@pytest.mark.parametrize("weighted", [False, True])
def test_kd_mse_equals_chain_bitwise(weighted):
    """At weight 1, and at the student's lambda, which scales the chain."""
    rng = np.random.default_rng(2)
    target, emb = unit_rows(rng, 9, 8), unit_rows(rng, 9, 8)
    lam = 10000.0 if weighted else 1.0
    value, g_emb = losses.kd_mse(target, emb, lam)

    def chain(tape, e):
        kd = oracle.kd_mse(target, e)
        return oracle.scale(kd, lam) if weighted else kd

    want, (g_want,) = on_tape(chain, [emb], [True])
    assert_bitwise(value * lam if weighted else value, want)
    assert_bitwise(g_emb, g_want)


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
    """The header is a tape parameter, or a constant whose gradient the
    chain never computes: the embedding gradient is the same either way."""
    emb, w, labels = edge_case_batch(np.random.default_rng(3))
    n = len(labels)
    drawn = cfg.sigma > 0.0
    if drawn:
        margins = np.random.default_rng(17).normal(cfg.m, cfg.sigma, size=n)
    else:
        margins = np.full(n, cfg.m)

    value, g_emb, g_w = losses.elastic_arcface(emb, w, labels, cfg,
                                               rng=np.random.default_rng(17))
    want, (g_emb_want, g_w_want) = on_tape(
        lambda tape, e, h: oracle.elastic_arcface(e, h, labels, cfg, margins),
        [emb, w], [True, header_grad])
    assert_bitwise(value, want)
    assert_bitwise(g_emb, g_emb_want)
    if header_grad:
        assert_bitwise(g_w, g_w_want)
    else:
        assert g_w_want is None

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
    target = unit_rows(rng, *emb.shape)
    cfg = EafConfig(s=64.0, m=0.5, sigma=0.05)
    margins = np.random.default_rng(5).normal(cfg.m, cfg.sigma, size=len(labels))

    kd = losses.kd_mse(target, emb, 10000.0)
    eaf, g_eaf, g_w = losses.elastic_arcface(emb, w, labels, cfg,
                                             rng=np.random.default_rng(5))
    value, g_emb = losses.student_loss((eaf, g_eaf), kd, 10000.0)

    def chain(tape, e, h):
        kd = oracle.kd_mse(target, e)
        eaf = oracle.elastic_arcface(e, h, labels, cfg, margins)
        return oracle.student_loss(eaf, kd, 10000.0)

    want, (g_emb_want, g_w_want) = on_tape(chain, [emb, w], [True, True])
    assert_bitwise(value, want)
    assert_bitwise(g_emb, g_emb_want)
    assert_bitwise(g_w, g_w_want)


def test_elastic_arcface_keeps_its_checks():
    rng = np.random.default_rng(7)
    e = unit_rows(rng, 2, 3)
    with pytest.raises(DivergenceError, match="row norm at or below"):
        losses.elastic_arcface(e, np.zeros((2, 3)), np.array([0, 1]),
                               EafConfig(sigma=0.0))
    with pytest.raises(ContractError):
        losses.elastic_arcface(e, rng.normal(size=(2, 3)), np.array([0, 2]),
                               EafConfig(sigma=0.0))
    with pytest.raises(ConfigError):   # a non-finite scale
        losses.elastic_arcface(e, rng.normal(size=(2, 3)), np.array([0, 1]),
                               EafConfig(s=np.inf, sigma=0.0))
    with pytest.raises(ContractError,
                       match="embedding and class-weight dimensions differ"):
        losses.elastic_arcface(e, rng.normal(size=(2, 4)), np.array([0, 1]),
                               EafConfig(sigma=0.0))


# --- every step of a seeded training run -----------------------------------

MODEL_KINDS = ("teacher", "SL", "DuL", "DLDPO", "eaf_kd", "a_kd")
STEPS = 3   # recorded steps of each run: one epoch of 192 rows in batches of 64
LAM = 10000.0


class _Recorded(Exception):
    """Stops a training run once its first steps are recorded."""


def record_steps(monkeypatch, train):
    """The first `STEPS` steps of `train()`: the parameters before each
    step, its batch, and the step's (loss, terms) with the gradients it
    wrote into the optimizer's buffer."""
    steps = []
    real_loop = training._train_loop

    def train_loop(opt, optim, n, shuffle_rng, step, score=None):
        def recorded(batch):
            before = {name: p.copy() for name, p in opt.params.items()}
            loss, terms = step(batch)
            grads = {name: g.copy() for name, g in opt.grads.items()}
            steps.append((before, batch.copy(), (loss, terms, grads)))
            if len(steps) == STEPS:
                raise _Recorded
            return loss, terms
        return real_loop(opt, optim, n, shuffle_rng, recorded, score)

    monkeypatch.setattr(training, "_train_loop", train_loop)
    with pytest.raises(_Recorded):
        train()
    return steps


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_training_steps_equal_the_tape_bitwise(monkeypatch, kind):
    """The loss, the logged terms and every parameter gradient of the first
    steps of a run equal the tape's, replayed on the same margin and
    dropout streams."""
    spec = data.SyntheticDatasetSpec(seed=0, identities_per_group=6,
                                     samples_per_identity=8,
                                     validation_identities_per_group=2,
                                     test_identities_per_group=2)
    train, val, _ = data.generate(spec)
    val_pairs = data.build_pairs(val, 20, 0.5, seed=1)
    cfg = models.BackboneConfig(input_dim=64, hidden=(16,), embedding_dim=8)
    eaf_cfg = EafConfig()
    optim = training.OptimConfig(0.1, 2, (1,), batch_size=64, seed=5)
    teachers = [models.new_teacher(cfg, np.arange(1), train.group_tags[g], seed=g)
                for g in range(4)]
    sets = training.extract_embeddings(teachers, train)
    adaptor = models.new_adaptor("DuL", 4, cfg.embedding_dim, seed=9)

    inputs = train.values
    if kind == "teacher":
        run = lambda: training.train_teacher(train, train.group_tags[0], cfg,
                                             eaf_cfg, optim, val, val_pairs, 3)
    elif kind in models.ADAPTOR_KINDS:
        inputs = models.fuse_inputs(sets)
        run = lambda: training.train_adaptor(kind, sets, eaf_cfg, optim, 4)
    else:
        targets = training.fused_target(adaptor, sets)
        run = lambda: training.train_student(kind, adaptor, sets, train, LAM,
                                             eaf_cfg, cfg, optim, 6)
    steps = record_steps(monkeypatch, run)
    labels = np.searchsorted(np.unique(train.identities), train.identities)
    # the run's margin and dropout streams: spawned children depend only on
    # their index, so the first two of three are those of a 2-stream run
    margin_rng, dropout_rng = training._rng_streams(optim.seed, 3)[1:]

    for before, batch, (loss, terms, grads) in steps:
        tape = oracle.Tape()
        ptens = {name: tape.param(p) for name, p in before.items()}
        if kind in models.ADAPTOR_KINDS:
            a = models.AdaptorModel(kind, 4, cfg.embedding_dim, {})
            emb = oracle.adaptor_graph(tape, ptens, a, inputs[batch], dropout_rng)
        else:
            emb = oracle.backbone_graph(tape, ptens, cfg, inputs[batch])
        want_terms, eaf = {}, None
        if kind != "a_kd":
            margins = margin_rng.normal(eaf_cfg.m, eaf_cfg.sigma, size=len(batch))
            eaf = oracle.elastic_arcface(emb, ptens["header.W"], labels[batch],
                                         eaf_cfg, margins)
            want_terms["eaf"] = eaf
        if kind in ("eaf_kd", "a_kd"):
            want_terms["kd"] = oracle.kd_mse(targets[batch], emb)
            total = oracle.student_loss(eaf, want_terms["kd"], LAM)
        else:
            total, want_terms = eaf, {}
        tape.backward(total)

        assert_bitwise(loss, total.values)
        assert terms.keys() == want_terms.keys()
        for name, t in want_terms.items():
            assert_bitwise(terms[name], t.values)
        assert grads.keys() == ptens.keys()
        for name, t in ptens.items():
            assert_bitwise(grads[name], t.grad)
