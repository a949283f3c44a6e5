import numpy as np
import pytest

from mstkd import autodiff as ad
from mstkd import models, store
from mstkd.data import GroupTag, SampleSet
from mstkd.errors import ConfigError, ContractError, DivergenceError, FormatError
from mstkd.models import BackboneConfig

from gradcheck import assert_grads_close, numeric_grad
import tape_oracle as oracle

G0 = GroupTag(0, "g0")
CFG = BackboneConfig(input_dim=16, hidden=(24,), embedding_dim=8)


def param_tensors(tape, params):
    return {name: tape.param(arr) for name, arr in params.items()}


def make_teacher(n_classes=10, seed=0, cfg=CFG):
    return models.new_teacher(cfg, np.arange(n_classes), G0, seed)


def cosine_logits(emb, header):
    return emb @ (header / np.linalg.norm(header, axis=1, keepdims=True)).T


def test_teacher_forward_contracts():
    t = make_teacher()
    x = np.random.default_rng(0).normal(size=(12, 16))
    emb = t.embed(x)
    logits = cosine_logits(emb, t.params["header.W"])
    assert np.all(np.abs(np.linalg.norm(emb, axis=1) - 1.0) < 1e-10)
    assert logits.shape == (12, 10)
    assert np.all(logits >= -1.0) and np.all(logits <= 1.0)


def test_fresh_teacher_loss_near_uniform():
    t = make_teacher(n_classes=50)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(64, 16))
    logits = cosine_logits(t.embed(x), t.params["header.W"])
    tape = oracle.Tape()
    loss = oracle.softmax_ce(tape.param(logits), rng.integers(0, 50, size=64))
    assert abs(float(loss.values) - np.log(50)) < 0.2 * np.log(50)


def test_forward_equals_backbone_graph_bitwise():
    cfg = BackboneConfig(input_dim=16, hidden=(24, 12), embedding_dim=8, slope=0.1)
    t = make_teacher(seed=3, cfg=cfg)
    x = np.random.default_rng(12).normal(size=(9, 16))
    tape = oracle.Tape()
    graph = oracle.backbone_graph(tape, param_tensors(tape, t.params), cfg, x)
    out = ad.forward(t.params, "backbone", cfg.slope, x)
    assert out.tobytes() == graph.values.tobytes()
    assert t.embed(x).tobytes() == graph.values.tobytes()
    trained, _ = ad.forward(t.params, "backbone", cfg.slope, x, train=True)
    assert trained.tobytes() == graph.values.tobytes()


@pytest.mark.parametrize("slope", [0.1, 0.0])
@pytest.mark.parametrize("rows", [0, 1, ad._BLOCK_ROWS, 3 * ad._BLOCK_ROWS + 7])
def test_inference_forward_by_row_blocks_bitwise(rows, slope):
    """Inference activates a block of rows at a time: at no row, one row,
    one full block and several with a ragged tail, at slope 0 too, it gives
    the floats of the training forward and the tape, with some
    pre-activations exactly 0.0."""
    cfg = BackboneConfig(input_dim=16, hidden=(32, 24), embedding_dim=8,
                         slope=slope)
    params = dict(make_teacher(seed=3, cfg=cfg).params)
    params["backbone.0.W"] = params["backbone.0.W"].copy()
    params["backbone.0.W"][:, :3] = 0.0   # biases start at zero
    x = np.random.default_rng(12).normal(size=(rows, 16))
    out = ad.forward(params, "backbone", slope, x)
    assert out.shape == (rows, 8)
    trained, _ = ad.forward(params, "backbone", slope, x, train=True)
    tape = oracle.Tape()
    graph = oracle.backbone_graph(tape, param_tensors(tape, params), cfg, x)
    assert out.tobytes() == trained.tobytes() == graph.values.tobytes()


@pytest.mark.parametrize("slope", [0.1, 0.0])
def test_inference_activation_is_the_training_factor_at_signed_zeros(slope):
    """The affine sums never yield -0.0 here, so the activation is fed
    exact 0.0 and -0.0 directly, across two blocks and a ragged tail."""
    h = np.random.default_rng(15).normal(size=(2 * ad._BLOCK_ROWS + 5, 6))
    h[::2, 0], h[1::2, 1] = 0.0, -0.0
    got = h.copy()
    ad._leaky_relu_rows(got, slope)
    assert got.tobytes() == (h * np.maximum(h >= 0.0, slope)).tobytes()
    assert np.signbit(got[1::2, 1]).all()


@pytest.mark.parametrize("kind", models.ADAPTOR_KINDS)
def test_forward_equals_adaptor_graph_bitwise(kind):
    a = models.new_adaptor(kind, 4, 6, seed=4, slope=0.05)
    a.dropout_p = 0.0
    fused = np.random.default_rng(13).normal(size=(11, 24))
    tape = oracle.Tape()
    graph = oracle.adaptor_graph(tape, param_tensors(tape, a.params), a, fused)
    assert models.adaptor_forward(a, fused).tobytes() == graph.values.tobytes()


def test_forward_rejects_wrong_width_and_zero_row():
    t = make_teacher()
    with pytest.raises(ContractError, match="batch width"):
        t.embed(np.ones((3, 15)))
    with pytest.raises(ContractError, match="batch width"):
        ad.forward(t.params, "backbone", CFG.slope, np.ones(16))
    with pytest.raises(ContractError, match="batch width"):
        models.adaptor_forward(models.new_adaptor("DuL", 4, 6, seed=0), np.ones((2, 18)))
    x = np.random.default_rng(14).normal(size=(3, 16))
    x[1] = 0.0  # biases start at zero, so a zero row stays zero
    with pytest.raises(DivergenceError, match="row norm at or below"):
        t.embed(x)


def test_backbone_gradients_match_finite_differences():
    cfg = BackboneConfig(input_dim=5, hidden=(6,), embedding_dim=4)
    t = models.new_teacher(cfg, np.arange(3), G0, seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 5))
    w_proj = rng.normal(size=(4, 4))
    names = [n for n in t.params if n.startswith("backbone")]
    arrays = [t.params[n].copy() for n in names]

    def f(*arrs):
        p = dict(zip(names, arrs))
        h = x
        h = np.maximum(h @ p["backbone.0.W"] + p["backbone.0.b"],
                       0.01 * (h @ p["backbone.0.W"] + p["backbone.0.b"]))
        h = h @ p["backbone.1.W"] + p["backbone.1.b"]
        h = h / np.linalg.norm(h, axis=1, keepdims=True)
        return float(np.sum(h * w_proj))

    _, saved = ad.forward(t.params, "backbone", cfg.slope, x, train=True)
    grads = ad.backward(t.params, "backbone", saved, w_proj.copy())
    numeric = numeric_grad(f, [a.copy() for a in arrays])
    for name, n in zip(names, numeric):
        assert_grads_close(grads[name], n)


def test_init_is_deterministic():
    a = make_teacher(seed=7)
    b = make_teacher(seed=7)
    c = make_teacher(seed=8)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_fuse_inputs_widths_and_order():
    rng = np.random.default_rng(5)
    ids = np.arange(3)
    grp = np.zeros(3, dtype=int)

    def unit_set(seed, d=4):
        v = np.random.default_rng(seed).normal(size=(3, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return SampleSet(v, ids, grp, [G0])

    sets = [unit_set(0), unit_set(1)]
    fused = models.fuse_inputs(sets)
    assert fused.shape == (3, 8)
    assert np.array_equal(fused[:, :4], sets[0].values)
    assert np.array_equal(fused[:, 4:], sets[1].values)
    swapped = models.fuse_inputs(sets[::-1])
    assert np.array_equal(swapped[:, :4], sets[1].values)
    # paper-scale width: 4 teachers x 512 dims
    big = [SampleSet(np.zeros((2, 512)) + 1.0, np.arange(2),
                     np.zeros(2, dtype=int), [G0]) for _ in range(4)]
    assert models.fuse_inputs(big).shape == (2, 2048)


def test_fuse_inputs_misaligned():
    a = SampleSet(np.ones((3, 2)), np.arange(3), np.zeros(3, dtype=int), [G0])
    b = SampleSet(np.ones((4, 2)), np.arange(4), np.zeros(4, dtype=int), [G0])
    with pytest.raises(ContractError):
        models.fuse_inputs([a, b])
    c = SampleSet(np.ones((3, 2)), np.arange(3) + 1, np.zeros(3, dtype=int), [G0])
    with pytest.raises(ContractError):
        models.fuse_inputs([a, c])


def test_sl_adaptor_with_block_selecting_weights():
    d = 6
    a = models.new_adaptor("SL", 4, d, seed=0)
    w = np.zeros((4 * d, d))
    w[:d, :] = np.eye(d)
    a.params["adaptor.0.W"] = w
    a.params["adaptor.0.b"] = np.zeros(d)
    rng = np.random.default_rng(6)
    e0 = rng.normal(size=(5, d))
    e0 /= np.linalg.norm(e0, axis=1, keepdims=True)
    fused = np.concatenate([e0] + [rng.normal(size=(5, d)) for _ in range(3)], axis=1)
    out = models.adaptor_forward(a, fused)
    assert np.allclose(out, e0, atol=1e-12)


def test_sl_block_average_of_identical_teachers():
    d = 5
    a = models.new_adaptor("SL", 4, d, seed=0)
    a.params["adaptor.0.W"] = np.concatenate([np.eye(d)] * 4, axis=0) / 4.0
    a.params["adaptor.0.b"] = np.zeros(d)
    e = np.random.default_rng(7).normal(size=(3, d))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    out = models.adaptor_forward(a, np.concatenate([e] * 4, axis=1))
    assert np.allclose(out, e, atol=1e-12)


def test_adaptor_outputs_unit_norm_all_kinds():
    rng = np.random.default_rng(8)
    fused = rng.normal(size=(10, 4 * 6))
    for kind in models.ADAPTOR_KINDS:
        a = models.new_adaptor(kind, 4, 6, seed=1)
        trained, _ = ad.forward(a.params, "adaptor", a.slope, fused, train=True,
                                dropout_p=a.dropout_p if kind == "DLDPO" else 0.0,
                                rng=np.random.default_rng(0))
        for out in (trained, models.adaptor_forward(a, fused)):
            assert np.all(np.abs(np.linalg.norm(out, axis=1) - 1.0) < 1e-10)


def test_dul_eval_deterministic():
    a = models.new_adaptor("DuL", 4, 6, seed=2)
    fused = np.random.default_rng(9).normal(size=(7, 24))
    assert np.array_equal(models.adaptor_forward(a, fused),
                          models.adaptor_forward(a, fused))


def test_dldpo_dropout_rate_and_placement():
    a = models.new_adaptor("DLDPO", 4, 16, seed=3)
    rng = np.random.default_rng(10)
    fused = rng.normal(size=(500, 64))
    out, _ = ad.forward(a.params, "adaptor", a.slope, fused, train=True,
                        dropout_p=a.dropout_p, rng=np.random.default_rng(42))
    # reconstruct: the dropout mask is the generator's first draw
    h = fused @ a.params["adaptor.0.W"] + a.params["adaptor.0.b"]
    keep = (np.random.default_rng(42).random(h.shape) >= 0.2) / 0.8
    dropped_frac = np.mean(keep == 0.0)
    assert abs(dropped_frac - 0.2) < 0.02
    h = h * keep
    h = np.where(h >= 0, h, 0.01 * h)
    h = h @ a.params["adaptor.1.W"] + a.params["adaptor.1.b"]
    h /= np.linalg.norm(h, axis=1, keepdims=True)
    assert np.allclose(out, h, atol=1e-12)


def test_parameter_count_ordering():
    sl = models.new_adaptor("SL", 4, 8, seed=0)
    dul = models.new_adaptor("DuL", 4, 8, seed=0)
    dldpo = models.new_adaptor("DLDPO", 4, 8, seed=0)

    def count_params(params):
        return sum(arr.size for arr in params.values())

    assert count_params(sl.params) < count_params(dul.params)
    assert count_params(dul.params) == count_params(dldpo.params)


def test_attribution_block_selection_and_uniformity():
    d = 8
    a = models.new_adaptor("SL", 4, d, seed=0)
    w = np.zeros((4 * d, d))
    w[:d, :] = np.eye(d)
    a.params["adaptor.0.W"] = w
    assert np.allclose(models.trace_teacher_attribution(a), [1, 0, 0, 0])

    shares = []
    for seed in range(200):
        a = models.new_adaptor("SL", 4, d, seed=seed)
        attr = models.trace_teacher_attribution(a)
        assert np.all(attr >= 0)
        assert abs(attr.sum() - 1.0) < 1e-12
        shares.append(attr)
    assert np.allclose(np.mean(shares, axis=0), 0.25, atol=0.01)


def test_attribution_invariant_under_output_rotation():
    a = models.new_adaptor("SL", 4, 6, seed=5)
    before = models.trace_teacher_attribution(a)
    q, _ = np.linalg.qr(np.random.default_rng(11).normal(size=(6, 6)))
    a.params["adaptor.0.W"] = a.params["adaptor.0.W"] @ q
    assert np.allclose(models.trace_teacher_attribution(a), before, atol=1e-12)


def test_attribution_requires_sl():
    a = models.new_adaptor("DuL", 4, 6, seed=0)
    with pytest.raises(ContractError, match="attribution tracing requires an SL adaptor"):
        models.trace_teacher_attribution(a)


def test_student_modes():
    akd = models.new_student(CFG, "a_kd", None, seed=0)
    emb = akd.embed(np.random.default_rng(0).normal(size=(4, 16)))
    assert np.all(np.abs(np.linalg.norm(emb, axis=1) - 1.0) < 1e-10)
    assert "header.W" not in akd.params

    eaf = models.new_student(CFG, "eaf_kd", np.arange(200), seed=0)
    logits = cosine_logits(eaf.embed(np.random.default_rng(0).normal(size=(4, 16))),
                           eaf.params["header.W"])
    assert logits.shape == (4, 200)
    with pytest.raises(ConfigError):
        models.new_student(CFG, "eaf_kd", None, seed=0)


def test_checkpoint_round_trips(tmp_path):
    t = make_teacher(seed=13)
    t.best_epoch = 5
    models.save_teacher(t, tmp_path / "t.ckpt")
    t2 = models.load_teacher(tmp_path / "t.ckpt")
    assert t2.assigned_group == t.assigned_group
    assert t2.best_epoch == 5
    assert t2.cfg == t.cfg
    for n in t.params:
        assert np.array_equal(t2.params[n], t.params[n])

    a = models.new_adaptor("DLDPO", 4, 8, seed=14)
    models.save_adaptor(a, tmp_path / "a.ckpt")
    a2 = models.load_adaptor(tmp_path / "a.ckpt")
    assert (a2.kind, a2.n_teachers, a2.emb_dim) == ("DLDPO", 4, 8)
    for n in a.params:
        assert np.array_equal(a2.params[n], a.params[n])

    s = models.new_student(CFG, "eaf_kd", np.arange(20), seed=15)
    models.save_student(s, tmp_path / "s.ckpt")
    s2 = models.load_student(tmp_path / "s.ckpt")
    assert s2.mode == "eaf_kd"
    assert np.array_equal(s2.class_ids, s.class_ids)
    for n in s.params:
        assert np.array_equal(s2.params[n], s.params[n])


def test_loaded_parameters_are_read_only_views_of_the_data_block(tmp_path):
    """A loaded model's parameters tile the checkpoint's data block as views
    of one read-only buffer, so an in-place write raises at once."""
    saved = [(models.save_teacher, models.load_teacher, make_teacher(seed=16)),
             (models.save_adaptor, models.load_adaptor,
              models.new_adaptor("DuL", 4, 8, seed=17)),
             (models.save_student, models.load_student,
              models.new_student(CFG, "eaf_kd", np.arange(20), seed=18))]
    for save, load, model in saved:
        save(model, tmp_path / "m.ckpt")
        params = load(tmp_path / "m.ckpt").params
        base = next(iter(params.values())).base
        for name, p in params.items():
            assert p.base is base and not p.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                p[...] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                p += 1.0
            assert np.array_equal(p, model.params[name])


def _without(key):
    return lambda meta, params: meta.pop(key)


def _set(key, value, *nested):
    def edit(meta, params):
        for k in nested:
            meta = meta[k]
        meta[key] = value
    return edit


def _rename(name, new):
    return lambda meta, params: params.update({new: params.pop(name)})


def _reshape(name, shape):
    return lambda meta, params: params.update({name: np.zeros(shape)})


@pytest.mark.parametrize("which, edit, named", [
    ("teacher", _without("backbone"), "lacks 'backbone'"),
    ("teacher", _without("class_ids"), "lacks 'class_ids'"),
    ("teacher", _without("group_index"), "lacks 'group_index'"),
    ("teacher", _set("hidden", "x", "backbone"), "meta.backbone.hidden"),
    ("teacher", _set("backbone", [64]), "meta.backbone is not an object"),
    ("teacher", _set("best_epoch", True), "meta.best_epoch"),
    ("teacher", _set("class_ids", [0, 2 ** 70]), "meta.class_ids"),
    ("teacher", _set("kind", "student"), "expected a teacher"),
    ("adaptor", _without("slope"), "lacks 'slope'"),
    ("adaptor", _set("n_teachers", "4"), "meta.n_teachers"),
    ("student", _without("mode"), "lacks 'mode'"),
    ("student", _set("class_ids", "x"), "meta.class_ids"),
    ("student", _set("embedding_dim", 8.0, "backbone"), "meta.backbone.embedding_dim"),
    ("teacher", _set("slope", 1.5, "backbone"), "meta.backbone.slope"),
    ("adaptor", _set("dropout_p", -0.2), "meta.dropout_p"),
    ("teacher", _rename("backbone.1.W", "backbone.1.V"),
     r"parameter backbone.1.W is absent in the file, \(24, 8\) in the network"),
    ("teacher", _reshape("backbone.0.b", 7),
     r"parameter backbone.0.b is \(7,\) in the file, \(24,\) in the network"),
    ("student", _reshape("header.W", (3, 8)),
     r"parameter header.W is \(3, 8\) in the file, absent in the network"),
    ("adaptor", _rename("adaptor.0.b", "adaptor.1.b"), "parameter adaptor.0.b"),
    ("adaptor", _set("adaptor_kind", "XXL"), "meta.adaptor_kind"),
], ids=["no-backbone", "no-class-ids", "no-group-index", "hidden-str",
        "backbone-list", "best-epoch-bool", "class-id-over-64-bits", "wrong-kind",
        "adaptor-no-slope", "adaptor-n-teachers-str", "student-no-mode",
        "student-class-ids-str", "student-embedding-dim-float",
        "backbone-slope-1.5", "adaptor-dropout-negative", "renamed-parameter",
        "bias-of-7", "header-of-an-a-kd-student", "adaptor-renamed-bias",
        "adaptor-unknown-kind"])
def test_checkpoint_meta_fields_are_checked(tmp_path, which, edit, named):
    model, save, load = {
        "teacher": (make_teacher(seed=13), models.save_teacher, models.load_teacher),
        "adaptor": (models.new_adaptor("SL", 4, 8, seed=14), models.save_adaptor,
                    models.load_adaptor),
        "student": (models.new_student(CFG, "a_kd", None, seed=15),
                    models.save_student, models.load_student),
    }[which]
    path = tmp_path / f"{which}.ckpt"
    save(model, path)
    load(path)   # the file as written loads
    params, meta = store.load_params(path)
    edit(meta, params)
    store.save_params(path, params, meta)
    with pytest.raises(FormatError, match=named) as info:
        load(path)
    assert str(path) in str(info.value)
