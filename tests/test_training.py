import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from mstkd import data as d
from mstkd import losses, models, pipeline
from mstkd import training as tr
from mstkd.errors import ConfigError, DivergenceError
from mstkd.evaluation import evaluate_embeddings, verification_accuracy
from mstkd.losses import EafConfig
from mstkd.models import BackboneConfig


def desk_data(seed=0):
    spec = d.SyntheticDatasetSpec(seed=seed, identities_per_group=12,
                                  samples_per_identity=10,
                                  validation_identities_per_group=6,
                                  test_identities_per_group=6)
    train, val, test = d.generate(spec)
    val_pairs = d.build_pairs(val, 200, 0.5, seed=seed + 1)
    test_pairs = d.build_pairs(test, 200, 0.5, seed=seed + 2)
    return train, val, test, val_pairs, test_pairs


CFG = BackboneConfig(input_dim=64, hidden=(64,), embedding_dim=16)
FAST = dict(batch_size=64, seed=5)


def teacher_optim(epochs=6):
    return tr.OptimConfig(0.1, epochs, (2, 4), **FAST)


def sgd_step(opt, grads, lr):
    """Write `grads` into the optimizer's gradient views, as a training step
    does, then take one step."""
    for name, g in grads.items():
        opt.grads[name][...] = g
    opt.step(lr)


def test_sgd_step_plain_and_fixed_point():
    params = {"p": np.array([0.0])}
    sgd_step(tr.SgdMomentum(params, momentum=0.0), {"p": np.array([2.0])}, lr=1.0)
    assert params["p"][0] == -2.0
    params = {"p": np.array([1.5])}
    sgd_step(tr.SgdMomentum(params, momentum=0.9), {"p": np.zeros(1)}, lr=1.0)
    assert params["p"][0] == 1.5


def test_sgd_first_step_equals_plain_sgd():
    rng = np.random.default_rng(0)
    p0 = rng.normal(size=(3, 2))
    g = rng.normal(size=(3, 2))
    params = {"p": p0.copy()}
    opt = tr.SgdMomentum(params, momentum=0.9)
    assert np.all(opt.velocity == 0.0)
    sgd_step(opt, {"p": g}, lr=0.3)
    assert np.allclose(params["p"], p0 - 0.3 * g)


def test_sgd_converges_on_quadratic_bowl():
    params = {"p": np.array([1.0])}
    opt = tr.SgdMomentum(params, momentum=0.9)
    for _ in range(200):
        sgd_step(opt, {"p": 2.0 * params["p"]}, lr=0.1)
    assert abs(params["p"][0]) < 1e-3


def test_sgd_flat_buffer_equals_per_array_heavy_ball():
    rng = np.random.default_rng(1)
    shapes = {"a.W": (4, 3), "a.b": (3,), "h.W": (2, 5)}
    start = {n: rng.normal(size=s) for n, s in shapes.items()}
    params = {n: p.copy() for n, p in start.items()}
    opt = tr.SgdMomentum(params, momentum=0.9)
    for name in shapes:
        assert np.shares_memory(params[name], opt.flat)
    ref = {n: p.copy() for n, p in start.items()}
    vel = {n: np.zeros(s) for n, s in shapes.items()}
    for lr in (0.3, 0.3, 0.03, 0.003, 0.003):
        grads = {n: rng.normal(size=s) for n, s in shapes.items()}
        sgd_step(opt, grads, lr)
        for n in shapes:
            vel[n] = 0.9 * vel[n] + grads[n]
            ref[n] = ref[n] - lr * vel[n]
    for name in shapes:
        assert params[name].shape == shapes[name]
        assert np.array_equal(params[name], ref[name])

    before = {n: p.copy() for n, p in params.items()}
    grads = {n: np.ones(s) for n, s in shapes.items()}
    grads["a.b"][1] = np.nan
    with pytest.raises(DivergenceError, match=r"in a\.b$"):
        sgd_step(opt, grads, 0.1)
    for name in shapes:
        assert np.array_equal(params[name], before[name])
    grads = {n: np.ones(s) for n, s in shapes.items()}
    grads["h.W"] = np.ones((5, 2))
    # a wrongly shaped gradient cannot be written into its view
    with pytest.raises(ValueError, match=r"\(5,2\) into shape \(2,5\)"):
        sgd_step(opt, grads, 0.1)
    for name in shapes:
        assert np.array_equal(params[name], before[name])


def test_sgd_rejects_non_finite_gradient():
    params = {"p": np.zeros(2)}
    opt = tr.SgdMomentum(params)
    with pytest.raises(DivergenceError):
        sgd_step(opt, {"p": np.array([1.0, np.nan])}, lr=0.1)


@pytest.mark.parametrize("trainer", ["teacher", "adaptor", "student"])
def test_trained_parameters_and_gradients_live_in_the_optimizer_buffers(
        monkeypatch, trainer):
    """Every trainer's steps write every gradient element into the
    optimizer's gradient buffer, whose views are the gradients, and the
    model it returns holds views of the optimizer's parameter buffer (an
    adaptor: of its leading part, before the discarded header)."""
    opts, filled = [], []

    class Recording(tr.SgdMomentum):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opts.append(self)

    real_loop = tr._train_loop

    def loop(opt, optim, n, shuffle_rng, step, score=None):
        def recorded(batch):
            opt.grad.fill(np.nan)
            out = step(batch)
            filled.append(bool(np.isfinite(opt.grad).all()))
            return out
        return real_loop(opt, optim, n, shuffle_rng, recorded, score)

    monkeypatch.setattr(tr, "SgdMomentum", Recording)
    monkeypatch.setattr(tr, "_train_loop", loop)
    train, val, _, val_pairs, _ = desk_data()
    optim = tr.OptimConfig(0.1, 1, (), **FAST)
    teachers = [models.new_teacher(CFG, np.arange(1), train.group_tags[g], seed=g)
                for g in range(4)]
    sets = tr.extract_embeddings(teachers, train)
    if trainer == "teacher":
        model, _ = tr.train_teacher(train.select(train.rows_of_group(0)),
                                    train.group_tags[0], CFG, EafConfig(), optim,
                                    val, val_pairs, init_seed=3)
    elif trainer == "adaptor":
        model, _ = tr.train_adaptor("DuL", sets, EafConfig(), optim, init_seed=4)
    else:
        model, _ = tr.train_student("eaf_kd", models.new_adaptor("SL", 4, 16, 5),
                                    sets, train, 10000.0, EafConfig(), CFG, optim,
                                    init_seed=6)
    opt, = opts
    assert len(filled) >= 2 and all(filled)
    for g in opt.grads.values():
        assert np.shares_memory(g, opt.grad)
    lead = opt.flat.size - (opt.grads["header.W"].size if trainer == "adaptor" else 0)
    assert sum(p.size for p in model.params.values()) == lead
    for p in model.params.values():
        assert np.shares_memory(p, opt.flat[:lead])


def test_an_openblas_numpy_finds_its_thread_count_functions():
    """Without the getter/setter pair, training would silently go back to
    every BLAS thread after a numpy upgrade."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas["name"].lower():
        pytest.skip(f"numpy is built against {blas['name']}, not OpenBLAS")
    assert pipeline._openblas_threads() is not None


def test_the_blas_pin_reaches_numpys_openblas_when_scipy_loaded_its_own():
    """scipy ships an OpenBLAS of its own. Loaded first, it must not take
    the pin: the setter must change the count of the library numpy calls.
    Run in a fresh process, as the lookup is made once per process."""
    pytest.importorskip("scipy")
    script = textwrap.dedent("""
        import ctypes
        import scipy.linalg  # maps scipy's OpenBLAS before numpy's is looked up
        import numpy as np
        from mstkd import pipeline
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        names = [(p.format("get"), p.format("set")) for p in pipeline._OPENBLAS_THREADS]
        found = [(getattr(lib, g), getattr(lib, s)) for g, s in names
                 if hasattr(lib, g) and hasattr(lib, s)]
        if not found or pipeline._openblas_threads() is None:
            print("none")
        else:
            get, set_ = found[0]
            set_(2)
            before = get()
            pipeline._openblas_threads()[1](1)
            print(before, get())
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(tr.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    if result.stdout.split() == ["none"]:
        pytest.skip("numpy does not link an OpenBLAS")
    assert result.stdout.split() == ["2", "1"]


def test_lr_schedule_matches_presets():
    lr0, epochs, decays = tr.TEACHER_PHASE
    cfg = tr.OptimConfig(lr0, epochs, decays)
    expected = {1: 0.1, 15: 0.1, 16: 0.01, 27: 0.01, 28: 0.001, 39: 0.001,
                40: 0.0001, 49: 0.0001, 50: 0.00001, 52: 0.00001}
    for epoch, lr in expected.items():
        assert tr.lr_at_epoch(cfg, epoch) == pytest.approx(lr)
    lr0, epochs, decays = tr.ADAPTOR_PHASE
    cfg = tr.OptimConfig(lr0, epochs, decays)
    assert tr.lr_at_epoch(cfg, 8) == pytest.approx(0.1)
    assert tr.lr_at_epoch(cfg, 26) == pytest.approx(1e-4)


def test_scale_phase_quarter():
    assert tr.scale_phase(*tr.TEACHER_PHASE, 0.25) == (0.1, 13, (4, 7, 10, 12))
    assert tr.scale_phase(*tr.STUDENT_PHASE, 0.25) == (0.1, 6, (2, 3, 5))
    lr0, epochs, decays = tr.scale_phase(0.1, 8, (1, 1, 2), 1.0)
    assert epochs == 8
    assert decays == (1, 2, 3)  # forced strictly increasing


def test_optim_config_validation():
    with pytest.raises(ConfigError):
        tr.OptimConfig(0.1, 10, (4, 4)).validate()
    with pytest.raises(ConfigError):
        tr.OptimConfig(0.1, 10, (10,)).validate()
    with pytest.raises(ConfigError):
        tr.OptimConfig(-0.1, 10, ()).validate()


def test_epoch_batches_cover_every_sample_once():
    rng = np.random.default_rng(1)
    batches = list(tr.epoch_batches(103, 20, rng))
    assert [len(b) for b in batches] == [20, 20, 20, 20, 20, 3]  # last kept
    assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(103))


def test_train_teacher_beats_untrained_and_best_epoch_valid():
    train, val, _, val_pairs, _ = desk_data()
    split = d.split_specialized(train)
    subset = train.select(train.rows_of_identities(split[1]))
    optim = teacher_optim()
    teacher, records = tr.train_teacher(subset, train.group_tags[1], CFG,
                                        EafConfig(), optim, val, val_pairs,
                                        init_seed=3)
    assert 1 <= teacher.best_epoch <= optim.epochs
    assert len(records) == optim.epochs
    trained_acc, _ = verification_accuracy(teacher.embed(val.values),
                                           val_pairs.of_group(1))
    fresh = models.new_teacher(CFG, teacher.class_ids, train.group_tags[1], 999)
    fresh_acc, _ = verification_accuracy(fresh.embed(val.values),
                                         val_pairs.of_group(1))
    assert trained_acc > fresh_acc
    # selection rule: the kept checkpoint scores the recorded best accuracy
    best_logged = max(r["val_acc"]["g1"] for r in records)
    assert trained_acc == pytest.approx(best_logged)
    assert records[teacher.best_epoch - 1]["val_acc"]["g1"] == pytest.approx(best_logged)


def test_train_teacher_is_deterministic():
    train, val, _, val_pairs, _ = desk_data()
    split = d.split_specialized(train)
    subset = train.select(train.rows_of_identities(split[0]))

    def run():
        t, _ = tr.train_teacher(subset, train.group_tags[0], CFG, EafConfig(),
                                teacher_optim(), val, val_pairs, init_seed=4)
        return t

    t1, t2 = run(), run()
    for name in t1.params:
        assert np.array_equal(t1.params[name], t2.params[name])
    assert t1.best_epoch == t2.best_epoch


def test_extract_embeddings_aligned_and_stable():
    train, val, _, val_pairs, _ = desk_data()
    split = d.split_specialized(train)
    teachers = []
    for g in range(2):
        subset = train.select(train.rows_of_identities(split[g]))
        optim = tr.OptimConfig(0.1, 2, (1,), **FAST)
        t, _ = tr.train_teacher(subset, train.group_tags[g], CFG, EafConfig(),
                                optim, val, val_pairs, init_seed=g)
        teachers.append(t)
    sets = tr.extract_embeddings(teachers, train)
    assert len(sets) == 2
    for s in sets:
        assert s.values.shape == (train.n, CFG.embedding_dim)
        assert np.all(np.abs(np.linalg.norm(s.values, axis=1) - 1.0) < 1e-10)
        assert np.array_equal(s.identities, train.identities)
    again = tr.extract_embeddings(teachers, train)
    assert np.array_equal(again[0].values, sets[0].values)


def pipeline_pieces(mode="a_kd", kind="SL"):
    train, val, test, val_pairs, test_pairs = desk_data()
    split = d.split_specialized(train)
    teachers = []
    for g in range(4):
        subset = train.select(train.rows_of_identities(split[g]))
        t, _ = tr.train_teacher(subset, train.group_tags[g], CFG, EafConfig(),
                                teacher_optim(), val, val_pairs, init_seed=g)
        teachers.append(t)
    sets = tr.extract_embeddings(teachers, train)
    optim_a = tr.OptimConfig(1.0, 6, (2, 4), **FAST)
    adaptor, arecs = tr.train_adaptor(kind, sets, EafConfig(), optim_a, init_seed=50)
    return train, val, test, test_pairs, teachers, sets, adaptor, arecs


def test_train_adaptor_selects_min_loss_epoch():
    _, _, _, _, _, _, adaptor, arecs = pipeline_pieces()
    losses_by_epoch = [r["mean_loss"] for r in arecs]
    assert losses_by_epoch[adaptor.best_epoch - 1] == min(losses_by_epoch)
    assert losses_by_epoch[-1] < losses_by_epoch[0]  # it learned something
    assert "header.W" not in adaptor.params          # header discarded


def test_train_adaptor_ignores_group_information():
    _, _, _, _, _, sets, _, _ = pipeline_pieces()
    optim = tr.OptimConfig(1.0, 3, (2,), **FAST)
    a1, _ = tr.train_adaptor("SL", sets, EafConfig(), optim, init_seed=70)
    scrubbed = [d.SampleSet(s.values, s.identities, np.zeros_like(s.groups),
                            s.group_tags) for s in sets]
    a2, _ = tr.train_adaptor("SL", scrubbed, EafConfig(), optim, init_seed=70)
    for n in a1.params:
        assert np.array_equal(a1.params[n], a2.params[n])


@pytest.mark.parametrize("kind", models.ADAPTOR_KINDS)
def test_fused_target_of_pool_equals_per_batch_target(kind):
    train, _, _, _, teachers, _, adaptor, _ = pipeline_pieces(kind=kind)
    order = [2, 0, 3, 1]
    sets = tr.extract_embeddings(teachers, train)
    targets = tr.fused_target(adaptor, [sets[g] for g in order])
    batches = list(tr.epoch_batches(train.n, FAST["batch_size"],
                                    np.random.default_rng(3)))
    assert len(batches[-1]) < FAST["batch_size"]  # the short last batch too
    for batch in batches:
        x = train.values[batch]
        fused = np.concatenate([teachers[g].embed(x) for g in order], axis=1)
        expected = models.adaptor_forward(adaptor, fused)
        assert targets[batch].tobytes() == expected.tobytes()


def test_train_student_akd_never_reads_labels_and_mimics():
    train, val, test, test_pairs, teachers, sets, adaptor, _ = pipeline_pieces()
    optim_s = tr.OptimConfig(0.1, 6, (2, 4), **FAST)
    scrubbed = d.SampleSet(train.values, np.full(train.n, -1), train.groups,
                           train.group_tags)  # labels poisoned: a_kd must not look
    student, recs = tr.train_student("a_kd", adaptor, sets, scrubbed, 10000.0,
                                     EafConfig(), CFG, optim_s, init_seed=60)
    assert student.params.keys() == {f"backbone.{i}.{p}" for i in range(2)
                                     for p in "Wb"}
    e_mt = tr.fused_target(adaptor, tr.extract_embeddings(teachers, val))
    kd_after = float(np.mean((e_mt - student.embed(val.values)) ** 2))
    fresh = models.new_student(CFG, "a_kd", None, seed=60)
    kd_before = float(np.mean((e_mt - fresh.embed(val.values)) ** 2))
    assert kd_after <= 0.1 * kd_before
    report = evaluate_embeddings(student.embed(test.values), test, test_pairs)
    assert min(report.per_group_acc) > 60.0


def _recorded(real, calls, nan_at=None):
    """`real`, noting each loss it returns (with its gradients) in `calls`;
    the loss of call number `nan_at` (1-based) is replaced by NaN."""
    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(out[0])
        if len(calls) == nan_at:
            out = (np.nan, *out[1:])
        return out
    return wrapped


def test_train_student_eaf_kd_loss_bookkeeping(monkeypatch):
    train, _, _, _, _, sets, adaptor, _ = pipeline_pieces()
    eaf_values, kd_values = [], []
    monkeypatch.setattr(losses, "elastic_arcface",
                        _recorded(losses.elastic_arcface, eaf_values))
    monkeypatch.setattr(losses, "kd_mse", _recorded(losses.kd_mse, kd_values))
    optim_s = tr.OptimConfig(0.1, 3, (2,), **FAST)
    student, recs = tr.train_student("eaf_kd", adaptor, sets, train, 10000.0,
                                     EafConfig(), CFG, optim_s, init_seed=61)
    assert student.params["header.W"].shape[0] == len(np.unique(train.identities))
    for r in recs:
        assert r["mean_loss"] == pytest.approx(
            r["mean_eaf"] + 10000.0 * r["mean_kd"], rel=1e-9)
    # each epoch's means are the plain means of its batches' values
    per_epoch = len(eaf_values) // len(recs)
    assert per_epoch >= 2
    assert len(eaf_values) == len(kd_values) == len(recs) * per_epoch
    for i, r in enumerate(recs):
        batches = slice(i * per_epoch, (i + 1) * per_epoch)
        assert r["mean_eaf"] == float(np.mean(eaf_values[batches]))
        assert r["mean_kd"] == float(np.mean(kd_values[batches]))


@pytest.mark.parametrize("mode, loss", [("eaf_kd", "elastic_arcface"),
                                        ("a_kd", "kd_mse")])
def test_train_student_non_finite_loss_stops_at_its_batch(monkeypatch, mode, loss):
    train, _, _, _, _, sets, adaptor, _ = pipeline_pieces()
    calls = []
    monkeypatch.setattr(losses, loss, _recorded(getattr(losses, loss), calls, nan_at=2))
    with pytest.raises(DivergenceError, match=r"at epoch 1, batch 2$"):
        tr.train_student(mode, adaptor, sets, train, 10000.0, EafConfig(), CFG,
                         tr.OptimConfig(0.1, 1, (), **FAST), init_seed=61)
    assert len(calls) == 2   # no batch after the bad one


def test_train_teacher_on_a_nan_row_raises_divergence():
    train, val, _, val_pairs, _ = desk_data()
    subset = train.select(train.rows_of_group(0))
    subset.values[5] = np.nan
    with pytest.raises(DivergenceError, match=r"at epoch 1, batch \d+$"):
        tr.train_teacher(subset, train.group_tags[0], CFG, EafConfig(),
                         teacher_optim(), val, val_pairs, init_seed=3)


def test_train_student_leaves_teachers_and_adaptor_frozen():
    train, _, _, _, teachers, sets, adaptor, _ = pipeline_pieces()
    before_t = [{n: p.copy() for n, p in t.params.items()} for t in teachers]
    before_a = {n: p.copy() for n, p in adaptor.params.items()}
    optim_s = tr.OptimConfig(0.1, 2, (), **FAST)
    tr.train_student("a_kd", adaptor, sets, train, 10000.0, EafConfig(), CFG,
                     optim_s, init_seed=62)
    for t, before in zip(teachers, before_t):
        for n in before:
            assert t.params[n].tobytes() == before[n].tobytes()
    for n in before_a:
        assert adaptor.params[n].tobytes() == before_a[n].tobytes()


def test_train_log_records_serialize(tmp_path):
    recs = [{"epoch": 1, "mean_loss": 2.5, "lr": 0.1, "val_acc": {"g0": 88.0}},
            {"mean_kd": 0.5, "val_acc": None, "lr": 0.1, "mean_loss": 2.0,
             "epoch": 2}]
    path = tmp_path / "log.jsonl"
    tr.write_log(recs, path)
    # one JSON line per record, keys sorted whatever order the dict holds
    assert path.read_text() == (
        '{"epoch": 1, "lr": 0.1, "mean_loss": 2.5, "val_acc": {"g0": 88.0}}\n'
        '{"epoch": 2, "lr": 0.1, "mean_kd": 0.5, "mean_loss": 2.0, "val_acc": null}\n')


@pytest.mark.parametrize("kind, terms", [
    ("teacher", set()), ("SL", set()), ("DuL", set()), ("DLDPO", set()),
    ("a_kd", {"mean_kd"}), ("eaf_kd", {"mean_eaf", "mean_kd"})])
def test_each_model_kind_logs_exactly_its_loss_terms(tmp_path, kind, terms):
    """Every epoch record holds the epoch, mean loss, lr and validation
    accuracy, and no timing; a student adds the mean of each loss term it
    sums, a teacher or an adaptor none."""
    import json
    train, val, _, val_pairs, _ = desk_data()
    optim = tr.OptimConfig(0.1, 2, (1,), **FAST)
    sets = tr.extract_embeddings(
        [models.new_teacher(CFG, np.arange(1), train.group_tags[g], seed=g)
         for g in range(4)], train)
    if kind == "teacher":
        _, recs = tr.train_teacher(train.select(train.rows_of_group(0)),
                                   train.group_tags[0], CFG, EafConfig(), optim,
                                   val, val_pairs, init_seed=3)
    elif kind in models.ADAPTOR_KINDS:
        _, recs = tr.train_adaptor(kind, sets, EafConfig(), optim, init_seed=4)
    else:
        _, recs = tr.train_student(kind, models.new_adaptor("SL", 4, 16, 5), sets,
                                   train, 10000.0, EafConfig(), CFG, optim,
                                   init_seed=6)
    path = tmp_path / "log.jsonl"
    tr.write_log(recs, path)
    lines = path.read_text().splitlines()
    assert len(lines) == optim.epochs
    for line in lines:
        assert json.loads(line).keys() == {"epoch", "mean_loss", "lr", "val_acc"} | terms
