"""Acceptance gate: one test per criterion, each printing a PASS line,
but criterion 10, which only prints its informational lines.

Criteria 5-10 share a session-scoped sweep fixture that runs the full
pipeline on the desk-scale default config for five data seeds, once per
data-split kind, through the real stage commands; the ten pipelines run
side by side in a pool of forked processes. Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from mstkd import autodiff as ad
from mstkd import data, losses, models, pipeline, store, training
from mstkd.evaluation import evaluate_embeddings, fairness_metrics, verification_accuracy
from mstkd.losses import EafConfig

from gradcheck import assert_grads_close, numeric_grad
from reference_rows import ALL_TABLES
from rundirs import differing_files, run_files
import tape_oracle as oracle
from test_evaluation import brute_force_best_accuracy
from test_losses import through_unit_rows

SEEDS = (0, 1, 2, 3, 4)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# --------------------------------------------------------------------------
# shared sweep over the desk-scale default config


def _sweep_pipeline(doc: dict) -> dict[str, float]:
    """One pipeline of the sweep, stage by stage through the real stage
    commands, in this process; the wall seconds of its two training stages
    that criteria 5 and 6 bound."""
    os.environ["MSTKD_WORKERS"] = "1"   # in a worker of the sweep's pool only
    cfg = pipeline.config_from_dict(doc)
    seconds = {}
    for name in pipeline.STAGES:
        t0 = time.perf_counter()
        pipeline.COMMANDS[name](cfg)
        seconds[name] = time.perf_counter() - t0
    return {"teachers": seconds["train-teachers"],
            "students": seconds["train-student"]}


@pytest.fixture(scope="session")
def sweep(tmp_path_factory):
    """The 10 pipelines, run whole in a forked pool of min(usable cores,
    10) processes, each pipeline at MSTKD_WORKERS=1; the pool is shut down
    before the fixture returns."""
    root = tmp_path_factory.mktemp("sweep")
    docs = {}
    for seed in SEEDS:
        for split in ("specialized", "balanced"):
            doc = pipeline.default_config_dict()
            doc["split"] = split
            doc["out_dir"] = str(root / f"{split}_{seed}")
            doc["seeds"] = {"data": seed, "init": seed + 1, "train": seed + 2}
            docs[(split, seed)] = doc
    workers = min(len(os.sched_getaffinity(0)), len(docs))
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
        times = dict(zip(docs, pool.map(_sweep_pipeline, docs.values())))
    runs = {key: (Path(doc["out_dir"]), pipeline.config_from_dict(doc))
            for key, doc in docs.items()}
    stage_seconds = {(*key, stage): t for key, by_stage in times.items()
                     for stage, t in by_stage.items()}
    return {"runs": runs, "stage_seconds": stage_seconds}


def _load_test_pool(out: Path, cfg):
    tags = cfg.dataset.tags()
    pool = store.load_sample_set(out / "dataset" / "test.mste", tags)
    pairs = store.load_pairs(out / "dataset" / "pairs_test.txt")
    return pool, pairs


# --------------------------------------------------------------------------
# criterion 1: metric arithmetic reproduces the published summary rows


def test_criterion_1_metric_oracle_against_reference_tables():
    t0 = time.perf_counter()
    n_rows, worst = 0, 0.0
    for rows in ALL_TABLES.values():
        for _, acc, pub_global, pub_std, pub_ser in rows:
            g, s, r = fairness_metrics(acc)
            for pub, got in ((pub_global, g), (pub_std, s), (pub_ser, r)):
                worst = max(worst, abs(pub - got))
                assert abs(pub - got) <= 0.01
            n_rows += 1
    elapsed = time.perf_counter() - t0
    _report(1, n_rows == 40 and worst <= 0.01 and elapsed < 1.0,
            f"{n_rows} published rows recomputed, worst |diff| "
            f"{worst:.4f} <= 0.01, {elapsed * 1000:.0f} ms")


# --------------------------------------------------------------------------
# criterion 2: finite-difference gradient checks for every loss and block


def _check_loss_instance(rng, builder):
    """Build (analytic grads, numeric grads) for one random instance."""
    raw0 = rng.normal(size=(3, 4))
    w0 = rng.normal(size=(5, 4))
    labels = rng.integers(0, 5, size=3)
    target = rng.normal(size=(3, 4))
    target /= np.linalg.norm(target, axis=1, keepdims=True)

    def numpy_loss(raw, w):
        emb = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        wn = w / np.linalg.norm(w, axis=1, keepdims=True)
        cosines = np.clip(emb @ wn.T, -1 + 1e-7, 1 - 1e-7)
        rows = np.arange(3)
        theta = np.arccos(cosines[rows, labels])
        logits = cosines.copy()
        logits[rows, labels] = np.cos(np.clip(theta + 0.5, 0, np.pi))
        logits *= 64.0
        m = logits.max(axis=1, keepdims=True)
        lse = (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))).ravel()
        eaf = float(np.mean(lse - logits[rows, labels]))
        kd = float(np.mean((target - emb) ** 2))
        return eaf, kd

    def f(raw, w):
        eaf, kd = numpy_loss(raw, w)
        return builder["combine_np"](eaf, kd, raw, w)

    _, g_raw, w_grad = through_unit_rows(
        raw0.copy(), lambda emb: builder["combine"](emb, w0, labels, target))
    # the s=64 scale gives the margin loss third derivatives ~1e6, so the
    # difference step must sit at the truncation/roundoff optimum
    numeric = numeric_grad(f, [raw0.copy(), w0.copy()], h=3e-7)
    assert_grads_close(g_raw, numeric[0])
    # kd-only objectives leave w untouched: its gradient is zero
    assert_grads_close(w_grad, numeric[1])


def test_criterion_2_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    count = 0

    # softmax cross-entropy
    for _ in range(100):
        logits0 = rng.normal(size=(3, 5))
        labels = rng.integers(0, 5, size=3)

        def f(x):
            p = np.exp(x - x.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            return float(np.mean(-np.log(p[np.arange(3), labels])))

        tape = oracle.Tape()
        logits = tape.param(logits0.copy())
        tape.backward(oracle.softmax_ce(logits, labels))
        assert_grads_close(logits.grad, numeric_grad(f, [logits0.copy()])[0])
        count += 1

    # angular margin, mimicry MSE, combined, and kd-only objectives; the
    # combined check runs at lambda=10 because at 10000 the kd term's value
    # (w-independent) swamps FD differences for the header weights, and the
    # production lambda is covered by the exact linearity check below
    # each "combine" gives (value, gradient at emb, gradient at w)
    def eaf(emb, w, labels, target=None):
        return losses.elastic_arcface(emb, w, labels, EafConfig(sigma=0.0))

    def kd(emb, w, labels, target):
        return (*losses.kd_mse(target, emb), np.zeros_like(w))

    def combined(emb, w, labels, target):
        value, g_emb, g_w = eaf(emb, w, labels)
        return (*losses.student_loss((value, g_emb),
                                     losses.kd_mse(target, emb, 10.0), 10.0), g_w)

    def kd_only(emb, w, labels, target):
        return (*losses.student_loss(None, losses.kd_mse(target, emb, 10.0), 10.0),
                np.zeros_like(w))

    combos = {
        "eaf": {"combine": eaf, "combine_np": lambda e, k, *_: e},
        "kd": {"combine": kd, "combine_np": lambda e, k, *_: k},
        "combined": {"combine": combined,
                     "combine_np": lambda e, k, *_: e + 10.0 * k},
        "kd_only": {"combine": kd_only, "combine_np": lambda e, k, *_: 10.0 * k},
    }
    for builder in combos.values():
        for _ in range(100):
            _check_loss_instance(rng, builder)
            count += 1

    # combined objective at the production lambda: gradient must equal
    # grad(eaf) + 10000*grad(kd) exactly (within 1e-10)
    for _ in range(100):
        raw0 = rng.normal(size=(3, 4))
        w0 = rng.normal(size=(5, 4))
        labels = rng.integers(0, 5, size=3)
        target = rng.normal(size=(3, 4))
        target /= np.linalg.norm(target, axis=1, keepdims=True)

        def run(which):
            def objective(emb):
                if which == "kd":
                    return losses.kd_mse(target, emb)
                value, g_emb, _ = eaf(emb, w0, labels)
                if which == "eaf":
                    return value, g_emb
                return losses.student_loss(
                    (value, g_emb), losses.kd_mse(target, emb, 10000.0), 10000.0)
            return through_unit_rows(raw0.copy(), objective)[1]

        assert np.all(np.abs(run("combined") - (run("eaf") + 10000.0 * run("kd")))
                      < 1e-10)
        count += 1

    # model blocks: backbone and the three adaptor kinds (fixed dropout
    # seed); inputs are redrawn until every pre-activation sits clear of
    # the leaky-relu kink, where finite differences are undefined
    def clear_of_kink(draw_x, w, b, margin=1e-3):
        for _ in range(100):
            x = draw_x()
            if np.abs(x @ w + b).min() > margin:
                return x
        raise AssertionError("could not draw an input away from the kink")

    cfg = models.BackboneConfig(input_dim=4, hidden=(5,), embedding_dim=3)
    for _ in range(100):
        t = models.new_teacher(cfg, np.arange(2), data.GroupTag(0, "g0"),
                               int(rng.integers(1 << 31)))
        x = clear_of_kink(lambda: rng.normal(size=(3, 4)),
                          t.params["backbone.0.W"], t.params["backbone.0.b"])
        proj = rng.normal(size=(3, 3))
        names = sorted(n for n in t.params if n.startswith("backbone"))
        arrays = [t.params[n] for n in names]

        def f(*arrs):
            p = dict(zip(names, arrs))
            h = x @ p["backbone.0.W"] + p["backbone.0.b"]
            h = np.where(h >= 0, h, 0.01 * h)
            h = h @ p["backbone.1.W"] + p["backbone.1.b"]
            h /= np.linalg.norm(h, axis=1, keepdims=True)
            return float(np.sum(h * proj))

        _, saved = ad.forward(t.params, "backbone", cfg.slope, x, train=True)
        grads = ad.backward(t.params, "backbone", saved, proj.copy())
        numeric = numeric_grad(f, [a.copy() for a in arrays])
        for name, n in zip(names, numeric):
            assert_grads_close(grads[name], n)
        count += 1

    for kind in models.ADAPTOR_KINDS:
        for _ in range(100):
            a = models.new_adaptor(kind, 2, 3, int(rng.integers(1 << 31)))
            fused = clear_of_kink(lambda: rng.normal(size=(3, 6)),
                                  a.params["adaptor.0.W"],
                                  a.params["adaptor.0.b"])
            proj = rng.normal(size=(3, 3))
            while True:
                drop_seed = int(rng.integers(1 << 31))
                mask = np.random.default_rng(drop_seed).random((3, 3)) >= 0.2
                if mask.any(axis=1).all():
                    break  # a fully dropped row would zero the embedding
            names = sorted(a.params)
            arrays = [a.params[n] for n in names]

            def f(*arrs):
                p = dict(zip(names, arrs))
                h = fused @ p["adaptor.0.W"] + p["adaptor.0.b"]
                if kind == "DLDPO":
                    keep = (np.random.default_rng(drop_seed).random(h.shape)
                            >= 0.2) / 0.8
                    h = h * keep
                if kind in ("DuL", "DLDPO"):
                    h = np.where(h >= 0, h, 0.01 * h)
                    h = h @ p["adaptor.1.W"] + p["adaptor.1.b"]
                h = h / np.linalg.norm(h, axis=1, keepdims=True)
                return float(np.sum(h * proj))

            _, saved = ad.forward(a.params, "adaptor", a.slope, fused, train=True,
                                  dropout_p=a.dropout_p if kind == "DLDPO" else 0.0,
                                  rng=np.random.default_rng(drop_seed))
            grads = ad.backward(a.params, "adaptor", saved, proj.copy())
            numeric = numeric_grad(f, [arr.copy() for arr in arrays])
            for name, n in zip(names, numeric):
                assert_grads_close(grads[name], n)
            count += 1

    elapsed = time.perf_counter() - t0
    _report(2, elapsed < 60.0,
            f"{count} random instances across 5 objectives and 4 model "
            f"blocks, rel err < 1e-4, {elapsed:.1f} s")


# --------------------------------------------------------------------------
# criterion 3: closed-form loss reductions


def test_criterion_3_loss_reductions():
    rng = np.random.default_rng(3)
    worst_eaf = 0.0
    for _ in range(1000):
        b, d, c = rng.integers(2, 6), rng.integers(2, 8), rng.integers(2, 9)
        while True:
            emb = rng.normal(size=(b, d))
            emb /= np.linalg.norm(emb, axis=1, keepdims=True)
            w = rng.normal(size=(c, d))
            wn = w / np.linalg.norm(w, axis=1, keepdims=True)
            if np.abs(emb @ wn.T).max() < 1.0 - 1e-5:
                break  # keep cosines clear of the clamp epsilon
        labels = rng.integers(0, c, size=b)
        eaf, _, _ = losses.elastic_arcface(emb, w, labels,
                                           EafConfig(m=0.0, sigma=0.0))
        tape = oracle.Tape()
        plain = oracle.softmax_ce(oracle.scale(tape.param(emb @ wn.T), 64.0), labels)
        worst_eaf = max(worst_eaf, abs(eaf - float(plain.values)))
    assert worst_eaf < 1e-12

    worst_kd = 0.0
    for _ in range(50):
        b, d = rng.integers(1, 6), rng.integers(1, 16)
        t = rng.normal(size=(b, d))
        s = rng.normal(size=(b, d))
        got, _ = losses.kd_mse(t, s)
        naive = 0.0
        for i in range(b):
            row = 0.0
            for j in range(d):
                row += (t[i, j] - s[i, j]) ** 2
            naive += row / d
        worst_kd = max(worst_kd, abs(got - naive / b))
    assert worst_kd < 1e-12
    _report(3, True, f"margin-free reduction max diff {worst_eaf:.2e}, "
                     f"mimicry MSE vs double loop max diff {worst_kd:.2e}")


# --------------------------------------------------------------------------
# criterion 4: threshold sweep equals brute force


def test_criterion_4_threshold_sweep_oracle():
    rng = np.random.default_rng(4)
    sizes = list(rng.integers(2, 1000, size=97)) + [10_000, 10_000, 10_000]
    checked = 0
    for n in sizes:
        genuine = rng.random(n) < rng.uniform(0.2, 0.8)
        if genuine.all() or not genuine.any():
            genuine[0] = True
            genuine[-1] = False
        scores = np.where(genuine, rng.normal(0.3, 0.35, n),
                          rng.normal(0.0, 0.35, n))
        if rng.random() < 0.25:
            scores = np.round(scores, 1)  # heavy ties
        acc, _ = ev_best(scores, genuine)
        assert acc == pytest.approx(brute_force_best_accuracy(scores, genuine),
                                    abs=1e-12)
        checked += 1
    _report(4, checked == 100,
            f"{checked} random instances up to 10^4 pairs match brute force")


def ev_best(scores, genuine):
    from mstkd.evaluation import best_threshold_accuracy
    return best_threshold_accuracy(scores, genuine)


# --------------------------------------------------------------------------
# criterion 5: teacher specialization across seeds


def test_criterion_5_teacher_specialization(sweep):
    passing = 0
    details = []
    for seed in SEEDS:
        out, cfg = sweep["runs"][("specialized", seed)]
        pool, pairs = _load_test_pool(out, cfg)
        accs = np.zeros((4, 4))
        for g in range(4):
            teacher = models.load_teacher(out / "teachers" / f"teacher_{g}.ckpt")
            emb = teacher.embed(pool.values)
            for h in range(4):
                accs[g, h], _ = verification_accuracy(emb, pairs.of_group(h))
        own = np.diag(accs)
        diagonal = all(accs[g, g] >= accs[g].max() - 1e-9 for g in range(4))
        ok = diagonal and bool(np.all(own >= 85.0))
        passing += ok
        details.append(f"seed {seed}: own {np.round(own, 1).tolist()}"
                       f"{'' if ok else ' (miss)'}")
        train_time = sweep["stage_seconds"][("specialized", seed, "teachers")]
        assert train_time < 300.0, f"4-teacher training took {train_time:.0f}s"
    _report(5, passing >= 4,
            f"{passing}/5 seeds show diagonal dominance with own-group "
            f">= 85%; {'; '.join(details)}")


# --------------------------------------------------------------------------
# criterion 6: distillation effectiveness per adaptor kind


def test_criterion_6_distillation_effectiveness(sweep):
    out, cfg = sweep["runs"][("specialized", 0)]
    tags = cfg.dataset.tags()
    val = store.load_sample_set(out / "dataset" / "validation.mste", tags)
    teachers = [models.load_teacher(out / "teachers" / f"teacher_{g}.ckpt")
                for g in range(4)]
    modes, mode_index = len(cfg.student_modes), cfg.student_modes.index("a_kd")
    details = []
    for i, kind in enumerate(cfg.adaptors):
        adaptor = models.load_adaptor(out / "adaptors" / f"{kind}.ckpt")
        e_mt = training.fused_target(adaptor,
                                     training.extract_embeddings(teachers, val))
        student = models.load_student(out / "students" / f"{kind}_a_kd.ckpt")
        init_seed, _ = cfg.model_seeds("student", i * modes + mode_index)
        fresh = models.new_student(cfg.backbone, "a_kd", None, seed=init_seed)
        kd_before = float(np.mean((e_mt - fresh.embed(val.values)) ** 2))
        kd_after = float(np.mean((e_mt - student.embed(val.values)) ** 2))
        assert kd_after <= 0.1 * kd_before, f"{kind}: ratio {kd_after / kd_before:.3f}"
        report = json.loads(
            (out / "reports" / f"{kind}_a_kd.json").read_text())
        min_acc = min(report["per_group_acc"])
        assert min_acc > 60.0, f"{kind}: min group accuracy {min_acc:.1f}"
        details.append(f"{kind}: kd ratio {kd_after / kd_before:.4f}, "
                       f"min acc {min_acc:.1f}")
    # the stage trains every student, so it takes at least as long as any one
    wall = sweep["stage_seconds"][("specialized", 0, "students")]
    assert wall < 300.0, f"student training took {wall:.0f}s"
    _report(6, True, "; ".join(details) + f"; students stage {wall:.1f}s")


# --------------------------------------------------------------------------
# criterion 7: byte-identical re-runs


def test_criterion_7_pipeline_determinism(sweep, tmp_path):
    out_a, cfg_a = sweep["runs"][("specialized", 0)]
    doc = pipeline.config_to_dict(cfg_a)
    doc["out_dir"] = str(tmp_path / "replay")
    cfg_b = pipeline.config_from_dict(doc)
    pipeline.run_all(cfg_b)
    out_b = Path(doc["out_dir"])
    g = cfg_a.dataset.groups
    n_students = len(cfg_a.adaptors) * len(cfg_a.student_modes)
    n_models = g + len(cfg_a.adaptors) + n_students
    expected = (2 * n_models          # checkpoints and their epoch logs
                + g                   # embedding files
                + 5                   # dataset pools + pairs
                + 2 * n_students      # reports (json + txt)
                + 2)                  # config.json, manifest.json
    files_a, files_b = run_files(out_a), run_files(out_b)
    diffs = differing_files(files_a, files_b)
    same = sum(name not in diffs for name in files_a)
    _report(7, len(files_a) == len(files_b) == expected and not diffs,
            f"{same}/{expected} files byte-identical across independent runs"
            + (f"; {len(diffs)} differ: {diffs}" if diffs else ""))


# --------------------------------------------------------------------------
# criterion 8: specialized-vs-balanced comparison harness (soft)


def test_criterion_8_comparison_harness(sweep, tmp_path):
    gate_failures = []
    deltas = []
    for seed in SEEDS:
        out_s, cfg = sweep["runs"][("specialized", seed)]
        out_b, _ = sweep["runs"][("balanced", seed)]
        comp = pipeline.cmd_report(cfg, [str(out_s), str(out_b)],
                                   out_override=str(tmp_path / f"cmp_{seed}"))
        for mode in cfg.student_modes:
            table = (comp / f"students_{mode}.txt").read_text()
            rows = [ln for ln in table.splitlines() if ln.strip()]
            assert len(rows) == 7  # header + 3 adaptors x 2 origins
            doc = json.loads((comp / f"students_{mode}.json").read_text())
            for entry in doc["rows"]:
                rep = entry["report"]
                ser = rep["ser"]
                if ser == "undefined" or ser < 1.0:
                    gate_failures.append((seed, mode, entry["label"], ser))
                if abs(rep["global_acc"] - np.mean(rep["per_group_acc"])) > 1e-9:
                    gate_failures.append((seed, mode, entry["label"], "mean"))
            for kind, delta in doc["ours_minus_baseline"].items():
                deltas.append(delta["global_acc"])
    direction = np.mean(deltas)
    print(f"[criterion 8] informational: mean specialized-minus-balanced "
          f"global accuracy delta over {len(deltas)} comparisons: "
          f"{direction:+.2f} points (not asserted)")
    _report(8, not gate_failures,
            f"both pipelines completed for {len(SEEDS)} seeds; all reports "
            f"have SER >= 1 and global = mean(acc)"
            + (f"; failures: {gate_failures}" if gate_failures else ""))


# --------------------------------------------------------------------------
# criterion 9: frozen teachers and adaptor during student training


def test_criterion_9_frozen_network_guarantee(sweep):
    out, cfg = sweep["runs"][("specialized", 0)]
    tags = cfg.dataset.tags()
    train = store.load_sample_set(out / "dataset" / "train.mste", tags)
    teachers = [models.load_teacher(out / "teachers" / f"teacher_{g}.ckpt")
                for g in range(4)]
    adaptor = models.load_adaptor(out / "adaptors" / "SL.ckpt")
    before = [{n: p.tobytes() for n, p in t.params.items()} for t in teachers]
    before_a = {n: p.tobytes() for n, p in adaptor.params.items()}
    optim = cfg.optim("student", 7)
    for mode in ("eaf_kd", "a_kd"):
        training.train_student(mode, adaptor,
                               training.extract_embeddings(teachers, train), train,
                               cfg.lam, cfg.eaf, cfg.backbone, optim, init_seed=8)
        for t, snap in zip(teachers, before):
            for n in snap:
                assert t.params[n].tobytes() == snap[n]
        for n in before_a:
            assert adaptor.params[n].tobytes() == before_a[n]
    _report(9, True, "teacher and adaptor parameter bytes unchanged by "
                     "EAF-KD and a-KD training (loaded parameters are "
                     "read-only, so a write would raise at once)")


# --------------------------------------------------------------------------
# criterion 10: fusion fidelity (informational)


def test_criterion_10_fusion_fidelity(sweep):
    """The test global accuracy of three embeddings, for each run and
    adaptor kind: the teachers' test embeddings concatenated in fusion
    order and unit-normed, the trained adaptor's output on that
    concatenation (its students' target), and the output of the same
    adaptor at its initialization. Inference only; nothing is asserted
    while the adaptor's training loses what the teachers know."""
    accs = {}   # (split, embedding) -> test global accuracies
    for (split, _), (out, cfg) in sweep["runs"].items():
        pool, pairs = _load_test_pool(out, cfg)
        teachers = [models.load_teacher(out / "teachers" / f"teacher_{g}.ckpt")
                    for g in cfg.fusion_order or range(cfg.dataset.groups)]
        fused = models.fuse_inputs(training.extract_embeddings(teachers, pool))
        embeddings = {"teachers": [fused / np.linalg.norm(fused, axis=1, keepdims=True)],
                      "trained": [], "init": []}
        for i, kind in enumerate(cfg.adaptors):
            trained = models.load_adaptor(out / "adaptors" / f"{kind}.ckpt")
            init = models.new_adaptor(kind, len(teachers), trained.emb_dim,
                                      cfg.model_seeds("adaptor", i)[0])
            embeddings["trained"].append(models.adaptor_forward(trained, fused))
            embeddings["init"].append(models.adaptor_forward(init, fused))
        for name, embs in embeddings.items():
            accs.setdefault((split, name), []).extend(
                evaluate_embeddings(e, pool, pairs).global_acc for e in embs)
    for split in ("specialized", "balanced"):
        mean = {name: np.mean(accs[(split, name)]) for name in embeddings}
        print(f"[criterion 10] informational: {split}: mean test global accuracy "
              f"of the teachers concatenated {mean['teachers']:.1f}, of the "
              f"trained adaptors {mean['trained']:.1f}, of the adaptors at init "
              f"{mean['init']:.1f} (not asserted)")
