import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstkd import data as d
from mstkd import evaluation as ev
from mstkd.errors import ContractError

from reference_rows import ALL_TABLES


def brute_force_best_accuracy(scores, genuine):
    """Independent oracle: try a threshold at every distinct score plus
    sentinels on both sides, counting correct decisions directly."""
    scores = np.asarray(scores)
    candidates = np.concatenate([[scores.min() - 1.0], np.unique(scores),
                                 [scores.max() + 1.0]])
    best = 0.0
    for t in candidates:
        correct = np.mean((scores >= t) == genuine)
        best = max(best, correct)
    return best


def test_separable_pairs_perfect_accuracy():
    scores = np.array([0.9, 0.8, 0.3, 0.4])
    genuine = np.array([True, True, False, False])
    acc, thr = ev.best_threshold_accuracy(scores, genuine)
    assert acc == 1.0
    assert 0.4 < thr < 0.8


def test_indistinguishable_pairs():
    acc, _ = ev.best_threshold_accuracy(np.array([0.5, 0.5]),
                                        np.array([True, False]))
    assert acc == 0.5


def test_single_class_pair_list_rejected():
    with pytest.raises(ContractError, match="needs both genuine and impostor pairs"):
        ev.best_threshold_accuracy(np.array([0.1, 0.2]), np.array([True, True]))
    with pytest.raises(ContractError, match="empty pair list"):
        ev.best_threshold_accuracy(np.array([]), np.array([], dtype=bool))


def test_sweep_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 400))
        genuine = rng.random(n) < rng.uniform(0.2, 0.8)
        if genuine.all() or not genuine.any():
            continue
        scores = np.where(genuine, rng.normal(0.3, 0.4, n), rng.normal(0.0, 0.4, n))
        if rng.random() < 0.3:
            scores = np.round(scores, 1)  # force many tied scores
        acc, _ = ev.best_threshold_accuracy(scores, genuine)
        assert acc == pytest.approx(brute_force_best_accuracy(scores, genuine),
                                    abs=1e-12)


def test_sweep_matches_brute_force_large_instance():
    rng = np.random.default_rng(1)
    n = 10_000
    genuine = rng.random(n) < 0.5
    genuine[:2] = [True, False]
    scores = np.where(genuine, rng.normal(0.4, 0.3, n), rng.normal(0.0, 0.3, n))
    acc, _ = ev.best_threshold_accuracy(scores, genuine)
    assert acc == pytest.approx(brute_force_best_accuracy(scores, genuine),
                                abs=1e-12)


@given(st.integers(0, 2**31 - 1), st.floats(-5.0, 5.0))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_score_shift_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 80))
    genuine = np.zeros(n, dtype=bool)
    genuine[: n // 2] = True
    scores = rng.normal(size=n) + genuine * 0.5
    acc1, thr1 = ev.best_threshold_accuracy(scores, genuine)
    acc2, thr2 = ev.best_threshold_accuracy(scores + shift, genuine)
    assert acc1 == pytest.approx(acc2, abs=1e-12)
    assert thr2 == pytest.approx(thr1 + shift, abs=1e-9)


def test_pair_scores_index_bounds():
    emb = np.eye(3)
    pairs = d.PairList(np.array([0]), np.array([5]), np.array([True]),
                       np.array([0]))
    with pytest.raises(ContractError):
        ev.pair_scores(emb, pairs)


def test_fairness_metrics_reference_row():
    g, s, r = ev.fairness_metrics((89.82, 78.32, 86.87, 86.00))
    assert g == pytest.approx(85.25, abs=0.005)
    assert s == pytest.approx(4.90, abs=0.005)
    assert r == pytest.approx(2.13, abs=0.005)
    # the population-std convention would give ~4.25 here, not 4.90
    assert np.std((89.82, 78.32, 86.87, 86.00)) == pytest.approx(4.25, abs=0.01)


def test_fairness_metrics_all_reference_tables():
    for rows in ALL_TABLES.values():
        for _, acc, pub_g, pub_s, pub_r in rows:
            g, s, r = ev.fairness_metrics(acc)
            assert g == pytest.approx(pub_g, abs=0.01)
            assert s == pytest.approx(pub_s, abs=0.01)
            assert r == pytest.approx(pub_r, abs=0.01)


def test_fairness_metrics_symmetric_case():
    g, s, r = ev.fairness_metrics((90.0, 90.0, 90.0, 90.0))
    assert (g, s, r) == (90.0, 0.0, 1.0)


def test_fairness_metrics_global_is_exact_mean():
    g, _, _ = ev.fairness_metrics((88.60, 90.67, 92.98, 91.58))
    assert g == pytest.approx(90.96, abs=0.005)


@given(st.lists(st.floats(0.0, 99.9), min_size=2, max_size=8),
       st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_fairness_metrics_permutation_invariant(acc, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(acc))
    a = ev.fairness_metrics(acc)
    b = ev.fairness_metrics([acc[i] for i in perm])
    assert a == pytest.approx(b)


@given(st.lists(st.floats(0.0, 99.99), min_size=2, max_size=8))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_ser_at_least_one(acc):
    _, _, ser = ev.fairness_metrics(acc)
    assert ser >= 1.0
    if min(acc) == max(acc):
        assert ser == 1.0


def test_ser_undefined_at_perfect_accuracy():
    _, _, ser = ev.fairness_metrics((100.0, 95.0, 96.0, 97.0))
    assert ser is None
    report = ev.FairnessReport(["a", "b", "c", "d"], [100.0, 95.0, 96.0, 97.0],
                               [0.0] * 4, 97.0, 2.16, None)
    assert '"undefined"' in ev.report_to_json(report)


def test_evaluate_embeddings_random_model_near_chance():
    spec = d.SyntheticDatasetSpec(groups=4, identities_per_group=8,
                                  samples_per_identity=10, input_dim=32,
                                  shared_dim=8, group_dim=4,
                                  intra_class_noise=(0.05,) * 4, seed=5)
    pool, _, _ = d.generate(spec)
    pairs = d.build_pairs(pool, 400, 0.5, seed=6)
    rng = np.random.default_rng(7)
    emb = rng.normal(size=(pool.n, 16))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    report = ev.evaluate_embeddings(emb, pool, pairs)
    for acc in report.per_group_acc:
        assert abs(acc - 50.0) < 5.0
    assert report.ser is not None and report.ser < 1.3
    assert report.global_acc == pytest.approx(np.mean(report.per_group_acc))
    assert report.group_names == [t.name for t in pool.group_tags]


def test_evaluate_is_reproducible():
    spec = d.SyntheticDatasetSpec(groups=2, identities_per_group=6,
                                  samples_per_identity=8, input_dim=16,
                                  shared_dim=4, group_dim=2,
                                  intra_class_noise=(0.05, 0.05), seed=8)
    pool, _, _ = d.generate(spec)
    pairs = d.build_pairs(pool, 60, 0.5, seed=9)
    emb = pool.values / np.linalg.norm(pool.values, axis=1, keepdims=True)
    r1 = ev.evaluate_embeddings(emb, pool, pairs)
    r2 = ev.evaluate_embeddings(emb, pool, pairs)
    assert ev.report_to_json(r1) == ev.report_to_json(r2)


def test_compare_reports_deltas():
    ours = ev.FairnessReport(["a", "b", "c", "d"], [92.12, 93.07, 95.33, 93.93],
                             [0.0] * 4, *ev.fairness_metrics(
                                 (92.12, 93.07, 95.33, 93.93)))
    base = ev.FairnessReport(["a", "b", "c", "d"], [91.43, 92.68, 95.10, 93.53],
                             [0.0] * 4, *ev.fairness_metrics(
                                 (91.43, 92.68, 95.10, 93.53)))
    deltas = ev.compare_reports(ours, base)
    assert deltas["global_acc"] == pytest.approx(0.42, abs=0.01)
    assert deltas["std"] == pytest.approx(1.36 - 1.54, abs=0.01)
    same = ev.compare_reports(ours, ours)
    assert same["global_acc"] == 0.0
    assert all(x == 0.0 for x in same["per_group_acc"])


def test_compare_reports_group_mismatch():
    a = ev.FairnessReport(["a", "b"], [90.0, 91.0], [0, 0], 90.5, 0.7, 1.1)
    b = ev.FairnessReport(["x", "y"], [90.0, 91.0], [0, 0], 90.5, 0.7, 1.1)
    with pytest.raises(ContractError):
        ev.compare_reports(a, b)


def test_render_table_marks_best_per_block():
    r1 = ev.FairnessReport(["a", "b"], [90.0, 92.0], [0, 0],
                           *ev.fairness_metrics((90.0, 92.0)))
    r2 = ev.FairnessReport(["a", "b"], [91.0, 91.5], [0, 0],
                           *ev.fairness_metrics((91.0, 91.5)))
    text = ev.render_table([("row1", r1), ("row2", r2)], blocks=[2])
    lines = text.splitlines()
    assert len(lines) == 3
    assert "*91.00" in lines[2]  # row2 wins column a
    assert "*92.00" in lines[1]  # row1 wins column b
    roundtrip = ev.report_from_json(ev.report_to_json(r1))
    assert roundtrip.per_group_acc == r1.per_group_acc
