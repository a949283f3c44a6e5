"""Verification scoring and fairness metrics.

Pairs are scored by the cosine similarity of their unit-norm embeddings
(a dot product). Accuracy is taken at the best similarity threshold for
that group's pairs, found by sweeping every midpoint between adjacent
sorted scores plus the two all-genuine/all-impostor sentinels; a pair is
called genuine when its score is >= the threshold. Fairness is summarized
by the sample standard deviation of per-group accuracies and the skewed
error ratio (worst group error over best group error).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import store
from .data import PairList, SampleSet
from .errors import ContractError, FormatError

PROTOCOL = "per-group best cosine threshold"


@dataclass
class FairnessReport:
    group_names: list[str]
    per_group_acc: list[float]      # percent, full precision
    thresholds: list[float]
    global_acc: float
    std: float
    ser: float | None               # None marks max(acc) = 100 (undefined)
    protocol: str = PROTOCOL


def best_threshold_accuracy(scores: np.ndarray,
                            genuine: np.ndarray) -> tuple[float, float]:
    """Best achievable accuracy over all similarity thresholds.

    Returns (accuracy in [0, 1], threshold); a score >= threshold predicts
    genuine. Candidate thresholds are one sentinel below the lowest score,
    the midpoints between adjacent distinct sorted scores, and one sentinel
    above the highest score. Ties resolve to the lowest threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    genuine = np.asarray(genuine, dtype=bool)
    n = scores.size
    if n == 0:
        raise ContractError("empty pair list")
    if genuine.all() or not genuine.any():
        raise ContractError("pair list needs both genuine and impostor pairs")
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    y = genuine[order]
    total_genuine = int(y.sum())
    # cut i predicts rows [i:] genuine; correct = impostors below + genuine above
    cum_gen = np.concatenate([[0], np.cumsum(y)])
    cuts = np.arange(n + 1)
    correct = (cuts - cum_gen) + (total_genuine - cum_gen)
    # cuts inside a run of equal scores are unrealizable by any threshold
    valid = np.ones(n + 1, dtype=bool)
    valid[1:n] = s[1:] > s[:-1]
    correct = np.where(valid, correct, -1)
    best = int(np.argmax(correct))  # argmax takes the first (lowest threshold)
    if best == 0:
        threshold = float(s[0] - 1.0)
    elif best == n:
        threshold = float(s[-1] + 1.0)
    else:
        threshold = float((s[best - 1] + s[best]) / 2.0)
    return float(correct[best]) / n, threshold


def pair_scores(embeddings: np.ndarray, pairs: PairList) -> np.ndarray:
    """Cosine similarity per pair (dot product of unit rows)."""
    if pairs.n and (pairs.a.max() >= len(embeddings) or pairs.b.max() >= len(embeddings)
                    or pairs.a.min() < 0 or pairs.b.min() < 0):
        raise ContractError("pair references a row outside the embedding matrix")
    return np.sum(embeddings[pairs.a] * embeddings[pairs.b], axis=1)


def verification_accuracy(embeddings: np.ndarray,
                          pairs: PairList) -> tuple[float, float]:
    """Accuracy percent and chosen threshold for one group's pair list."""
    acc, threshold = best_threshold_accuracy(pair_scores(embeddings, pairs),
                                             pairs.genuine)
    return 100.0 * acc, threshold


def fairness_metrics(acc) -> tuple[float, float, float | None]:
    """(global mean, sample standard deviation, skewed error ratio).

    SER = (100 - min(acc)) / (100 - max(acc)); None when a group reaches
    exactly 100 (the ratio is undefined there).
    """
    acc = np.asarray(acc, dtype=np.float64)
    if acc.size < 2:
        raise ContractError("fairness metrics need at least 2 groups")
    if np.any(acc < 0.0) or np.any(acc > 100.0):
        raise ContractError("accuracies must lie in [0, 100]")
    global_acc = float(acc.mean())
    std = float(acc.std(ddof=1))
    ser = (None if acc.max() == 100.0
           else float((100.0 - acc.min()) / (100.0 - acc.max())))
    return global_acc, std, ser


def evaluate_embeddings(embeddings: np.ndarray, pool: SampleSet,
                        pairs: PairList) -> FairnessReport:
    accs, thresholds = [], []
    for g in range(len(pool.group_tags)):
        acc, thr = verification_accuracy(embeddings, pairs.of_group(g))
        accs.append(acc)
        thresholds.append(thr)
    global_acc, std, ser = fairness_metrics(accs)
    return FairnessReport([t.name for t in pool.group_tags], accs, thresholds,
                          global_acc, std, ser)


# --- report output ----------------------------------------------------------

def _fmt(x: float | None) -> str:
    return "undef" if x is None else f"{x:.2f}"


def render_table(rows: list[tuple[str, FairnessReport]],
                 blocks: list[int] | None = None) -> str:
    """Aligned text table; best value per column is starred within each block.

    `blocks` gives the number of consecutive rows per block (default: one
    block spanning everything). Higher is better for accuracies, lower for
    STD and SER.
    """
    if not rows:
        raise ContractError("nothing to render")
    names = rows[0][1].group_names
    for _, r in rows[1:]:
        if r.group_names != names:
            raise ContractError("reports cover different group structures")
    header = ["", *names, "Global Acc", "STD", "SER"]
    cells = [[label, *map(_fmt, [*r.per_group_acc, r.global_acc, r.std, r.ser])]
             for label, r in rows]
    start = 0
    for size in blocks or [len(rows)]:
        # each row's metrics in column order, signed so that higher is better
        # (an undefined SER is the worst)
        signed = [[*r.per_group_acc, r.global_acc, -r.std,
                   -np.inf if r.ser is None else -r.ser]
                  for _, r in rows[start:start + size]]
        for col, best in enumerate(np.max(signed, axis=0) if len(signed) > 1 else (), 1):
            for i, row in enumerate(signed):
                if row[col - 1] == best:
                    cells[start + i][col] = "*" + cells[start + i][col]
        start += size
    widths = [max(len(r[c]) for r in [header, *cells]) for c in range(len(header))]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def compare_reports(a: FairnessReport, b: FairnessReport) -> dict:
    """Per-metric deltas, a minus b."""
    if a.group_names != b.group_names:
        raise ContractError("reports cover different group structures")
    return {
        "per_group_acc": [x - y for x, y in zip(a.per_group_acc, b.per_group_acc)],
        "global_acc": a.global_acc - b.global_acc,
        "std": a.std - b.std,
        "ser": (None if a.ser is None or b.ser is None else a.ser - b.ser),
    }


def report_to_json(report: FairnessReport) -> str:
    doc = {"groups": report.group_names,
           "per_group_acc": report.per_group_acc,
           "thresholds": report.thresholds,
           "global_acc": report.global_acc,
           "std": report.std,
           "ser": "undefined" if report.ser is None else report.ser,
           "protocol": report.protocol}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_REPORT = {"groups": store.list_of(store.is_str),
           "per_group_acc": store.list_of(store.is_number),
           "thresholds": store.list_of(store.is_number),
           "global_acc": store.is_number, "std": store.is_number,
           "ser": lambda v: v == "undefined" or store.is_number(v),
           "protocol": store.is_str}


def report_from_json(text: str) -> FairnessReport:
    """The report `report_to_json` wrote; FormatError when a field fails
    its rule in `_REPORT` (the message names it), the report has fewer than
    2 groups or not one accuracy and one threshold per group, an accuracy
    lies outside [0, 100], or its `global_acc`, `std` and `ser` are not
    what `fairness_metrics` gives for its `per_group_acc`."""
    doc = store.checked(json.loads(text), _REPORT, "report")
    if not len(doc["per_group_acc"]) == len(doc["thresholds"]) == len(doc["groups"]) > 1:
        raise FormatError("a report needs 2 or more groups, each with one accuracy "
                          "and one threshold")
    if not all(0 <= acc <= 100 for acc in doc["per_group_acc"]):
        raise FormatError("accuracies must lie in [0, 100]")
    ser = None if doc["ser"] == "undefined" else doc["ser"]
    summary = [doc["global_acc"], doc["std"], ser]
    if summary != list(fairness_metrics(doc["per_group_acc"])):
        raise FormatError("global_acc, std and ser are not those of per_group_acc")
    return FairnessReport(doc["groups"], doc["per_group_acc"], doc["thresholds"],
                          doc["global_acc"], doc["std"], ser, doc["protocol"])
